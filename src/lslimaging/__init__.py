"""Direct imaging of 1D potentials from boundary spectral data.

The pipeline: measure the transfer function and its derivative at sample
points chosen between the background resonances, build a reduced-order
model of the boundary data through the Loewner divided differences and a
generalized Lanczos factorization, estimate the internal wavefields by
swapping in the orthogonalized background snapshots, and solve the
resulting linear integral equation for the potential with a truncated-SVD
least-squares solve. A Born linearization is included as the baseline.

The public names load lazily (PEP 562): `import lslimaging` loads no
submodule and no numpy, and a name's submodule loads on its first use.
"""
import importlib as _importlib

# submodule: the public names it defines
_EXPORTS = {
    "errors": (
        "DegenerateMassError", "DegenerateSourceError", "DegenerateSystemError", "DimensionMismatchError",
        "ExperimentError", "ImagingError", "ResonanceProximityError", "RomResonanceError",
        "SampleAlignmentError",
    ),
    "grid": ("Grid",),
    "potentials": (
        "GaussianPotential", "Potential", "StepPotential", "TabulatedPotential", "ZeroPotential",
        "constant_potential",
    ),
    "forward": (
        "RESONANCE_RTOL", "Snapshot", "SnapshotMatrix", "TridiagonalOperator", "assemble_operator",
        "compute_snapshot_matrix", "operator_eigenvalues", "resolvent_apply", "solve_forward",
    ),
    "transfer": ("DataSet", "SpectralSample", "generate_dataset", "load_dataset", "measure_dataset", "save_dataset"),
    "sampling": ("SamplingPlan", "approximate_resonances", "weyl_sample"),
    "rom": (
        "DEFAULT_TRUNCATION_TOL", "LanczosFactors", "LoewnerPencil", "build_loewner", "lanczos", "lsl_fields",
        "lsl_internal",
    ),
    "imaging": (
        "DEFAULT_GRID_NODES", "DEFAULT_REL_THRESHOLD", "METHODS", "ImagingSystem", "ReconstructionResult",
        "assemble_system", "background_rom", "reconstruct", "relative_l2_error", "solve_regularized",
    ),
    "experiment": (
        "ExperimentConfig", "PRESETS", "load_config", "preset_config", "preset_potential", "read_summary",
        "run_experiment", "write_table",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, or one of the submodules above, loaded on first use and kept."""
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
