"""Direct imaging of 1D potentials from boundary spectral data.

The pipeline: measure the transfer function and its derivative at sample
points chosen between the background resonances, build a reduced-order
model of the boundary data through the Loewner divided differences and a
generalized Lanczos factorization, estimate the internal wavefields by
swapping in the orthogonalized background snapshots, and solve the
resulting linear integral equation for the potential with a truncated-SVD
least-squares solve. A Born linearization is included as the baseline.
"""

from .errors import (
    DegenerateMassError,
    DegenerateSourceError,
    DegenerateSystemError,
    DimensionMismatchError,
    ExperimentError,
    ImagingError,
    ResonanceProximityError,
    RomResonanceError,
    SampleAlignmentError,
)
from .grid import Grid
from .potentials import (
    GaussianPotential,
    Potential,
    StepPotential,
    TabulatedPotential,
    ZeroPotential,
    constant_potential,
)
from .forward import (
    RESONANCE_RTOL,
    Snapshot,
    SnapshotMatrix,
    TridiagonalOperator,
    assemble_operator,
    compute_snapshot_matrix,
    operator_eigenvalues,
    resolvent_apply,
    solve_forward,
)
from .transfer import (
    DataSet,
    SpectralSample,
    generate_dataset,
    load_dataset,
    measure_dataset,
    save_dataset,
)
from .sampling import SamplingPlan, approximate_resonances, weyl_sample
from .rom import (
    DEFAULT_TRUNCATION_TOL,
    LanczosFactors,
    LoewnerPencil,
    build_loewner,
    lanczos,
    lsl_fields,
    lsl_internal,
)
from .imaging import (
    DEFAULT_GRID_NODES,
    DEFAULT_REL_THRESHOLD,
    METHODS,
    ImagingSystem,
    ReconstructionResult,
    assemble_system,
    background_rom,
    reconstruct,
    relative_l2_error,
    solve_regularized,
)
from .experiment import (
    ExperimentConfig,
    PRESETS,
    load_config,
    preset_config,
    preset_potential,
    read_summary,
    run_experiment,
    write_table,
)

__version__ = "0.1.0"
