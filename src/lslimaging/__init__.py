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
    PoleError,
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
    analytic_background_transfer,
    assemble_operator,
    compute_snapshot_matrix,
    operator_eigenvalues,
    resolvent_apply,
    solve_forward,
    solve_forward_operator,
)
from .transfer import (
    DataSet,
    SpectralSample,
    generate_dataset,
    load_dataset,
    measure_dataset,
    measure_transfer,
    save_dataset,
    transfer_derivative,
)
from .sampling import SamplingPlan, approximate_resonances, weyl_sample
from .rom import (
    DEFAULT_TRUNCATION_TOL,
    LanczosFactors,
    LoewnerPencil,
    background_rom,
    build_loewner,
    galerkin_internal,
    gram_oracle,
    lanczos,
    lsl_internal,
)
from .imaging import (
    DEFAULT_GRID_NODES,
    DEFAULT_REL_THRESHOLD,
    METHODS,
    ImagingSystem,
    ReconstructionResult,
    assemble_system,
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
