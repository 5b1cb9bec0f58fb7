"""Single-molecule engine toolkit.

Spectra of a particle in a box with and without a central barrier, thermal
states and free-energy ledgers, a two-level measuring apparatus with full
entropy/information bookkeeping, and the complete work-extraction cycle
that ties them together.
"""
from .exceptions import (
    ConfigError,
    EngineError,
    NumericsError,
    SpectralError,
    StateError,
    SzilardError,
    ThermoError,
    TruncationError,
)
from .numerics import Grid, TridiagonalSymmetric, eig_tridiagonal, sum_series
from .spectral import (
    PhysicalParams,
    SplitPair,
    analytic_pairs,
    barrier_grid,
    barrier_spectrum,
    splitting_estimate,
)
from .thermo import (
    PartitionResult,
    StageFreeEnergies,
    StageLedger,
    isothermal_work,
    mean_energy,
    partition_exact,
    partition_highT,
    partition_theta,
    spectral_stage_check,
    stage_free_energies,
    thermo_entropy,
)
from .infodyn import (
    BasisLabeling,
    DensityMatrix,
    mutual_information,
    partial_trace,
    post_insertion_dm,
    product_dm,
    trace_distance,
    vn_entropy,
)
from .demon import (
    DemonModel,
    EnvironmentLedger,
    MeasurementRecord,
    ReversalResult,
    coupling_unitary,
    premeasure,
    product_of_marginals,
    reset_demon,
    reverse_readoff,
)
from .engine import (
    CycleConfig,
    CycleReport,
    extraction_work,
    run_cycle,
    sweep,
)

__version__ = "0.1.0"
