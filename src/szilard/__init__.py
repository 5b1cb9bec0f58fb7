"""Single-molecule engine toolkit.

Spectra of a particle in a box with and without a central barrier, thermal
states and free-energy ledgers, a two-level measuring apparatus with full
entropy/information bookkeeping, and the complete work-extraction cycle
that ties them together.

The public names below load on first access (PEP 562), so `import szilard`
imports no layer and no numpy; `szilard.run_cycle` imports the engine and
what it needs.  Each access reads the name from its defining module and
nothing is cached here, so `szilard.X is szilard.<module>.X` holds even
while that module's binding is swapped out and back.
"""
from importlib import import_module

_MODULES = {
    "exceptions": ("ConfigError", "EngineError", "NumericsError", "SpectralError", "StateError",
                   "SzilardError", "ThermoError", "TruncationError"),
    "numerics": ("Grid", "TridiagonalSymmetric", "eig_tridiagonal"),
    "params": ("PhysicalParams", "CycleConfig"),
    "spectral": ("SplitPair", "analytic_pairs", "barrier_grid", "barrier_spectrum",
                 "splitting_estimate"),
    "thermo": ("PartitionResult", "StageFreeEnergies", "StageLedger", "isothermal_work",
               "mean_energy", "partition_exact", "partition_highT", "partition_theta",
               "spectral_stage_check", "stage_free_energies", "thermo_entropy"),
    "infodyn": ("DensityMatrix", "partial_trace", "post_insertion_dm", "product_dm",
                "trace_distance"),
    "demon": ("DemonModel", "MeasurementRecord", "ReversalResult", "coupling_unitary",
              "premeasure", "product_of_marginals", "reverse_readoff"),
    "engine": ("CycleReport", "extraction_work", "run_cycle", "sweep"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # an imported submodule is bound here, which is faster than import_module
    return getattr(globals().get(module) or import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
