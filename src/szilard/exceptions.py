"""Exception hierarchy shared by all modules.

Argument validation errors (bad shapes, out-of-range parameters) raise
plain ValueError so they read like stdlib failures.  Everything that can
go wrong *during* a computation derives from SzilardError.
"""


class SzilardError(Exception):
    """Base class for runtime failures raised by this package."""


class NumericsError(SzilardError):
    """A numerical kernel failed: non-convergence, unsatisfiable tolerance."""


class SpectralError(SzilardError):
    """Spectrum construction failed: no barrier, missing pair structure, a pair at the top."""


class ThermoError(SzilardError):
    """Partition function or entropy could not be evaluated."""


class StateError(SzilardError):
    """A density matrix violated its contract (trace, Hermiticity, PSD)."""


class TruncationError(SzilardError):
    """A basis truncation cannot meet the requested weight or size bound."""


class EngineError(SzilardError):
    """Cycle orchestration failed or a ledger invariant broke."""


class ConfigError(SzilardError):
    """Command-line or config-file input could not be interpreted."""
