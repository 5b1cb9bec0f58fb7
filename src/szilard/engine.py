"""Full engine cycle: stage ledger, work extraction, second-law balance.

One cycle walks the gas through free -> inserted -> measured -> expanded ->
free while a two-level apparatus reads off the side, the expansion converts
heat to work, and the apparatus reset charges the environment.  The stage
table is thermo's, in the classical-limit closed forms (Z proportional to
the available width, mean energy k_B T/2).  The optional spectral check
is no cross-check of that bookkeeping: its jump is k_B T ln 2 by
construction, so its deviation bounds only unpaired and above-top weight.

A cycle runs on the standard library: the readoff books its figures from
the model doublets' weights (thermo._doublet_weights) in Python floats, and
its record builds the joint states from the same weights, with numpy, only
when a caller reads one.  Nothing else in a cycle, the spectral check
included, imports numpy.

Sign conventions: W_extracted > 0 is work delivered by the engine;
Q_from_reservoir > 0 is heat absorbed by the gas; S_to_environment > 0 is
entropy exported during reset.  The inserted barrier costs work
k_B T ln(L/(L-d)) which is recovered exactly when it is withdrawn at the
end of the cycle, so neither leg appears in W_extracted.
"""
from __future__ import annotations

import functools
import math
import random
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .demon import DemonModel, MeasurementRecord, _ledger
from .exceptions import EngineError, SpectralError, SzilardError, TruncationError
from .params import SWEEP_AXES, CycleConfig, PhysicalParams, _canon_protocol, configure
from .spectral import analytic_pairs
from .thermo import (StageLedger, _doublet_weights, _stage_ledgers, isothermal_work,
                     spectral_stage_check)

if TYPE_CHECKING:
    from .infodyn import DensityMatrix

__all__ = [
    "CycleConfig",
    "CycleReport",
    "readoff",
    "run_cycle",
    "extraction_work",
    "sweep",
    "SWEEP_AXES",
    "SWEEP_COLUMNS",
]

# largest W - T dS_env a cycle may report and still obey the second law, in units of k_B T
SECOND_LAW_TOL = 1e-9

ADIABATIC_NOTE = (
    "single-shot adiabatic expansion: in the classical limit eps beta -> 0 the "
    "level scaling E ~ width^-2 gives W = (3/8) k_B T for the half-to-full "
    "stroke, not the k_B T/4 sometimes quoted; the gas leaves the stroke cold "
    "and the reservoir restores it."
)


class CycleReport(NamedTuple):
    """Immutable record of one cycle run.

    net_balance = W_extracted minus the reset's free-energy charge can never
    be positive; the isothermal protocol with ideal reset saturates it at 0.
    kT is the reservoir's k_B T, the unit the second-law tolerance is set in.
    Q_from_reservoir, second_law_ok and closure follow from the fields and
    the model, so they are properties rather than stored values.  Like every
    record here it is a NamedTuple: _asdict() names its fields, and to_dict()
    is its JSON form.
    """

    stages: Tuple[StageLedger, ...]
    W_extracted: float
    S_to_environment: float
    record: MeasurementRecord
    net_balance: float
    outcome: str
    seed: int
    kT: float
    note: str = ""
    spectral_jump_dev: Optional[float] = None

    @property
    def Q_from_reservoir(self) -> float:
        """Heat absorbed by the gas; the first law over a closed cycle makes it W_extracted."""
        return self.W_extracted

    @property
    def second_law_ok(self) -> bool:
        """net_balance <= SECOND_LAW_TOL k_B T; run_cycle raises instead of reporting False."""
        return self.net_balance <= SECOND_LAW_TOL * self.kT

    @property
    def closure(self) -> float:
        """Trace distance between the initial and final free-stage gas states.

        Every stroke is quasi-static, so the gas ends in the free-box
        thermal state it started from and the distance is 0 by construction.
        """
        return 0.0

    def to_dict(self) -> dict:
        return {
            "schema": "szilard.cycle-report/1",
            "seed": self.seed,
            "outcome": self.outcome,
            "W_extracted": self.W_extracted,
            "Q_from_reservoir": self.Q_from_reservoir,
            "S_to_environment": self.S_to_environment,
            "net_balance": self.net_balance,
            "second_law_ok": self.second_law_ok,
            "closure": self.closure,
            "note": self.note,
            "spectral_jump_dev": self.spectral_jump_dev,
            "stages": [
                {
                    "stage": s.stage,
                    "Z": s.Z,
                    "A": s.A,
                    "E_int": s.E_int,
                    "S_thermo": s.S_thermo,
                    "T": s.T,
                }
                for s in self.stages
            ],
            "measurement": self.record._asdict(),
        }


def extraction_work(protocol: str, params: PhysicalParams, n_steps: int = 8) -> float:
    """Work delivered by expanding the one-sided gas back to full width; the
    adiabatic forms are the eps beta -> 0 ones (the default T = 1 has eps beta = 4.93).

    isothermal: quasi-static at T, W = k_B T ln 2.
    stepwise-adiabatic: n_steps adiabatic increments of width ratio
      2^(1/n), each followed by a reheat to T; every step starts at the
      equipartition energy k_B T/2 and delivers (k_B T/2)(1 - 2^(-2/n)).
    single-adiabatic: one stroke, no reservoir contact; levels scale as
      width^-2 so the mean energy drops to a quarter and W = 3 k_B T/8.
    """
    protocol = _canon_protocol(protocol)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    kt = params.k_B * params.T
    if protocol == "isothermal":
        half = (params.L - params.d) / 2.0
        return isothermal_work(half, 2.0 * half, params.T, params.k_B)
    if protocol == "single-adiabatic":
        n_steps = 1
    return n_steps * (kt / 2.0) * (1.0 - 2.0 ** (-2.0 / n_steps))


def _pre(c: List[float], s: List[float]) -> DensityMatrix:
    """The readoff's pre state from its doublet weights, built on a first read."""
    from .infodyn import _gas, product_dm

    return product_dm(_gas(c, s), DemonModel().ready)


def readoff(config: CycleConfig) -> MeasurementRecord:
    """Couple the post-insertion gas state (n_side doublets per side) to the
    ready pointer; coherences=False reads off the dephased gas state instead.

    The figures come from the doublet weights in Python floats (demon._ledger);
    the record builds its joint states from the same weights on first read.
    Raises SpectralError when d = 0: with no barrier there is no side to read.
    """
    return _readoff(config)[0]


def _readoff(config: CycleConfig) -> Tuple[MeasurementRecord, List[float], List[float]]:
    """readoff's record, with the doublet populations c_k and coherences s_k it booked."""
    params = config.params
    if params.d <= 0:
        raise SpectralError("the readoff needs a barrier, got d = 0")
    if (crit := config.n_side**2 * (params.eps * params.beta)) < 20.0:
        raise TruncationError(f"truncation too small: n_side^2 * eps * beta = {crit:.3g} < 20")
    try:
        pairs = analytic_pairs(params, config.n_side)
    except SzilardError as exc:
        raise type(exc)(f"inserted stage: {exc}") from exc
    c, s = _doublet_weights(pairs, params.beta, config.coherences)
    return _ledger(c, c, s, functools.partial(_pre, c, s)), c, s


def run_cycle(config: CycleConfig) -> CycleReport:
    """Execute one full cycle and return its ledger.

    The gas-side thermodynamics is quasi-static bookkeeping; the readoff is
    a genuine unitary on the truncated doublet basis, and the reset charge is
    what the second-law balance is checked against.  The outcome is a fair
    coin, random.Random(config.seed).random() < 0.5 for L: the post-insertion
    state puts weight 1/2 on each side, and no number in the report depends
    on the outcome beyond the measured stage's label.
    """
    params = config.params
    kt = params.k_B * params.T
    record = readoff(config)

    outcome = "L" if random.Random(config.seed).random() < 0.5 else "R"

    work = extraction_work(config.protocol, params, config.n_steps)

    # the ready pointer is pure, so the pointer the reset erases carries ds_demon
    s_env = params.k_B * record.ds_demon
    net = work - kt * record.ds_demon

    notes = []
    if config.protocol == "single-adiabatic":
        notes.append(ADIABATIC_NOTE)
    if not config.coherences:
        notes.append("readoff ran on the dephased (coherence-free) gas state")

    jump_dev = None
    if config.spectral_check:
        try:
            chk = spectral_stage_check(params, n_levels=2 * config.n_side)
        except SzilardError as exc:
            raise type(exc)(f"spectral check: {exc}") from exc
        jump_dev = abs(chk.jump_spectral - chk.jump_closed) / (kt * math.log(2.0))
        notes.append(
            f"spectral cross-check: measurement jump deviates {jump_dev:.3e} "
            f"relative from k_B T ln 2 ({chk.pairs_used} doublets)"
        )

    report = CycleReport(
        stages=_stage_ledgers(params, outcome),
        W_extracted=work,
        S_to_environment=s_env,
        record=record,
        net_balance=net,
        outcome=outcome,
        seed=config.seed,
        kT=kt,
        note="; ".join(notes),
        spectral_jump_dev=jump_dev,
    )
    # second_law_ok is False on a NaN balance too, so that raises
    if not report.second_law_ok:
        raise EngineError(f"second-law balance violated: W - T dS_env = {net:.6e} > 0")
    return report


SWEEP_COLUMNS = (
    "axis",
    "value",
    "W_extracted",
    "Q_from_reservoir",
    "S_to_environment",
    "insertion_cost",
    "measurement_jump",
    "net_balance",
    "second_law_ok",
    "outcome",
    "seed",
    "error",
)


def sweep(config: CycleConfig, axis: str, values: Sequence) -> List[dict]:
    """Run one cycle per value of `axis`, collecting summary rows.

    Rows are independent: a failure is recorded in that row's error column
    and the sweep moves on.  Row seeds are config.seed + row index, so a
    fixed master seed reproduces every row bit for bit.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    rows: List[dict] = []
    for i, value in enumerate(values):
        row = dict.fromkeys(SWEEP_COLUMNS)
        row["axis"] = axis
        row["value"] = value
        row["seed"] = config.seed + i
        try:
            cfg = configure(config, {axis: value, "seed": config.seed + i})
            report = run_cycle(cfg)
            free, inserted, measured = report.stages[:3]
            row.update(
                W_extracted=report.W_extracted,
                Q_from_reservoir=report.Q_from_reservoir,
                S_to_environment=report.S_to_environment,
                insertion_cost=inserted.A - free.A,
                measurement_jump=measured.A - inserted.A,
                net_balance=report.net_balance,
                second_law_ok=report.second_law_ok,
                outcome=report.outcome,
            )
        except (SzilardError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows
