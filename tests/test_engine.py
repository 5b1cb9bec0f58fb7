import copy
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szilard.demon import DemonModel, premeasure, product_of_marginals, reverse_readoff
from szilard.engine import (
    ADIABATIC_NOTE,
    SWEEP_COLUMNS,
    CycleConfig,
    extraction_work,
    readoff,
    run_cycle,
    sweep,
)
from szilard import demon, engine, thermo
from szilard.exceptions import EngineError, SpectralError, StateError, TruncationError
from szilard.infodyn import DensityMatrix, partial_trace, post_insertion_dm, product_dm
from szilard.params import MAX_N_SIDE, PROTOCOLS
from szilard.spectral import PhysicalParams, analytic_pairs
from szilard.thermo import mean_energy, stage_free_energies

from oracles import block_spectrum, dense_readoff, entropy

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def default_report():
    return run_cycle(CycleConfig())


class TestCycleConfig:
    def test_protocol_aliases(self):
        assert CycleConfig(protocol="stepwise").protocol == "stepwise-adiabatic"
        assert CycleConfig(protocol="adiabatic").protocol == "single-adiabatic"
        for name in PROTOCOLS:
            assert CycleConfig(protocol=name).protocol == name

    def test_validation(self):
        with pytest.raises(ValueError, match="protocol"):
            CycleConfig(protocol="isochoric")
        with pytest.raises(ValueError, match="n_steps"):
            CycleConfig(n_steps=0)
        with pytest.raises(ValueError, match="seed"):
            CycleConfig(seed=-1)
        with pytest.raises(ValueError, match="grid_points"):
            CycleConfig(grid_points=2)

    def test_basis_gate(self):
        # at T=1 the gate n^2 eps beta >= 20 trips for n_side = 2, in the
        # readoff, before any state is built
        with pytest.raises(TruncationError):
            readoff(CycleConfig(n_side=2))
        readoff(CycleConfig(n_side=3))

    def test_truncation_gate(self):
        # at eps beta = 0.01 the gate passes 45^2 * 0.01 = 20.25 and refuses 44^2 * 0.01 = 19.36
        p = PhysicalParams(T=PhysicalParams().eps / 0.01)
        assert p.eps * p.beta == pytest.approx(0.01, rel=1e-15)
        readoff(CycleConfig(params=p, n_side=45))
        run_cycle(CycleConfig(params=p, n_side=45))
        for call in (readoff, run_cycle):
            with pytest.raises(TruncationError, match=r"n_side\^2 \* eps \* beta = 19.4 < 20"):
                call(CycleConfig(params=p, n_side=44))

    def test_side_count_is_capped(self):
        # checked where the config is made: no weight of this size is taken
        assert CycleConfig(n_side=MAX_N_SIDE).n_side == MAX_N_SIDE
        for n_side in (0, MAX_N_SIDE + 1):
            with pytest.raises(ValueError, match=f"n_side must be in 1..{MAX_N_SIDE}, got {n_side}"):
                CycleConfig(n_side=n_side)

    def test_derived_configs_are_checked(self):
        # _replace builds through the checking constructor, as the sweep and the CLI derive configs
        with pytest.raises(ValueError, match="T must be positive, got -1"):
            CycleConfig()._replace(params=PhysicalParams()._replace(T=-1))
        with pytest.raises(ValueError, match=f"n_side must be in 1..{MAX_N_SIDE}, got 0"):
            CycleConfig()._replace(n_side=0)
        with pytest.raises(ValueError, match="unknown protocol 'isochoric'"):
            CycleConfig()._replace(protocol="isochoric")
        derived = CycleConfig()._replace(protocol="stepwise")
        assert derived.protocol == "stepwise-adiabatic"
        assert derived == CycleConfig(protocol="stepwise-adiabatic")
        assert type(derived) is CycleConfig and type(derived.params) is PhysicalParams


class TestExtractionWork:
    def test_isothermal_is_kt_ln2(self):
        p = PhysicalParams()
        assert extraction_work("isothermal", p) == pytest.approx(LN2, rel=1e-14)
        hot = PhysicalParams(T=2.0)
        assert extraction_work("isothermal", hot) == pytest.approx(2.0 * LN2, rel=1e-14)

    def test_single_adiabatic_stroke(self):
        p = PhysicalParams()
        w = extraction_work("single-adiabatic", p)
        assert w == pytest.approx(0.375, rel=1e-14)
        assert w == extraction_work("stepwise-adiabatic", p, n_steps=1)

    def test_stepwise_values(self):
        p = PhysicalParams()
        assert extraction_work("stepwise", p, n_steps=8) == pytest.approx(
            0.636414338985142, rel=1e-13
        )
        assert extraction_work("stepwise", p, n_steps=2) == pytest.approx(
            0.5, rel=1e-13
        )

    def test_stepwise_matches_per_step_sum(self):
        # oracle: every reheated step delivers (k_B T/2)(1 - 2^(-2/n));
        # summing n of them loses at most n ulps against n times one step
        p = PhysicalParams(T=2.0)
        for n in (1, 3, 16, 100, 1024):
            step = (p.k_B * p.T / 2.0) * (1.0 - 2.0 ** (-2.0 / n))
            total = sum(step for _ in range(n))
            assert extraction_work("stepwise", p, n_steps=n) == pytest.approx(
                total, rel=n * sys.float_info.epsilon
            )

    def test_stepwise_climbs_to_the_isothermal_limit(self):
        p = PhysicalParams()
        ws = [extraction_work("stepwise", p, n_steps=2**k) for k in range(11)]
        assert all(b > a for a, b in zip(ws, ws[1:]))
        assert all(w < LN2 for w in ws)
        assert ws[-1] == pytest.approx(LN2, rel=1e-3)

    def test_reheated_steps_run_at_equipartition_energy(self):
        # in the near-classical regime the quantum mean energy at every
        # intermediate width matches the k_B T/2 the formula assumes
        p = PhysicalParams(T=5e4)
        n = 4
        half = (p.L - p.d) / 2.0
        total = 0.0
        for i in range(n):
            w = half * 2.0 ** (i / n)
            e = mean_energy(p._replace(L=w, d=0.0), p.beta)
            total += e * (1.0 - 2.0 ** (-2.0 / n))
        closed = extraction_work("stepwise", p, n_steps=n)
        assert total == pytest.approx(closed, rel=5e-2)

    def test_rejects_bad_inputs(self):
        p = PhysicalParams()
        with pytest.raises(ValueError):
            extraction_work("free-fall", p)
        with pytest.raises(ValueError):
            extraction_work("stepwise", p, n_steps=0)


class TestRunCycle:
    def test_isothermal_balance(self, default_report):
        r = default_report
        assert r.W_extracted == pytest.approx(LN2, rel=1e-14)
        assert r.Q_from_reservoir == r.W_extracted
        assert r.S_to_environment == pytest.approx(LN2, abs=1e-12)
        assert abs(r.net_balance) < 1e-12
        assert r.second_law_ok

    def test_stage_sequence(self, default_report):
        labels = [s.stage for s in default_report.stages]
        assert labels[0] == "free"
        assert labels[1] == "inserted"
        assert labels[2] in ("measured-L", "measured-R")
        assert labels[3] == "expanded"
        assert labels[4] == "free"

    def test_free_energy_ledger_telescopes(self, default_report):
        p = PhysicalParams()
        kt = p.k_B * p.T
        a = [s.A for s in default_report.stages]
        assert a[1] - a[0] == pytest.approx(kt * math.log(p.L / (p.L - p.d)), rel=1e-12)
        assert a[2] - a[1] == pytest.approx(kt * LN2, rel=1e-12)
        assert a[3] - a[2] == pytest.approx(-kt * LN2, rel=1e-12)
        assert a[4] == pytest.approx(a[0], abs=1e-12)

    def test_cycle_closes(self, default_report):
        assert default_report.closure < 1e-9

    def test_measurement_bookkeeping_attached(self, default_report):
        rec = default_report.record
        assert rec.di_mu == pytest.approx(LN2 + rec.ds_gas, abs=1e-10)
        assert rec.balance_residual < 1e-10

    def test_report_is_deterministic(self):
        cfg = CycleConfig(seed=7)
        assert run_cycle(cfg).to_dict() == run_cycle(cfg).to_dict()

    def test_outcomes_vary_with_seed(self):
        outcomes = {run_cycle(CycleConfig(seed=s)).outcome for s in range(10)}
        assert outcomes == {"L", "R"}

    def test_outcome_is_a_fair_coin(self):
        share = sum(run_cycle(CycleConfig(n_side=11, seed=s)).outcome == "L" for s in range(200)) / 200
        assert 0.4 < share < 0.6

    def test_single_adiabatic_flags_the_energy_accounting(self):
        r = run_cycle(CycleConfig(protocol="adiabatic"))
        assert r.W_extracted == pytest.approx(0.375, rel=1e-14)
        assert ADIABATIC_NOTE in r.note
        assert "k_B T/4" in r.note
        assert r.second_law_ok

    def test_needs_a_barrier(self):
        # with d = 0 the box was never divided: no side to read, no bit to spend
        no_barrier = CycleConfig(params=PhysicalParams(d=0.0))
        for call in (readoff, run_cycle):
            with pytest.raises(SpectralError, match="^the readoff needs a barrier, got d = 0$"):
                call(no_barrier)

    def test_dephased_readoff(self):
        r = run_cycle(CycleConfig(coherences=False))
        assert "dephased" in r.note
        assert r.record.di_mu == pytest.approx(LN2, abs=1e-12)

    def test_spectral_cross_check(self):
        r = run_cycle(CycleConfig(spectral_check=True))
        assert r.spectral_jump_dev is not None
        assert r.spectral_jump_dev < 0.01
        assert "spectral cross-check" in r.note

    def test_to_dict_schema(self, default_report):
        d = default_report.to_dict()
        assert d["schema"] == "szilard.cycle-report/1"
        assert len(d["stages"]) == 5
        assert set(d["measurement"]) == {
            "ds_demon",
            "ds_gas",
            "ds_joint",
            "di_mu",
            "balance_residual",
        }


# k_B T = 9.2e7 at L = 0.0017, where each side's doublet weights sum to
# 1/2 + 1 ulp: a pointer entropy one ulp below ln 2 read there as a
# second-law violation of 1.5e-8
HOT_SMALL_BOX = PhysicalParams(L=0.0016895616211630654, d=0.0006380114709206589,
                               U=3865544.6909336303, T=91883781.60350323)


@st.composite
def isothermal_configs(draw):
    # L 1e-12..1e3, eps beta 1e-3..100, U/eps 1..1e6, d/L 1e-3..0.9, and
    # the smallest basis passing the N^2 eps beta >= 20 gate plus extra doublets
    length = 10.0 ** draw(st.floats(-12.0, 3.0))
    eps = math.pi**2 / (2.0 * length**2)
    p = PhysicalParams(L=length, d=length * 10.0 ** draw(st.floats(-3.0, math.log10(0.9))),
                       U=eps * 10.0 ** draw(st.floats(0.0, 6.0)), T=eps / 10.0 ** draw(st.floats(-3.0, 2.0)))
    n = math.ceil(math.sqrt(20.0 / (p.eps * p.beta)))
    n += (n * n * p.eps * p.beta < 20.0) + draw(st.integers(0, 40))
    return CycleConfig(params=p, n_side=n, coherences=draw(st.booleans()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=isothermal_configs())
@example(config=CycleConfig(params=HOT_SMALL_BOX, n_side=59))
@example(config=CycleConfig(params=HOT_SMALL_BOX, n_side=59, coherences=False))
def test_isothermal_cycle_books_ln2_exactly(config):
    # every drawn config passes the config checks; the pointer weights sum to 1
    # after the one normalisation, so an even pointer books ln 2 to the last
    # bit and W - T dS_env is exactly 0 at any k_B T
    report = run_cycle(config)
    assert report.record.ds_demon == LN2
    assert report.net_balance == 0.0


@pytest.mark.parametrize("k_B", [3.0, 1.380649e-23])
class TestNonUnitBoltzmannConstant:
    # T = 1/k_B keeps the default beta, so the readoff is the default one
    @staticmethod
    def params(k_B):
        return PhysicalParams(k_B=k_B, T=1.0 / k_B)

    def test_isothermal_balance(self, k_B):
        p = self.params(k_B)
        kt = p.k_B * p.T
        r = run_cycle(CycleConfig(params=p))
        assert r.W_extracted == pytest.approx(kt * LN2, rel=1e-12)
        assert r.S_to_environment == pytest.approx(k_B * LN2, rel=1e-12)
        assert abs(r.net_balance) <= 1e-12 * kt

    def test_stepwise_balance_is_negative(self, k_B):
        r = run_cycle(CycleConfig(params=self.params(k_B), protocol="stepwise"))
        assert r.net_balance < 0.0
        assert r.second_law_ok

    def test_stage_free_energies_read_the_stage_table(self, k_B):
        p = self.params(k_B)
        fe = stage_free_energies(p)
        stages = run_cycle(CycleConfig(params=p)).stages
        assert (fe.A, fe.A_tilde, fe.A_left) == tuple(s.A for s in stages[:3])


def excess_work(monkeypatch, rel):
    """Let run_cycle book W (1 + rel), an excess of rel W over the reset charge."""
    work = engine.extraction_work
    monkeypatch.setattr(engine, "extraction_work", lambda *a: work(*a) * (1.0 + rel))


class TestSecondLawTolerance:
    # the tolerance is 1e-9 k_B T: an absolute one passes any excess in SI
    # units and refuses a rounding-sized one at k_B T = 1e20

    def test_si_units_refuse_a_micro_kt_excess(self, monkeypatch):
        # an electron in a 1 nm box at 300 K, eps beta = 14.5
        p = PhysicalParams(hbar=1.054571817e-34, mass=9.1093837015e-31, k_B=1.380649e-23,
                           L=1e-9, d=5e-11, U=3e-16, T=300.0)
        config = CycleConfig(params=p)
        assert run_cycle(config).net_balance == 0.0
        excess_work(monkeypatch, 1e-6)
        with pytest.raises(EngineError, match="second-law balance violated"):
            run_cycle(config)

    def test_hot_box_passes_a_rounding_sized_excess(self, monkeypatch):
        p = PhysicalParams(L=1e-12, d=5e-14, U=1e27, T=1e20)
        excess_work(monkeypatch, 1e-12)
        r = run_cycle(CycleConfig(params=p))
        assert r.net_balance == pytest.approx(1e-12 * LN2 * 1e20, rel=1e-3)
        assert r.second_law_ok
        assert not r._replace(net_balance=2e-9 * 1e20).second_law_ok

    def test_a_nan_balance_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "extraction_work", lambda *a: math.nan)
        with pytest.raises(EngineError, match=r"^second-law balance violated: W - T dS_env = nan > 0$"):
            run_cycle(CycleConfig(n_side=11))


class TestSweep:
    def test_insertion_cost_tracks_barrier_width(self):
        cfg = CycleConfig()
        values = [0.02, 0.05, 0.10]
        rows = sweep(cfg, "d", values)
        p = cfg.params
        for row, d in zip(rows, values):
            assert row["error"] is None
            expect = p.k_B * p.T * math.log(p.L / (p.L - d))
            assert row["insertion_cost"] == pytest.approx(expect, rel=1e-9)
            assert row["W_extracted"] == pytest.approx(LN2, rel=1e-12)
            assert row["second_law_ok"]

    def test_failures_stay_in_their_row(self):
        rows = sweep(CycleConfig(), "T", [1.0, 1e6, 2.0])
        assert rows[0]["error"] is None
        assert rows[2]["error"] is None
        assert rows[1]["error"] is not None
        assert rows[1]["W_extracted"] is None

    def test_row_seeds_derive_from_master(self):
        rows = sweep(CycleConfig(seed=100), "T", [1.0, 1.5, 2.0])
        assert [r["seed"] for r in rows] == [100, 101, 102]

    def test_work_grows_with_step_count(self):
        rows = sweep(CycleConfig(protocol="stepwise"), "n_steps", [1, 2, 4, 8])
        ws = [r["W_extracted"] for r in rows]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_a_row_without_a_barrier_records_the_refusal(self):
        rows = sweep(CycleConfig(), "d", [0.0, 0.05])
        assert rows[0]["error"] == "the readoff needs a barrier, got d = 0"
        assert rows[0]["W_extracted"] is None
        assert rows[1]["error"] is None

    def test_row_shape(self):
        rows = sweep(CycleConfig(), "T", [1.0])
        assert set(rows[0]) == set(SWEEP_COLUMNS)
        assert sweep(CycleConfig(), "T", []) == []
        with pytest.raises(ValueError):
            sweep(CycleConfig(), "volume", [1.0])


def test_readoff_scales_to_ten_thousand_doublets():
    # a dense 4N x 4N joint state would need about 25 GB at N = 10^4
    rows = sweep(CycleConfig(), "N", [1000, 10000])
    assert [r["error"] for r in rows] == [None, None]
    assert all(r["net_balance"] <= 1e-9 for r in rows)
    record = run_cycle(CycleConfig(n_side=10_000)).record
    assert abs(record.ds_demon - LN2) <= 1e-12
    assert record.balance_residual <= 1e-10


def fresh_readoff(config: CycleConfig):
    """Oracle: the readoff rebuilt eagerly from nothing shared, with a new ready
    pointer and the closed-form unitary on one (L_k, R_k) (x) (D_L, D_R) block;
    its states (pre, post, post's pointer marginal) and its figures as
    differences of six LAPACK entropies."""
    p = config.params
    gas = post_insertion_dm(analytic_pairs(p, config.n_side), p.beta, coherences=config.coherences)
    d0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    pre = product_dm(gas, DensityMatrix(np.outer(d0, d0)))
    c = math.cos(math.pi / 4.0)
    u = c * np.eye(4) + c * np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    post = DensityMatrix(u @ pre.entries @ u.T, subsystem_dims=pre.subsystem_dims)
    (g0, m0, j0), (g1, m1, j1) = [
        (entropy(partial_trace(rho, "gas").entries), entropy(partial_trace(rho, "demon").entries),
         entropy(rho.entries))
        for rho in (pre, post)
    ]
    figures = {"ds_demon": m1 - m0, "ds_gas": g1 - g0, "ds_joint": j1 - j0,
               "di_mu": (g1 + m1 - j1) - (g0 + m0 - j0)}
    return (pre, post, partial_trace(post, "demon")), figures


class TestReadoffSharing:
    """The readoff books its figures in floats, builds its states on first
    read from the ready pointer and the coupling unitary it shares, and
    hands the reset the pointer entropy without a state."""

    def test_record_repr_and_equality_leave_out_its_states(self):
        # the builder holds both weight lists: at the side cap its repr would run to megabytes
        record = readoff(CycleConfig(n_side=MAX_N_SIDE))
        text = repr(record)
        assert text.startswith("MeasurementRecord(ds_demon=") and len(text) < 200
        assert "build_pre" not in text
        other = record._replace(build_pre=None)
        assert other == record and other.build_pre is None
        # a derived record keeps the builder, and builds its own states from it
        small = readoff(CycleConfig(n_side=3))
        assert small._replace(ds_gas=0.0).post.entries.shape == (3, 4, 4)
        assert copy.deepcopy(small) == small and copy.copy(small).build_pre is small.build_pre

    def test_run_cycle_validates_only_the_gas_state(self, monkeypatch):
        # every state a cycle or a reversal builds is package-built, the gas
        # included, so none meets the gate; a state handed in still does
        built = []
        init = DensityMatrix.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        demon._ready.cache_clear()  # the next state read builds the ready pointer again
        record = run_cycle(CycleConfig(n_side=11)).record
        record.pre, record.post
        reverse_readoff(record, product_of_marginals(record.post))
        p = PhysicalParams(T=25.0)
        post_insertion_dm(analytic_pairs(p, 11), p.beta)
        DemonModel().ready
        assert built == []
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))
        assert len(built) == 1

    def test_states_are_built_from_the_booked_weights(self, monkeypatch):
        # the doublet weights are taken once, for the figures, and the states
        # a read builds reuse them
        original, calls = thermo._doublet_weights, []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, mod in list(sys.modules.items()):
            if name.startswith("szilard.") and vars(mod).get("_doublet_weights") is original:
                monkeypatch.setattr(mod, "_doublet_weights", counting)
        record = readoff(CycleConfig(params=PhysicalParams(T=25.0), n_side=11))
        record.post
        assert len(calls) == 1

    @pytest.mark.parametrize("coherences, calls", [(False, 0), (True, 15)])
    def test_readoff_books_only_coherent_blocks(self, monkeypatch, coherences, calls):
        # the N = 200 hot-ladder rung, T = N^2 eps/25: the ideal cycle's blocks
        # and the model pairs above the barrier carry no coherence and add
        # +0.0, so g is evaluated once per weighted pair below the barrier
        g, seen = demon._g, []
        monkeypatch.setattr(demon, "_g", lambda u: seen.append(u) or g(u))
        p = PhysicalParams(T=200 * 200 * PhysicalParams().eps / 25.0)
        run_cycle(CycleConfig(params=p, n_side=200, coherences=coherences))
        assert len(seen) == calls

    def test_run_cycle_makes_no_lapack_call(self, monkeypatch):
        run_cycle(CycleConfig(n_side=11))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        run_cycle(CycleConfig(n_side=11))
        # no state is read, so none is solved
        assert shapes == []

    @pytest.mark.parametrize("n_side, T, coherences", [(11, 25.0, True), (11, 25.0, False), (45, 1.0, True),
                                                       (200, 7896.0, True)])
    @pytest.mark.parametrize("first", ["pre", "post", "demon_post"])
    def test_states_are_built_on_first_read_and_kept(self, n_side, T, coherences, first):
        # demon_post is post's pointer marginal, the pointer the reset erases
        config = CycleConfig(params=PhysicalParams(T=T), n_side=n_side, coherences=coherences)
        rec = readoff(config)
        read = {"pre": lambda: rec.pre, "post": lambda: rec.post,
                "demon_post": lambda: partial_trace(rec.post, "demon")}
        names = [first] + [n for n in read if n != first]
        states = {name: read[name]() for name in names}
        eager, _ = fresh_readoff(config)
        for name, oracle in zip(read, eager):
            assert np.array_equal(states[name].entries, oracle.entries), name
        assert rec.pre is states["pre"] and rec.post is states["post"]
        assert rec.pre.subsystem_dims == rec.post.subsystem_dims == (2, 2)
        # post = U pre U^T: the spectra of the two agree
        assert np.allclose(block_spectrum(rec.post.entries), block_spectrum(rec.pre.entries),
                           rtol=0, atol=1e-15)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        T=st.floats(0.5, 200.0),
        d=st.floats(0.01, 0.2),
        extra=st.integers(0, 30),
        coherences=st.booleans(),
    )
    def test_sharing_changes_no_bits(self, T, d, extra, coherences):
        p = PhysicalParams(T=T, d=d)
        # the smallest basis passing the N^2 eps beta >= 20 gate, plus extra doublets
        n = math.ceil(math.sqrt(20.0 / (p.eps * p.beta)))
        n += (n * n * p.eps * p.beta < 20.0) + extra
        config = CycleConfig(params=p, n_side=n, coherences=coherences)
        rec = readoff(config)
        (_, post, _), figures = fresh_readoff(config)
        assert np.array_equal(rec.post.entries, post.entries)
        for name, value in figures.items():
            assert getattr(rec, name) == pytest.approx(value, abs=1e-12)
        assert rec.ds_joint == 0.0
        pairs = analytic_pairs(p, n)
        listed = post_insertion_dm(pairs, p.beta, coherences=coherences)
        stacked = post_insertion_dm(np.array(pairs), p.beta, coherences=coherences)
        assert np.array_equal(listed.entries, stacked.entries)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    T=st.floats(0.5, 200.0),
    d=st.floats(0.01, 0.2),
    U=st.floats(50.0, 2e4),
    extra=st.integers(0, 40),
    coherences=st.booleans(),
)
def test_float_ledger_matches_the_state_routes(T, d, U, extra, coherences):
    # the cycle's figures and reset charge, booked in floats with no state,
    # against premeasure on the built state and the LAPACK route of the oracles
    p = PhysicalParams(T=T, d=d, U=U)
    n = math.ceil(math.sqrt(20.0 / (p.eps * p.beta)))
    n += (n * n * p.eps * p.beta < 20.0) + extra
    config = CycleConfig(params=p, n_side=n, coherences=coherences)
    report = run_cycle(config)
    (pre, _, _), _ = fresh_readoff(config)
    built, lapack = premeasure(pre, DemonModel()), dense_readoff(pre)
    for route in (built, lapack):
        for name in ("ds_gas", "ds_demon", "di_mu"):
            assert getattr(report.record, name) == pytest.approx(getattr(route, name), abs=1e-12), name
        s_demon = entropy(partial_trace(route.post, "demon").entries)
        assert report.S_to_environment == pytest.approx(p.k_B * s_demon, abs=1e-12)
        charge = p.k_B * p.T * s_demon
        assert report.W_extracted - report.net_balance == pytest.approx(charge, rel=1e-12)
