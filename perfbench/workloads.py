"""The benchmark's workloads: op lists, warm-up ops and output checks.

An op is one call a user makes.  Each op pairs the call with a check that
gates its output on guarantees the package makes (k_B T ln 2 per
isothermal cycle, the readoff entropy balance, the theta identity for the
box partition sum, ...) rather than on stored values, so a change that
legitimately moves a number still passes.  A check returns the canonical
text of the output, whose digest is recorded beside the results.

The seed chooses cycle seeds and op order only; it never changes N, T, d
or a grid, so the cost of a pass does not depend on it.  Functions are
looked up on the `szilard` package at call time, so a traced pass calls
the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from typing import Callable, List, NamedTuple

LN2 = math.log(2.0)
WORKLOADS = ("cli-oneshot", "hot-ladder", "spectral-check")

# hot-ladder: the smallest basis passing the N^2 eps beta >= 20 gate at T = N^2 eps / 25
LADDER_N = (11, 45, 90, 140, 200)
SPECTRUM_GRIDS = (1024, 2048, 4096, 8192)
SERIES_D = tuple(round(0.02 + 0.01 * i, 2) for i in range(9))
CHECK_GRIDS = (2048, 4096, 8192)
# tolerance on spectral_jump_dev, as in tests/test_acceptance.py criterion 1
JUMP_TOL = 0.01


class CheckError(Exception):
    """An op's output broke a guarantee it is gated on."""


class Op(NamedTuple):
    name: str
    call: Callable[[], object]
    check: Callable[[object], str]


class Workload(NamedTuple):
    ops: List[Op]
    warmup: List[Op]
    # argv after the interpreter for a fresh process that imports szilard
    # and runs the workload's smallest op
    setup_argv: List[str]


class CliResult(NamedTuple):
    code: int
    out: str
    err: str
    maxrss_kb: int  # 0 when run in-process


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------- CLI runners


def cli_child(env: dict, cwd: str) -> Callable[[List[str]], CliResult]:
    """Runner that starts `python -m szilard` and reaps it with its rusage."""

    def run(argv: List[str]) -> CliResult:
        proc = subprocess.Popen(
            [sys.executable, "-m", "szilard", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out, err[0], usage.ru_maxrss)

    return run


def cli_inprocess(argv: List[str]) -> CliResult:
    """Call szilard.cli.main in this process with stdout and stderr captured.

    Warning state is reset per call, so each call warns as a fresh process would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = sys.modules["szilard.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue(), 0)


# --------------------------------------------------------------------- checks


def check_readoff(m: dict, where: str) -> None:
    expect(abs(m["ds_demon"] - LN2) <= 1e-12, f"{where}: ds_demon {m['ds_demon']!r} != ln 2")
    expect(abs(m["ds_joint"]) <= 1e-12, f"{where}: ds_joint {m['ds_joint']!r} != 0")
    expect(m["balance_residual"] <= 1e-10, f"{where}: balance_residual {m['balance_residual']!r}")


def check_cycle(d: dict, *, kT: float, isothermal: bool, seed: int, spectral: bool = False) -> None:
    expect(d["schema"] == "szilard.cycle-report/1", f"cycle schema {d['schema']!r}")
    expect(d["seed"] == seed, f"cycle seed {d['seed']!r} != {seed}")
    expect(d["outcome"] in ("L", "R"), f"cycle outcome {d['outcome']!r}")
    w = d["W_extracted"]
    if isothermal:
        expect(close(w, kT * LN2, 1e-12), f"isothermal W {w!r} != kT ln 2")
    else:
        expect(w < kT * LN2, f"non-isothermal W {w!r} >= kT ln 2")
    expect(d["net_balance"] <= 1e-9, f"net_balance {d['net_balance']!r} > 1e-9")
    check_readoff(d["measurement"], "cycle")
    if spectral:
        dev = d["spectral_jump_dev"]
        expect(dev is not None and dev <= JUMP_TOL, f"spectral_jump_dev {dev!r} > {JUMP_TOL}")


def _header(text: str, seed: int) -> List[str]:
    lines = text.splitlines()
    expect(bool(lines) and lines[0] == f"# master_seed={seed}", f"missing master_seed={seed} header")
    return lines


def _csv(lines: List[str]) -> List[dict]:
    cols = lines[0].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


def _table(lines: List[str]) -> dict:
    return {parts[0]: float(parts[1]) for parts in (line.split() for line in lines[2:])}


def _cli_ok(r: CliResult) -> None:
    expect(r.code == 0, f"exit code {r.code}: {r.err.strip()[-200:]}")


def check_spectrum(seed: int):
    def check(r: CliResult) -> str:
        _cli_ok(r)
        lines = _header(r.out, seed)
        cut = lines.index("# series: splitting-vs-d")
        rows = _csv(lines[1:cut - 1])
        expect([int(x["pair"]) for x in rows] == [1, 2, 3, 4, 5], "spectrum pairs != 1..5")
        e = [float(x["E_n"]) for x in rows]
        delta = [float(x["delta_k"]) for x in rows]
        expect(all(a < b for a, b in zip(e, e[1:])), "doublet energies not ascending")
        expect(all(0 < a < b for a, b in zip(delta, delta[1:])), "splittings not positive and rising")
        expect(lines[cut + 1] == f"# master_seed={seed}", "series header")
        series = _csv(lines[cut + 2:])
        d1 = [float(x["delta_1"]) for x in series]
        expect(len(d1) == len(SERIES_D), "series length")
        expect(all(a > b > 0 for a, b in zip(d1, d1[1:])), "splitting not falling with d")
        return r.out

    return check


def check_thermo(seed: int, T: float):
    def check(r: CliResult) -> str:
        _cli_ok(r)
        d = json.loads(r.out)
        expect(d["schema"] == "szilard.thermo/1" and d["seed"] == seed, "thermo schema/seed")
        q = d["quantities"]
        expect(close(q["measurement_jump"], T * LN2, 1e-12), f"measurement_jump {q['measurement_jump']!r}")
        expect(q["Z_exact"] > 0, "Z_exact <= 0")
        return r.out

    return check


def check_measure(seed: int):
    def check(r: CliResult) -> str:
        _cli_ok(r)
        check_readoff(_table(_header(r.out, seed)), "measure")
        return r.out

    return check


def check_cli_cycle(seed: int, isothermal: bool):
    def check(r: CliResult) -> str:
        _cli_ok(r)
        check_cycle(json.loads(r.out), kT=1.0, isothermal=isothermal, seed=seed)
        return r.out

    return check


def check_sweep(seed: int, values: List[int]):
    def check(r: CliResult) -> str:
        _cli_ok(r)
        rows = _csv(_header(r.out, seed)[1:])
        expect([int(x["value"]) for x in rows] == values, "sweep rows")
        for i, x in enumerate(rows):
            expect(x["error"] == "", f"sweep row {i}: {x['error']}")
            expect(int(x["seed"]) == seed + i, f"sweep row {i} seed")
            expect(float(x["W_extracted"]) < LN2, f"sweep row {i}: stepwise W >= kT ln 2")
            expect(close(float(x["measurement_jump"]), LN2, 1e-12), f"sweep row {i}: measurement_jump")
            expect(float(x["net_balance"]) <= 1e-9, f"sweep row {i}: net_balance")
        return r.out

    return check


def check_report(cfg):
    def check(report) -> str:
        d = report.to_dict()
        kT = cfg.params.k_B * cfg.params.T
        check_cycle(d, kT=kT, isothermal=cfg.protocol == "isothermal", seed=cfg.seed,
                    spectral=cfg.spectral_check)
        return json.dumps(d, sort_keys=True)

    return check


def theta_box(eb: float):
    """Z and beta<E> of the box from the Poisson-resummed series.

    sum_n exp(-eb n^2) = (sqrt(pi/eb) - 1)/2 up to exp(-pi^2/eb), which is
    below 1e-20 relative on the ladder (eb <= 25/121).
    """
    z = 0.5 * (math.sqrt(math.pi / eb) - 1.0)
    return z, 0.25 * math.sqrt(math.pi / eb) / z


def check_thermo_ops(eb: float, beta: float):
    def check(out) -> str:
        res, e, s = out
        beta_e = beta * e
        z, theta_be = theta_box(eb)
        expect(res.method == "exact-series" and res.terms_used >= 1, f"partition method {res.method}")
        expect(close(res.Z, z, 1e-10), f"Z {res.Z!r} breaks the theta identity")
        expect(close(beta_e, theta_be, 1e-10), f"<E> {e!r} breaks the theta identity")
        expect(close(s, math.log(z) + theta_be, 1e-10), f"S {s!r} != ln Z + beta<E>")
        return repr(out)

    return check


def check_reversal(res) -> str:
    # the record-free product state is a fixed trace distance 1/2 from the pre state
    expect(abs(res.distance - 0.5) <= 1e-12 and not res.recovered, f"reversal distance {res.distance!r}")
    return repr((res.distance, res.recovered))


def check_pairs(n_pairs: int, U: float):
    def check(pairs) -> str:
        expect([p.k for p in pairs] == list(range(1, n_pairs + 1)), "pair labels")
        e = [p.energy for p in pairs]
        delta = [p.delta for p in pairs]
        expect(all(a < b for a, b in zip(e, e[1:])) and e[-1] < U, "doublet energies")
        expect(delta[0] > 0 and all(a < b for a, b in zip(delta, delta[1:])), "splittings")
        return repr([(p.k, p.energy, p.delta) for p in pairs])

    return check


# ------------------------------------------------------------------ workloads


def cli_oneshot(rng, run_cli) -> Workload:
    s = [rng.randrange(2**31) for _ in range(8)]
    steps = [1, 2, 4, 8, 16]

    def op(name, argv, check):
        return Op(name, lambda: run_cli(argv), check)

    ops = [
        op("spectrum", ["spectrum", "--seed", str(s[0])], check_spectrum(s[0])),
        op("thermo-T1", ["thermo", "--T", "1", "--format", "json", "--seed", str(s[1])],
           check_thermo(s[1], 1.0)),
        op("thermo-T25", ["thermo", "--T", "25", "--format", "json", "--seed", str(s[2])],
           check_thermo(s[2], 25.0)),
        op("measure-N11", ["measure", "--N", "11", "--seed", str(s[3])], check_measure(s[3])),
        op("measure-N11-ideal", ["measure", "--N", "11", "--ideal", "--seed", str(s[4])],
           check_measure(s[4])),
        op("cycle-isothermal", ["cycle", "--seed", str(s[5])], check_cli_cycle(s[5], True)),
        op("cycle-stepwise", ["cycle", "--protocol", "stepwise", "--seed", str(s[6])],
           check_cli_cycle(s[6], False)),
        op("sweep-n_steps", ["sweep", "--axis", "n_steps", "--values", ",".join(map(str, steps)),
                             "--protocol", "stepwise", "--seed", str(s[7])], check_sweep(s[7], steps)),
    ]
    return Workload(ops, [ops[2]], ["-m", "szilard", "thermo", "--T", "25", "--format", "json"])


def hot_ladder(rng) -> Workload:
    import szilard as sz

    eps = sz.PhysicalParams().eps
    ops, warmup = [], []
    for n in LADDER_N:
        p = sz.PhysicalParams(T=n * n * eps / 25.0)
        eb, beta = p.eps * p.beta, p.beta
        rung = []
        for coh in (True, False):
            cfg = sz.CycleConfig(params=p, n_side=n, coherences=coh, seed=rng.randrange(2**31))
            rung.append(Op(f"run_cycle[N={n},{'coherent' if coh else 'ideal'}]",
                           lambda cfg=cfg: sz.run_cycle(cfg), check_report(cfg)))
            if coh:
                record = sz.run_cycle(cfg).record
        rung += [
            # Z, <E> and S at one T make one op: as three sub-millisecond ops they
            # would put the pooled op median on the edge between op sizes
            Op(f"thermo[N={n}]",
               lambda p=p: (sz.partition_exact(p, p.beta), sz.mean_energy(p, p.beta),
                            sz.thermo_entropy(p, p.beta)),
               check_thermo_ops(eb, beta)),
            Op(f"reverse_readoff[N={n}]",
               lambda r=record: sz.reverse_readoff(r, sz.product_of_marginals(r.post)), check_reversal),
        ]
        ops += rung
        warmup = warmup or rung
    setup = (
        "import szilard as s; p = s.PhysicalParams(T=121 * s.PhysicalParams().eps / 25); "
        "s.run_cycle(s.CycleConfig(params=p, n_side=11))"
    )
    return Workload(ops, warmup, ["-c", setup])


def spectral_check(rng) -> Workload:
    import szilard as sz

    p = sz.PhysicalParams()
    ops = []
    for g in SPECTRUM_GRIDS:
        ops.append(Op(f"barrier_spectrum[grid={g}]",
                      lambda g=g: sz.barrier_spectrum(p, 5, sz.barrier_grid(p, g)), check_pairs(5, p.U)))
    for d in SERIES_D:
        pd = sz.PhysicalParams(d=d)
        ops.append(Op(f"barrier_spectrum[d={d}]",
                      lambda pd=pd: sz.barrier_spectrum(pd, 1, sz.barrier_grid(pd, 4096)),
                      check_pairs(1, pd.U)))
    for g in CHECK_GRIDS:
        cfg = sz.CycleConfig(n_side=45, grid_points=g, spectral_check=True, seed=rng.randrange(2**31))
        ops.append(Op(f"run_cycle[spectral,grid={g}]", lambda cfg=cfg: sz.run_cycle(cfg), check_report(cfg)))
    setup = "import szilard as s; p = s.PhysicalParams(); s.barrier_spectrum(p, 5, s.barrier_grid(p, 1024))"
    return Workload(ops, list(ops), ["-c", setup])


def build(name: str, rng, run_cli) -> Workload:
    if name == "cli-oneshot":
        return cli_oneshot(rng, run_cli)
    if name == "hot-ladder":
        return hot_ladder(rng)
    if name == "spectral-check":
        return spectral_check(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
