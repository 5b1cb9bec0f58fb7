"""Run one workload of the szilard benchmark and print its metrics.

    python3 perfbench/run.py --workload hot-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, nothing needs installing.  Every process runs with its
BLAS and OpenMP pools pinned to one thread and with no SZILARD_* variable
set, so settings cannot leak in from the environment.

--trace 0 measures the end-to-end metrics: the workload's ops run in
seeded shuffled passes for --seconds seconds, and between passes fresh
interpreters that import szilard and run the workload's smallest op give
the set-up time.
--trace 1 measures the per-layer metrics: import cost in fresh
interpreters, then passes that alternate between no tracer and the tracer
installed.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is the result as JSON;
the full record (environment, per-op digests and times, spans) goes to
perfbench/out/.
"""
from __future__ import annotations

import os
import sys

# Pin thread pools before anything loads numpy; child processes inherit this.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in [k for k in os.environ if k.startswith("SZILARD_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5  # fresh interpreters timed for setup_s
IMPORT_RUNS = 3  # fresh interpreters per import metric

IMPORT_PROBE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import {mods}; "
    "print(time.perf_counter() - t, len(sys.modules) - n)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_passes(ops, rng, seconds, log, span_count=None, between=None, min_passes=1):
    """Run seeded shuffled passes over `ops` until `seconds` of passes have run.

    Returns one dict per pass: op times, stderr lines, largest child RSS
    and, when `span_count` is given, the range of span indices the pass
    made.  Failures and output digests are recorded in `log`.  After each
    pass `between(share of seconds used)` runs, outside the time budget.
    """
    from workloads import CheckError, CliResult

    passes = []
    elapsed = 0.0
    while True:
        start = perf_counter()
        order = list(ops)
        rng.shuffle(order)
        info = {"times": {}, "stderr_lines": 0, "maxrss_kb": 0}
        first_span = span_count() if span_count else 0
        for op in order:
            log["attempted"] += 1
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed op is counted, the run goes on
                info["times"][op.name] = perf_counter() - t0
                log["failures"].append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            info["times"][op.name] = perf_counter() - t0
            if isinstance(out, CliResult):
                info["stderr_lines"] += len(out.err.splitlines())
                info["maxrss_kb"] = max(info["maxrss_kb"], out.maxrss_kb)
            try:
                text = op.check(out)
            except (CheckError, KeyError, ValueError, TypeError, IndexError) as exc:
                log["failures"].append(f"{op.name}: check: {exc}")
                continue
            log["digests"].setdefault(op.name, hashlib.sha256(text.encode()).hexdigest())
        if span_count:
            info["spans"] = (first_span, span_count())
        passes.append(info)
        elapsed += perf_counter() - start
        done = len(passes) >= min_passes and elapsed >= seconds
        if between:
            between(1.0 if done else elapsed / seconds)
        if done:
            return passes


def warm(ops):
    """Run ops once, untimed and unchecked; timed passes repeat and check them."""
    for op in ops:
        try:
            op.call()
        except Exception:  # the same op fails, and is counted, in the timed passes
            pass


def time_children(argv, runs, env):
    """Wall time of `runs` fresh interpreters running argv; raises if one fails."""
    times, outputs = [], []
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child {argv} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        outputs.append(proc.stdout)
    return times, outputs


def pass_wall(info):
    return sum(info["times"].values())


def end_to_end(name, workload, rng, seconds, log):
    env = child_env()
    time_children(workload.setup_argv, 1, env)  # warms the file cache; not counted
    setup_times = []

    def between(share):
        # set-up samples are spread over the run, so they see the machine the passes saw
        while len(setup_times) < SETUP_RUNS * share:
            setup_times.extend(time_children(workload.setup_argv, 1, env)[0])

    passes = run_passes(workload.ops, rng, seconds, log, between=between)
    op_times = [t for p in passes for t in p["times"].values()]
    if name == "cli-oneshot":
        rss_kb = max(p["maxrss_kb"] for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": 1.0 - len(log["failures"]) / log["attempted"],
    }
    return values, passes


def layer_values(stats, info):
    """Per-layer metric values of one traced pass, keyed by metric name."""
    values = {"cli.stderr_lines": info["stderr_lines"]}
    for span, fields in stats.items():
        for field, value in fields.items():
            values[f"{span}.{field}"] = value
    chk = stats.get("thermo.spectral_stage_check", {})
    levels = chk.get("levels_used", 0)
    values["thermo.spectral_stage_check.pair_yield"] = 2 * chk.get("pairs_used", 0) / levels if levels else 0.0
    return values


def per_layer(workload, rng, seconds, log, specs):
    from tracer import Tracer, layer_stats

    env = child_env()
    values = {}
    for key, mods in (("import.floor_s", "numpy, scipy.linalg"), ("import.szilard_s", "szilard")):
        _, outs = time_children(["-c", IMPORT_PROBE.format(mods=mods)], IMPORT_RUNS, env)
        values[key] = statistics.median(float(o.split()[0]) for o in outs)
        if mods == "szilard":
            values["import.modules"] = statistics.median(int(o.split()[1]) for o in outs)

    tracer = Tracer()

    def toggle(share):
        # untraced and traced passes alternate, so the overhead ratio compares
        # passes made on the same machine state
        if tracer.installed:
            tracer.uninstall()
        else:
            tracer.install()

    try:
        passes = run_passes(workload.ops, rng, seconds, log, lambda: len(tracer.spans), toggle, min_passes=2)
    finally:
        tracer.uninstall()
    plain, traced = passes[0::2], passes[1::2]
    per_pass = [layer_values(layer_stats(tracer.spans, *p["spans"]), p) for p in traced]
    values["trace.overhead_ratio"] = statistics.median(map(pass_wall, traced)) / statistics.median(
        map(pass_wall, plain)
    )
    for spec in specs:
        if spec["name"] not in values:
            # a function the workload never calls has no spans: 0 calls, 0 s
            values[spec["name"]] = statistics.median(v.get(spec["name"], 0) for v in per_pass)
    return values, passes, tracer.spans


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = None
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                                  text=True, cwd=ROOT, check=True).stdout.split()
        sha = sha if os.path.realpath(top) == os.path.realpath(ROOT) else None
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None  # a plain export of the tree is not a git repository
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "szilard")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, build, cli_child, cli_inprocess

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "szilard", "__init__.py")):
        print(f"perfbench: no szilard sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import szilard
    import szilard.cli  # noqa: F401  (in-process CLI ops look it up in sys.modules)

    if os.path.dirname(os.path.dirname(os.path.abspath(szilard.__file__))) != SRC:
        print(f"perfbench: imported szilard from {szilard.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    runner = cli_inprocess if args.trace else cli_child(child_env(), ROOT)
    workload = build(args.workload, rng, runner)
    warm(workload.warmup)
    log = {"attempted": 0, "failures": [], "digests": {}}
    spans = None
    if args.trace:
        specs = spec["per_layer"]
        values, passes, spans = per_layer(workload, rng, args.seconds, log, specs)
    else:
        specs = spec["end_to_end"]
        values, passes = end_to_end(args.workload, workload, rng, args.seconds, log)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": not log["failures"],
        "attempted": log["attempted"],
        "failed": len(log["failures"]),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "failures": log["failures"],
        "digests": log["digests"],
        "passes": passes,
        "spans": spans,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    for failure in log["failures"]:
        print(f"FAILED {failure}")
    for key, m in metrics.items():
        print(f"{args.workload:>15}  {key:<45} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
