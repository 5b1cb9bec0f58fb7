"""Command-line front end: spectrum, thermo, measure, cycle, sweep.

Settings resolve in precedence order: command-line flags, then SZILARD_*
environment variables, then a flat key = value config file given with
--config, then the library's defaults.  Every command resolves them into
one CycleConfig, so each checks every setting it is given.  Exit status
is 0 on success, 1 for configuration or validation problems, 2 when a
computation fails.

Each command prints the figure that holds in its regime: thermo the
certified exact-series Z and none of the approximate forms, which
demos/partition_views.py sets beside it, and spectrum each exact doublet
next to the asymptotic splitting of its own level (splitting_estimate)
and, where it is proven, that estimate's relative-error bound.

Floats are serialized with repr, which round-trips exactly (and always
carries at least 15 significant digits).  Every table and CSV starts with
a `# master_seed=` comment so a run can be reproduced from its output
alone; JSON payloads carry the seed as a field.

Each command imports the layers it computes with when it runs, and the
parser is built from the numpy-free params module, so no command loads a
layer it does not use, and none loads numpy: the spectra are solved and
the readoff booked on Python floats, and measure takes its trace distances
from the doublet weights without building a state.  json is imported only
where a JSON payload is written, and no command loads dataclasses.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .exceptions import ConfigError, SzilardError, TruncationError
from .params import MAX_N_SIDE, MAX_PAIRS, SETTINGS, SWEEP_AXES, CycleConfig, configure

__all__ = ["main"]

ENV_PREFIX = "SZILARD_"
FORMATS = ("table", "csv", "json")

# every key a flag, a SZILARD_* variable or a config file can give: the run
# settings and the output format; unset ones take the library's defaults
_OPTIONS = {**SETTINGS, "format": (str, " | ".join(FORMATS))}

# the companion series' barrier widths, as fractions of the box width L
SPLITTING_SERIES_D = tuple(round(0.02 + 0.01 * i, 2) for i in range(9))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    computation failures, so usage problems are downgraded to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class Settings(NamedTuple):
    config: CycleConfig
    format: str
    out: Optional[Path]


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if val[:1] in ("'", '"'):
            end = val.find(val[0], 1)
            if end < 0 or val[end + 1:].strip()[:1] not in ("", "#"):
                raise ConfigError(f"{path}:{lineno}: unclosed quote or text after it: {raw!r}")
            val = val[1:end]
        else:
            val = val.split("#", 1)[0].strip()
        if key not in _OPTIONS:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r}; "
                f"known keys: {', '.join(sorted(_OPTIONS))}"
            )
        data[key] = val
    return data


def _coerce(key: str, raw: str, source: str):
    kind = _OPTIONS[key][0]
    try:
        return kind(raw)
    except ValueError as exc:
        # only the int and float casts can fail
        name = "an int" if kind is int else "a float"
        raise ConfigError(f"{source} value for {key} is not {name}: {raw!r}") from exc


def _resolve(ns: argparse.Namespace) -> Settings:
    config = _read_config(ns.config) if ns.config else {}
    values = {}
    for key in _OPTIONS:
        flag = getattr(ns, key, None)
        env = os.environ.get(ENV_PREFIX + key.upper())
        if flag is not None:
            values[key] = _coerce(key, flag, "flag")
        elif env is not None:
            values[key] = _coerce(key, env, "environment")
        elif key in config:
            values[key] = _coerce(key, config[key], "config")
    fmt = values.pop("format", None) or _COMMANDS[ns.command][1]
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    if not 1 <= values.get("N", 1) <= MAX_N_SIDE:
        raise ConfigError(f"--N must be in 1..{MAX_N_SIDE}, got {values['N']}")
    return Settings(configure(CycleConfig(), values), fmt, Path(ns.out) if ns.out else None)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_rows(columns, rows, settings) -> str:
    """Render rows (list of dicts) as csv or aligned table text."""
    head = f"# master_seed={settings.config.seed}\n"
    cells = [[_render(r.get(c)) for c in columns] for r in rows]
    if settings.format == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in cells]
        return head + "\n".join(lines) + "\n"
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return head + "\n".join(lines) + "\n"


def _emit(settings, schema, body, columns, rows, out, sep="") -> None:
    """Write one payload to out, or to stdout when out is None.

    JSON carries the schema and the seed ahead of body; csv and table text
    render rows under the seed header, after sep.
    """
    if settings.format == "json":
        import json

        text = json.dumps({"schema": schema, "seed": settings.config.seed, **body}, indent=2) + "\n"
    else:
        text = sep + _emit_rows(columns, rows, settings)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def cmd_spectrum(ns: argparse.Namespace) -> int:
    from .spectral import _estimate_bound, barrier_spectrum, splitting_estimate

    s = _resolve(ns)
    params = s.config.params
    if params.d <= 0:
        raise ConfigError("spectrum needs a barrier: d must be positive")
    if not 1 <= ns.pairs <= MAX_PAIRS:
        raise ConfigError(f"--pairs must be in 1..{MAX_PAIRS}, got {ns.pairs}")

    def estimate(p, pair) -> dict:
        # every pair lies below the top; no ratio where the estimate underflows,
        # no bound where it is not proven
        est = splitting_estimate(p, pair)
        return {"estimate": est, "ratio": pair.delta / est if est > 0 else None,
                "estimate_bound": _estimate_bound(p, pair)}

    columns = ["n", "E_n", "pair", "delta_k", "estimate", "ratio", "estimate_bound"]
    rows = [{"n": 2 * p.k - 1, "E_n": p.energy, "pair": p.k, "delta_k": p.delta,
             **estimate(params, p)} for p in barrier_spectrum(params, ns.pairs)]
    body = {"params": {"L": params.L, "d": params.d, "U": params.U, "T": params.T}, "pairs": rows}

    # companion series: ground-doublet splitting against barrier width; solved
    # before anything is written, so a failing run leaves no partial output
    series_cols = ["d", "delta_1", "estimate", "ratio", "estimate_bound"]
    series = []
    for d in (params.L * f for f in SPLITTING_SERIES_D):
        pd = params._replace(d=d)
        try:
            pair = barrier_spectrum(pd, 1)[0]
        except SzilardError as exc:
            raise type(exc)(f"splitting series at d = {d}: {exc}") from exc
        series.append({"d": d, "delta_1": pair.delta, **estimate(pd, pair)})

    _emit(s, "szilard.spectrum/1", body, columns, rows, s.out)
    # next to --out, with the same suffix; on stdout, after the main payload
    spath = s.out and s.out.with_name(s.out.stem + "_splitting_vs_d" + s.out.suffix)
    _emit(s, "szilard.splitting-series/1", {"series": series}, series_cols, series, spath,
          sep="" if s.out else "\n# series: splitting-vs-d\n")
    return 0


def cmd_thermo(ns: argparse.Namespace) -> int:
    from .thermo import mean_energy, partition_exact, stage_free_energies, thermo_entropy

    s = _resolve(ns)
    p = s.config.params
    if p.d <= 0:
        raise ConfigError("thermo needs a barrier: d must be positive")
    z_exact = partition_exact(p, p.beta)
    fe = stage_free_energies(p)
    rows = [
        # Z reads 0.0 where e^(-beta eps) underflows; E_mean and S_thermo do not need it
        {"quantity": "Z_exact", "value": z_exact.Z,
         "detail": f"terms={z_exact.terms_used}" + (" underflow" if z_exact.Z == 0.0 else "")},
        {"quantity": "lambda_th", "value": p.lambda_th, "detail": ""},
        {"quantity": "A_free", "value": fe.A, "detail": ""},
        {"quantity": "A_inserted", "value": fe.A_tilde, "detail": ""},
        {"quantity": "A_measured", "value": fe.A_left, "detail": ""},
        {"quantity": "insertion_cost", "value": fe.insertion_cost, "detail": "A_inserted - A_free"},
        {"quantity": "measurement_jump", "value": fe.measurement_jump, "detail": "k_B T ln 2"},
        {"quantity": "E_mean", "value": mean_energy(p, p.beta), "detail": ""},
        {"quantity": "S_thermo", "value": thermo_entropy(p, p.beta), "detail": ""},
    ]
    body = {
        "params": {"L": p.L, "d": p.d, "U": p.U, "T": p.T},
        "quantities": {r["quantity"]: r["value"] for r in rows},
        "details": {r["quantity"]: r["detail"] for r in rows if r["detail"]},
    }
    _emit(s, "szilard.thermo/1", body, ["quantity", "value", "detail"], rows, s.out)
    return 0


def cmd_measure(ns: argparse.Namespace) -> int:
    from .engine import _readoff
    from .spectral import analytic_pairs

    s = _resolve(ns)
    config = s.config._replace(coherences=not ns.ideal)
    p = config.params
    # no state is built: from the doublet weights the readoff booked, the gas
    # loses each block's coherence s_k, and the post state stands 1/2 plus
    # each doublet's excess 2|s_k| - c_k from the product of its marginals
    record, c, coh = _readoff(config)
    td_marginal = math.fsum(abs(x) for x in coh)
    td_product = 0.5 + 0.5 * math.fsum(max(0.0, 2.0 * abs(y) - x) for x, y in zip(c, coh))
    quantities = {**record._asdict(), "td_gas_marginal": td_marginal, "td_post_vs_product": td_product,
                  "beta_delta_1": p.beta * analytic_pairs(p, 1)[0][1], "ln2": math.log(2.0)}
    rows = [{"quantity": k, "value": v} for k, v in quantities.items()]
    body = {
        "ideal": bool(ns.ideal),
        "params": {"L": p.L, "d": p.d, "U": p.U, "T": p.T, "N": config.n_side},
        "quantities": quantities,
    }
    _emit(s, "szilard.measure/1", body, ["quantity", "value"], rows, s.out)
    return 0


def cmd_cycle(ns: argparse.Namespace) -> int:
    from .engine import run_cycle

    s = _resolve(ns)
    d = run_cycle(s.config._replace(coherences=not ns.ideal,
                                    spectral_check=ns.spectral_check)).to_dict()
    rows = [{"quantity": k, "value": v} for k, v in d.items()
            if k not in ("stages", "measurement")]
    for st in d["stages"]:
        rows.append({"quantity": f"stage[{st['stage']}].A", "value": st["A"]})
    for k, v in d["measurement"].items():
        rows.append({"quantity": f"measurement.{k}", "value": v})
    _emit(s, d["schema"], d, ["quantity", "value"], rows, s.out)
    return 0


def _parse_values(axis: str, text: str) -> list:
    # every sweep axis is an option key, so the axis names its own type
    return [_coerce(axis, part, "--values") for part in map(str.strip, text.split(",")) if part]


def cmd_sweep(ns: argparse.Namespace) -> int:
    from .engine import SWEEP_COLUMNS, sweep

    s = _resolve(ns)
    if ns.axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {ns.axis!r}")
    values = _parse_values(ns.axis, ns.values)
    rows = sweep(s.config, ns.axis, values)
    _emit(s, "szilard.sweep/1", {"axis": ns.axis, "rows": rows}, list(SWEEP_COLUMNS), rows, s.out)
    return 0


_IDEAL = ("--ideal", {"action": "store_true", "help": "drop gas coherences first"})
# every command: its help, its --format fallback, its handler and its own flags
_COMMANDS = {
    "spectrum": ("doublet energies and splittings", "csv", cmd_spectrum, [
        ("--pairs", {"type": int, "default": 5, "help": f"doublets to report, at most {MAX_PAIRS}"}),
    ]),
    "thermo": ("partition functions and free energies", "table", cmd_thermo, []),
    "measure": ("readoff entropy/information bookkeeping", "table", cmd_measure, [_IDEAL]),
    "cycle": ("run one full engine cycle", "json", cmd_cycle, [_IDEAL, ("--spectral-check", {
        "action": "store_true",
        "help": "cross-check the measurement jump against the exact barrier spectrum"})]),
    "sweep": ("run one cycle per value of an axis", "csv", cmd_sweep, [
        ("--axis", {"required": True, "help": f"one of {', '.join(SWEEP_AXES)}"}),
        ("--values", {"required": True, "help": "comma-separated values"}),
    ]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="szilard", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, _, _, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for key, (_, help_text) in _OPTIONS.items():
            command.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
        command.add_argument("--out", help="write output to this path instead of stdout")
        command.add_argument("--config", help="flat key = value config file")
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command][2](ns)
    except (ConfigError, ValueError, TruncationError) as exc:
        print(f"szilard: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"szilard: cannot write output: {exc}", file=sys.stderr)
        return 1
    except SzilardError as exc:
        print(f"szilard: computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
