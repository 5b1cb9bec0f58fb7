"""Command-line front end: spectrum, thermo, measure, cycle, sweep.

Settings resolve in precedence order: command-line flags, then SZILARD_*
environment variables, then a flat key = value config file given with
--config, then built-in defaults.  Exit status is 0 on success, 1 for
configuration or validation problems, 2 when a computation fails.

Floats are serialized with repr, which round-trips exactly (and always
carries at least 15 significant digits).  Every table and CSV starts with
a `# master_seed=` comment so a run can be reproduced from its output
alone; JSON payloads carry the seed as a field.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .demon import product_of_marginals
from .engine import (
    SWEEP_AXES,
    SWEEP_COLUMNS,
    CycleConfig,
    readoff,
    run_cycle,
    sweep as run_sweep,
)
from .exceptions import ConfigError, SzilardError, TruncationError
from .infodyn import partial_trace, trace_distance
from .spectral import (
    MAX_PAIRS,
    PhysicalParams,
    analytic_pairs,
    barrier_spectrum,
    splitting_estimate,
)
from .thermo import (
    mean_energy,
    partition_exact,
    partition_highT,
    partition_theta,
    stage_free_energies,
    thermo_entropy,
)

__all__ = ["main"]

ENV_PREFIX = "SZILARD_"
FORMATS = ("table", "csv", "json")

_OPTION_TYPES = {
    "L": float,
    "d": float,
    "U": float,
    "T": float,
    "N": int,
    "protocol": str,
    "n_steps": int,
    "seed": int,
    "format": str,
}
_DEFAULTS = {
    "L": 1.0,
    "d": 0.05,
    "U": 5000.0,
    "T": 1.0,
    "N": 45,
    "protocol": "isothermal",
    "n_steps": 8,
    "seed": 0,
    "format": None,
}
# per-command fallback when --format is not given anywhere
_FORMAT_DEFAULT = {
    "spectrum": "csv",
    "thermo": "table",
    "measure": "table",
    "cycle": "json",
    "sweep": "csv",
}

SPLITTING_SERIES_D = tuple(round(0.02 + 0.01 * i, 2) for i in range(9))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    computation failures, so usage problems are downgraded to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class Settings:
    params: PhysicalParams
    N: int
    protocol: str
    n_steps: int
    seed: int
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
        if len(val) >= 2 and val[0] in "\"'" and val[-1] == val[0]:
            val = val[1:-1]
        else:
            val = val.split("#", 1)[0].strip()
        if key not in _OPTION_TYPES:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r}; "
                f"known keys: {', '.join(sorted(_OPTION_TYPES))}"
            )
        data[key] = val
    return data


def _coerce(key: str, raw, source: str):
    kind = _OPTION_TYPES[key]
    try:
        if kind is int:
            return int(str(raw), 10)
        if kind is float:
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"{source} value for {key} is not a {kind.__name__}: {raw!r}") from exc


def _resolve(ns: argparse.Namespace) -> Settings:
    config = _read_config(ns.config) if ns.config else {}
    values = {}
    for key in _OPTION_TYPES:
        flag = getattr(ns, key, None)
        env = os.environ.get(ENV_PREFIX + key.upper())
        if flag is not None:
            values[key] = _coerce(key, flag, "flag")
        elif env is not None:
            values[key] = _coerce(key, env, "environment")
        elif key in config:
            values[key] = _coerce(key, config[key], "config")
        else:
            values[key] = _DEFAULTS[key]
    fmt = values["format"] or _FORMAT_DEFAULT[ns.command]
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    params = PhysicalParams(L=values["L"], d=values["d"], U=values["U"], T=values["T"])
    return Settings(
        params=params,
        N=values["N"],
        protocol=values["protocol"],
        n_steps=values["n_steps"],
        seed=values["seed"],
        format=fmt,
        out=Path(ns.out) if ns.out else None,
    )


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
    head = f"# master_seed={settings.seed}\n"
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
        text = json.dumps({"schema": schema, "seed": settings.seed, **body}, indent=2) + "\n"
    else:
        text = sep + _emit_rows(columns, rows, settings)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cycle_config(s: Settings, **kw) -> CycleConfig:
    return CycleConfig(params=s.params, n_side=s.N, protocol=s.protocol, n_steps=s.n_steps,
                       seed=s.seed, **kw)


def cmd_spectrum(ns: argparse.Namespace) -> int:
    s = _resolve(ns)
    if s.params.d <= 0:
        raise ConfigError("spectrum needs a barrier: d must be positive")
    pairs = barrier_spectrum(s.params, ns.pairs)
    columns = ["n", "E_n", "pair", "delta_k", "estimate", "ratio"]
    rows = []
    for p in pairs:
        est = splitting_estimate(s.params, p.k)
        rows.append(
            {
                "n": 2 * p.k - 1,
                "E_n": p.energy,
                "pair": p.k,
                "delta_k": p.delta,
                "estimate": est,
                "ratio": p.delta / est if est > 0 else None,
            }
        )
    body = {
        "params": {"L": s.params.L, "d": s.params.d, "U": s.params.U, "T": s.params.T},
        "pairs": rows,
    }

    # companion series: ground-doublet splitting against barrier width; solved
    # before anything is written, so a failing run leaves no partial output
    series_cols = ["d", "delta_1", "estimate", "ratio"]
    series = []
    for d in SPLITTING_SERIES_D:
        pd = replace(s.params, d=d)
        try:
            pair = barrier_spectrum(pd, 1)[0]
            est = splitting_estimate(pd, 1)
        except SzilardError as exc:
            raise type(exc)(f"splitting series at d = {d}: {exc}") from exc
        series.append({"d": d, "delta_1": pair.delta, "estimate": est,
                       "ratio": pair.delta / est if est > 0 else None})

    _emit(s, "szilard.spectrum/1", body, columns, rows, s.out)
    # next to --out, with the same suffix; on stdout, after the main payload
    spath = s.out and s.out.with_name(s.out.stem + "_splitting_vs_d" + s.out.suffix)
    _emit(s, "szilard.splitting-series/1", {"series": series}, series_cols, series, spath,
          sep="" if s.out else "\n# series: splitting-vs-d\n")
    return 0


def cmd_thermo(ns: argparse.Namespace) -> int:
    s = _resolve(ns)
    p = s.params
    beta = p.beta
    z_exact = partition_exact(p, beta)
    z_theta = partition_theta(p.sigma)
    z_hight = partition_highT(p)
    fe = stage_free_energies(p)
    e_mean = mean_energy(p, beta)
    s_th = thermo_entropy(p, beta)
    rows = [
        {"quantity": "Z_exact", "value": z_exact.Z, "detail": f"terms={z_exact.terms_used}"},
        {"quantity": "Z_theta", "value": z_theta.Z,
         "detail": f"regime_ok={str(z_theta.regime_ok).lower()} est_error={_render(z_theta.est_error)}"},
        {"quantity": "Z_highT", "value": z_hight.Z,
         "detail": f"regime_ok={str(z_hight.regime_ok).lower()} est_error={_render(z_hight.est_error)}"},
        {"quantity": "lambda_th", "value": p.lambda_th, "detail": ""},
        {"quantity": "A_free", "value": fe.A, "detail": ""},
        {"quantity": "A_inserted", "value": fe.A_tilde, "detail": ""},
        {"quantity": "A_measured", "value": fe.A_left, "detail": ""},
        {"quantity": "insertion_cost", "value": fe.insertion_cost, "detail": "A_inserted - A_free"},
        {"quantity": "measurement_jump", "value": fe.measurement_jump, "detail": "k_B T ln 2"},
        {"quantity": "E_mean", "value": e_mean, "detail": ""},
        {"quantity": "S_thermo", "value": s_th, "detail": ""},
    ]
    body = {
        "params": {"L": p.L, "d": p.d, "U": p.U, "T": p.T},
        "quantities": {r["quantity"]: r["value"] for r in rows},
        "details": {r["quantity"]: r["detail"] for r in rows if r["detail"]},
    }
    _emit(s, "szilard.thermo/1", body, ["quantity", "value", "detail"], rows, s.out)
    return 0


def cmd_measure(ns: argparse.Namespace) -> int:
    s = _resolve(ns)
    p = s.params
    record = readoff(CycleConfig(params=p, n_side=s.N, coherences=not ns.ideal))
    td_marginal = trace_distance(
        partial_trace(record.pre, "gas"), partial_trace(record.post, "gas")
    )
    td_product = trace_distance(record.post, product_of_marginals(record.post))
    beta_delta_1 = p.beta * analytic_pairs(p, 1)[0][1]
    rows = [
        {"quantity": "ds_demon", "value": record.ds_demon},
        {"quantity": "ds_gas", "value": record.ds_gas},
        {"quantity": "ds_joint", "value": record.ds_joint},
        {"quantity": "di_mu", "value": record.di_mu},
        {"quantity": "balance_residual", "value": record.balance_residual},
        {"quantity": "td_gas_marginal", "value": td_marginal},
        {"quantity": "td_post_vs_product", "value": td_product},
        {"quantity": "beta_delta_1", "value": beta_delta_1},
        {"quantity": "ln2", "value": math.log(2.0)},
    ]
    body = {
        "ideal": bool(ns.ideal),
        "params": {"L": p.L, "d": p.d, "U": p.U, "T": p.T, "N": s.N},
        "quantities": {r["quantity"]: r["value"] for r in rows},
    }
    _emit(s, "szilard.measure/1", body, ["quantity", "value"], rows, s.out)
    return 0


def cmd_cycle(ns: argparse.Namespace) -> int:
    s = _resolve(ns)
    config = _cycle_config(s, coherences=not ns.ideal, spectral_check=bool(ns.spectral_check))
    d = run_cycle(config).to_dict()
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
    s = _resolve(ns)
    if ns.axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {ns.axis!r}")
    values = _parse_values(ns.axis, ns.values)
    rows = run_sweep(_cycle_config(s), ns.axis, values)
    _emit(s, "szilard.sweep/1", {"axis": ns.axis, "rows": rows}, list(SWEEP_COLUMNS), rows, s.out)
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--L", help="box width")
    parser.add_argument("--d", help="barrier width")
    parser.add_argument("--U", help="barrier height")
    parser.add_argument("--T", help="temperature")
    parser.add_argument("--N", help="doublet truncation per side")
    parser.add_argument("--protocol", help="isothermal | stepwise-adiabatic | single-adiabatic")
    parser.add_argument("--n-steps", dest="n_steps", help="stepwise increment count")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--format", help="table | csv | json")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--config", help="flat key = value config file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="szilard", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sp = sub.add_parser("spectrum", help="doublet energies and splittings", parents=[])
    _add_common(sp)
    sp.add_argument("--pairs", type=int, default=5, help=f"doublets to report, at most {MAX_PAIRS}")
    sp.set_defaults(func=cmd_spectrum)
    th = sub.add_parser("thermo", help="partition functions and free energies")
    _add_common(th)
    th.set_defaults(func=cmd_thermo)
    me = sub.add_parser("measure", help="readoff entropy/information bookkeeping")
    _add_common(me)
    me.add_argument("--ideal", action="store_true", help="drop gas coherences first")
    me.set_defaults(func=cmd_measure)
    cy = sub.add_parser("cycle", help="run one full engine cycle")
    _add_common(cy)
    cy.add_argument("--ideal", action="store_true", help="drop gas coherences first")
    cy.add_argument("--spectral-check", dest="spectral_check", action="store_true",
                    help="cross-check the measurement jump against the exact barrier spectrum")
    cy.set_defaults(func=cmd_cycle)
    sw = sub.add_parser("sweep", help="run one cycle per value of an axis")
    _add_common(sw)
    sw.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEP_AXES)}")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
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
