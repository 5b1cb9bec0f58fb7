import ast
import contextlib
import glob
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import szilard
from szilard.cli import SPLITTING_SERIES_D, _build_parser, _resolve, main
from szilard.demon import product_of_marginals
from szilard.engine import SWEEP_AXES, SWEEP_COLUMNS, CycleConfig, readoff, run_cycle, sweep
from szilard.infodyn import partial_trace, trace_distance
from szilard.params import PROTOCOLS, SETTINGS, configure
from szilard.spectral import PhysicalParams, analytic_pairs

from oracles import doublet_weights

LN2 = math.log(2.0)
# the directory holding the szilard package, so child interpreters import
# this source tree from any working directory
SRC = os.path.dirname(os.path.dirname(os.path.abspath(szilard.__file__)))
# the source checkout these tests belong to
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("SZILARD_"):
            monkeypatch.delenv(key)


def table_value(text: str, name: str) -> float:
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == name:
            return float(tokens[1])
    raise AssertionError(f"no row named {name} in output:\n{text}")


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["thermo"]) == 0

    def test_invalid_geometry_is_config_error(self, capsys):
        assert main(["thermo", "--d", "1.5"]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_failed_computation(self, capsys):
        # barrier too low: the second doublet sits above it
        code = main(["spectrum", "--U", "50", "--pairs", "3"])
        assert code == 2
        assert "computation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--d", "nan")])
    def test_non_finite_parameter_is_named(self, flag, value, capsys):
        assert main(["cycle", flag, value]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert f"{flag[2:]} must be finite" in err

    @pytest.mark.parametrize("command", ["thermo", "measure", "cycle"])
    def test_overflowing_box_scale_is_named(self, command, capsys):
        # eps = pi^2 hbar^2 / (2 m L^2) leaves the float range at L = 1e300
        assert main([command, "--L", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["szilard: invalid configuration: eps is out of floating-point range"]

    @pytest.mark.parametrize("command", ["spectrum", "thermo", "measure", "cycle", "sweep"])
    @pytest.mark.parametrize("setting, message", [
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--protocol", "bogus"], "unknown protocol 'bogus'; choose from "
                                  "['adiabatic', 'isothermal', 'single-adiabatic', 'stepwise', 'stepwise-adiabatic']"),
        (["--n-steps", "0"], "n_steps must be >= 1, got 0"),
        (["--N", "0"], "--N must be in 1..100000, got 0"),
    ], ids=["seed", "protocol", "n_steps", "N"])
    def test_every_command_refuses_a_bad_setting(self, command, setting, message, capsys):
        # each command resolves every setting into one CycleConfig, used or not
        sweep_args = ["--axis", "T", "--values", "1"] if command == "sweep" else []
        assert main([command, *setting, *sweep_args]) == 1
        assert capsys.readouterr() == ("", f"szilard: invalid configuration: {message}\n")

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--no-such-flag"])
        assert exc.value.code == 1

    def test_grid_is_no_setting(self, tmp_path, monkeypatch, capsys):
        # no printed value depends on a grid, so none can be set
        with pytest.raises(SystemExit) as exc:
            main(["cycle", "--grid", "100"])
        assert exc.value.code == 1
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid = 100\n")
        assert main(["cycle", "--config", str(cfg)]) == 1
        assert "unknown config key 'grid'" in capsys.readouterr().err
        monkeypatch.setenv("SZILARD_GRID", "not a number")
        assert main(["thermo"]) == 0

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_bad_format(self, capsys):
        assert main(["thermo", "--format", "yaml"]) == 1

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        assert main(["thermo", "--out", str(target)]) == 1
        assert "cannot write output" in capsys.readouterr().err


class TestPrecedence:
    def test_flag_beats_env_beats_config_beats_default(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("T = 4.0\n")
        monkeypatch.setenv("SZILARD_T", "2.0")

        assert main(["thermo", "--config", str(cfg), "--T", "3.0"]) == 0
        assert table_value(
            capsys.readouterr().out, "measurement_jump"
        ) == pytest.approx(3.0 * LN2, rel=1e-15)

        assert main(["thermo", "--config", str(cfg)]) == 0
        assert table_value(
            capsys.readouterr().out, "measurement_jump"
        ) == pytest.approx(2.0 * LN2, rel=1e-15)

        monkeypatch.delenv("SZILARD_T")
        assert main(["thermo", "--config", str(cfg)]) == 0
        assert table_value(
            capsys.readouterr().out, "measurement_jump"
        ) == pytest.approx(4.0 * LN2, rel=1e-15)

        assert main(["thermo"]) == 0
        assert table_value(
            capsys.readouterr().out, "measurement_jump"
        ) == pytest.approx(LN2, rel=1e-15)

    def test_env_var_type_checked(self, monkeypatch, capsys):
        monkeypatch.setenv("SZILARD_N", "a lot")
        assert main(["thermo"]) == 1
        assert capsys.readouterr().err == (
            "szilard: invalid configuration: environment value for N is not an int: 'a lot'\n")


# a valid value other than the default for every setting
_NON_DEFAULT = {"L": "2.0", "d": "0.1", "U": "1000.0", "T": "3.0", "N": "11",
                "protocol": "stepwise-adiabatic", "n_steps": "4", "seed": "7"}


def _setting(config, key):
    """The value config holds for the setting key."""
    if key == "N":
        return config.n_side
    return getattr(config.params if key in ("L", "d", "U", "T") else config, key)


class TestSettingsTable:
    def test_every_setting_has_a_value_here(self):
        assert set(_NON_DEFAULT) == set(SETTINGS)
        assert set(SWEEP_AXES) <= set(SETTINGS)

    def test_every_setting_is_a_flag_on_every_command(self):
        parser = _build_parser()
        flags = [arg for key, value in _NON_DEFAULT.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        extras = {"sweep": ["--axis", "T", "--values", "1"]}
        for command in ("spectrum", "thermo", "measure", "cycle", "sweep"):
            config = _resolve(parser.parse_args([command, *flags, *extras.get(command, [])])).config
            for key, value in _NON_DEFAULT.items():
                assert _setting(config, key) == SETTINGS[key][0](value), (command, key)

    def test_every_setting_is_a_variable_and_a_config_key(self, tmp_path, monkeypatch):
        parser = _build_parser()
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in _NON_DEFAULT.items()))
        from_file = _resolve(parser.parse_args(["thermo", "--config", str(cfg)])).config
        for key, value in _NON_DEFAULT.items():
            monkeypatch.setenv("SZILARD_" + key.upper(), value)
        from_env = _resolve(parser.parse_args(["thermo"])).config
        for key, value in _NON_DEFAULT.items():
            assert _setting(from_file, key) == _setting(from_env, key) == SETTINGS[key][0](value)

    def test_configure_maps_and_casts(self):
        base = CycleConfig(coherences=False)
        config = configure(base, {"N": 11.0, "T": 3, "d": "0.1", "n_steps": "4", "seed": 7.0,
                                  "protocol": "stepwise"})
        assert config == CycleConfig(params=PhysicalParams(T=3.0, d=0.1), n_side=11,
                                     protocol="stepwise-adiabatic", n_steps=4, seed=7,
                                     coherences=False)
        assert type(config.n_side) is int and type(config.params.T) is float
        assert type(config.seed) is int
        assert configure(base, {}) == base
        with pytest.raises(ValueError, match="n_side must be in 1..100000, got 0"):
            configure(base, {"N": 0})

    def test_sweep_row_is_the_cycle_command(self, capsys):
        (row,) = sweep(CycleConfig(), "N", [11])
        assert main(["cycle", "--N", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (row["W_extracted"], row["net_balance"]) == (payload["W_extracted"],
                                                            payload["net_balance"])


class TestConfigFile:
    def test_comments_quotes_and_inline_comments(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "# engine settings\n"
            "\n"
            'protocol = "stepwise"\n'
            "T = 2.0  # reservoir\n"
            'format = "json"  # output\n'
            "seed = '7'#\n"
        )
        assert main(["cycle", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["W_extracted"] == pytest.approx(
            8 * (2.0 / 2.0) * (1.0 - 2.0 ** (-2.0 / 8)), rel=1e-12
        )
        assert payload["seed"] == 7

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 3\n")
        assert main(["thermo", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["thermo", "--config", str(cfg)]) == 1
        assert "key = value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['format = "json" csv', "format = 'json", 'format = "json"x # c'])
    def test_quoted_value_ends_at_its_quote(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T = 2.0\n" + line + "\n")
        assert main(["thermo", "--config", str(cfg)]) == 1
        assert f"bad.cfg:2: unclosed quote or text after it: {line!r}" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["thermo", "--config", "/no/such/file.cfg"]) == 1


class TestSpectrumCommand:
    def test_csv_layout(self, capsys):
        assert main(["spectrum", "--pairs", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# master_seed=0"
        assert lines[1] == "n,E_n,pair,delta_k,estimate,ratio,estimate_bound"
        body = []
        for line in lines[2:]:
            if not line:
                break
            body.append(line)
        assert len(body) == 5
        first = body[0].split(",")
        assert len(first) == 7
        assert int(first[0]) == 1 and int(first[2]) == 1
        assert float(first[3]) > 0.0
        # odd level indices and one row per doublet
        assert [int(r.split(",")[0]) for r in body] == [1, 3, 5, 7, 9]
        assert "# series: splitting-vs-d" in out

    @pytest.mark.parametrize("name, fmt", [("spec.csv", "csv"), ("spec", "json")])
    def test_series_file_written_next_to_output(self, name, fmt, tmp_path, capsys):
        # the companion file takes the main file's suffix, none included
        target = tmp_path / name
        assert main(
            ["spectrum", "--pairs", "2", "--format", fmt, "--out", str(target)]
        ) == 0
        series = tmp_path / name.replace("spec", "spec_splitting_vs_d")
        assert target.exists() and series.exists()
        if fmt == "json":
            payload = json.loads(series.read_text())
            assert payload["schema"] == "szilard.splitting-series/1"
            ds = [row["d"] for row in payload["series"]]
            deltas = [row["delta_1"] for row in payload["series"]]
        else:
            lines = series.read_text().splitlines()
            assert lines[1] == "d,delta_1,estimate,ratio,estimate_bound"
            ds = [float(r.split(",")[0]) for r in lines[2:]]
            deltas = [float(r.split(",")[1]) for r in lines[2:]]
        assert ds == [pytest.approx(d) for d in SPLITTING_SERIES_D]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))  # thicker wall, smaller split

    def test_json_payload(self, capsys):
        assert main(["spectrum", "--pairs", "2", "--format", "json"]) == 0
        chunks = capsys.readouterr().out.split("\n{", 1)
        payload = json.loads(chunks[0])
        assert payload["schema"] == "szilard.spectrum/1"
        assert len(payload["pairs"]) == 2
        series = json.loads("{" + chunks[1])
        assert series["schema"] == "szilard.splitting-series/1"

    def test_requires_barrier(self, capsys):
        assert main(["spectrum", "--d", "0"]) == 1

    def test_underflowing_estimate_leaves_ratio_empty(self, capsys):
        # at U = 1e12 the closed-form splitting underflows to 0 for every pair and series row
        assert main(["spectrum", "--U", "1e12", "--pairs", "2", "--format", "json"]) == 0
        chunks = capsys.readouterr().out.split("\n{", 1)
        rows = json.loads(chunks[0])["pairs"] + json.loads("{" + chunks[1])["series"]
        assert len(rows) == 2 + len(SPLITTING_SERIES_D)
        assert all(row["estimate"] == 0.0 and row["ratio"] is None for row in rows)

    def test_estimate_is_the_splitting_form_of_each_pair(self, capsys):
        # the asymptotic form reads each exact level: ratios within 5e-5 of 1
        # at the defaults, 1.7% off at the thinnest series barrier
        assert main(["spectrum", "--format", "json"]) == 0
        chunks = capsys.readouterr().out.split("\n{", 1)
        pairs, series = json.loads(chunks[0])["pairs"], json.loads("{" + chunks[1])["series"]
        assert [abs(row["ratio"] - 1.0) <= 5e-5 for row in pairs] == [True] * 5
        gaps = [row["ratio"] - 1.0 for row in series]
        assert 0.017 <= gaps[0] <= 0.019 and 0.0 < gaps[-1] <= 3e-9
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("argv, tol", [(["--U", "1e30", "--d", "1e-14"], 1e-12),
                                           (["--U", "21"], 0.2)])
    def test_estimate_answers_for_every_pair(self, argv, tol, capsys):
        # a very high, very thin barrier; and U = 21, where the model level
        # eps' (2k)^2 = 21.87 of the old estimate stood above the top
        assert main(["spectrum", *argv, "--pairs", "1", "--format", "json"]) == 0
        (pair,) = json.loads(capsys.readouterr().out.split("\n{", 1)[0])["pairs"]
        assert pair["estimate"] > 0.0 and abs(pair["ratio"] - 1.0) <= tol

    @pytest.mark.parametrize("argv, bounded", [
        ([], True), (["--d", "1e-6", "--pairs", "3"], True), (["--U", "21", "--pairs", "1"], False),
        (["--L", "1e118", "--d", "1e116", "--U", "1e9", "--pairs", "3"], False)])
    def test_estimate_bound_is_printed_where_it_is_proven(self, argv, bounded, capsys):
        # 2 e^(-2 kappa_k d) at E_k <= U/2: it holds each printed estimate, the
        # thin barrier's 7.65x included (bound ~2); at U = 21 every level
        # stands above U/2, and in the 1e118-wide box every delta_k is 0.0
        # at E_k ~ 1e-235, where 1e-290 E_k itself underflows to 0
        assert main(["spectrum", *argv, "--format", "json"]) == 0
        chunks = capsys.readouterr().out.split("\n{", 1)
        rows = json.loads(chunks[0])["pairs"] + json.loads("{" + chunks[1])["series"]
        delta = [row.get("delta_k", row.get("delta_1")) for row in rows]
        if not bounded:
            assert [row["estimate_bound"] for row in rows] == [None] * len(rows)
            return
        assert all(type(row["estimate_bound"]) is float for row in rows)
        assert all(abs(row["estimate"] / dk - 1.0) <= row["estimate_bound"] + 1e-12
                   for row, dk in zip(rows, delta))

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_failing_series_writes_nothing(self, fmt, tmp_path, capsys):
        # at U = 19.85 the main d = 0.05 doublet lies below the top, but the
        # series' d = 0.10 wells are narrower and lift its odd member above it
        argv = ["spectrum", "--U", "19.85", "--pairs", "1", "--format", fmt]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "splitting series at d = 0.1: pair 1 reaches the barrier top" in err
        assert main(argv + ["--out", str(tmp_path / "spec.txt")]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_small_box_series_scales_with_its_width(self, capsys):
        # the series widths are fractions of L, so a box narrower than the
        # widest one at L = 1 still has its companion series
        assert main(["spectrum", "--L", "0.05", "--d", "0.01", "--U", "1e6",
                     "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        series = json.loads("{" + out.split("\n{", 1)[1])["series"]
        assert [row["d"] for row in series] == [0.05 * f for f in SPLITTING_SERIES_D]
        deltas = [row["delta_1"] for row in series]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_thin_barrier_with_many_pairs(self, capsys):
        # thin barrier, delta_5/E_5 = 2.3e-3: every pair is a valid doublet
        assert main(["spectrum", "--d", "0.018", "--U", "5947", "--pairs", "10"]) == 0
        lines = capsys.readouterr().out.split("\n\n", 1)[0].splitlines()
        assert [int(row.split(",")[2]) for row in lines[2:]] == list(range(1, 11))

    def test_barrier_too_wide_to_cube(self, capsys):
        # b = d/2 = 5e115, so b^3 in the phase slope leaves the float range
        assert main(["spectrum", "--L", "1e118", "--d", "1e116", "--U", "1e9", "--pairs", "50"]) == 0
        assert capsys.readouterr().err == ""

    def test_pair_count_is_capped(self, capsys):
        # the message names the flag, not the library's argument
        for pairs in ("2049", "0"):
            assert main(["spectrum", "--U", "1e12", "--pairs", pairs]) == 1
            assert capsys.readouterr().err == (
                f"szilard: invalid configuration: --pairs must be in 1..2048, got {pairs}\n"
            )


class TestThermoCommand:
    def test_quantities_are_consistent(self, capsys):
        assert main(["thermo", "--T", "2.0"]) == 0
        out = capsys.readouterr().out
        kt = 2.0
        p_l, p_d = 1.0, 0.05
        assert table_value(out, "measurement_jump") == pytest.approx(kt * LN2, rel=1e-14)
        assert table_value(out, "insertion_cost") == pytest.approx(
            kt * math.log(p_l / (p_l - p_d)), rel=1e-12
        )
        a_free = table_value(out, "A_free")
        a_ins = table_value(out, "A_inserted")
        a_meas = table_value(out, "A_measured")
        assert a_ins - a_free == pytest.approx(table_value(out, "insertion_cost"), rel=1e-10)
        assert a_meas - a_ins == pytest.approx(kt * LN2, rel=1e-10)

    def test_needs_a_barrier(self, capsys):
        # d = 0 never divides the box: no measurement jump or A_measured for it
        assert main(["thermo", "--d", "0"]) == 1
        assert capsys.readouterr() == (
            "", "szilard: invalid configuration: thermo needs a barrier: d must be positive\n")

    @pytest.mark.parametrize("T", ["1e12", "1e100", "0.001", "1e-300"])
    def test_answers_at_both_temperature_ends(self, T, capsys):
        assert main(["thermo", "--T", T, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        q, eps = payload["quantities"], PhysicalParams().eps
        if float(T) < 1.0:
            # e^(-beta eps) underflows: Z_exact says so, <E> and S need no Z
            assert (q["Z_exact"], payload["details"]["Z_exact"]) == (0.0, "terms=1 underflow")
            assert (q["E_mean"], q["S_thermo"]) == (eps, 0.0)
        else:
            assert payload["details"]["Z_exact"] == "terms=1"
            # k_B T/2 up to the surface term, 1.3e-6 of it at T = 1e12
            assert q["E_mean"] == pytest.approx(float(T) / 2.0, rel=1e-5)

    def test_refuses_beta_eps_past_the_float_range(self, capsys):
        assert main(["thermo", "--L", "1e5", "--T", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "szilard: computation failed: beta eps = 4.93e-318 is too small for floats: "
            "k_B T/eps overflows\n")

    def test_prints_only_certified_quantities(self, capsys):
        # the theta and classical forms are off at T = 1 (Z_theta < 0): not printed
        assert main(["thermo", "--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["quantities"]) == [
            "Z_exact", "lambda_th", "A_free", "A_inserted", "A_measured", "insertion_cost",
            "measurement_jump", "E_mean", "S_thermo"]

    def test_json_floats_round_trip_exactly(self, capsys):
        assert main(["thermo", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantities"]["measurement_jump"] == pytest.approx(LN2, rel=1e-15)
        assert payload["quantities"]["lambda_th"] == math.sqrt(2.0 * math.pi)


class TestMeasureCommand:
    def test_ideal_readoff_reports_ln2(self, capsys):
        assert main(["measure", "--ideal", "--T", "25", "--d", "0.02", "--N", "11"]) == 0
        out = capsys.readouterr().out
        assert table_value(out, "di_mu") == pytest.approx(LN2, abs=1e-10)
        assert table_value(out, "ds_demon") == pytest.approx(LN2, abs=1e-10)
        assert table_value(out, "ds_gas") == pytest.approx(0.0, abs=1e-10)

    def test_coherent_readoff_reports_overhead(self, capsys):
        assert main(["measure", "--T", "25", "--d", "0.02", "--N", "11"]) == 0
        out = capsys.readouterr().out
        di = table_value(out, "di_mu")
        ds_gas = table_value(out, "ds_gas")
        assert di == pytest.approx(LN2 + ds_gas, abs=1e-10)
        assert ds_gas > 0.0
        assert table_value(out, "td_post_vs_product") == pytest.approx(0.5, abs=1e-10)
        # leading doublet dominates; higher ones shift the distance ~0.1%
        bd = table_value(out, "beta_delta_1")
        assert table_value(out, "td_gas_marginal") == pytest.approx(
            math.tanh(bd) / 2.0, rel=5e-3
        )

    def test_truncation_gate(self, capsys):
        assert main(["measure", "--T", "1000", "--N", "11"]) == 1

    def test_needs_a_barrier(self, capsys):
        # d = 0 leaves the box undivided: the readoff refuses it, it reads no ln 2
        assert main(["measure", "--d", "0"]) == 2
        assert capsys.readouterr() == (
            "", "szilard: computation failed: the readoff needs a barrier, got d = 0\n")

    def test_side_count_is_capped(self, capsys):
        # refused before any state is built, naming the flag
        for n in ("100001", "0"):
            assert main(["measure", "--N", n]) == 1
            assert capsys.readouterr().err == (
                f"szilard: invalid configuration: --N must be in 1..100000, got {n}\n"
            )

    @pytest.mark.parametrize("argv, config", [
        ([], CycleConfig()),
        (["--ideal"], CycleConfig(coherences=False)),
        (["--T", "25", "--d", "0.02", "--N", "11"],
         CycleConfig(params=PhysicalParams(T=25.0, d=0.02), n_side=11)),
    ], ids=["defaults", "ideal", "T25-N11"])
    def test_readoff_matches_cycle(self, argv, config, capsys):
        # measure and cycle share one readoff, so the figures agree bit for bit
        assert main(["measure", "--format", "json", *argv]) == 0
        quantities = json.loads(capsys.readouterr().out)["quantities"]
        measurement = run_cycle(config).to_dict()["measurement"]
        assert {k: quantities[k] for k in measurement} == measurement


    @pytest.mark.parametrize("argv", [
        [], ["--ideal"], ["--T", "25", "--d", "0.02", "--N", "11"], ["--T", "1e-9"],
        ["--T", "400", "--N", "45"], ["--N", "100000", "--T", "1e6"],
    ], ids=["defaults", "ideal", "T25-N11", "T1e-9", "T400-N45", "N1e5-T1e6"])
    def test_trace_distances_match_50_digit_weights(self, argv, capsys):
        # the gas marginal loses each doublet's coherence, sum_k |s_k|, and the
        # post state stands 1/2 + 1/2 sum_k max(0, 2|s_k| - c_k) from the
        # product of its marginals.  The oracle takes only the rows with
        # beta (E_k - delta_k - E_min) < 800; each later one weighs under e^-800
        assert main(["measure", "--format", "json", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        q, given = payload["quantities"], payload["params"]
        p = PhysicalParams(**{key: given[key] for key in ("L", "d", "U", "T")})
        pairs = analytic_pairs(p, given["N"])
        low = min(e - d for e, d in pairs)
        c, coh = doublet_weights([(e, d) for e, d in pairs if p.beta * (e - d - low) < 800.0], p.beta)
        if payload["ideal"]:
            coh = [0] * len(c)
        with mpmath.workdps(50):
            marginal = mpmath.fsum(abs(x) for x in coh)
            product = 0.5 + 0.5 * mpmath.fsum(max(0, 2 * abs(y) - x) for x, y in zip(c, coh))
        assert q["td_gas_marginal"] == pytest.approx(float(marginal), rel=1e-14, abs=0.0)
        assert q["td_post_vs_product"] == pytest.approx(float(product), rel=1e-15)

    @pytest.mark.parametrize("argv, config", [
        ([], CycleConfig()),
        (["--ideal"], CycleConfig(coherences=False)),
        (["--T", "25", "--d", "0.02", "--N", "11"],
         CycleConfig(params=PhysicalParams(T=25.0, d=0.02), n_side=11)),
        (["--T", "1e-9", "--N", "3"], CycleConfig(params=PhysicalParams(T=1e-9), n_side=3)),
    ], ids=["defaults", "ideal", "T25-N11", "T1e-9-N3"])
    def test_trace_distances_match_the_state_route(self, argv, config, capsys):
        # the oracle builds the readoff's joint states and takes both trace
        # distances from their spectra
        assert main(["measure", "--format", "json", *argv]) == 0
        q = json.loads(capsys.readouterr().out)["quantities"]
        record = readoff(config)
        marginal = trace_distance(partial_trace(record.pre, "gas"), partial_trace(record.post, "gas"))
        product = trace_distance(record.post, product_of_marginals(record.post))
        assert q["td_gas_marginal"] == pytest.approx(marginal, rel=1e-12, abs=1e-15)
        assert q["td_post_vs_product"] == pytest.approx(product, abs=1e-12)


class TestCycleCommand:
    def test_json_matches_library_call(self, capsys):
        assert main(["cycle", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expect = run_cycle(CycleConfig(seed=3)).to_dict()
        assert payload == json.loads(json.dumps(expect))

    def test_reruns_are_byte_identical(self, capsys):
        assert main(["cycle", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["cycle", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("ideal", [[], ["--ideal"]])
    def test_needs_a_barrier(self, ideal, capsys):
        # d = 0 never divides the box, so no k_B T ln 2 is reported from it
        assert main(["cycle", "--d", "0", *ideal]) == 2
        assert capsys.readouterr() == (
            "", "szilard: computation failed: the readoff needs a barrier, got d = 0\n")

    def test_adiabatic_note_and_work(self, capsys):
        assert main(["cycle", "--protocol", "adiabatic", "--T", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["W_extracted"] == pytest.approx(0.75, rel=1e-14)
        assert "k_B T/4" in payload["note"]

    def test_table_format(self, capsys):
        assert main(["cycle", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert table_value(out, "W_extracted") == pytest.approx(LN2, rel=1e-12)
        assert table_value(out, "measurement.ds_demon") == pytest.approx(LN2, abs=1e-10)

    def test_deep_low_temperature(self, capsys):
        # beta * delta_1 near 5e7: the insertion weights must not overflow
        assert main(["cycle", "--T", "1e-9"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        measurement = json.loads(captured.out)["measurement"]
        assert measurement["ds_demon"] == pytest.approx(LN2, abs=1e-12)
        assert measurement["balance_residual"] <= 1e-10

    @pytest.mark.parametrize("command", ["cycle", "measure"])
    def test_overflowing_weight_exponent_underflows_quietly(self, command, capsys):
        # beta (E_k - E_1) overflows for every upper doublet: its weight is 0
        assert main([command, "--L", "2e-85", "--d", "1.6e-119", "--T", "1e-288"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("T", ["0.02", "1e-6"])
    def test_spectral_check_at_low_temperature(self, T, capsys):
        # the doublets just below the barrier top have beta * delta near 1e3
        # at T = 0.02, and every raw weight e^(-beta E) underflows at T = 1e-6
        assert main(["cycle", "--spectral-check", "--T", T]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["spectral_jump_dev"] <= 1e-12

    @pytest.mark.parametrize("ideal", [[], ["--ideal"]])
    def test_hot_small_box_keeps_the_second_law(self, ideal, capsys):
        # k_B T = 9.2e7: a pointer entropy one ulp below ln 2 would read as
        # W - T dS_env = 1.5e-8, past the second-law tolerance
        argv = ["cycle", "--L", "0.0016895616211630654", "--d", "0.0006380114709206589",
                "--U", "3865544.6909336303", "--T", "91883781.60350323", "--N", "59"]
        assert main(argv + ideal) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["net_balance"] == 0.0
        assert payload["measurement"]["ds_demon"] == LN2

    def test_spectral_check_needs_a_barrier(self, capsys):
        assert main(["cycle", "--spectral-check", "--d", "0"]) == 2
        err = capsys.readouterr().err
        assert "computation failed" in err
        assert "needs a barrier" in err


class TestSweepCommand:
    def test_measurement_jump_scales_with_temperature(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "0.5,1.0,2.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ",".join(SWEEP_COLUMNS)
        rows = [line.split(",", len(SWEEP_COLUMNS) - 1) for line in lines[2:]]
        assert len(rows) == 3
        jump_col = SWEEP_COLUMNS.index("measurement_jump")
        for row, t in zip(rows, [0.5, 1.0, 2.0]):
            assert float(row[jump_col]) == pytest.approx(t * LN2, rel=1e-12)
            assert row[-1] == ""

    def test_failed_row_reports_error(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "1.0,1e6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",", len(SWEEP_COLUMNS) - 1) for line in lines[2:]]
        assert rows[0][-1] == ""
        assert rows[1][-1] != ""
        w_col = SWEEP_COLUMNS.index("W_extracted")
        assert rows[1][w_col] == ""

    def test_deep_low_temperature_row_has_no_error(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "1,1e-9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",", len(SWEEP_COLUMNS) - 1) for line in lines[2:]]
        assert [row[SWEEP_COLUMNS.index("value")] for row in rows] == ["1.0", "1e-09"]
        assert [row[-1] for row in rows] == ["", ""]

    def test_empty_values_give_header_only(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", ""]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["# master_seed=0", ",".join(SWEEP_COLUMNS)]

    def test_step_count_axis(self, capsys):
        assert main(
            ["sweep", "--axis", "n_steps", "--values", "1,2,4,8",
             "--protocol", "stepwise"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        w_col = SWEEP_COLUMNS.index("W_extracted")
        ws = [float(l.split(",")[w_col]) for l in lines[2:]]
        assert ws[0] == pytest.approx(0.375, rel=1e-13)
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_float_cells_round_trip(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        w_col = SWEEP_COLUMNS.index("W_extracted")
        assert float(lines[2].split(",")[w_col]) == LN2

    def test_unknown_axis(self, capsys):
        # grid is no axis, and no setting either
        for axis in ("volume", "grid"):
            assert main(["sweep", "--axis", axis, "--values", "1024"]) == 1
            assert "axis must be one of" in capsys.readouterr().err

    def test_capped_side_count_row_reports_error(self, capsys):
        assert main(["sweep", "--axis", "N", "--values", "11,100001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",", len(SWEEP_COLUMNS) - 1) for line in lines[2:]]
        assert [row[-1] for row in rows] == ["", "n_side must be in 1..100000, got 100001"]

    def test_bad_value_names_its_axis(self, capsys):
        assert main(["sweep", "--axis", "n_steps", "--values", "1.5"]) == 1
        assert "value for n_steps" in capsys.readouterr().err

    def test_master_seed_header_tracks_seed(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "1.0", "--seed", "42"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# master_seed=42"
        seed_col = SWEEP_COLUMNS.index("seed")
        assert lines[2].split(",")[seed_col] == "42"


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: repr(10.0**x))


# d is drawn as a fraction of L, which sets eps = pi^2/(2 L^2): U and T
# stay absolute, so U/eps and k_B T/eps range wider than they would at L = 1.
# spectrum draws U/eps over 1..1e30 instead: an absolute U mostly lies
# near or below eps, where its first pair reaches the barrier top
_SETTINGS = {
    "--L": _log_uniform(1e-12, 1e3),
    "--d": _log_uniform(1e-30, 0.99),
    "--U": _log_uniform(1e-9, 1e12),
    "--T": _log_uniform(1e-9, 1e12),
    "--N": st.integers(1, 1000).map(str),
    "--n-steps": st.integers(1, 64).map(str),
    "--protocol": st.sampled_from(PROTOCOLS),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["spectrum", "thermo", "measure", "cycle", "sweep"]))
    argv = [command, "--format", "json"]
    values = {flag: draw(v) for flag, v in _SETTINGS.items()}

    def scaled(fraction):
        return repr(float(values["--L"]) * float(fraction))

    values["--d"] = scaled(values["--d"])
    if command == "spectrum":
        eps = math.pi**2 / (2.0 * float(values["--L"]) ** 2)
        values["--U"] = repr(eps * float(draw(_log_uniform(1.0, 1e30))))
    for flag, value in values.items():
        argv += [flag, value]
    if command == "spectrum":
        argv += ["--pairs", str(draw(st.integers(1, 8)))]
    if command in ("measure", "cycle") and draw(st.booleans()):
        argv.append("--ideal")
    if command == "cycle" and draw(st.booleans()):
        argv.append("--spectral-check")
    if command == "sweep":
        axis = draw(st.sampled_from(SWEEP_AXES))
        row_values = draw(st.lists(_SETTINGS["--" + axis.replace("_", "-")], min_size=1, max_size=3))
        if axis == "d":
            row_values = [scaled(v) for v in row_values]
        argv += ["--axis", axis, "--values", ",".join(row_values)]
    return argv


def _reject_constant(name):
    raise AssertionError(f"non-finite float {name} in the JSON output")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_argv())
def test_input_boundary(argv):
    # every input ends in a clean payload or in one message line, never in
    # a traceback, a warning or a NaN
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    # thermo answers at every temperature and every divided box
    assert code == 0 if argv[0] == "thermo" else code in (0, 1, 2)
    if code == 0:
        assert err == ""
        decoder, end, docs = json.JSONDecoder(parse_constant=_reject_constant), 0, []
        while end < len(out):
            doc, end = decoder.raw_decode(out, end)
            assert out[end] == "\n"
            end = end + 1
            docs.append(doc)
        assert len(docs) == (2 if argv[0] == "spectrum" else 1)
        if argv[0] == "spectrum":
            # every exact pair lies below the top, so each has an estimate
            rows = docs[0]["pairs"] + docs[1]["series"]
            assert all(type(row["estimate"]) is float for row in rows)
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SZILARD_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "szilard", "thermo"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# master_seed=0")


# imports szilard and szilard.cli, runs szilard.cli.main on each argv given
# as a Python literal, then the statement given next, then prints the exit
# codes and every loaded module that is one of the packages given last or
# lies inside one; literals rather than JSON, so the probe loads no json
MODULE_PROBE = """
import ast, contextlib, io, sys
import szilard, szilard.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [szilard.cli.main(argv) for argv in ast.literal_eval(sys.argv[1])]
exec(sys.argv[2])
packages = ast.literal_eval(sys.argv[3])
print(repr([codes, sorted(m for m in sys.modules
                          if any(m == p or m.startswith(p + ".") for p in packages))]))
"""


def modules_after(argvs, cwd, packages, then="pass"):
    """Modules in packages that a fresh interpreter holds after running
    argvs through the CLI and then the statement then."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, repr(argvs), then, repr(packages)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = ast.literal_eval(proc.stdout)
    assert codes == [0] * len(argvs)
    return modules


def test_numpy_commands_leave_out_scipy(tmp_path):
    # only eig_tridiagonal needs scipy, and it imports it on first use; the
    # barrier spectra are solved in closed form
    argvs = [
        ["thermo"],
        ["measure", "--N", "11"],
        ["cycle"],
        ["cycle", "--spectral-check"],
        ["sweep", "--axis", "n_steps", "--values", "1,2"],
        ["spectrum", "--pairs", "1"],
    ]
    assert modules_after(argvs, tmp_path, ["scipy"]) == []
    # positive control: a direct eig_tridiagonal call does load it
    tri = "szilard.TridiagonalSymmetric(np.full(3, 2.0), np.full(2, -1.0))"
    loaded = modules_after([], tmp_path, ["scipy"], then=f"import numpy as np; szilard.eig_tridiagonal({tri}, 1)")
    assert "scipy.linalg" in loaded


LAYERS = ["szilard.numerics", "szilard.spectral", "szilard.thermo", "szilard.infodyn",
          "szilard.demon", "szilard.engine"]
# loaded by no command and by no bare import: every record is a NamedTuple
# and no command builds a state
NEVER = ["numpy", "dataclasses", "inspect"]


@pytest.mark.parametrize("argvs, packages", [
    # the package and the parser load no layer; thermo runs on the standard library
    # and loads no layer but its own
    ([], [*NEVER, "json", *LAYERS]),
    ([["thermo"]], [*NEVER, "json", "szilard.numerics"]),
    # the cycle's ledger is taken in Python floats from the model doublets and
    # builds no state, so cycle and sweep load no numpy; a csv sweep writes no JSON
    ([["cycle"], ["sweep", "--axis", "n_steps", "--values", "1,2"]], [*NEVER, "szilard.infodyn"]),
    ([["sweep", "--axis", "n_steps", "--values", "1,2"]], [*NEVER, "json", "szilard.infodyn"]),
    # the exact levels are solved on Python floats
    ([["spectrum", "--pairs", "1"]], [*NEVER, "json", "szilard.numerics", "szilard.demon",
                                      "szilard.infodyn", "szilard.engine", "szilard.thermo"]),
    ([["cycle", "--spectral-check"]], [*NEVER, "szilard.numerics", "szilard.infodyn"]),
    # measure takes its trace distances from the doublet weights, not from states
    ([["measure", "--N", "11"], ["measure", "--ideal"]],
     [*NEVER, "json", "szilard.numerics", "szilard.infodyn"]),
], ids=["import", "thermo", "cycle-sweep", "csv-sweep", "spectrum", "spectral-check", "measure"])
def test_commands_load_only_their_layers(argvs, packages, tmp_path):
    assert modules_after(argvs, tmp_path, packages) == []


def test_module_probe_sees_what_is_loaded(tmp_path):
    # positive controls: a state read, a grid oracle, and a package name on
    # first access load their layers
    assert "numpy" in modules_after([["measure", "--N", "11"]], tmp_path, ["numpy"],
                                    then="from szilard.engine import readoff; readoff(szilard.CycleConfig(n_side=11)).post")
    assert "numpy" in modules_after([["spectrum", "--pairs", "1"]], tmp_path, ["numpy"],
                                    then="szilard.barrier_grid(szilard.PhysicalParams(), 64)")
    assert modules_after([], tmp_path, LAYERS, then="szilard.partition_exact") == ["szilard.thermo"]
    # the grid types are the dataclasses left, and a JSON payload loads json
    assert modules_after([], tmp_path, ["dataclasses"], then="szilard.Grid") == ["dataclasses"]
    assert "json" in modules_after([["cycle"]], tmp_path, ["json"])


DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(path, tmp_path):
    proc = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=child_env(), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_every_exported_name_resolves():
    # tools that walk __all__ (the benchmark tracer, star imports) break on a stale name
    missing = []
    for info in pkgutil.iter_modules(szilard.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        mod = importlib.import_module(f"szilard.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


PUBLIC_NAMES = [
    "ConfigError", "EngineError", "NumericsError", "SpectralError", "StateError", "SzilardError",
    "ThermoError", "TruncationError",
    "Grid", "TridiagonalSymmetric", "eig_tridiagonal",
    "PhysicalParams", "CycleConfig", "SplitPair", "analytic_pairs", "barrier_grid",
    "barrier_spectrum", "splitting_estimate",
    "PartitionResult", "StageFreeEnergies", "StageLedger", "isothermal_work", "mean_energy",
    "partition_exact", "partition_highT", "partition_theta", "spectral_stage_check",
    "stage_free_energies", "thermo_entropy",
    "DensityMatrix", "partial_trace", "post_insertion_dm", "product_dm", "trace_distance",
    "DemonModel", "MeasurementRecord", "ReversalResult", "coupling_unitary",
    "premeasure", "product_of_marginals", "reverse_readoff",
    "CycleReport", "extraction_work", "run_cycle", "sweep",
]


def test_package_names_are_their_defining_objects():
    assert szilard.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(szilard, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert szilard.PhysicalParams is importlib.import_module("szilard.spectral").PhysicalParams
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        szilard.no_such_name


def test_package_names_follow_their_module(monkeypatch):
    # nothing is cached in the package: a binding swapped in a layer module,
    # as the benchmark tracer does, shows through it and so does its restore
    engine = importlib.import_module("szilard.engine")
    original = szilard.run_cycle
    monkeypatch.setattr(engine, "run_cycle", "swapped")
    assert szilard.run_cycle == "swapped"
    monkeypatch.undo()
    assert szilard.run_cycle is original
    assert "run_cycle" not in vars(szilard)


def readme_cli_lines() -> list:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert block, "README has no fenced block under ## CLI"
    return block.group(1).splitlines()


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_example_runs(line, capsys):
    prog, *argv = shlex.split(line)
    assert prog == "szilard"
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
