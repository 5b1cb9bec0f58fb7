import glob
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import szilard
from szilard.cli import SPLITTING_SERIES_D, main
from szilard.engine import SWEEP_COLUMNS, CycleConfig, run_cycle
from szilard.spectral import PhysicalParams

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
        assert "not a int" in capsys.readouterr().err.replace("an int", "a int")


class TestConfigFile:
    def test_comments_quotes_and_inline_comments(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "# engine settings\n"
            "\n"
            'protocol = "stepwise"\n'
            "T = 2.0  # reservoir\n"
        )
        assert main(["cycle", "--config", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["W_extracted"] == pytest.approx(
            8 * (2.0 / 2.0) * (1.0 - 2.0 ** (-2.0 / 8)), rel=1e-12
        )

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

    def test_missing_file(self, capsys):
        assert main(["thermo", "--config", "/no/such/file.cfg"]) == 1


class TestSpectrumCommand:
    def test_csv_layout(self, capsys):
        assert main(["spectrum", "--pairs", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# master_seed=0"
        assert lines[1] == "n,E_n,pair,delta_k,estimate,ratio"
        body = []
        for line in lines[2:]:
            if not line:
                break
            body.append(line)
        assert len(body) == 5
        first = body[0].split(",")
        assert len(first) == 6
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
            assert lines[1] == "d,delta_1,estimate,ratio"
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

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_failing_series_writes_nothing(self, fmt, tmp_path, capsys):
        # at U = 24 the main d = 0.05 doublet and its estimate are below the
        # top, but the series' d = 0.10 estimate puts E_1 = 24.37 above it
        argv = ["spectrum", "--U", "24", "--pairs", "1", "--format", fmt]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "splitting series at d = 0.1: level k=1 sits above the barrier" in err
        assert main(argv + ["--out", str(tmp_path / "spec.txt")]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_thin_barrier_with_many_pairs(self, capsys):
        # thin barrier, delta_5/E_5 = 2.3e-3: every pair is a valid doublet
        assert main(["spectrum", "--d", "0.018", "--U", "5947", "--pairs", "10"]) == 0
        lines = capsys.readouterr().out.split("\n\n", 1)[0].splitlines()
        assert [int(row.split(",")[2]) for row in lines[2:]] == list(range(1, 11))

    def test_pair_count_is_capped(self, capsys):
        assert main(["spectrum", "--U", "1e12", "--pairs", "2049"]) == 1
        assert "n_pairs must be in 1..2048" in capsys.readouterr().err


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

    def test_theta_form_agrees_in_its_regime(self, capsys):
        assert main(["thermo", "--T", "22.0"]) == 0
        out = capsys.readouterr().out
        assert table_value(out, "Z_exact") == pytest.approx(
            table_value(out, "Z_theta"), rel=1e-12
        )

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

    @pytest.mark.parametrize("T", ["0.02", "1e-6"])
    def test_spectral_check_at_low_temperature(self, T, capsys):
        # the doublets just below the barrier top have beta * delta near 1e3
        # at T = 0.02, and every raw weight e^(-beta E) underflows at T = 1e-6
        assert main(["cycle", "--spectral-check", "--T", T]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["spectral_jump_dev"] <= 1e-12

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

    def test_bad_value_names_its_axis(self, capsys):
        assert main(["sweep", "--axis", "n_steps", "--values", "1.5"]) == 1
        assert "value for n_steps" in capsys.readouterr().err

    def test_master_seed_header_tracks_seed(self, capsys):
        assert main(["sweep", "--axis", "T", "--values", "1.0", "--seed", "42"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# master_seed=42"
        seed_col = SWEEP_COLUMNS.index("seed")
        assert lines[2].split(",")[seed_col] == "42"


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


# runs szilard.cli.main on each argv given as JSON, then the statement given
# next, then prints the exit codes and every scipy module the process has loaded
SCIPY_PROBE = """
import contextlib, io, json, sys
import szilard, szilard.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [szilard.cli.main(argv) for argv in json.loads(sys.argv[1])]
exec(sys.argv[2])
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(argvs, cwd, then="pass"):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs), then],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
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
    assert scipy_modules_after(argvs, tmp_path) == []
    # positive control: a direct eig_tridiagonal call does load it
    tri = "szilard.TridiagonalSymmetric(np.full(3, 2.0), np.full(2, -1.0))"
    loaded = scipy_modules_after([], tmp_path, then=f"import numpy as np; szilard.eig_tridiagonal({tri}, 1)")
    assert "scipy.linalg" in loaded


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
