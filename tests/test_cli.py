import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from biharm.cli import RunConfig, main, run

ROOT = pathlib.Path(__file__).resolve().parents[1]


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(tolerance=-1.0, grid=(5, 5), derivative_mode="analytic",
                      output_path="x")
        with pytest.raises(ValueError):
            RunConfig(tolerance=math.nan, grid=(5, 5),
                      derivative_mode="analytic", output_path="x")
        with pytest.raises(ValueError):
            RunConfig(tolerance=1e-6, grid=(1, 5), derivative_mode="analytic",
                      output_path="x")
        with pytest.raises(ValueError):
            RunConfig(tolerance=1e-6, grid=(5, 5), derivative_mode="exact",
                      output_path="x")

    def test_case_selection(self):
        cfg = RunConfig(tolerance=1e-6, grid=(5, 5),
                        derivative_mode="analytic", output_path="x",
                        cases=("cosh",))
        assert cfg.selected("cosh4")
        assert not cfg.selected("y4")


class TestScanCommand:
    def test_root_and_report(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        code = run(["scan", "--c", "-2", "--range", "0.1:3",
                    "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "1.41421356" in printed
        recs = read_records(out)
        assert recs[0]["record"] == "header"
        assert recs[1]["kind"] == "proper"
        assert recs[1]["slope"] == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_no_roots(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        assert run(["scan", "--c", "1", "--range", "0.1:3",
                    "--out", str(out)]) == 0
        assert len(read_records(out)) == 1  # header only

    def test_bad_range_is_argument_error(self, tmp_path):
        code = run(["scan", "--c", "-1", "--range", "3:1",
                    "--out", str(tmp_path / "s.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--c", "nan", "--range", "0.1:3"],
        ["--c", "inf", "--range", "0.1:3"],
        ["--c", "-1", "--range", "0:inf"],
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "s.jsonl"
        assert run(["scan", *args, "--out", str(out)]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSurfaceCommand:
    def test_matched_cylinder(self, tmp_path, capsys):
        out = tmp_path / "surface.jsonl"
        code = run(["surface", "--kg", "1", "--K", "1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "proper_biharmonic_vertical_cylinder" in printed
        recs = read_records(out)
        case = recs[1]
        assert case["classification"] == "proper_biharmonic_vertical_cylinder"
        names = {c["name"] for c in case["channels"]}
        assert names == {"hopf_r1", "hopf_r2", "surface_scalar",
                         "surface_tangent"}

    def test_flat_base_consistency(self, tmp_path):
        out = tmp_path / "surface.jsonl"
        code = run(["surface", "--kg", "1", "--K", "0", "--out", str(out)])
        assert code == 0
        case = read_records(out)[1]
        assert case["classification"] == "not_biharmonic"

    @pytest.mark.parametrize("kg, K, kind, reason", [
        ("0", "1", "minimal", "zero geodesic curvature"),
        ("0.5", "-1", "unavailable", "no geodesic circle"),
    ])
    def test_every_outcome_writes_its_report(self, tmp_path, capsys, kg, K,
                                             kind, reason):
        out = tmp_path / "surface.jsonl"
        code = run(["surface", "--kg", kg, "--K", K, "--out", str(out)])
        assert code == 0
        assert f"report: {out}" in capsys.readouterr().out
        header, case = read_records(out)
        assert header["command"] == "surface"
        assert case["classification"] == kind
        assert case["verdict"] == "pass"
        assert reason in case["notes"][0]
        assert [c["name"] for c in case["channels"]] == ["hopf_r1", "hopf_r2"]
        r1 = float(K) * float(kg) - float(kg) ** 3
        assert case["channels"][0]["max_abs"] == pytest.approx(abs(r1))


class TestCurvatureCommand:
    def test_sphere_grid(self, tmp_path):
        out = tmp_path / "K.csv"
        code = run(["curvature", "--chart", "sphere", "--radius", "2",
                    "--grid", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis1,axis2,K"
        for line in lines[1:]:
            assert float(line.split(",")[2]) == pytest.approx(0.25, abs=1e-6)

    def test_bad_chart_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["curvature", "--chart", "torus", "--out",
                 str(tmp_path / "K.csv")])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_small_run_deterministic(self, tmp_path, capsys):
        out = tmp_path / "verify.jsonl"
        argv = ["verify", "--grid", "5", "--specs", "2", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first
        recs = read_records(out)
        labels = [r["case_label"] for r in recs if r["record"] == "case"]
        assert "cosh4" in labels and any("frame" in l for l in labels)

    def test_case_filter_and_grid_dump(self, tmp_path):
        out = tmp_path / "verify.jsonl"
        dump = tmp_path / "grids"
        assert run(["verify", "--grid", "4", "--specs", "2",
                    "--cases", "cosh4", "--dump-grids", str(dump),
                    "--out", str(out)]) == 0
        recs = read_records(out)
        assert [r["case_label"] for r in recs if r["record"] == "case"] == [
            "cosh4"
        ]
        csv = (dump / "cosh4.csv").read_text().splitlines()
        assert csv[0] == "axis1,axis2,r1,r2"
        assert len(csv) == 17


class TestConstructCommand:
    def test_short_span(self, tmp_path, capsys):
        out = tmp_path / "construct.jsonl"
        prof = tmp_path / "profile.txt"
        code = run([
            "construct", "--alpha0", str(math.pi / 4), "--alpha1", "0.1",
            "--u0", "-1", "--yspan", "0:0.4", "--step", "2e-3",
            "--out", str(out), "--profile-out", str(prof),
        ])
        assert code == 0
        text = prof.read_text()
        assert text.splitlines()[0] == "y alpha alpha1 alpha2"
        assert len(text.splitlines()) == 202
        case = read_records(out)[1]
        assert case["verdict"] == "pass"
        assert case["classification"] == "proper biharmonic"

    @pytest.mark.parametrize("flag, value", [
        ("--yspan", "0:inf"), ("--yspan", "nan:1"),
        ("--step", "nan"), ("--step", "inf"),
    ])
    def test_non_finite_span_or_step_exits_2(self, tmp_path, capsys, flag,
                                             value):
        argv = ["construct", "--alpha0", "0.8", "--alpha1", "0.1",
                "--u0", "-1", "--yspan", "0:1",
                "--out", str(tmp_path / "c.jsonl"), flag, value]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step", ["1e-320", "1e-300"])
    def test_step_below_float_spacing_exits_2(self, tmp_path, capsys, step):
        argv = ["construct", "--alpha0", "0.8", "--alpha1", "0.1",
                "--u0", "-1", "--yspan", "0:1", "--step", step,
                "--out", str(tmp_path / "c.jsonl")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "below the float spacing" in err
        assert "Traceback" not in err

    def test_too_many_steps_exits_2(self, tmp_path, capsys):
        argv = ["construct", "--alpha0", "0.8", "--alpha1", "0.1",
                "--u0", "-1", "--yspan", "0:1", "--step", "1e-12",
                "--out", str(tmp_path / "c.jsonl")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "asks for 1e+12 steps" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_coarse_profile_exits_2(self, tmp_path, capsys):
        code = run([
            "construct", "--alpha0", "0.8", "--alpha1", "0.1", "--u0", "-1",
            "--yspan", "0:1", "--step", "0.3",
            "--out", str(tmp_path / "c.jsonl"),
        ])
        assert code == 2
        assert "profile has fewer than 5 nodes" in capsys.readouterr().err

    def test_degenerate_start_exits_2(self, tmp_path):
        code = run([
            "construct", "--alpha0", "0.8", "--alpha1", "0", "--u0", "0",
            "--yspan", "0:1", "--step", "1e-3",
            "--out", str(tmp_path / "c.jsonl"),
        ])
        assert code == 2


def test_entry_point_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def _argv(command, out):
    """A small valid command line of each command, writing to ``out``."""
    base = {
        "verify": ["verify", "--grid", "5", "--specs", "4"],
        "curvature": ["curvature", "--grid", "5"],
        "construct": ["construct", "--alpha0", "0.8", "--alpha1", "0.1",
                      "--u0", "-1", "--yspan", "0:0.4", "--step", "2e-3"],
        "scan": ["scan", "--c", "-2", "--range", "0.1:3"],
        "surface": ["surface", "--kg", "1", "--K", "1"],
    }[command]
    return base + ["--out", str(out)]


COMMANDS = ("verify", "curvature", "construct", "scan", "surface")


class TestArgumentValidation:
    """Each rejected input exits 2, names its option and writes nothing."""

    def _rejected(self, argv, option, out, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert option in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        self._rejected(_argv(command, out) + ["--tol", tol], "--tol", out,
                       capsys)

    @pytest.mark.parametrize("kg", ["-1", "nan", "inf"])
    def test_bad_kg(self, tmp_path, capsys, kg):
        out = tmp_path / "out"
        argv = ["surface", "--kg", kg, "--K", "1", "--out", str(out)]
        self._rejected(argv, "--kg", out, capsys)

    def test_bad_base_curvature(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["surface", "--kg", "1", "--K", "nan", "--out", str(out)]
        self._rejected(argv, "--K", out, capsys)

    def test_zero_kg_is_minimal(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["surface", "--kg", "0", "--K", "1",
                    "--out", str(out)]) == 0
        assert "minimal" in capsys.readouterr().out

    def test_negative_spec_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["verify", "--grid", "5", "--specs", "-1", "--out", str(out)]
        self._rejected(argv, "--specs", out, capsys)

    @pytest.mark.parametrize("args, option", [
        (["--chart", "sphere", "--radius", "0"], "--radius"),
        (["--chart", "sphere", "--radius", "-2"], "--radius"),
        (["--chart", "sphere", "--radius", "nan"], "--radius"),
        (["--chart", "hyperbolic", "--c", "nan"], "--c"),
        (["--chart", "hyperbolic", "--c", "1"], "--c"),
    ])
    def test_bad_chart_parameter(self, tmp_path, capsys, args, option):
        out = tmp_path / "K.csv"
        argv = ["curvature", *args, "--grid", "5", "--out", str(out)]
        self._rejected(argv, option, out, capsys)


_SYMPY_FREE_RUN = """
import json, sys
from biharm.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
print(json.dumps({"codes": codes, "sympy": loaded}))
"""


def test_runtime_never_imports_sympy(tmp_path):
    # sympy is a test-only dependency: every command runs without it
    argvs = [_argv(c, tmp_path / f"{c}.out") for c in COMMANDS]
    argvs.append(_argv("verify", tmp_path / "fd.out") + ["--mode", "fd"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SYMPY_FREE_RUN, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(argvs), "sympy": []}
