import collections
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from biharm.cli import main, run

ROOT = pathlib.Path(__file__).resolve().parents[1]


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestVerifyOptions:
    @pytest.mark.parametrize("args, err", [
        (["--tol", "-1"], "error: --tol must be positive and finite, "
                          "got -1.0\n"),
        (["--tol", "nan"], "error: --tol must be positive and finite, "
                           "got nan\n"),
        (["--grid", "1"], "error: grid counts must be at least 2\n"),
        (["--grid", "-3"], "error: grid counts must be at least 2\n"),
    ], ids=["negative-tol", "nan-tol", "grid-1", "negative-grid"])
    def test_validation(self, tmp_path, capsys, args, err):
        out = tmp_path / "verify.jsonl"
        assert run(["verify", "--specs", "1", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_unknown_mode_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--mode", "exact",
                 "--out", str(tmp_path / "verify.jsonl")])
        assert err.value.code == 2

    @pytest.mark.parametrize("cases, labels", [
        ("cosh", ["cosh4"]),
        ("y4,hyperbolic(-2", ["y4", "hyperbolic(-2)"]),
        ("frame[01", ["frame[01]-warped"]),
    ], ids=["one", "two", "frame"])
    def test_case_selection(self, tmp_path, cases, labels):
        out = tmp_path / "verify.jsonl"
        assert run(["verify", "--grid", "3", "--specs", "2", "--cases", cases,
                    "--out", str(out)]) == 0
        assert [r["case_label"] for r in read_records(out)[1:]] == labels


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
        ["--c", "-2", "--range=-1e308:1e308"],  # its width overflows
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

    def test_overflow_is_an_error_not_a_warning(self, tmp_path, capsys):
        # a product of the cylinder's components overflows on the way to
        # the non-finite value check
        out = tmp_path / "surface.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["surface", "--kg", "0.96", "--K", "1e308",
                        "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: field evaluated to -inf at (-0.98, -0.48)\n")


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "verify.jsonl"
        assert run(["verify", "--grid", "5", "--specs", "2", "--seed", "-3",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: expected non-negative integer\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_cases_filter_before_evaluating(self, tmp_path, monkeypatch,
                                            mode):
        # --cases y4 evaluates the y4 case alone; its report line and grid
        # dump are those of the whole run
        from biharm import frames, submersion

        calls = []
        for module, name in ((submersion, "residual_report"),
                             (frames, "validate_frame")):
            def counted(*args, _fn=getattr(module, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = ["verify", "--mode", mode, "--grid", "5", "--specs", "4",
                "--seed", "3"]
        outputs = {}
        for label, cases in (("all", []), ("y4", ["--cases", "y4"])):
            calls.clear()
            out, dump = tmp_path / f"{label}.jsonl", tmp_path / label
            assert run(argv + cases + ["--dump-grids", str(dump),
                                       "--out", str(out)]) == 0
            outputs[label] = (out.read_text().splitlines(),
                              {p.name: p.read_bytes() for p in dump.iterdir()})
        assert calls == ["residual_report"]
        (whole, grids), (alone, grid) = outputs["all"], outputs["y4"]
        assert alone == [whole[0]] + [
            line for line in whole if '"case_label": "y4"' in line]
        assert grid == {"y4.csv": grids["y4.csv"]}

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "analytic", "--grid", "5", "--specs", "8",
         "--seed", "7"],
        ["verify", "--mode", "fd", "--grid", "5", "--specs", "8",
         "--seed", "7"],
        ["construct", "--alpha0", "0.8", "--alpha1", "0.1", "--u0", "-1",
         "--yspan", "0:1", "--step", "1e-3"],
    ], ids=["analytic", "fd", "construct"])
    def test_no_directional_node_built_twice(self, tmp_path, monkeypatch,
                                             argv):
        # each e_i(f) has one owner (a frame its leg derivatives, a spec the
        # derivatives of its data that the residuals read, validate_frame
        # its e3(sigma)), so no (components, field) pair is built twice
        from biharm import numkernel

        built = []  # the args themselves, so that no id is reused
        derived = numkernel._derived

        def counted(dim, values, derive, *args):
            if values is numkernel._directional_values:
                built.append(args)
            return derived(dim, values, derive, *args)

        monkeypatch.setattr(numkernel, "_derived", counted)
        assert run(argv + ["--out", str(tmp_path / "out.jsonl")]) == 0
        keys = collections.Counter((id(c), id(f)) for c, f in built)
        assert len(built) > 0
        assert len(built) - len(keys) == 0


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


class TestNegativeValues:
    """A token that starts with "-" and then a digit or ".digit" is the
    value of the option before it, as with "=" (Python 3.13's rule)."""

    @pytest.mark.parametrize("argv", [
        ["construct", "--alpha0", "0.8", "--alpha1", "0.1", "--u0", "-1",
         "--yspan", "-0.5:0.5", "--step", "1e-2"],
        ["construct", "--alpha0", "0.8", "--alpha1", "0.1", "--u0", "-1e0",
         "--yspan", "0:1", "--step", "1e-2"],
        ["construct", "--alpha0", "0.8", "--alpha1", "0.1", "--u0", "-.5",
         "--yspan", "-.5:.5", "--step", "1e-2"],
        ["scan", "--c", "-2", "--range", "-1:2"],
    ])
    def test_spaced_value_runs_as_with_equals(self, tmp_path, capsys, argv):
        out = tmp_path / "out.jsonl"
        joined = argv[:1] + [f"{flag}={value}" for flag, value
                             in zip(argv[1::2], argv[2::2])]
        runs = []
        for line in (argv, joined):
            code = run(line + ["--out", str(out)])
            runs.append((code, out.read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1)

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_non_finite_token_stays_a_usage_error(self, tmp_path, capsys,
                                                  value):
        with pytest.raises(SystemExit) as err:
            run(["construct", "--alpha0", "0.8", "--alpha1", "0.1",
                 "--u0", value, "--yspan", "0:1",
                 "--out", str(tmp_path / "c.jsonl")])
        assert err.value.code == 2
        assert "argument --u0: expected one argument" in \
            capsys.readouterr().err


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
        try:
            code = run(argv)
        except SystemExit as err:  # argparse's usage error
            code = err.code
        assert code == 2
        err = capsys.readouterr().err
        assert option in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol(self, tmp_path, capsys, command, tol):
        # curvature and scan take no --tol, so argparse rejects any
        out = tmp_path / "out"
        self._rejected(_argv(command, out) + ["--tol", tol], "--tol", out,
                       capsys)

    @pytest.mark.parametrize("command, option, value", [
        ("scan", "--tol", "1e-3"),
        ("scan", "--mode", "fd"),
        ("curvature", "--tol", "1e-3"),
    ])
    def test_option_the_command_does_not_read(self, tmp_path, capsys,
                                              command, option, value):
        out = tmp_path / "out"
        self._rejected(_argv(command, out) + [option, value],
                       f"unrecognized arguments: {option} {value}", out,
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

    @pytest.mark.parametrize("cases", ["y4,", ",y4", "y4,,cosh4", ","])
    def test_empty_case_item(self, tmp_path, capsys, cases):
        # an empty item would select every case
        out = tmp_path / "out"
        argv = ["verify", "--grid", "3", "--specs", "2", "--cases", cases,
                "--out", str(out)]
        self._rejected(argv, "--cases", out, capsys)

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


class TestUnwritablePath:
    """A path that cannot be written is an error line and exit code 2, not
    a traceback, and the report is not written."""

    def _refused(self, argv, capsys):
        """Run ``argv`` twice and return its output: exit code 2 and one
        error line without a traceback, the same both times (no random
        temporary name)."""
        outputs = []
        for _ in range(2):
            assert run(argv) == 2
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        err = outputs[0].err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return outputs[0]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_in_a_missing_directory(self, tmp_path, capsys, command,
                                        monkeypatch):
        # a relative path, named as given
        monkeypatch.chdir(tmp_path)
        out = os.path.join("missing", "out")
        err = self._refused(_argv(command, out), capsys).err
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert os.listdir(tmp_path) == []

    def test_profile_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        profile = str(tmp_path / "missing" / "p.txt")
        err = self._refused(_argv("construct", out)
                            + ["--profile-out", profile], capsys).err
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"{profile!r}\n")
        assert os.listdir(tmp_path) == []

    def test_dump_grids_onto_a_file(self, tmp_path, capsys):
        out = tmp_path / "v.jsonl"
        grids = tmp_path / "grids"
        grids.write_text("a file\n")
        captured = self._refused(["verify", "--grid", "3", "--specs", "0",
                                  "--dump-grids", str(grids),
                                  "--out", str(out)], capsys)
        # refused before any case is evaluated, so no verdict is printed
        assert captured.out == ""
        assert captured.err == (f"error: [Errno 17] File exists: "
                                f"{str(grids)!r}\n")
        assert not out.exists() and grids.read_text() == "a file\n"


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


_NUMPY_RANDOM_FREE_RUN = """
import json, sys
from biharm.cli import run
code = run(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "numpy.random": "numpy.random" in sys.modules}))
"""


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_verify_never_imports_numpy_random(tmp_path, mode):
    # the frame specs are seeded from a pure-Python stream
    argv = ["verify", "--mode", mode, "--grid", "5", "--specs", "4",
            "--out", str(tmp_path / "verify.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_FREE_RUN, json.dumps(argv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "code": 0, "numpy.random": False}


# -- fuzz ------------------------------------------------------------------------

# finite, huge and non-finite floats
_FLOATS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e200, -1e200, 1e308, math.inf, -math.inf, math.nan]),
)


def _fuzz(max_examples):
    return settings(derandomize=True, max_examples=max_examples,
                    deadline=None, database=None)


def _or_any(low, high):
    """Mostly a float in [low, high], where a command runs through; else any
    float."""
    return st.integers(0, 3).flatmap(
        lambda k: _FLOATS if k == 0 else st.floats(low, high))


def _flag(flag, values):
    """``flag=value`` for a drawn value ("=", so that argparse reads a value
    such as -1e+200 or -inf as the option's, not as a flag)."""
    return values.map(lambda v: [f"{flag}={v}"])


def _opt(flag, values):
    """No option, or ``_flag``."""
    return st.one_of(st.just([]), _flag(flag, values))


def _given(command, *options):
    """``given`` a command line of ``command`` and one drawn part per
    option."""
    return given(st.tuples(*options).map(
        lambda opts: [command] + [a for opt in opts for a in opt]))


_MODE = _opt("--mode", st.sampled_from(["analytic", "fd"]))
_TOL_MODE = (_opt("--tol", _or_any(1e-8, 1e-2)), _MODE)


@st.composite
def _yspan_step(draw):
    """--yspan as drawn; a step giving at most 1,000 steps where the span
    allows one, else a drawn step."""
    lo, hi = draw(_or_any(-0.5, 0.0)), draw(_or_any(0.5, 1.0))
    width = hi - lo
    if math.isfinite(width) and width > 0:
        step = width / draw(st.integers(100, 1000))
    else:
        step = draw(_FLOATS)
    return [f"--yspan={lo!r}:{hi!r}", f"--step={step!r}"]


def _exit_code(argv):
    """Exit code of ``run(argv)`` in-process, writing its report to a
    scratch directory; argparse's SystemExit(2) counts as 2, and every other
    exception escapes."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return run(argv + ["--out", os.path.join(tmp, "out")])
        except SystemExit as err:
            assert err.code == 2
            return 2


class TestCommandFuzz:
    """Every command line of drawn numbers ends in exit code 0, 1 or 2:
    bad input is a typed error, never a traceback.  Sizes stay small: grids
    of at most 5 points per axis, at most 2 frame specs, 50 scan samples and
    1,000 RK4 steps."""

    @_fuzz(15)
    @_given("verify", *_TOL_MODE, _flag("--grid", st.integers(-1, 5)),
            _flag("--specs", st.integers(-1, 2)),
            _opt("--seed", st.integers(-2, 2 ** 70)))
    @example(["verify", "--grid=1", "--specs=1"])
    def test_verify(self, argv):
        assert _exit_code(argv) in (0, 1, 2)

    @_fuzz(25)
    @_given("curvature", _MODE,
            _opt("--chart", st.sampled_from(
                ["sphere", "hyperbolic", "flat", "cosh4", "y4"])),
            _opt("--radius", _or_any(0.1, 10.0)),
            _opt("--c", _or_any(-10.0, -0.1)),
            _flag("--grid", st.integers(-1, 5)))
    def test_curvature(self, argv):
        assert _exit_code(argv) in (0, 1, 2)

    @_fuzz(25)
    @_given("construct", *_TOL_MODE, _flag("--alpha0", _or_any(0.6, 0.95)),
            _flag("--alpha1", _or_any(0.05, 0.15)),
            _flag("--u0", _or_any(-1.5, -0.5)), _yspan_step())
    @example(["construct", "--alpha0=0.7", "--alpha1=1e200", "--u0=-1",
              "--yspan=0:1", "--step=0.001"])
    @example(["construct", "--alpha0=1e308", "--alpha1=0.1", "--u0=-1",
              "--yspan=0:1", "--step=0.001"])
    def test_construct(self, argv):
        assert _exit_code(argv) in (0, 1, 2)

    @_fuzz(40)
    @_given("scan", _flag("--c", _or_any(-4.0, 4.0)),
            _flag("--range", st.tuples(_or_any(-3.0, 0.0), _or_any(0.0, 3.0))
                  .map(lambda r: f"{r[0]!r}:{r[1]!r}")),
            _flag("--samples", st.integers(0, 50)))
    @example(["scan", "--c=-2", "--range=0:1e200", "--samples=50"])
    def test_scan(self, argv):
        assert _exit_code(argv) in (0, 1, 2)

    @_fuzz(30)
    @_given("surface", *_TOL_MODE, _flag("--kg", _or_any(0.0, 3.0)),
            _flag("--K", _or_any(-3.0, 3.0)))
    @example(["surface", "--kg=1e200", "--K=1"])
    def test_surface(self, argv):
        assert _exit_code(argv) in (0, 1, 2)
