"""The benchmark tracer (perfbench/spans.py) finds every name it wraps.

The tracer looks its targets up by name, without defaults, so a refactor
that renames one of them would otherwise only show up as a failing traced
benchmark run.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# names the tracer counts through, besides its SPANNED table
COUNTED = (
    ("biharm.numkernel", "ScalarField.__call__"),
    ("biharm.numkernel", "ScalarField.partial"),
    ("biharm.numkernel", "_central1"),
    ("biharm.numkernel", "_central2"),
    ("biharm.constructor", "_rk4_step"),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    targets = list(spans.SPANNED.values()) + list(COUNTED)
    for home, dotted in targets:
        owner = importlib.import_module(home)
        for attr in dotted.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{home}.{dotted}"


_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer(0)
tracer.install()
from biharm.constructor import integrate_alpha
from biharm.numkernel import ScalarField, fsin, numeric_only
f = numeric_only(fsin(ScalarField.coordinate(0, 1)))
f.partial((0.3,), 0, 2)
f.diff(0)((0.3,))
integrate_alpha(0.8, 0.1, -0.01, (0.0, 0.1), 1e-2)
print(json.dumps(tracer.counts))
"""


def test_installed_tracer_counts():
    # installing rebinds names process-wide, so it runs in a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(SPANS)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    # a second difference has three stencil legs, a first difference two:
    # the stencils are called through the module globals the tracer rebinds
    assert counts["numkernel.stencil_legs"] == 5
    assert counts["numkernel.partial_calls"] == 1
    assert counts["numkernel.field_evals"] > 0
    assert counts["constructor.rk4_steps"] > 0
