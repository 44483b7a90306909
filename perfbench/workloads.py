"""The three benchmark workloads: seeded inputs and one checked iteration.

``make_inputs`` runs in the parent process (run.py) and needs only the
standard library; the program never sees the benchmark seed, only the
inputs made from it.  ``run_iteration`` runs in a fresh child interpreter,
calls the library, checks every result against its expected outcome and
returns the cases together with the bytes of every report it produced
(run.py compares those bytes between two runs of the same inputs).
"""

from __future__ import annotations

import io
import json
import os
import random
import traceback
from contextlib import redirect_stdout

WORKLOADS = ("verify-fd", "verify-analytic", "construct")

# "full" is what BENCHMARK.json measures; "tiny" keeps the smoke test fast.
# Frame spec counts are multiples of four so every draw holds the same mix of
# the four spec families (their costs differ by about 2x).
SIZES = {
    "full": {"grid": 21, "specs": 4, "flat_count": 4, "flat_grid": 7,
             "draws": 2, "step": 1e-4, "construct_grid": 11, "cylinders": 4},
    "tiny": {"grid": 5, "specs": 4, "flat_count": 1, "flat_grid": 5,
             "draws": 1, "step": 1e-2, "construct_grid": 5, "cylinders": 2},
}

FLAT_TOL = 1e-4          # acceptance criterion 8
CONSTRUCT_TOL = 1e-4     # `biharm construct` default
ORACLE_TOL = 1e-5        # ODE and Riccati oracles, acceptance criterion 6
CYLINDER_TOL = 1e-8      # acceptance criterion 3, analytic mode
PROPER_CYLINDER = "proper_biharmonic_vertical_cylinder"

# Fiber-angle initial data box in which every construction passes.
ALPHA0_RANGE = (0.6, 0.95)
ALPHA1_RANGE = (0.05, 0.15)
U0_RANGE = (-1.5, -0.5)
YSPAN = (0.0, 1.0)


def make_inputs(workload, seed, index, size="full"):
    """Inputs of input set ``index`` of a run seeded with ``seed``."""
    p = SIZES[size]
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "verify-fd":
        return {"mode": "fd", "grid": p["grid"], "specs": p["specs"],
                "seed": rng.randrange(2 ** 31)}
    if workload == "verify-analytic":
        return {"mode": "analytic", "grid": p["grid"], "specs": p["specs"],
                "seed": rng.randrange(2 ** 31),
                "flat_seed": rng.randrange(2 ** 31),
                "flat_count": p["flat_count"], "flat_grid": p["flat_grid"]}
    if workload == "construct":
        draws = [[rng.uniform(*ALPHA0_RANGE), rng.uniform(*ALPHA1_RANGE),
                  rng.uniform(*U0_RANGE)] for _ in range(p["draws"])]
        cylinders = []
        for k in range(p["cylinders"]):
            kg = rng.uniform(0.5, 2.0)
            if k % 2 == 0:
                cylinders.append([kg, kg * kg, True])
            else:
                # K != kg^2 on either side of the proper value
                factor = (rng.uniform(1.3, 2.5) if k % 4 == 1
                          else rng.uniform(0.3, 0.7))
                cylinders.append([kg, kg * kg * factor, False])
        return {"draws": draws, "step": p["step"], "yspan": list(YSPAN),
                "grid": p["construct_grid"], "cylinders": cylinders}
    raise ValueError(f"unknown workload {workload!r}")


def _case(label, ok, ratio=None, why=""):
    """One checked outcome; ``ratio`` is worst residual / tolerance, given
    only for cases expected to pass."""
    return {"label": label, "ok": bool(ok), "ratio": ratio, "why": why}


def _record_ratio(record):
    return max(c["max_abs"] for c in record["channels"]) / record["tolerance"]


def _guarded(cases, label, fn, *args):
    """Run one case; an exception counts as a failed case."""
    try:
        return fn(*args)
    except Exception:  # the iteration must go on and report the miss
        cases.append(_case(label, False, why=traceback.format_exc(limit=3)))
        return None


def _run_verify(inputs, workdir, tag):
    from biharm import cli

    out = os.path.join(workdir, f"{tag}-verify.jsonl")
    argv = ["verify", "--mode", inputs["mode"], "--grid", str(inputs["grid"]),
            "--specs", str(inputs["specs"]), "--seed", str(inputs["seed"]),
            "--out", out]
    cases, outputs = [], []
    with redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    with open(out, "rb") as handle:
        text = handle.read()
    outputs.append(text)
    records = [json.loads(line) for line in text.splitlines()[1:]]
    for rec in records:
        label = rec["case_label"]
        if label.startswith("frame["):
            ok = rec["verdict"] == "pass"
        else:
            ok = (rec["verdict"] == "pass"
                  and rec.get("classification") == "proper biharmonic")
        cases.append(_case(label, ok, _record_ratio(rec)))
    expected = 4 + inputs["specs"]
    cases.append(_case("verify-exit-status", code == 0 and len(records)
                       == expected, why=f"exit {code}, {len(records)} cases"))

    if "flat_seed" in inputs:
        outputs.append(_run_flat_flat(inputs, workdir, tag, cases))
    return cases, outputs


def _run_flat_flat(inputs, workdir, tag, cases):
    import numpy as np
    from biharm import report, submersion

    grid = (inputs["flat_grid"],) * 2
    specs = submersion.flat_random_specs(
        np.random.default_rng(inputs["flat_seed"]), inputs["flat_count"])
    reports = []
    for spec in specs:
        rep = submersion.residual_report(spec, tol=FLAT_TOL, grid=grid)
        # a flat base with a flat target admits no proper biharmonic member
        cases.append(_case(spec.label, not rep.passed))
        reports.append(rep)
    out = os.path.join(workdir, f"{tag}-flatflat.jsonl")
    report.write_report(out, reports, header={"command": "flat-flat"})
    with open(out, "rb") as handle:
        return handle.read()


def _run_construct(inputs, workdir, tag):
    from biharm import constructor, hypersurface

    cases, records = [], []
    grid = (inputs["grid"],) * 2

    def construction(label, a0, a1, u0):
        profile = constructor.integrate_alpha(
            a0, a1, u0 * a1 ** 2, tuple(inputs["yspan"]), inputs["step"])
        ode = max(abs(constructor.alpha_ode_residual(profile, y))
                  for y in profile.y_grid[2:-2])
        ricc = constructor.riccati_consistency(profile)
        built = constructor.build_nonflat_target(
            constructor.ConstructionSpec(profile))
        rep = constructor.verify_construction(built.canonical,
                                              tol=CONSTRUCT_TOL, grid=grid)
        ok = (not profile.truncated and rep.passed
              and ode <= ORACLE_TOL and ricc <= ORACLE_TOL)
        ratio = max(rep.max_abs_residual / rep.tolerance,
                    ode / ORACLE_TOL, ricc / ORACLE_TOL)
        records.append({"report": rep.to_record(), "ode": ode,
                        "riccati": ricc})
        cases.append(_case(label, ok, ratio))

    for a0, a1, u0 in inputs["draws"]:
        label = f"construct({a0:.6f},{a1:.6f},{u0:.6f})"
        _guarded(cases, label, construction, label, a0, a1, u0)

    def cylinder(label, kg, K, expect_proper):
        cyl = hypersurface.vertical_cylinder(kg, K)
        pts = hypersurface.surface_points(cyl, (4, 4))
        cls = hypersurface.cmc_classify(cyl, pts, tol=CYLINDER_TOL)
        proper = cls.kind == PROPER_CYLINDER
        ratio = None
        if expect_proper:
            gaps = ("max_vertical_defect", "max_shape_vs_base",
                    "max_base_vs_4H2")
            ratio = max(cls.details.get(g, 0.0) for g in gaps) / CYLINDER_TOL
        records.append({"cylinder": [kg, K], "kind": cls.kind,
                        "H": cls.mean_curvature})
        cases.append(_case(label, proper == expect_proper, ratio, cls.kind))

    for kg, K, expect_proper in inputs["cylinders"]:
        label = f"cylinder({kg:.6f},{K:.6f})"
        _guarded(cases, label, cylinder, label, kg, K, expect_proper)

    return cases, [json.dumps(records, sort_keys=True).encode()]


_RUNNERS = {
    "verify-fd": _run_verify,
    "verify-analytic": _run_verify,
    "construct": _run_construct,
}


def run_iteration(workload, inputs, workdir, tag):
    """Run and check one iteration; returns (cases, list of output bytes)."""
    failures = []
    result = _guarded(failures, f"{workload}-iteration", _RUNNERS[workload],
                      inputs, workdir, tag)
    return result if result is not None else (failures, [])
