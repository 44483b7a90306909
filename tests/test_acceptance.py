"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run in analytic mode at their stated tolerances; the final test
re-runs all of them in finite-difference mode at the relaxed tolerances
(1e-3 where stated, 1e-6 for the machine-precision surface/Hopf checks
whose FD error budget is dominated by second-difference round-off) and
checks the accumulated wall time of the whole suite.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import sympy as sp

from biharm.constructor import (
    ConstructionSpec,
    alpha_ode_residual,
    build_nonflat_target,
    integrate_alpha,
    riccati_consistency,
    verify_construction,
)
from biharm.frames import frame_identity_suite, random_adapted_specs
from biharm.geometry import SurfaceMetric, base_sweep, gauss_curvature_2d
from biharm.hypersurface import (
    HopfCylinderSpec,
    biharmonic_residuals_surface,
    cmc_classify,
    hopf_cylinder_residuals,
    surface_points,
    vertical_cylinder,
)
from biharm.numkernel import ChartBox, ScalarField, numeric_only
from conftest import S, field_of, in_mode, mutation_detected
from biharm.submersion import (
    catalog_examples,
    catalog_suite,
    flat_random_specs,
    hyperbolic_uniqueness_scan,
    residual_report,
)

TIMINGS = {}


@contextmanager
def timed(name):
    t0 = time.perf_counter()
    yield
    TIMINGS[name] = time.perf_counter() - t0


def report(criterion, mode, detail):
    print(f"criterion {criterion} [{mode}]: PASS ({detail})")


# -- criterion 1: curvature oracle ------------------------------------------------


def run_criterion_1(mode):
    tol = 1e-7 if mode == "analytic" else 1e-3
    worst = 0.0
    for radius in (0.5, 1.0, 2.0):
        expr = sp.log(radius * sp.sin(S / radius))
        metric = SurfaceMetric(
            field_of(expr, 2),
            ChartBox((-1.0, 0.15 * radius), (1.0, 2.95 * radius), 0.01),
        )
        if mode == "fd":
            metric = numeric_only(metric)
        svals = np.linspace(0.2 * radius, 2.9 * radius, 21)
        for sv in svals:
            k = gauss_curvature_2d(metric, (0.0, float(sv)))
            worst = max(worst, abs(k - 1.0 / radius**2))
    assert worst <= tol, f"curvature error {worst:.3e} > {tol:g}"
    return worst, tol


def test_criterion_1():
    with timed("c1-analytic"):
        worst, tol = run_criterion_1("analytic")
    assert TIMINGS["c1-analytic"] < 1.0
    report(1, "analytic", f"max |K - 1/R^2| = {worst:.2e} <= {tol:g}, "
                          f"{TIMINGS['c1-analytic']:.2f}s")


# -- criterion 2: catalog residuals -----------------------------------------------


def run_criterion_2(mode):
    tol = 1e-6 if mode == "analytic" else 1e-3
    reports = catalog_suite(in_mode(mode, catalog_examples()), tol=tol,
                            grid=(21, 21))
    labels = {r.case_label for r in reports}
    assert {"cosh4", "y4", "hyperbolic(-1)", "hyperbolic(-2)"} <= labels
    for rep in reports:
        r_max = max(rep.channel("r1").max_abs, rep.channel("r2").max_abs)
        assert r_max <= tol, f"{rep.case_label}: {r_max:.3e} > {tol:g}"
        assert rep.classification == "proper biharmonic", rep.case_label
        assert rep.passed
    return max(
        max(r.channel("r1").max_abs, r.channel("r2").max_abs)
        for r in reports
    ), tol


def test_criterion_2():
    with timed("c2-analytic"):
        worst, tol = run_criterion_2("analytic")
    assert TIMINGS["c2-analytic"] < 10.0
    report(2, "analytic", f"max catalog residual {worst:.2e} <= {tol:g}, "
                          f"all proper, {TIMINGS['c2-analytic']:.2f}s")


# -- criterion 3: CMC cylinder ----------------------------------------------------


def run_criterion_3(mode):
    res_tol = 1e-8 if mode == "analytic" else 1e-6
    radius_tol = 1e-9 if mode == "analytic" else 1e-6
    cyl = vertical_cylinder(1.0, 1.0)
    if mode == "fd":
        cyl = numeric_only(cyl)
    pts = surface_points(cyl, (4, 4))
    worst = 0.0
    for p in pts:
        scalar, tangent = biharmonic_residuals_surface(cyl, p)
        worst = max(worst, abs(scalar), float(np.max(np.abs(tangent))))
    assert worst <= res_tol, f"cylinder residual {worst:.3e} > {res_tol:g}"
    cls = cmc_classify(cyl, pts, tol=max(res_tol, 1e-8))
    assert cls.kind == "proper_biharmonic_vertical_cylinder"
    assert abs(cls.sphere_radius - 1.0) <= radius_tol
    assert abs(cls.circle_radius - 1.0 / math.sqrt(2)) <= radius_tol

    cyl2 = vertical_cylinder(2.0, 1.0)
    if mode == "fd":
        cyl2 = numeric_only(cyl2)
    scalar2, _ = biharmonic_residuals_surface(cyl2, (0.1, 0.0))
    assert abs(scalar2 + 3.0) <= radius_tol, scalar2
    return worst, res_tol


def test_criterion_3():
    with timed("c3-analytic"):
        worst, tol = run_criterion_3("analytic")
    report(3, "analytic", f"cylinder residuals {worst:.2e} <= {tol:g}, "
                          f"radii (1, 1/sqrt(2)) to 1e-9, perturbed -3")


# -- criterion 4: Hopf system -----------------------------------------------------


def run_criterion_4(mode):
    matched = HopfCylinderSpec(1.0, 1.0)
    if mode == "fd":
        matched = numeric_only(matched)
    r1, r2 = hopf_cylinder_residuals(matched, 0.0)
    if mode == "analytic":
        assert (r1, r2) == (0.0, 0.0)
    else:
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12
    mismatched = HopfCylinderSpec(1.0, 2.0)
    if mode == "fd":
        mismatched = numeric_only(mismatched)
    r1, r2 = hopf_cylinder_residuals(mismatched, 0.0)
    assert abs(r1 - 1.0) <= 1e-12 and abs(r2) <= 1e-12
    return max(abs(r1 - 1.0), abs(r2))


def test_criterion_4():
    with timed("c4-analytic"):
        worst = run_criterion_4("analytic")
    report(4, "analytic", "matched pair exactly (0,0); "
                          f"mismatched (1,0) to {worst:.1e}")


# -- criterion 5: frame identity suite --------------------------------------------


def run_criterion_5(mode):
    tol = 1e-6 if mode == "analytic" else 1e-3
    reports = frame_identity_suite(
        in_mode(mode, random_adapted_specs(np.random.default_rng(42), 20)),
        tol=tol, grid=(5, 5),
    )
    assert len(reports) == 20
    for rep in reports:
        assert rep.passed, f"{rep.case_label}: {rep.max_abs_residual:.3e}"
    worst = max(r.max_abs_residual for r in reports)

    # 10% mutation of every data channel that is not identically zero must
    # be detected (a multiplicative bump of a zero function is invisible)
    detected = {}
    for label, metric, spec in in_mode(
        mode, random_adapted_specs(np.random.default_rng(42), 2)
    ):
        pts = base_sweep(metric.box, (4, 4))
        for name, hit in mutation_detected(metric, spec, pts, tol=tol).items():
            detected[f"{label}:{name}"] = hit
    assert detected and all(detected.values()), detected
    return worst, tol, len(detected)


def test_criterion_5():
    with timed("c5-analytic"):
        worst, tol, nmut = run_criterion_5("analytic")
    report(5, "analytic", f"20 specs, max violation {worst:.2e} <= {tol:g}, "
                          f"{nmut} mutations detected")


# -- criterion 6: constructor end-to-end ------------------------------------------


def run_criterion_6(mode):
    profile = integrate_alpha(math.pi / 4, 0.1, -1.0 * 0.1**2, (0.0, 1.0),
                              1e-3)
    assert not profile.truncated
    interior = profile.y_grid[1:-1]
    ode_worst = max(abs(alpha_ode_residual(profile, y)) for y in interior)
    assert ode_worst <= 1e-5, f"ode residual {ode_worst:.3e}"
    ricc = riccati_consistency(profile)
    assert ricc <= 1e-5, f"riccati deviation {ricc:.3e}"
    built = build_nonflat_target(ConstructionSpec(profile))
    spec = built.canonical
    if mode == "fd":
        spec = numeric_only(spec)
    rep = verify_construction(spec, tol=1e-4, grid=(11, 11))
    assert rep.passed, rep.worst_channel
    kn_min = min(
        abs(spec.target_curvature_field(p))
        for p in spec.verification_points((11, 11))
    )
    assert kn_min >= 1e-3, f"target curvature reaches {kn_min:.3e}"
    return ode_worst, ricc, kn_min


def test_criterion_6():
    with timed("c6-analytic"):
        ode_worst, ricc, kn_min = run_criterion_6("analytic")
    assert TIMINGS["c6-analytic"] < 10.0
    report(6, "analytic", f"ode residual {ode_worst:.2e}, riccati {ricc:.2e} "
                          f"<= 1e-5, construction passes at 1e-4, "
                          f"|K_target| >= {kn_min:.2e}, "
                          f"{TIMINGS['c6-analytic']:.2f}s")


# -- criterion 7: uniqueness scan -------------------------------------------------


def run_criterion_7(mode):
    roots = hyperbolic_uniqueness_scan(-2.0, (0.1, 3.0))
    assert len(roots) == 1
    assert abs(roots[0].slope - math.sqrt(2.0)) <= 1e-6
    assert roots[0].kind == "proper"
    flat_roots = hyperbolic_uniqueness_scan(1.0, (0.1, 3.0))
    assert all(r.kind == "harmonic" for r in flat_roots)
    assert not [r for r in flat_roots if abs(r.slope) > 1e-9]
    return abs(roots[0].slope - math.sqrt(2.0))


def test_criterion_7():
    with timed("c7-analytic"):
        err = run_criterion_7("analytic")
    report(7, "analytic", f"root sqrt(2) to {err:.1e}; none for c = +1")


# -- criterion 8: flat-flat exclusion ---------------------------------------------


def run_criterion_8(mode):
    tol = 1e-4
    specs = flat_random_specs(np.random.default_rng(42), 20)
    passing = 0
    for spec in specs:
        if mode == "fd":
            spec = numeric_only(spec)
        rep = residual_report(spec, tol=tol, grid=(7, 7))
        k1_max = max(
            abs(spec.data.kappa1(p))
            for p in spec.verification_points((7, 7))
        )
        assert k1_max > 1e-2, "family member with vanishing fiber curvature"
        r_max = max(rep.channel("r1").max_abs, rep.channel("r2").max_abs)
        aux_max = rep.channel("dual_residual_gap").max_abs + r_max
        if r_max <= tol:
            passing += 1
            # a passing member must also have a vanishing slope-Laplacian,
            # i.e. be one of the harmonic members
            assert aux_max <= tol
    # flat base + flat target excludes proper biharmonic members entirely
    assert passing == 0
    return len(specs)


def test_criterion_8():
    with timed("c8-analytic"):
        n = run_criterion_8("analytic")
    report(8, "analytic", f"none of {n} flat-flat twisted specs passes "
                          f"at 1e-4")


# -- criterion 9: finite-difference rerun + runtime -------------------------------


def test_criterion_9():
    runs = [
        ("c1", run_criterion_1), ("c2", run_criterion_2),
        ("c3", run_criterion_3), ("c4", run_criterion_4),
        ("c5", run_criterion_5), ("c6", run_criterion_6),
        ("c7", run_criterion_7), ("c8", run_criterion_8),
    ]
    # the budget covers the whole suite: when tests 1-8 have not run first
    # (this test run on its own), their analytic runs are timed here
    for name, fn in runs:
        if f"{name}-analytic" not in TIMINGS:
            with timed(f"{name}-analytic"):
                fn("analytic")
    for name, fn in runs:
        with timed(f"{name}-fd"):
            fn("fd")
        report(name[1], "fd", f"{TIMINGS[f'{name}-fd']:.2f}s")
    total = sum(TIMINGS.values())
    print("criterion 9 timings: " + ", ".join(
        f"{key} {seconds:.2f}s" for key, seconds in TIMINGS.items()))
    assert total < 60.0, f"acceptance suite took {total:.1f}s"
    report(9, "fd", f"all criteria re-run in fd mode; total suite "
                    f"{total:.1f}s < 60s")
