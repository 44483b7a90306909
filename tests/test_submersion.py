import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from biharm.errors import EmptyRange, NonFiniteValue
from biharm.frames import (
    AdaptedFrameSpec,
    adapted_frame,
    integrability_data,
    random_adapted_specs,
)
from biharm.geometry import ProductMetric3, gauss_curvature_2d
from biharm.numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    fcosh,
    flog,
    numeric_only,
)
from biharm.submersion import (
    SubmersionSpec,
    catalog_examples,
    catalog_suite,
    flat_random_specs,
    hyperbolic_spec,
    hyperbolic_uniqueness_scan,
    projection_spec,
    residual_report,
    target_curvature,
    _slope_residual,
)
from conftest import (
    S,
    T,
    biharmonic_residuals,
    field_of,
    graph_nodes,
    harmonicity_test,
    in_mode,
)


def warped_spec(alpha_expr, s_span, label="warped-test"):
    q = sp.log(sp.tan(alpha_expr))
    box = ChartBox((-1.0, s_span[0], -0.5), (1.0, s_span[1], 0.5), 0.05)
    metric = ProductMetric3(field_of(q, 2), box)
    fspec = AdaptedFrameSpec(math.pi / 2, field_of(alpha_expr, 3))
    return SubmersionSpec(metric, fspec, label, family="nonflat_target")


class TestBaseCurvature:
    def test_flat_target_projection(self):
        spec = catalog_examples()[0]  # cosh4, alpha = pi/2
        p = (0.2, 0.4, 0.0)
        assert target_curvature(spec.data, spec.frame)(p) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_warped_linear_angle(self):
        # alpha(y) = y gives the target dy^2 + sin^2(y) dpsi^2 with K = 1
        spec = warped_spec(S, (0.4, 1.1))
        for p in spec.verification_points((4, 4)):
            assert target_curvature(spec.data, spec.frame)(p) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_constant_data_substitution(self, hyperbolic_metric3):
        # fbar = 1, alpha = pi/3: f2 = -1/4 so the formula gives -1/16
        spec = AdaptedFrameSpec(math.pi / 2, math.pi / 3)
        frame = adapted_frame(spec, hyperbolic_metric3)
        data = integrability_data(spec, frame)
        val = target_curvature(data, frame)((0.1, 0.3, 0.0))
        assert val == pytest.approx(-1.0 / 16.0, abs=1e-10)


class TestOneConnectionPerFrame:
    def test_kappa_laplacians_share_the_connection(self):
        # a polar spec: both angles vary, so k1 and k2 are not numbers
        _, metric, fspec = list(
            random_adapted_specs(np.random.default_rng(3), 3))[2]
        spec = SubmersionSpec(metric, fspec, "polar")
        conn = spec.frame.connection
        assert spec.frame.connection is conn
        shared = [c for row in conn for c in row if c.number is None]
        assert shared
        for r in spec.residual_fields:
            reached = {id(f) for f in graph_nodes(r)}
            assert all(id(c) in reached for c in shared)


class TestHarmonicity:
    def test_vertical_projection_is_harmonic(self, sphere_metric3):
        spec = SubmersionSpec(
            sphere_metric3, AdaptedFrameSpec(math.pi / 2, 0.0), "projection"
        )
        res = harmonicity_test(spec, spec.verification_points((4, 4)))
        assert res.harmonic
        assert res.report.passed
        assert res.report.channel("target_vs_base_curvature").max_abs < 1e-8

    def test_hyperbolic_projection_not_harmonic(self, hyperbolic_metric3):
        spec = SubmersionSpec(
            hyperbolic_metric3,
            AdaptedFrameSpec(math.pi / 2, math.pi / 2),
            "hyp",
        )
        res = harmonicity_test(spec, spec.verification_points((4, 4)))
        assert not res.harmonic
        # kappa1 = -slope = -1 everywhere
        assert res.report.channel("kappa1").max_abs == pytest.approx(1.0)

    def test_flat_constant_angles_harmonic(self, flat_metric3):
        spec = SubmersionSpec(
            flat_metric3, AdaptedFrameSpec(math.pi / 2, 0.9), "flat"
        )
        res = harmonicity_test(spec, spec.verification_points((3, 3)))
        assert res.harmonic


class TestResiduals:
    def test_catalog_members_vanish(self):
        for spec in catalog_examples():
            p = spec.verification_points((3, 3))[4]
            r1, r2 = biharmonic_residuals(spec, p)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    def test_square_exponent_fails(self):
        # p = y^2: the slope Laplacian is 4y, matching the r1 channel of
        # the printed system with k1 = -p_y (positive at y = 1)
        box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
        spec = projection_spec(field_of(S**2, 2), box, "square")
        r1, r2 = biharmonic_residuals(spec, (0.3, 1.0, 0.0))
        assert r1 == pytest.approx(4.0, abs=1e-9)
        assert r2 == pytest.approx(0.0, abs=1e-12)
        assert spec.aux_residual((0.3, 1.0, 0.0)) == pytest.approx(4.0, abs=1e-9)

    def test_report_channels_and_zprobe(self):
        spec = catalog_examples()[0]
        rep = residual_report(spec, tol=1e-6, grid=(7, 7))
        assert rep.passed
        assert rep.classification == "proper biharmonic"
        assert {c.name for c in rep.channels} >= {"r1", "r2", "f3_adapted"}
        assert any("flat-factor spread" in n for n in rep.notes)

    def test_catalog_suite_labels(self):
        labels = [r.case_label
                  for r in catalog_suite(catalog_examples(), grid=(5, 5))]
        assert labels == ["cosh4", "y4", "hyperbolic(-1)", "hyperbolic(-2)"]

    def test_y4_box_positive(self):
        y4 = catalog_examples()[1]
        assert y4.domain_metric.box.lower[1] == pytest.approx(0.5)

    def test_serialized_fields(self):
        rep = residual_report(catalog_examples()[2], tol=1e-6, grid=(3, 3))
        rec = rep.to_record()
        assert set(rec) >= {
            "case_label", "points_checked", "channels", "tolerance",
            "verdict",
        }
        assert set(rec["channels"][0]) == {"name", "max_abs", "at"}
        json.dumps(rec)  # serializable

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_dropped_spec_is_freed(self, mode):
        # frames, Christoffel fields and Laplacians are cached on the objects
        # they are made for, so nothing keeps a dropped spec alive
        spec = catalog_examples()[2]
        if mode == "fd":
            spec = numeric_only(spec)
        residual_report(spec, tol=1e-6, grid=(3, 3))
        metric = weakref.ref(spec.domain_metric)
        frame_spec = weakref.ref(spec.frame_spec)
        del spec
        gc.collect()
        assert metric() is None
        assert frame_spec() is None


@functools.cache
def _catalog_residuals(mode):
    """(spec, 7x7 verification points, r1 and r2 there) per catalog spec."""
    out = []
    for spec in catalog_examples():
        if mode == "fd":
            spec = numeric_only(spec)
        pts = np.array(spec.verification_points((7, 7)))
        r1, r2 = spec.residual_fields
        out.append((spec, pts, r1(as_batch(pts)), r2(as_batch(pts))))
    return out


class TestShiftInvariance:
    """The catalog depends on the base coordinate s only, so its residuals
    do not move when the batch is shifted along t and z."""

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    @given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
    def test_residuals_invariant_under_t_and_z_shift(self, mode, dt, dz):
        for spec, pts, r1_ref, r2_ref in _catalog_residuals(mode):
            box = spec.domain_metric.box
            # clipped to the guarded box, where every stencil fits
            lo = np.array(box.lower) + box.guard
            hi = np.array(box.upper) - box.guard
            moved = as_batch(np.clip(pts + (dt, 0.0, dz), lo, hi))
            r1, r2 = spec.residual_fields
            assert np.max(np.abs(r1(moved) - r1_ref)) == 0.0, spec.label
            assert np.max(np.abs(r2(moved) - r2_ref)) == 0.0, spec.label


class TestReflection:
    """s -> -s maps the slope sqrt(-c) of the hyperbolic box onto -sqrt(-c):
    both projections are proper biharmonic, with the same channel maxima.

    Measured at 11x11 over 63 values of c in [-5, -0.3]: the analytic
    maxima are equal to the last bit; the fd maxima (at most 5.6e-6,
    rounding in the nested differences) differ by at most 2.5e-8, so the
    bound tol / 1000 = 1e-6 leaves a factor of 40."""

    @settings(derandomize=True, max_examples=10)
    @given(st.floats(-5.0, -0.3))
    def test_opposite_slopes_agree(self, c):
        box = hyperbolic_spec(c).domain_metric.box
        slope = math.sqrt(-c) * ScalarField.coordinate(1, 2)
        specs = [projection_spec(sign * slope, box, "reflected")
                 for sign in (1.0, -1.0)]
        for mode, tol, bound in (("analytic", 1e-6, 0.0),
                                 ("fd", 1e-3, 1e-6)):
            up, down = (residual_report(spec, tol, (11, 11))
                        for spec in in_mode(mode, specs))
            for rep in (up, down):
                assert rep.passed, (mode, c)
                assert rep.classification == "proper biharmonic", (mode, c)
            for a, b in zip(up.channels, down.channels):
                assert a.name == b.name
                assert abs(a.max_abs - b.max_abs) <= bound, (mode, c, a.name)

    def test_cosh4_reflected(self):
        # cosh4 with cosh(-s) for cosh(s): libm's cosh is even and sinh odd,
        # so every value and derivative is the same float at every point
        cosh4 = catalog_examples()[0]
        s = ScalarField.coordinate(1, 2)
        reflected = projection_spec(2.0 * flog(fcosh(-1.0 * s)),
                                    cosh4.domain_metric.box, "cosh4")
        for mode, tol in (("analytic", 1e-6), ("fd", 1e-3)):
            want, got = (residual_report(spec, tol)
                         for spec in in_mode(mode, (cosh4, reflected)))
            assert got.classification == want.classification
            assert want.classification == "proper biharmonic", mode
            assert [c.to_record() for c in got.channels] == [
                c.to_record() for c in want.channels], mode


class TestScan:
    def test_root_sqrt2(self):
        roots = hyperbolic_uniqueness_scan(-2.0, (0.1, 3.0))
        assert len(roots) == 1
        assert roots[0].slope == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert roots[0].kind == "proper"

    def test_positive_curvature_no_roots(self):
        assert hyperbolic_uniqueness_scan(1.0, (0.1, 3.0)) == []

    def test_symmetric_range(self):
        roots = hyperbolic_uniqueness_scan(-1.0, (-3.0, 3.0))
        slopes = [r.slope for r in roots]
        kinds = [r.kind for r in roots]
        assert slopes == pytest.approx([-1.0, 0.0, 1.0], abs=1e-6)
        assert kinds == ["proper", "harmonic", "proper"]

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            hyperbolic_uniqueness_scan(-1.0, (2.0, 1.0))
        with pytest.raises(EmptyRange):
            hyperbolic_uniqueness_scan(-1.0, (0.0, 1.0), samples=2)
        # hi - lo overflows, so no sample of the range would be finite
        with pytest.raises(EmptyRange, match="width of slope range"):
            hyperbolic_uniqueness_scan(-2.0, (-1e308, 1e308))

    def test_overflowing_residual_is_a_typed_error(self):
        # the second sample, 5e197, has a cube beyond the float range
        with pytest.raises(NonFiniteValue, match="at slope 5e\\+197"):
            hyperbolic_uniqueness_scan(-2.0, (0.0, 1e200))

    def test_residual_odd_in_slope(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.uniform(-3, 3)
            c = rng.uniform(-2, 2)
            assert abs(_slope_residual(a, c) + _slope_residual(-a, c)) < 1e-10

    def test_scan_agrees_with_catalog_member(self):
        # the proper root of the scan is exactly the hyperbolic catalog
        # slope, whose full residual system vanishes
        root = hyperbolic_uniqueness_scan(-2.0, (0.1, 3.0))[0].slope
        spec = catalog_examples()[3]  # hyperbolic(-2), p = sqrt(2) y
        slope = spec.domain_metric.conformal_exponent.partial(
            (0.0, 0.0, 0.0), 1, 1
        )
        assert root == pytest.approx(slope, abs=1e-6)

    @given(st.floats(-9.0, -0.05), st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    def test_negative_curvature_roots(self, c, below, above):
        # roots of a(a^2 + c): exactly -sqrt(-c), 0 and sqrt(-c)
        r = math.sqrt(-c)
        roots = hyperbolic_uniqueness_scan(c, (-r - below, r + above))
        assert [x.kind for x in roots] == ["proper", "harmonic", "proper"]
        for x, expected in zip(roots, (-r, 0.0, r)):
            assert x.slope == pytest.approx(expected, abs=1e-7)

    @given(st.floats(0.05, 9.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_positive_curvature_only_harmonic_root(self, c, below, above):
        roots = hyperbolic_uniqueness_scan(c, (-below, above))
        assert [x.kind for x in roots] == ["harmonic"]
        assert roots[0].slope == pytest.approx(0.0, abs=1e-7)


class TestFlatFlatExclusion:
    def test_flat_family_is_flat_and_twisting(self):
        specs = flat_random_specs(np.random.default_rng(8), 5)
        for spec in specs:
            pts = spec.verification_points((4, 4))
            for p in pts[::3]:
                assert gauss_curvature_2d(spec.domain_metric, p) == pytest.approx(
                    0.0, abs=1e-9
                )
                assert spec.target_curvature_field(p) == pytest.approx(
                    0.0, abs=1e-9
                )
            assert max(abs(spec.data.kappa1(p)) for p in pts) > 0.05

    def test_no_flat_flat_member_is_biharmonic(self):
        specs = flat_random_specs(np.random.default_rng(8), 5)
        for spec in specs:
            rep = residual_report(spec, tol=1e-4, grid=(5, 5))
            assert max(rep.channel("r1").max_abs,
                       rep.channel("r2").max_abs) > 1e-4
            assert rep.classification == "not biharmonic"
            # coherence of the two routes
            assert rep.channel("dual_residual_gap").max_abs < 1e-8
