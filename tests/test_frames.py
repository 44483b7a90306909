import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from biharm.errors import NonOrthonormalFrame
from biharm.frames import (
    AdaptedFrameSpec,
    SeededUniform,
    adapted_frame,
    frame_identity_suite,
    integrability_data,
    random_adapted_specs,
    validate_frame,
)
from biharm.geometry import (
    FrameField,
    ProductMetric3,
    base_sweep,
    gauss_curvature_2d,
)
from biharm import numkernel
from biharm.numkernel import (
    ChartBox,
    ScalarField,
    directional_field,
)
from biharm.record import replace
from biharm.submersion import target_curvature
from conftest import (
    S,
    T,
    Z,
    at_point,
    data_channels,
    field_of,
    graph_nodes,
    in_mode,
    mutation_detected,
    semi_geodesic_frame,
)


def bracket_vector(frame, i, j, point):
    """[e_i, e_j] chart components via nested directional derivatives."""
    rows = frame.components
    return np.array([
        directional_field(rows[i], rows[j][l])(point)
        - directional_field(rows[j], rows[i][l])(point)
        for l in range(3)
    ])


class TestSemiGeodesicFrame:
    def test_flat_coordinate_frame(self, flat_metric3):
        frame = semi_geodesic_frame(flat_metric3)
        assert np.allclose(at_point(frame.matrix, point=(0.1, 0.2, 0.3)),
                           np.eye(3))

    def test_bracket_slope(self, sphere_metric3):
        # [E1, E2] = f E1 with f = q_s = cot(s); it vanishes at the equator
        frame = semi_geodesic_frame(sphere_metric3)
        p_eq = (0.2, math.pi / 2, 0.0)
        assert np.max(np.abs(bracket_vector(frame, 0, 1, p_eq))) < 1e-10
        p = (0.2, 0.9, 0.0)
        br = bracket_vector(frame, 0, 1, p)
        f = 1.0 / math.tan(0.9)
        e1 = at_point(frame.matrix, point=p)[0]
        assert np.allclose(br, f * e1, atol=1e-9)

    def test_flat_factor_parallel(self, sphere_metric3):
        # grad_{E3} E_i = 0 for every leg
        from biharm.geometry import _christoffel_fields

        frame = semi_geodesic_frame(sphere_metric3)
        gamma = _christoffel_fields(sphere_metric3)
        p = (0.3, 1.1, 0.2)
        rows = frame.components
        for j in range(3):
            for l in range(3):
                val = directional_field(rows[2], rows[j][l])(p)
                for (k, b, m), g in gamma.items():
                    if k == l:
                        val += g(p) * rows[2][b](p) * rows[j][m](p)
                assert abs(val) < 1e-10


class TestAdaptedFrame:
    def test_quarter_turn_zero_tilt(self, sphere_metric3):
        # theta = pi/2, alpha = 0 -> (E2, -E1, E3)
        frame = adapted_frame(AdaptedFrameSpec(math.pi / 2, 0.0), sphere_metric3)
        p = (0.4, 1.0, 0.0)
        einv = math.exp(-sphere_metric3.conformal_exponent(p))
        m = at_point(frame.matrix, point=p)
        assert np.allclose(m[0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(m[1], [-einv, 0.0, 0.0], atol=1e-12)
        assert np.allclose(m[2], [0.0, 0.0, 1.0], atol=1e-12)

    def test_quarter_turn_full_tilt(self, sphere_metric3):
        # theta = pi/2, alpha = pi/2 -> (E2, E3, E1)
        frame = adapted_frame(
            AdaptedFrameSpec(math.pi / 2, math.pi / 2), sphere_metric3
        )
        p = (0.4, 1.0, 0.0)
        einv = math.exp(-sphere_metric3.conformal_exponent(p))
        m = at_point(frame.matrix, point=p)
        assert np.allclose(m[0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(m[1], [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(m[2], [einv, 0.0, 0.0], atol=1e-12)

    def test_rotation_coefficients_closed_form(self, hyperbolic_metric3):
        rng = np.random.default_rng(2)
        theta = field_of(0.5 + 0.3 * sp.sin(T + S), 3)
        alpha = field_of(0.8 + 0.1 * sp.cos(S), 3)
        frame = adapted_frame(AdaptedFrameSpec(theta, alpha), hyperbolic_metric3)
        for _ in range(4):
            p = tuple(rng.uniform(-0.8, 0.8, size=3))
            th, al = theta(p), alpha(p)
            expected = np.array([
                [math.cos(th), math.sin(th), 0.0],
                [-math.cos(al) * math.sin(th), math.cos(al) * math.cos(th),
                 math.sin(al)],
                [math.sin(al) * math.sin(th), -math.sin(al) * math.cos(th),
                 math.cos(al)],
            ])
            assert np.allclose(at_point(frame.coeff_matrix, point=p),
                               expected, atol=1e-12)
            assert np.linalg.det(
                at_point(frame.coeff_matrix, point=p)) == pytest.approx(1.0)
            assert at_point(frame.orthonormality_defect, point=p) < 1e-10


class TestIntegrabilityData:
    def test_hyperbolic_tilted_values(self, hyperbolic_metric3):
        # q = s, theta = pi/2, alpha = pi/3: fbar = 1, k1 = -3/4,
        # f2 = -1/4, sigma = -sqrt(3)/4, k2 = 0 (pure formula substitution;
        # this angle pair does not satisfy the submersion compatibility)
        spec = AdaptedFrameSpec(math.pi / 2, math.pi / 3)
        data = integrability_data(
            spec, adapted_frame(spec, hyperbolic_metric3))
        p = (0.1, 0.2, 0.0)
        assert data.fbar(p) == pytest.approx(1.0, abs=1e-12)
        assert data.kappa1(p) == pytest.approx(-0.75, abs=1e-12)
        assert data.f2(p) == pytest.approx(-0.25, abs=1e-12)
        assert data.sigma(p) == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
        assert data.kappa2(p) == pytest.approx(0.0, abs=1e-12)
        assert data.f1(p) == 0.0 and data.f3(p) == pytest.approx(0.0, abs=1e-15)

    def test_flat_constant_angles_vanish(self, flat_metric3):
        spec = AdaptedFrameSpec(math.pi / 2, 0.7)
        data = integrability_data(spec, adapted_frame(spec, flat_metric3))
        p = (0.3, -0.4, 0.1)
        for fld in data_channels(data).values():
            assert fld(p) == pytest.approx(0.0, abs=1e-14)

    def test_full_tilt_reduction(self, hyperbolic_metric3):
        # alpha = pi/2: k1 = -fbar, everything else vanishes
        spec = AdaptedFrameSpec(math.pi / 2, math.pi / 2)
        data = integrability_data(
            spec, adapted_frame(spec, hyperbolic_metric3))
        p = (0.1, 0.5, 0.0)
        assert data.kappa1(p) == pytest.approx(-data.fbar(p), abs=1e-12)
        assert data.f2(p) == pytest.approx(0.0, abs=1e-12)
        assert data.sigma(p) == pytest.approx(0.0, abs=1e-12)
        assert data.kappa2(p) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_identities_any_spec(self, hyperbolic_metric3):
        # k1 a33 = (sigma - f3) a23 and f2 a23 = sigma a33 are algebraic
        # consequences of the closed forms, valid for arbitrary angles,
        # including a fiber-dependent theta
        theta = field_of(0.4 + 0.2 * sp.sin(T + 0.5 * Z), 3)
        alpha = field_of(0.9 + 0.15 * sp.cos(S), 3)
        spec = AdaptedFrameSpec(theta, alpha)
        frame = adapted_frame(spec, hyperbolic_metric3)
        data = integrability_data(spec, frame)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = tuple(rng.uniform(-0.8, 0.8, size=3))
            a = at_point(frame.coeff_matrix, point=p)
            lhs1 = data.kappa1(p) * a[2][2]
            rhs1 = (data.sigma(p) - data.f3(p)) * a[1][2]
            assert lhs1 == pytest.approx(rhs1, abs=1e-10)
            lhs2 = data.f2(p) * a[1][2]
            rhs2 = data.sigma(p) * a[2][2]
            assert lhs2 == pytest.approx(rhs2, abs=1e-10)

    def test_sigma_squared_equals_k1_f2(self):
        # holds on every adapted spec (fiber-independent theta)
        for label, metric, spec in random_adapted_specs(
            np.random.default_rng(11), 4
        ):
            data = integrability_data(spec, adapted_frame(spec, metric))
            for p in base_sweep(metric.box, (3, 3)):
                assert data.sigma(p) ** 2 == pytest.approx(
                    data.kappa1(p) * data.f2(p), abs=1e-10
                )

    def test_data_share_the_frame_trig_nodes(self):
        # the polar draw, where both angles vary: the data read sin(alpha)
        # from the frame's rotation coefficients instead of building it
        draws = list(random_adapted_specs(SeededUniform(7), 3))
        label, metric, spec = draws[2]
        assert label.endswith("polar")
        frame = adapted_frame(spec, metric)
        data = integrability_data(spec, frame)
        roots = [f for row in frame.components + frame.coeff for f in row]
        roots += [getattr(data, name) for name in data._fields]
        seen = {}
        for root in roots:
            graph_nodes(root, seen)
        sines = [f for f in seen.values()
                 if f._values is numkernel._unary_values
                 and f._args == ("sin", spec.alpha)]
        assert len(sines) == 1


class TestValidateFrame:
    def test_flat_trivial(self, flat_metric3):
        spec = AdaptedFrameSpec(math.pi / 2, 0.0)
        frame = adapted_frame(spec, flat_metric3)
        data = integrability_data(spec, frame)
        pts = base_sweep(flat_metric3.box, (3, 3))
        report = validate_frame(frame, data, pts, tol=1e-6)
        assert report.passed
        assert report.max_abs_residual < 1e-12

    def test_warped_family_passes(self):
        q = sp.log(sp.tan(S))
        box = ChartBox((-1.0, 0.35, -0.5), (1.0, 1.15, 0.5), 0.05)
        metric = ProductMetric3(field_of(q, 2), box)
        spec = AdaptedFrameSpec(math.pi / 2, field_of(S, 3))
        frame = adapted_frame(spec, metric)
        data = integrability_data(spec, frame)
        pts = base_sweep(box, (4, 4))
        report = validate_frame(frame, data, pts, tol=1e-6)
        assert report.passed

    def test_non_orthonormal_frame_names_first_point(self, flat_metric3):
        spec = AdaptedFrameSpec(math.pi / 2, 0.0)
        good = adapted_frame(spec, flat_metric3)
        data = integrability_data(spec, good)
        # stretch the first leg by 10% where t > 0.2
        stretch = ScalarField(
            fn=lambda b: np.where(b[:, 0] > 0.2, 1.1, 1.0), dim=3)
        rows = (tuple(c * stretch for c in good.components[0]),
                ) + good.components[1:]
        frame = FrameField(rows, flat_metric3, good.coeff)
        pts = base_sweep(flat_metric3.box, (3, 3))
        first_bad = next(p for p in pts if p[0] > 0.2)
        with pytest.raises(NonOrthonormalFrame, match=re.escape(
                f"at {first_bad}")):
            validate_frame(frame, data, pts, tol=1e-6)

    def test_incompatible_angles_rejected(self, hyperbolic_metric3):
        # constant alpha strictly between 0 and pi/2 with nonzero sigma
        # violates the adapted-frame equations, so the table must fail
        spec = AdaptedFrameSpec(math.pi / 2, math.pi / 3)
        frame = adapted_frame(spec, hyperbolic_metric3)
        data = integrability_data(spec, frame)
        pts = base_sweep(hyperbolic_metric3.box, (3, 3))
        report = validate_frame(frame, data, pts, tol=1e-6)
        assert not report.passed
        assert report.max_abs_residual > 0.1

    def test_corrupted_kappa1_detected(self):
        label, metric, spec = next(random_adapted_specs(
            np.random.default_rng(5), 1
        ))
        frame = adapted_frame(spec, metric)
        data = integrability_data(spec, frame)
        pts = base_sweep(metric.box, (4, 4))
        assert validate_frame(frame, data, pts, tol=1e-6).passed
        bad = replace(data, kappa1=data.kappa1 * 1.1)
        report = validate_frame(frame, bad, pts, tol=1e-6)
        assert not report.passed
        assert report.worst_channel.max_abs > report.tolerance

    def test_geodesic_first_leg(self):
        # grad_{e1} e1 = 0 on every compatible spec
        from biharm.geometry import _christoffel_fields

        for label, metric, spec in random_adapted_specs(
            np.random.default_rng(9), 4
        ):
            frame = adapted_frame(spec, metric)
            gamma = _christoffel_fields(metric)
            rows = frame.components
            for p in base_sweep(metric.box, (3, 3))[::3]:
                for l in range(3):
                    val = directional_field(rows[0], rows[0][l])(p)
                    for (k, b, m), g in gamma.items():
                        if k == l:
                            val += g(p) * rows[0][b](p) * rows[0][m](p)
                    assert abs(val) < 1e-9

    def test_bracket_f3_matches_fiber_twist(self):
        # the e2-component of [e1, e3] recovers f3 = -E3(theta)
        for label, metric, spec in random_adapted_specs(
            np.random.default_rng(13), 4
        ):
            frame = adapted_frame(spec, metric)
            data = integrability_data(spec, frame)
            p = base_sweep(metric.box, (3, 3))[4]
            br = bracket_vector(frame, 0, 2, p)
            w = at_point(metric.weights, point=p)
            e2 = at_point(frame.matrix, point=p)[1]
            f3_bracket = float(np.sum(w * br * e2))
            assert f3_bracket == pytest.approx(data.f3(p), abs=1e-9)
            assert f3_bracket == pytest.approx(
                -spec.theta.partial(p, 2, 1), abs=1e-9
            )

    def test_harmonic_projection_curvature_transfer(self):
        # alpha = 0 specs: K_target equals the base curvature
        specs = [
            t for t in random_adapted_specs(np.random.default_rng(17), 8)
            if "projection" in t[0]
        ]
        assert specs
        for label, metric, spec in specs:
            frame = adapted_frame(spec, metric)
            data = integrability_data(spec, frame)
            for p in base_sweep(metric.box, (3, 3)):
                kn = target_curvature(data, frame)(p)
                assert kn == pytest.approx(
                    gauss_curvature_2d(metric, p), abs=1e-8
                )


class TestCurvatureRowsPerPoint:
    @pytest.mark.parametrize("mode,tol", [("analytic", 1e-6), ("fd", 1e-3)])
    def test_rows_match_per_point_einsum(self, mode, tol):
        # each curvature row of the report equals the same row contracted
        # one point at a time, channel value and point bit for bit
        from biharm.frames import _CURVATURE_ROWS
        from biharm.geometry import riemann_chart
        from biharm.report import max_over_batch

        rng = np.random.default_rng(31)
        for _, metric, spec in in_mode(mode, random_adapted_specs(rng, 8)):
            frame = adapted_frame(spec, metric)
            data = integrability_data(spec, frame)
            pts = base_sweep(metric.box, (5, 5))
            report = validate_frame(frame, data, pts, tol)
            batch = np.array(pts)
            low = riemann_chart(metric, batch)
            m = frame.matrix(batch)
            a = frame.coeff_matrix(batch)
            k_base = gauss_curvature_2d(metric, batch)
            ops = {leg: (lambda f, row=frame.components[leg - 1]:
                         directional_field(row, f)) for leg in (1, 2, 3)}
            e3_sigma = directional_field(frame.components[2], data.sigma)
            for name, (i, j, k, l), expr, (sign, r1, r2) in _CURVATURE_ROWS:
                lhs = np.array([
                    float(np.einsum("a,b,c,d,abcd->", m[n, i - 1], m[n, j - 1],
                                    m[n, l - 1], m[n, k - 1], low[n]))
                    for n in range(len(pts))])
                mid = expr(data, ops, e3_sigma)(batch)
                rhs = sign * a[:, r1 - 1, 2] * a[:, r2 - 1, 2] * k_base
                values = np.maximum(np.abs(lhs - mid), np.abs(mid - rhs))
                assert (report.channel(name).to_record()
                        == max_over_batch(name, pts, values).to_record())


class TestRandomSuite:
    def test_all_families_pass_both_modes(self):
        reports = frame_identity_suite(
            random_adapted_specs(np.random.default_rng(21), 8), tol=1e-6,
            grid=(4, 4),
        )
        assert len(reports) == 8
        assert all(r.passed for r in reports)
        reports_fd = frame_identity_suite(
            in_mode("fd", random_adapted_specs(np.random.default_rng(21), 4)),
            tol=1e-3, grid=(3, 3),
        )
        assert all(r.passed for r in reports_fd)

    def test_memory_flat_in_the_spec_count(self):
        # each spec, with its derivative caches, is dropped once reported,
        # so the peak heap does not grow with the number of specs
        def peak_heap(count):
            tracemalloc.start()
            try:
                frame_identity_suite(
                    random_adapted_specs(SeededUniform(7), count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_heap(200) <= 4 * peak_heap(20)

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_reported_specs_are_let_go(self, mode):
        # when the suite draws the next spec, it holds none it has reported
        refs = []

        def watched(specs):
            for label, metric, spec in specs:
                gc.collect()
                assert [ref for ref in refs if ref() is not None] == []
                refs.extend((weakref.ref(metric), weakref.ref(spec)))
                yield label, metric, spec

        specs = in_mode(mode, random_adapted_specs(SeededUniform(7), 6))
        reports = frame_identity_suite(watched(specs), 1e-3, (3, 3))
        assert len(reports) == 6 and len(refs) == 12

    def test_mutation_detected_on_nonzero_channels(self):
        label, metric, spec = list(random_adapted_specs(
            np.random.default_rng(23), 2
        ))[1]  # warped family: f2, sigma, kappa1 all nonzero
        pts = base_sweep(metric.box, (4, 4))
        found = mutation_detected(metric, spec, pts, tol=1e-6)
        assert set(found) >= {"f2", "sigma", "kappa1"}
        assert all(found.values())

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           factor=st.floats(0.5, 0.98) | st.floats(1.02, 1.5))
    def test_bumped_channels_detected(self, seed, factor):
        # the four families of a seed, each bumped by one factor: every
        # channel that is not identically zero is bumped and caught
        for label, metric, spec in random_adapted_specs(SeededUniform(seed),
                                                        4):
            pts = base_sweep(metric.box, (4, 4))
            found = mutation_detected(metric, spec, pts, tol=1e-6,
                                      factor=factor)
            assert found and all(found.values()), (label, found)


class TestSeededUniform:
    """The seeded draws of ``biharm verify`` are numpy's default_rng draws,
    bit for bit, made without numpy.random."""

    @settings(derandomize=True, max_examples=12)
    @given(seed=st.integers(0, 2 ** 140 - 1),
           low=st.floats(-1e3, 1e3),
           width=st.floats(1e-6, 1e3))
    # one to six 32-bit seed words, on and across the pool size of four
    @example(seed=0, low=0.0, width=1.0)
    @example(seed=2 ** 32 - 1, low=0.0, width=1.0)
    @example(seed=2 ** 32, low=0.0, width=1.0)
    @example(seed=2 ** 128 - 1, low=-1.0, width=2.0)
    @example(seed=2 ** 128, low=-1.0, width=2.0)
    @example(seed=2 ** 140 - 1, low=0.0, width=2.0 * math.pi)
    def test_draws_equal_numpy_default_rng(self, seed, low, width):
        high = low + width
        assert low < high
        ours, numpys = SeededUniform(seed), np.random.default_rng(seed)
        for _ in range(30):
            got, want = ours.uniform(low, high), numpys.uniform(low, high)
            assert type(got) is float
            assert got.hex() == want.hex()

    def test_negative_seed_gives_numpys_error(self):
        with pytest.raises(ValueError) as numpys:
            np.random.default_rng(-3)
        with pytest.raises(ValueError) as ours:
            SeededUniform(-3)
        assert str(ours.value) == str(numpys.value)
