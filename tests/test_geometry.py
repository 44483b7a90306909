import collections
import itertools
import math

import numpy as np
import pytest
import sympy as sp

from biharm.errors import NonOrthonormalFrame
from biharm.frames import (
    AdaptedFrameSpec,
    adapted_frame,
    random_adapted_specs,
)
from biharm.geometry import (
    FrameField,
    ProductMetric3,
    SurfaceMetric,
    base_sweep,
    christoffel_symbols,
    gauss_curvature_2d,
    laplacian_field,
    riemann_chart,
    riemann_component,
)
from biharm import numkernel
from biharm.numkernel import (
    ChartBox,
    ScalarField,
    directional_field,
    fsin,
    numeric_only,
)
from conftest import S, T, field_of, field_of_text, semi_geodesic_frame


def _frame_components(metric, frame, p):
    """Every <R(e_i, e_j) e_k, e_l> at p, as one (3, 3, 3, 3) array."""
    m = frame.matrix(p)
    return np.einsum("ia,jb,kc,ld,abcd->ijkl", m, m, m, m,
                     riemann_chart(metric, p))


class TestChristoffel:
    def test_flat_all_zero(self, flat_metric3):
        g = christoffel_symbols(flat_metric3, (0.1, 0.2, 0.3))
        assert np.max(np.abs(g)) == 0.0

    def test_linear_exponent(self, hyperbolic_metric3):
        # q = s: the weighted block is G^s_tt = -e^{2s}, G^t_ts = 1
        p = (0.3, 0.5, 0.0)
        g = christoffel_symbols(hyperbolic_metric3, p)
        assert g[1, 0, 0] == pytest.approx(-math.exp(2 * 0.5), abs=1e-10)
        assert g[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert g[0, 1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_lower_indices(self, sphere_metric3):
        g = christoffel_symbols(sphere_metric3, (0.2, 0.9, 0.1))
        assert np.max(np.abs(g - np.transpose(g, (0, 2, 1)))) < 1e-12

    def test_sphere_surface_chart(self):
        # ds^2 + sin^2(s) dphi^2: G^s_{phi phi} = -sin(s)cos(s)
        metric = SurfaceMetric(
            field_of(sp.log(sp.sin(T)), 2),
            ChartBox((0.3, -1.0), (2.8, 1.0), 0.02),
            weighted_axis=1,
        )
        g = christoffel_symbols(metric, (math.pi / 4, 0.0))
        assert g[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)


class TestGaussCurvature:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_sphere(self, radius):
        q = sp.log(radius * sp.sin(S / radius))
        metric = SurfaceMetric(
            field_of(q, 2),
            ChartBox((-1.0, 0.15 * radius), (1.0, 2.9 * radius), 0.02),
        )
        for s in np.linspace(0.3 * radius, 2.6 * radius, 7):
            k = gauss_curvature_2d(metric, (0.0, float(s)))
            assert k == pytest.approx(1.0 / radius**2, abs=1e-9)

    def test_flat(self):
        metric = SurfaceMetric(
            ScalarField.constant(0.0, 2), ChartBox((-1, -1), (1, 1), 0.02)
        )
        assert gauss_curvature_2d(metric, (0.1, 0.7)) == 0.0

    def test_hyperbolic_constant_slope(self):
        metric = SurfaceMetric(
            field_of(S, 2), ChartBox((-1, -1), (1, 1), 0.02)
        )
        assert gauss_curvature_2d(metric, (0.4, -0.3)) == pytest.approx(-1.0)

    def test_base_factor_matches_surface(self, sphere_metric3):
        # the base factor e^{2q} dt^2 + ds^2 of the product, as a 2-chart
        base = SurfaceMetric(field_of(sp.log(sp.sin(S)), 2),
                             ChartBox((-1.0, 0.3), (1.0, 2.8), 0.05))
        p3 = (0.2, 1.1, 0.4)
        k3 = gauss_curvature_2d(sphere_metric3, p3)
        k2 = gauss_curvature_2d(base, p3[:2])
        assert k3 == pytest.approx(k2, abs=1e-12)


class TestRiemann:
    def test_flat_vanishes(self, flat_metric3):
        frame = semi_geodesic_frame(flat_metric3)
        p = (0.3, -0.2, 0.5)
        for idx in itertools.product(range(3), repeat=4):
            assert riemann_component(flat_metric3, p, frame, idx) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_sphere_sectional(self, sphere_metric3):
        frame = semi_geodesic_frame(sphere_metric3)
        p = (0.4, 1.2, 0.0)
        val = riemann_component(sphere_metric3, p, frame, (0, 1, 1, 0))
        assert val == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(gauss_curvature_2d(sphere_metric3, p), abs=1e-10)

    def test_matches_gauss_on_random_exponents(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b, c = rng.uniform(0.2, 1.0, size=3)
            q = a * S + b * sp.sin(c * T + S)
            box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.05)
            metric = ProductMetric3(field_of(q, 2), box)
            frame = semi_geodesic_frame(metric)
            p = tuple(rng.uniform(-0.8, 0.8, size=3))
            lhs = riemann_component(metric, p, frame, (0, 1, 1, 0))
            assert lhs == pytest.approx(gauss_curvature_2d(metric, p), abs=1e-6)

    def test_first_bianchi(self):
        rng = np.random.default_rng(5)
        q = 0.7 * S + 0.3 * sp.sin(T + 0.5 * S)
        box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.05)
        metric = ProductMetric3(field_of(q, 2), box)
        frame = semi_geodesic_frame(metric)
        for _ in range(3):
            p = tuple(rng.uniform(-0.8, 0.8, size=3))
            comp = _frame_components(metric, frame, p)
            for i, j, k, l in itertools.product(range(3), repeat=4):
                cyc = comp[i, j, k, l] + comp[j, k, i, l] + comp[k, i, j, l]
                assert abs(cyc) < 1e-6

    def test_symmetries(self, sphere_metric3):
        frame = semi_geodesic_frame(sphere_metric3)
        r = _frame_components(sphere_metric3, frame, (0.1, 0.9, 0.2))
        for defect in (r + r.transpose(1, 0, 2, 3),
                       r + r.transpose(0, 1, 3, 2),
                       r - r.transpose(2, 3, 0, 1)):
            assert np.max(np.abs(defect)) < 1e-8

    def test_adapted_frame_cross_check(self):
        # warped family: the (1,2)-plane component must match both the
        # integrability-data expression and cos^2(alpha) * K_base
        from biharm.frames import integrability_data
        from biharm.numkernel import directional_field

        q = sp.log(sp.tan(S))
        box = ChartBox((-1.0, 0.4, -0.5), (1.0, 1.1, 0.5), 0.05)
        metric = ProductMetric3(field_of(q, 2), box)
        spec = AdaptedFrameSpec(math.pi / 2, field_of(S, 3))
        frame = adapted_frame(spec, metric)
        data = integrability_data(spec, frame)
        p = (0.2, 0.8, 0.0)
        # printed index pattern (1,2,1,2) means <R(e1,e2)e2, e1>
        lhs = riemann_component(metric, p, frame, (0, 1, 1, 0))
        e1f2 = directional_field(frame.components[0], data.f2)(p)
        e2f1 = directional_field(frame.components[1], data.f1)(p)
        mid = (e1f2 + e2f1 - data.f1(p) ** 2 - data.f2(p) ** 2
               + 2 * data.f3(p) * data.sigma(p) - 3 * data.sigma(p) ** 2)
        a33 = frame.coeff_matrix(p)[2][2]
        rhs = a33**2 * gauss_curvature_2d(metric, p)
        assert lhs == pytest.approx(mid, abs=1e-9)
        assert mid == pytest.approx(rhs, abs=1e-9)

    def test_batch_equals_points(self):
        # one contraction per batch gives what each point gives alone
        rng = np.random.default_rng(8)
        for _, metric, spec in random_adapted_specs(rng, 4):
            frame = adapted_frame(spec, metric)
            pts = base_sweep(metric.box, (3, 3))
            for idx in ((0, 1, 1, 0), (0, 2, 1, 2), (2, 0, 1, 1)):
                batch = riemann_component(metric, np.array(pts), frame, idx)
                single = [riemann_component(metric, p, frame, idx)
                          for p in pts]
                assert batch.tobytes() == np.array(single).tobytes()

    def test_rejects_non_orthonormal(self, flat_metric3):
        one = ScalarField.constant(1.0, 3)
        zero = ScalarField.constant(0.0, 3)
        bad = FrameField(
            ((one, one, zero), (zero, one, zero), (zero, zero, one)),
            flat_metric3,
        )
        with pytest.raises(NonOrthonormalFrame):
            riemann_component(flat_metric3, (0.0, 0.0, 0.0), bad, (0, 1, 1, 0))


class TestSharedFirstPartials:
    def test_one_difference_per_axis_and_batch(self, monkeypatch):
        # directional derivatives, diff and the curvature all read first
        # partials of an opaque leaf through its cached diff, so within one
        # sweep each (differenced field, batch, axis) is differenced at most
        # once, and the leaf only along the axes it reads
        box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.05)
        q = field_of(0.7 * S + 0.3 * sp.sin(T + 0.5 * S), 2)
        metric = numeric_only(ProductMetric3(q, box))
        leaf = metric.conformal_exponent
        calls = collections.Counter()
        central1 = numkernel._central1

        def counted(f, batch, axis, h):
            calls[id(f), id(batch), axis] += 1
            return central1(f, batch, axis, h)

        monkeypatch.setattr(numkernel, "_central1", counted)
        # the third component vanishes on the grid's middle column
        e = (ScalarField.constant(0.5, 3), fsin(leaf) + 2.0,
             ScalarField.coordinate(0, 3))
        with numkernel.sweep():
            batch = numkernel.as_batch(base_sweep(box, (3, 3)))
            directional_field(e, leaf)(batch)
            for axis in range(3):
                leaf.diff(axis)(batch)
            riemann_chart(metric, batch)
        assert max(calls.values()) == 1
        reads = [axis for axis in range(3) if leaf._reads(axis)]
        assert reads == [0, 1]
        assert sorted(axis for f, b, axis in calls
                      if f == id(leaf) and b == id(batch)) == reads


class TestLaplacian:
    def test_flat_square(self, flat_metric3):
        frame = semi_geodesic_frame(flat_metric3)
        f = field_of_text("s**2", ("t", "s", "z"))
        lap = laplacian_field(frame.components, frame.connection, f)
        assert lap((0.1, 0.3, -0.2)) == pytest.approx(2.0)

    def test_constant_field_everywhere_zero(self, hyperbolic_metric3):
        # the operator annihilates constants on any chart; the cubic value
        # a^3 + c*a of the constant-slope reduction lives in the scan, not
        # here (see submersion.hyperbolic_uniqueness_scan)
        frame = semi_geodesic_frame(hyperbolic_metric3)
        f = ScalarField.constant(0.7, 3)
        lap = laplacian_field(frame.components, frame.connection, f)
        assert lap((0.2, 0.1, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_projection_slope_is_base_harmonic(self):
        # p = 2 log(cosh y): the base Laplacian of p_y vanishes identically
        metric2 = SurfaceMetric(
            field_of(2 * sp.log(sp.cosh(S)), 2),
            ChartBox((-1.0, -1.5), (1.0, 1.5), 0.05),
        )
        frame = semi_geodesic_frame(metric2)
        slope = metric2.conformal_exponent.diff(1)
        lap = laplacian_field(frame.components, frame.connection, slope)
        for s in np.linspace(-1.2, 1.2, 7):
            assert lap((0.2, float(s))) == pytest.approx(0.0, abs=1e-10)

    def test_frame_independence(self, sphere_metric3):
        f = field_of_text("sin(s)*t + s**2", ("t", "s", "z"))
        frame_a = semi_geodesic_frame(sphere_metric3)
        frame_b = adapted_frame(
            AdaptedFrameSpec(0.7, 0.4), sphere_metric3
        )
        p = (0.3, 1.0, 0.1)
        va = laplacian_field(frame_a.components, frame_a.connection, f)(p)
        vb = laplacian_field(frame_b.components, frame_b.connection, f)(p)
        assert va == pytest.approx(vb, abs=1e-6)


_POINT_OR_BATCH = {
    "weights": lambda metric, frame, p: metric.weights(p),
    "matrix": lambda metric, frame, p: frame.matrix(p),
    "coeff_matrix": lambda metric, frame, p: frame.coeff_matrix(p),
    "orthonormality_defect":
        lambda metric, frame, p: frame.orthonormality_defect(p),
    "christoffel_symbols":
        lambda metric, frame, p: christoffel_symbols(metric, p),
    "riemann_chart": lambda metric, frame, p: riemann_chart(metric, p),
    "riemann_component":
        lambda metric, frame, p: riemann_component(metric, p, frame,
                                                   (0, 2, 1, 2)),
}
_SCALAR_RESULTS = ("orthonormality_defect", "riemann_component")


@pytest.mark.parametrize("name", list(_POINT_OR_BATCH))
def test_point_or_batch(sphere_metric3, name):
    # a single point gives the row of the batch result, a float where the
    # row is one number
    frame = adapted_frame(AdaptedFrameSpec(0.7, 0.4), sphere_metric3)
    pts = [(0.1, 0.9, 0.2), (-0.3, 1.4, 0.0), (0.5, 2.1, -0.4)]
    call = _POINT_OR_BATCH[name]
    batch = call(sphere_metric3, frame, np.array(pts))
    assert type(batch) is np.ndarray and len(batch) == len(pts)
    for p, row in zip(pts, batch):
        one = call(sphere_metric3, frame, p)
        if name in _SCALAR_RESULTS:
            assert type(one) is float
        else:
            assert type(one) is np.ndarray and one.shape == row.shape
        assert np.asarray(one).tobytes() == row.tobytes()
