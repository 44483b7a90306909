import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from biharm.errors import (
    DegenerateImmersion,
    NonFiniteValue,
    NotCMC,
)
from biharm.geometry import covariant_leg
from biharm.hypersurface import (
    HopfCylinderSpec,
    SurfaceImmersion,
    ambient_ricci,
    biharmonic_residuals_surface,
    cmc_classify,
    hopf_cylinder_residuals,
    surface_geometry,
    surface_points,
    vertical_cylinder,
)
from biharm.numkernel import (
    ChartBox,
    ScalarField,
    directional_field,
    numeric_only,
)
from conftest import (
    NotUmbilic,
    X,
    field_of,
    field_of_text,
    flat_ambient,
    flipped,
    graph_immersion,
    round_sphere,
    slice_immersion,
    tilted_plane,
    umbilic_biharmonic_test,
)

U, V = X[0], X[1]


@pytest.fixture(scope="module")
def unit_cylinder():
    return vertical_cylinder(1.0, 1.0)


class TestSurfaceGeometry:
    def test_flat_slice_totally_geodesic(self):
        sl = slice_immersion(flat_ambient())
        geo = surface_geometry(sl, (0.3, -0.4))
        assert geo.mean_curvature == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(geo.shape_operator)) < 1e-12
        assert np.allclose(geo.induced_metric, np.eye(2))

    def test_unit_cylinder(self, unit_cylinder):
        geo = surface_geometry(unit_cylinder, (0.2, 0.1))
        assert geo.mean_curvature == pytest.approx(0.5, abs=1e-12)
        assert geo.shape_norm_sq == pytest.approx(1.0, abs=1e-12)
        # principal curvatures (2H, 0)
        assert geo.principal_curvatures[0] == pytest.approx(1.0, abs=1e-10)
        assert geo.principal_curvatures[1] == pytest.approx(0.0, abs=1e-10)
        # the normal is horizontal: vertical cylinders keep the flat factor
        assert geo.unit_normal[2] == pytest.approx(0.0, abs=1e-14)

    def test_parabolic_graph_origin(self):
        g = graph_immersion(field_of(U**2 / 2, 2))
        geo = surface_geometry(g, (0.0, 0.0))
        assert geo.mean_curvature == pytest.approx(0.5, abs=1e-10)

    def test_fundamental_form_contracts(self):
        # unit normal orthogonal to the tangents, H = trace/2, |A|^2 >= 2H^2
        rng = np.random.default_rng(31)
        g = graph_immersion(
            field_of(0.4 * U**2 + 0.3 * sp.sin(V) + 0.2 * U * V, 2))
        w = g.ambient.weights((0, 0, 0))
        for p in surface_points(g, (3, 3)):
            geo = surface_geometry(g, p)
            xi = geo.unit_normal
            assert float(np.sum(w * xi * xi)) == pytest.approx(1.0, abs=1e-8)
            for a in range(2):
                tang = np.array([t(p) for t in g.tangent_fields[a]])
                assert abs(float(np.sum(w * xi * tang))) < 1e-8
            assert geo.mean_curvature == pytest.approx(
                0.5 * np.trace(geo.shape_operator), abs=1e-12
            )
            assert geo.shape_norm_sq >= 2 * geo.mean_curvature**2 - 1e-12

    def test_degenerate_rank(self):
        amb = flat_ambient()
        comps = (
            ScalarField.coordinate(0, 2),
            ScalarField.coordinate(0, 2),  # same coordinate twice: rank 1
            ScalarField.constant(0.0, 2),
        )
        imm = SurfaceImmersion(comps, amb, ChartBox((-1, -1), (1, 1), 0.02))
        with pytest.raises(DegenerateImmersion):
            surface_geometry(imm, (0.2, 0.3))

    def test_degenerate_names_first_point_in_batch_order(self):
        # (u, u v, 0) has det g = u^2: degenerate on u = 0 only
        comps = (U, U * V, 0.0)
        imm = SurfaceImmersion(tuple(field_of(c, 2) for c in comps),
                               flat_ambient(), ChartBox((-1, -1), (1, 1), 0.02))
        batch = np.array([(0.5, 0.1), (0.0, 0.2), (0.0, 0.3)])
        with pytest.raises(DegenerateImmersion, match=r"at \(0\.0, 0\.2\)"):
            surface_geometry(imm, batch)
        with pytest.raises(DegenerateImmersion, match=r"at \(0\.0, 0\.3\)"):
            surface_geometry(imm, batch[::-1])


_BATCH_SURFACES = {
    "sphere": lambda: round_sphere(1.3),
    "plane": tilted_plane,
    "graph": lambda: graph_immersion(
        field_of(0.3 * sp.sin(U) * sp.cos(2 * V) + 0.1 * U * V, 2)),
    "cylinder": lambda: vertical_cylinder(1.0, 1.0),
    "hyperbolic-cylinder": lambda: vertical_cylinder(2.0, -1.0),
    "fd-cylinder": lambda: numeric_only(vertical_cylinder(0.7, 0.2)),
}


def _stacked(values):
    return np.array([np.asarray(v, dtype=float) for v in values])


@pytest.mark.parametrize("make", list(_BATCH_SURFACES.values()),
                         ids=list(_BATCH_SURFACES))
class TestBatchEqualsPoints:
    """A batch gives, bit for bit, what its points give one at a time."""

    def _setup(self, make):
        imm = make()
        pts = surface_points(imm, (3, 4))
        return imm, pts, np.array(pts)

    def _check(self, batch_result, singles):
        for name, value in vars(batch_result).items():
            stacked = _stacked(getattr(one, name) for one in singles)
            assert np.shape(value) == stacked.shape, name
            assert np.asarray(value).tobytes() == stacked.tobytes(), name

    def test_surface_geometry(self, make):
        imm, pts, batch = self._setup(make)
        self._check(surface_geometry(imm, batch),
                    [surface_geometry(imm, p) for p in pts])

    def test_ambient_ricci(self, make):
        imm, pts, batch = self._setup(make)
        self._check(ambient_ricci(imm, batch),
                    [ambient_ricci(imm, p) for p in pts])

    def test_residuals(self, make):
        imm, pts, batch = self._setup(make)
        scalars, tangents = biharmonic_residuals_surface(imm, batch)
        singles = [biharmonic_residuals_surface(imm, p) for p in pts]
        assert scalars.tobytes() == _stacked(s for s, _ in singles).tobytes()
        assert tangents.tobytes() == _stacked(t for _, t in singles).tobytes()


def _induced_laplacian_field(immersion, field):
    """Reference for ``_laplacian_H``: the induced-metric Laplacian written
    out with its own loop over the tangent legs."""
    gamma = immersion._induced_christoffels
    total = None
    for eps in immersion.frame_fields:
        term = directional_field(eps, directional_field(eps, field))
        term = term - directional_field(covariant_leg(eps, eps, gamma),
                                        field)
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("make", [
    _BATCH_SURFACES["sphere"], _BATCH_SURFACES["cylinder"],
    _BATCH_SURFACES["graph"], _BATCH_SURFACES["fd-cylinder"],
], ids=["sphere", "cylinder", "graph", "fd-cylinder"])
def test_laplacian_H_matches_written_out_loop(make):
    imm = make()
    batch = np.array(surface_points(imm, (4, 5)))
    oracle = _induced_laplacian_field(imm, imm.mean_curvature_field)
    assert imm._laplacian_H(batch).tobytes() == oracle(batch).tobytes()


class TestPointOrBatch:
    """A single parameter point gives the batch result's row: a float where
    the row is one number."""

    SCALARS = ("mean_curvature", "shape_norm_sq", "normal", "normal_closed")

    def _check(self, batch_result, single):
        for name, row in vars(batch_result).items():
            one = getattr(single, name)
            if name in self.SCALARS:
                assert type(one) is float, name
            else:
                assert type(one) is np.ndarray, name
            assert np.asarray(one).tobytes() == row[0].tobytes(), name

    def test_surface_geometry_and_ricci(self, unit_cylinder):
        pts = surface_points(unit_cylinder, (2, 2))
        for fn in (surface_geometry, ambient_ricci):
            self._check(fn(unit_cylinder, np.array(pts)),
                        fn(unit_cylinder, pts[0]))

    def test_residuals(self, unit_cylinder):
        pts = surface_points(unit_cylinder, (2, 2))
        scalars, tangents = biharmonic_residuals_surface(
            unit_cylinder, np.array(pts))
        scalar, tangent = biharmonic_residuals_surface(unit_cylinder, pts[0])
        assert type(scalar) is float and scalar == scalars[0]
        assert type(tangent) is np.ndarray
        assert tangent.tobytes() == tangents[0].tobytes()

    @pytest.mark.parametrize("make", [
        lambda: vertical_cylinder(2.0, -1.0), lambda: round_sphere(1.3),
        lambda: numeric_only(vertical_cylinder(0.7, 0.2))],
        ids=["cylinder", "sphere", "fd-cylinder"])
    def test_chart_point(self, make):
        imm = make()
        pts = surface_points(imm, (2, 3))
        batch = imm.point(np.array(pts))
        assert batch.shape == (len(pts), 3)
        for k, p in enumerate(pts):
            one = imm.point(p)
            assert type(one) is np.ndarray and one.shape == (3,)
            assert one.tobytes() == batch[k].tobytes()


class TestAmbientRicci:
    def test_unit_cylinder_normal_part(self, unit_cylinder):
        ric = ambient_ricci(unit_cylinder, (0.1, 0.2))
        assert ric.normal == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(ric.tangent)) < 1e-10

    def test_horizontal_slice_zero(self):
        sl = slice_immersion(flat_ambient())
        ric = ambient_ricci(sl, (0.4, 0.1))
        assert ric.normal == pytest.approx(0.0, abs=1e-12)

    def test_tilted_plane_flat(self):
        ric = ambient_ricci(tilted_plane(), (0.2, -0.3))
        assert ric.normal == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(ric.tangent)) < 1e-10

    def test_contraction_matches_closed_form(self):
        # random tilted graphs inside a curved ambient chart
        rng = np.random.default_rng(12)
        q = 0.6 * V + 0.2 * sp.sin(U)
        from biharm.geometry import ProductMetric3

        box = ChartBox((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), 0.05)
        ambient = ProductMetric3(field_of(q, 2), box)
        for _ in range(3):
            a, b = rng.uniform(-0.4, 0.4, size=2)
            comps = (
                ScalarField.coordinate(0, 2),
                ScalarField.coordinate(1, 2),
                field_of(a * U + b * V * V, 2),
            )
            imm = SurfaceImmersion(comps, ambient,
                                   ChartBox((-1, -1), (1, 1), 0.05))
            for p in surface_points(imm, (3, 3)):
                ric = ambient_ricci(imm, p)
                assert ric.normal == pytest.approx(ric.normal_closed, abs=1e-6)
                assert np.allclose(ric.tangent, ric.tangent_closed, atol=1e-6)


class TestSurfaceResiduals:
    def test_unit_cylinder_biharmonic(self, unit_cylinder):
        for p in surface_points(unit_cylinder, (3, 3)):
            scalar, tangent = biharmonic_residuals_surface(unit_cylinder, p)
            assert abs(scalar) < 1e-8
            assert np.max(np.abs(tangent)) < 1e-8

    def test_minimal_slice(self):
        sl = slice_immersion(flat_ambient())
        scalar, tangent = biharmonic_residuals_surface(sl, (0.3, 0.2))
        assert scalar == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(tangent)) < 1e-12

    def test_doubled_curvature_cylinder(self):
        # k_g = 2 in the unit-curvature base: H = 1, |A|^2 = 4, Ric = 1
        cyl = vertical_cylinder(2.0, 1.0)
        scalar, _ = biharmonic_residuals_surface(cyl, (0.1, 0.0))
        assert scalar == pytest.approx(-3.0, abs=1e-9)

    def test_orientation_flip(self, unit_cylinder):
        flip = flipped(unit_cylinder)
        p = (0.15, -0.1)
        geo = surface_geometry(unit_cylinder, p)
        geo_f = surface_geometry(flip, p)
        assert geo_f.mean_curvature == pytest.approx(-geo.mean_curvature)
        assert np.allclose(geo_f.shape_operator, -geo.shape_operator,
                           atol=1e-12)
        s, t = biharmonic_residuals_surface(unit_cylinder, p)
        s_f, t_f = biharmonic_residuals_surface(flip, p)
        # scalar channel is odd under the flip, tangent channel even
        assert s_f == pytest.approx(-s, abs=1e-10)
        assert np.allclose(t_f, t, atol=1e-10)
        cyl2 = vertical_cylinder(2.0, 1.0)
        s2, _ = biharmonic_residuals_surface(flipped(cyl2), (0.1, 0.0))
        assert s2 == pytest.approx(3.0, abs=1e-9)


class TestCmcClassification:
    def test_unit_cylinder(self, unit_cylinder):
        cls = cmc_classify(unit_cylinder, surface_points(unit_cylinder, (4, 4)),
                           tol=1e-8)
        assert cls.kind == "proper_biharmonic_vertical_cylinder"
        assert cls.sphere_radius == pytest.approx(1.0, abs=1e-9)
        assert cls.circle_radius == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_slice_minimal(self):
        sl = slice_immersion(flat_ambient())
        cls = cmc_classify(sl, surface_points(sl, (3, 3)))
        assert cls.kind == "minimal"

    def test_flat_base_cylinder_rejected(self):
        cyl = vertical_cylinder(1.0, 0.0)
        cls = cmc_classify(cyl, surface_points(cyl, (3, 3)), tol=1e-6)
        assert cls.kind == "not_biharmonic"
        assert cls.details["max_shape_vs_base"] == pytest.approx(1.0, abs=1e-8)

    def test_varying_curvature_rejected(self):
        g = graph_immersion(field_of(U**2 / 2, 2))
        with pytest.raises(NotCMC):
            cmc_classify(g, surface_points(g, (4, 4)))

    @given(st.floats(0.2, 3.0))
    def test_matched_cylinder_radii(self, kg):
        # |A|^2 = K_base = 4H^2 with H = kg/2: radii 1/(2|H|), 1/(2 sqrt2 |H|)
        cyl = vertical_cylinder(kg, kg * kg)
        cls = cmc_classify(cyl, surface_points(cyl, (3, 3)), tol=1e-7)
        assert cls.kind == "proper_biharmonic_vertical_cylinder"
        h = kg / 2.0
        assert abs(cls.mean_curvature) == pytest.approx(h, rel=1e-9)
        assert cls.sphere_radius == pytest.approx(1.0 / (2.0 * h), rel=1e-9)
        assert cls.circle_radius == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0) * h), rel=1e-9)


class TestHopfCylinders:
    def test_matched_curvatures(self):
        spec = HopfCylinderSpec(1.0, 1.0)
        assert hopf_cylinder_residuals(spec, 0.0) == (0.0, 0.0)
        assert spec.mean_curvature_field((0.0,)) == pytest.approx(0.5)

    def test_mismatched_curvature(self):
        spec = HopfCylinderSpec(1.0, 2.0)
        r1, r2 = hopf_cylinder_residuals(spec, 0.7)
        assert r1 == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_geodesic_base_curve_minimal(self):
        spec = HopfCylinderSpec(0.0, 3.0)
        assert hopf_cylinder_residuals(spec, 0.1) == (0.0, 0.0)
        assert spec.mean_curvature_field((0.1,)) == 0.0

    def test_varying_curvature_fields(self):
        kg = field_of_text("1 + s**2", ("s",))
        spec = HopfCylinderSpec(kg, 0.0)
        r1, r2 = hopf_cylinder_residuals(spec, 0.5)
        k = 1.25
        assert r1 == pytest.approx(2.0 - k**3, abs=1e-10)
        assert r2 == pytest.approx(3.0 * 1.0 * k, abs=1e-10)

    def test_overflowing_cube_is_a_typed_error(self):
        spec = HopfCylinderSpec(1e200, 1.0)
        with pytest.raises(NonFiniteValue, match="at k_g = 1e\\+200"):
            hopf_cylinder_residuals(spec, 0.0)


class TestUmbilicTest:
    def test_slice_passes(self):
        sl = slice_immersion(flat_ambient())
        res = umbilic_biharmonic_test(sl, surface_points(sl, (3, 3)))
        assert res.minimal and res.consistent

    def test_round_sphere_consistent(self):
        sph = round_sphere(1.0)
        res = umbilic_biharmonic_test(sph, surface_points(sph, (4, 4)),
                                      tol=1e-6)
        assert not res.minimal
        assert res.consistent
        # scalar residual is -H|A|^2 = -2H^3 in the flat ambient
        assert res.max_scalar_residual == pytest.approx(
            2 * res.max_mean_curvature**3, abs=1e-6
        )

    def test_cylinder_not_umbilic(self, unit_cylinder):
        with pytest.raises(NotUmbilic):
            umbilic_biharmonic_test(
                unit_cylinder, surface_points(unit_cylinder, (3, 3))
            )


class TestCylinderBuilders:
    def test_hyperbolic_circle_exists(self):
        cyl = vertical_cylinder(2.0, -1.0)
        geo = surface_geometry(cyl, (0.1, 0.0))
        assert geo.mean_curvature == pytest.approx(1.0, abs=1e-10)
        from biharm.geometry import gauss_curvature_2d

        p3 = cyl.point((0.1, 0.0))
        assert gauss_curvature_2d(cyl.ambient, p3) == pytest.approx(
            -1.0, abs=1e-9
        )

    def test_hyperbolic_small_curvature_rejected(self):
        with pytest.raises(ValueError):
            vertical_cylinder(0.5, -1.0)

    def test_arc_length_parametrization(self, unit_cylinder):
        geo = surface_geometry(unit_cylinder, (0.3, 0.2))
        assert np.allclose(geo.induced_metric, np.eye(2), atol=1e-12)
