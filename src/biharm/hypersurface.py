"""Parametrized surfaces in product 3-charts: fundamental forms and
biharmonicity.

A surface is a map (u, v) -> chart point.  The normal is the metric cross
product of the coordinate tangents (orientation fixed by chart order and an
optional flip), the shape operator comes from the ambient covariant
derivative of the unit normal, and the biharmonicity residual of a surface
with mean curvature H, shape operator A and unit normal xi is

    scalar:   Lap H - H |A|^2 + H Ric(xi, xi),
    tangent:  2 A(grad H) + grad(H^2) - 2 H (Ric xi)^T,

which vanishes exactly for biharmonic immersions.  Lap and grad are taken
in the induced metric through an orthonormal tangent frame built by
Gram-Schmidt from the coordinate tangents (first leg along d_u).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateImmersion, NonFiniteValue, NotCMC
from .geometry import (
    FrameField,
    ProductMetric3,
    add_christoffel_terms,
    frame_contraction,
    gauss_curvature_2d,
    laplacian_field,
    riemann_chart,
)
from .geometry import _field_matrix
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    as_field,
    compose,
    directional_field,
    fexp,
    flog,
    fsin,
    fsinh,
    fsqrt,
    sample_grid,
    sweep,
)
from .record import Record

_RANK_TOL = 1e-10


class SurfaceImmersion(Record):
    """Codimension-one surface (u, v) -> (chart point) in a product 3-chart.

    ``components`` are three fields of (u, v); ``orientation`` (+1 or -1)
    flips the unit normal.
    """

    components: tuple
    ambient: ProductMetric3
    uv_box: ChartBox
    orientation: int = 1
    label: str = "surface"

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(as_field(c, 2) for c in self.components))
        if len(self.components) != 3:
            raise ValueError("an immersion needs three chart components")
        if self.uv_box.dim != 2:
            raise ValueError("the parameter box must be 2-dimensional")
        object.__setattr__(self, "orientation", int(self.orientation))

    def point(self, points):
        """The (n, 3) chart batch of a batch of parameter points."""
        batch = as_batch(points)
        return as_batch(np.column_stack([c(batch) for c in self.components]))

    # -- derived fields on the (u, v) chart -----------------------------------

    @cached_property
    def tangent_fields(self):
        """tangent_fields[a][l] = d(component l)/d(parameter a)."""
        return tuple(
            tuple(c.diff(a) for c in self.components) for a in range(2)
        )

    @cached_property
    def _exponent(self):
        """The ambient conformal exponent pulled back to (u, v)."""
        return compose(self.ambient.conformal_exponent, self.components)

    @cached_property
    def _weight_fields(self):
        """Ambient diagonal metric coefficients pulled back to (u, v)."""
        one = ScalarField.constant(1.0, 2)
        w = [one, one, one]
        w[self.ambient.weighted_axis] = fexp(2.0 * self._exponent)
        return tuple(w)

    @cached_property
    def induced_metric_fields(self):
        """(g11, g12, g22) of the induced metric."""
        T, w = self.tangent_fields, self._weight_fields

        def dot(a, b):
            return (w[0] * (T[a][0] * T[b][0]) + w[1] * (T[a][1] * T[b][1])
                    + w[2] * (T[a][2] * T[b][2]))

        return dot(0, 0), dot(0, 1), dot(1, 1)

    @cached_property
    def _det_field(self):
        g11, g12, g22 = self.induced_metric_fields
        return g11 * g22 - g12 * g12

    @cached_property
    def normal_fields(self):
        """Chart components of the unit normal (metric cross product)."""
        T, w = self.tangent_fields, self._weight_fields
        # sqrt of the ambient metric determinant
        sqrt_amb = fexp(self._exponent)
        tu, tv = T
        raw = (
            tu[1] * tv[2] - tu[2] * tv[1],
            tu[2] * tv[0] - tu[0] * tv[2],
            tu[0] * tv[1] - tu[1] * tv[0],
        )
        norm = fsqrt(self._det_field)
        sign = float(self.orientation)
        return tuple(
            sign * (sqrt_amb * raw[l]) / (w[l] * norm) for l in range(3)
        )

    @cached_property
    def second_form_fields(self):
        """h_ab = -<grad_{T_a} xi, T_b> on the coordinate tangents."""
        T, w = self.tangent_fields, self._weight_fields
        xi = self.normal_fields
        gamma = self.ambient.christoffel_fields
        gamma_uv = {key: compose(g, self.components) for key, g in gamma.items()}

        def cov_xi(a, l):
            return add_christoffel_terms(xi[l].diff(a), l, gamma_uv, T[a], xi)

        def h(a, b):
            total = None
            for l in range(3):
                piece = w[l] * (cov_xi(a, l) * T[b][l])
                total = piece if total is None else total + piece
            return -1.0 * total

        h11, h12, h22 = h(0, 0), h(0, 1), h(1, 1)
        return h11, h12, h22

    @cached_property
    def frame_fields(self):
        """Orthonormal tangent frame on the (u, v) chart, first leg along d_u.

        Rows are (u, v)-components: eps1 = d_u / sqrt(g11),
        eps2 = (d_v - (g12/g11) d_u) normalized.
        """
        g11, g12, g22 = self.induced_metric_fields
        det = self._det_field
        zero = ScalarField.constant(0.0, 2)
        inv_s11 = ScalarField.constant(1.0, 2) / fsqrt(g11)
        eps1 = (inv_s11, zero)
        fac = fsqrt(g11 / det)
        eps2 = (-1.0 * (g12 / g11) * fac, fac)
        return eps1, eps2

    @cached_property
    def shape_frame_fields(self):
        """Shape operator entries in the orthonormal tangent frame."""
        h11, h12, h22 = self.second_form_fields
        eps1, eps2 = self.frame_fields

        def pair(ea, eb):
            return (h11 * (ea[0] * eb[0]) + h12 * (ea[0] * eb[1])
                    + h12 * (ea[1] * eb[0]) + h22 * (ea[1] * eb[1]))

        return pair(eps1, eps1), pair(eps1, eps2), pair(eps2, eps2)

    @cached_property
    def mean_curvature_field(self):
        a11, _, a22 = self.shape_frame_fields
        return 0.5 * (a11 + a22)

    @cached_property
    def christoffel_fields(self):
        """Christoffel fields of the induced 2-metric, {(c,a,b): field}."""
        g11, g12, g22 = self.induced_metric_fields
        det = self._det_field
        g = {(0, 0): g11, (0, 1): g12, (1, 0): g12, (1, 1): g22}
        ginv = {
            (0, 0): g22 / det, (0, 1): -1.0 * g12 / det,
            (1, 0): -1.0 * g12 / det, (1, 1): g11 / det,
        }
        out = {}
        for c in range(2):
            for a in range(2):
                for b in range(a, 2):
                    total = None
                    for d in range(2):
                        piece = ginv[(c, d)] * (
                            g[(b, d)].diff(a) + g[(a, d)].diff(b)
                            - g[(a, b)].diff(d)
                        )
                        total = piece if total is None else total + piece
                    out[(c, a, b)] = 0.5 * total
                    out[(c, b, a)] = out[(c, a, b)]
        return out

    @cached_property
    def _laplacian_H(self):
        """Laplace-Beltrami of H in the induced metric."""
        frame = FrameField(self.frame_fields, self)
        return laplacian_field(frame.components, frame.connection,
                               self.mean_curvature_field, self._gradient_H)

    @cached_property
    def _gradient_H(self):
        """Frame components of grad H, one field per tangent leg."""
        return tuple(directional_field(eps, self.mean_curvature_field)
                     for eps in self.frame_fields)


class SurfaceGeometry(Record):
    """First/second fundamental data of an immersion per point of a batch
    (every field has a leading batch axis)."""

    induced_metric: np.ndarray
    unit_normal: np.ndarray
    shape_operator: np.ndarray  # in the orthonormal tangent frame
    mean_curvature: np.ndarray
    shape_norm_sq: np.ndarray
    principal_curvatures: np.ndarray  # by |k| descending


def _pairs(a11, a12, a22):
    """Symmetric 2x2 matrices [[a11, a12], [a12, a22]], one per point."""
    return np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)


def _normals(immersion, batch):
    return np.column_stack([f(batch) for f in immersion.normal_fields])


@sweep()
def surface_geometry(immersion: SurfaceImmersion, points) -> SurfaceGeometry:
    """Fundamental forms, unit normal, shape operator and curvatures per
    point of a batch of parameter points.

    Raises DegenerateImmersion at the first point (in batch order) where
    the induced metric is degenerate.
    """
    batch = as_batch(points)
    grams = _pairs(*(f(batch) for f in immersion.induced_metric_fields))
    dets = np.linalg.det(grams)
    degenerate = dets <= _RANK_TOL
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise DegenerateImmersion(
            f"induced metric degenerate at {tuple(batch[i].tolist())}: "
            f"det = {dets[i]:.3e}"
        )
    a11, a12, a22 = (f(batch) for f in immersion.shape_frame_fields)
    shapes = _pairs(a11, a12, a22)
    eig = np.linalg.eigvalsh(shapes)
    # stable, so equal |k| keep their eigvalsh order
    order = np.argsort(-np.abs(eig), axis=-1, kind="stable")
    return SurfaceGeometry(
        induced_metric=grams,
        unit_normal=_normals(immersion, batch),
        shape_operator=shapes,
        mean_curvature=0.5 * (a11 + a22),
        shape_norm_sq=np.sum(shapes * shapes, axis=(-2, -1)),
        principal_curvatures=np.take_along_axis(eig, order, axis=-1),
    )


class RicciSplit(Record):
    """Ambient Ricci curvature split along a surface normal, per point of a
    batch.

    ``normal``/``tangent`` come from contracting the chart curvature
    tensor; the ``*_closed`` values are the product-chart closed forms
    (1 - <xi,E3>^2) K and -<xi,E3> K (<e_a,E3>) for cross-checking.
    """

    normal: np.ndarray
    tangent: np.ndarray
    normal_closed: np.ndarray
    tangent_closed: np.ndarray


@sweep()
def ambient_ricci(immersion: SurfaceImmersion, points) -> RicciSplit:
    """Ambient Ricci split along the unit normal per point of a batch of
    parameter points."""
    batch = as_batch(points)
    chart = immersion.point(batch)
    metric = immersion.ambient
    xi = _normals(immersion, batch)
    # rows 0, 1: the pushed-forward tangent legs; row 2: the normal
    legs = (_field_matrix(immersion.frame_fields, batch)
            @ _field_matrix(immersion.tangent_fields, batch))
    vectors = np.concatenate([legs, xi[:, None, :]], axis=1)
    low = riemann_chart(metric, chart)
    # Ric(xi, v_y) = sum_r <R(v_r, xi) v_y, v_r>, for v_y = xi, e1, e2
    normal, ric1, ric2 = (
        frame_contraction(low, vectors, (0, 2, y, 0))
        + frame_contraction(low, vectors, (1, 2, y, 1))
        + frame_contraction(low, vectors, (2, 2, y, 2))
        for y in (2, 0, 1))
    k_base = gauss_curvature_2d(metric, chart)
    a13, a23, a33 = legs[:, 0, 2], legs[:, 1, 2], xi[:, 2]
    return RicciSplit(
        normal=normal,
        tangent=np.column_stack([ric1, ric2]),
        normal_closed=(1.0 - a33 * a33) * k_base,
        tangent_closed=np.column_stack(
            [-a33 * a13 * k_base, -a33 * a23 * k_base]),
    )


@sweep()
def biharmonic_residuals_surface(immersion: SurfaceImmersion, points):
    """Scalar (n,) and tangent (n, 2) residual channels of the surface
    system on a batch of parameter points."""
    batch = as_batch(points)
    h = immersion.mean_curvature_field(batch)
    lap = immersion._laplacian_H(batch)
    grad = np.column_stack([g(batch) for g in immersion._gradient_H])
    geo = surface_geometry(immersion, batch)
    ric = ambient_ricci(immersion, batch)
    scalars = lap - h * geo.shape_norm_sq + h * ric.normal
    tangents = ((2.0 * geo.shape_operator @ grad[:, :, None])[:, :, 0]
                + 2.0 * h[:, None] * grad - 2.0 * h[:, None] * ric.tangent)
    return scalars, tangents


class CmcClassification(Record):
    kind: str  # "minimal" | "proper_biharmonic_vertical_cylinder" | "not_biharmonic"
    mean_curvature: float
    sphere_radius: float = math.nan
    circle_radius: float = math.nan
    details: dict = None


@sweep()
def cmc_classify(immersion: SurfaceImmersion, points, tol=1e-6):
    """Classify a constant-mean-curvature surface.

    Proper biharmonic surfaces here are exactly the vertical cylinders with
    <xi, E3> = 0 and |A|^2 = K_base = 4H^2 > 0; the implied radii of the
    ambient sphere factor and of the base circle are reported.  Raises
    NotCMC when H varies beyond ``tol`` (relative spread).
    """
    batch = as_batch(points)
    h = immersion.mean_curvature_field(batch)
    h_vals = h.tolist()
    h_lo, h_hi = min(h_vals), max(h_vals)
    h_mean = sum(h_vals) / len(h_vals)
    scale = max(1.0, abs(h_mean))
    if (h_hi - h_lo) / scale > tol:
        raise NotCMC(
            f"mean curvature spread {(h_hi - h_lo):.3e} exceeds {tol:g}"
        )
    details = {"H": h_mean}
    if abs(h_mean) <= tol:
        return CmcClassification("minimal", h_mean, details=details)
    geo = surface_geometry(immersion, batch)
    k_base = gauss_curvature_2d(immersion.ambient, immersion.point(batch))
    vertical = float(np.max(np.abs(geo.unit_normal[:, 2]), initial=0.0))
    details["max_vertical_defect"] = vertical
    details["max_shape_vs_base"] = float(
        np.max(np.abs(geo.shape_norm_sq - k_base)))
    details["max_base_vs_4H2"] = float(np.max(np.abs(k_base - 4.0 * h * h)))
    if (vertical <= tol and details["max_shape_vs_base"] <= tol
            and details["max_base_vs_4H2"] <= tol):
        h_abs = abs(h_mean)
        return CmcClassification(
            "proper_biharmonic_vertical_cylinder", h_mean,
            sphere_radius=1.0 / (2.0 * h_abs),
            circle_radius=1.0 / (2.0 * math.sqrt(2.0) * h_abs),
            details=details,
        )
    return CmcClassification("not_biharmonic", h_mean, details=details)


# -- Hopf cylinders -------------------------------------------------------------


class HopfCylinderSpec(Record):
    """Preimage of a unit-speed base curve under the vertical projection.

    ``geodesic_curvature`` is k_g(s) of the base curve, ``base_curvature``
    the Gauss curvature along it; the geodesic torsion vanishes for these
    cylinders and the mean curvature is k_g / 2.
    """

    geodesic_curvature: ScalarField
    base_curvature: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "geodesic_curvature",
                           as_field(self.geodesic_curvature, 1))
        object.__setattr__(self, "base_curvature",
                           as_field(self.base_curvature, 1))

    @property
    def mean_curvature_field(self):
        return 0.5 * self.geodesic_curvature


@sweep()
def hopf_cylinder_residuals(spec: HopfCylinderSpec, s):
    """Residual pair (k_g'' - k_g^3 + k_g K, 3 k_g' k_g) at arc length s."""
    kg = spec.geodesic_curvature
    p = (float(s),)
    k = kg(p)
    try:
        cube = k ** 3
    except OverflowError:
        raise NonFiniteValue(f"k_g^3 overflows at k_g = {k!r}") from None
    r1 = kg.partial(p, 0, 2) - cube + k * spec.base_curvature(p)
    r2 = 3.0 * kg.partial(p, 0, 1) * k
    return r1, r2


# -- builders --------------------------------------------------------------------

_U, _V = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)


def vertical_cylinder(kg, base_curvature):
    """Vertical cylinder over a constant-curvature circle of the base.

    The base surface of Gauss curvature K is presented in geodesic polar
    form e^{2q} dt^2 + ds^2 with q = log(R sin(s/R)) for K = 1/R^2 > 0,
    q = log(s) for K = 0 and q = log(R sinh(s/R)) for K = -1/R^2; circles
    {s = s0} have geodesic curvature cot(s0/R)/R, 1/s0 and coth(s0/R)/R
    respectively, and the cylinder is their preimage under the vertical
    projection, parametrized by arc length over (-1, 1) x (-0.5, 0.5).
    """
    if kg <= 0:
        raise ValueError("the circle curvature must be positive")
    s = ScalarField.coordinate(1, 2)
    if base_curvature > 0:
        radius = 1.0 / math.sqrt(base_curvature)
        s0 = radius * math.atan(1.0 / (radius * kg))
        q = flog(radius * fsin(s / radius))
        speed = radius * math.sin(s0 / radius)  # e^q at s0
        s_lo, s_hi = 0.2 * s0, min(0.95 * math.pi * radius, 1.8 * s0)
    elif base_curvature == 0:
        s0 = 1.0 / kg
        q = flog(s)
        speed = s0
        s_lo, s_hi = 0.3 * s0, 2.0 * s0
    else:
        radius = 1.0 / math.sqrt(-base_curvature)
        if kg * radius <= 1.0:
            raise ValueError(
                "no geodesic circle with this curvature exists in the "
                "hyperbolic base"
            )
        s0 = radius * math.atanh(1.0 / (radius * kg))
        q = flog(radius * fsinh(s / radius))
        speed = radius * math.sinh(s0 / radius)
        s_lo, s_hi = 0.3 * s0, 2.0 * s0
    t_hi = 1.0 / speed
    box = ChartBox((-0.1 - t_hi, s_lo, -0.6),
                   (t_hi + 0.1, s_hi, 0.6), 0.0)
    ambient = ProductMetric3(q, box)
    comps = (
        _U / speed,
        ScalarField.constant(s0, 2),
        _V,
    )
    uv_box = ChartBox((-1.0, -0.5), (1.0, 0.5), 0.02)
    return SurfaceImmersion(
        comps, ambient, uv_box,
        label=f"cylinder(kg={kg:g}, K={base_curvature:g})",
    )


def surface_points(immersion: SurfaceImmersion, grid=(5, 5)):
    return sample_grid(immersion.uv_box, grid)
