"""Metrics on product charts: connection, curvature, frame Laplacian.

Every metric handled here is diagonal with exactly one axis carrying a
conformal weight e^{2q}: the 3-chart form e^{2q(t,s)} dt^2 + ds^2 + dz^2
(base surface on axes 0,1; flat factor on axis 2) and the 2-chart surface
forms e^{2q} dt^2 + ds^2 or dy^2 + e^{2l} dphi^2.

Curvature is computed through the chart Christoffel symbols and contracted
with frame components; the sign conventions are

    R(X,Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z,
    riemann_component(i,j,k,l) = <R(e_i,e_j) e_k, e_l>,

so that on a sphere chart <R(E1,E2)E2, E1> equals the Gauss curvature.
The Laplacian convention is Delta f = sum_i [e_i e_i f - (grad_{e_i} e_i) f];
``laplacian_field`` builds it for any orthonormal legs, those of a 3-chart
frame and those of a surface's induced metric alike.  A single point gives
one value and a batch a leading batch axis (``numkernel.one_or_all``).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonOrthonormalFrame
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    directional_field,
    fexp,
    lift,
    one_or_all,
    sample_grid,
    sweep,
)
from .record import Record

PRODUCT_AXIS = 2  # the flat R factor of a 3-chart


def _christoffel_fields(metric):
    """Nonzero Christoffel fields {(k,i,j): field} of a diagonal metric.

    For the weighted axis w: G^w_{wi} = G^w_{iw} = q_i and, for j != w,
    G^j_{ww} = -e^{2q} q_j.  Each metric builds them once, as its
    ``christoffel_fields``.
    """
    q = metric.conformal_exponent
    w = metric.weighted_axis
    e2q = fexp(q + q)
    fields = {}
    for i in range(metric.dim):
        qi = q.diff(i)
        fields[(w, w, i)] = qi
        fields[(w, i, w)] = qi
        if i != w:
            fields[(i, w, w)] = -1.0 * (e2q * qi)
    return fields


class ProductMetric3(Record):
    """Metric e^{2q} (weighted axis)^2 + unit^2 + unit^2 on a 3-chart.

    ``conformal_exponent`` is q; it must not depend on the product axis
    (axis 2), which carries the flat R factor.  A 2-dimensional exponent is
    lifted to the chart automatically.
    """

    conformal_exponent: ScalarField
    box: ChartBox
    weighted_axis: int = 0

    def __post_init__(self):
        q = self.conformal_exponent
        if q.dim == 2:
            object.__setattr__(self, "conformal_exponent", lift(q, 3, (0, 1)))
        elif q.dim != 3:
            raise ValueError("conformal exponent must live on a 2- or 3-chart")
        if self.box.dim != 3:
            raise ValueError("a 3-chart box is required")
        if self.weighted_axis not in (0, 1):
            raise ValueError("the weighted axis must belong to the base surface")
        self._check_z_independent()

    def _check_z_independent(self):
        q = self.conformal_exponent
        p0 = self.box.midpoint()
        lo, hi = self.box.lower[PRODUCT_AXIS], self.box.upper[PRODUCT_AXIS]
        probes = []  # one batch: z at 1/4 of the flat factor, at p0, at 3/4
        for z in (lo + 0.25 * (hi - lo), p0[PRODUCT_AXIS],
                  lo + 0.75 * (hi - lo)):
            p = list(p0)
            p[PRODUCT_AXIS] = z
            probes.append(p)
        low, mid, high = q(probes).tolist()
        if abs(low - mid) > 1e-10 or abs(high - mid) > 1e-10:
            raise ValueError("conformal exponent depends on the product axis")

    christoffel_fields = functools.cached_property(_christoffel_fields)

    @property
    def dim(self):
        return 3

    def weights(self, point):
        """Diagonal metric coefficients at a point, or (n, 3) for a batch."""
        return _diagonal_weights(self, point)


def _diagonal_weights(metric, point):
    batch = as_batch(point)
    w = np.ones((len(batch), metric.dim))
    w[:, metric.weighted_axis] = np.exp(2.0 * metric.conformal_exponent(batch))
    return one_or_all(w, point)


def base_sweep(box: ChartBox, grid):
    """Grid over the base axes of a 3-chart box at the middle of the flat
    factor, as chart points."""
    base = ChartBox(box.lower[:2], box.upper[:2], box.guard)
    zmid = box.midpoint()[PRODUCT_AXIS]
    return [(t, s, zmid) for (t, s) in sample_grid(base, grid)]


class SurfaceMetric(Record):
    """Diagonal 2-chart metric with e^{2q} on one axis and 1 on the other."""

    conformal_exponent: ScalarField
    box: ChartBox
    weighted_axis: int = 0

    def __post_init__(self):
        if self.conformal_exponent.dim != 2:
            raise ValueError("surface exponent must live on a 2-chart")
        if self.box.dim != 2:
            raise ValueError("a 2-chart box is required")
        if self.weighted_axis not in (0, 1):
            raise ValueError("weighted axis must be 0 or 1")

    christoffel_fields = functools.cached_property(_christoffel_fields)

    @property
    def dim(self):
        return 2

    def weights(self, point):
        return _diagonal_weights(self, point)


class FrameField(Record):
    """Orthonormal frame given by chart-component fields, one row per leg.

    ``coeff`` optionally stores the rotation coefficients of each leg
    against the semi-geodesic frame of the same metric (a special-orthogonal
    matrix of fields).
    """

    components: tuple
    metric: object
    coeff: tuple = None

    @property
    def dim(self):
        return len(self.components)

    def matrix(self, point):
        """Leg-by-component matrix at a point, or (n, d, d) for a batch."""
        return _field_matrix(self.components, point)

    def coeff_matrix(self, point):
        if self.coeff is None:
            return None
        return _field_matrix(self.coeff, point)

    def orthonormality_defect(self, point):
        """Worst entry of |Gram - I| at a point, or per point of a batch."""
        batch = as_batch(point)
        w = self.metric.weights(batch)
        m = self.matrix(batch)
        gram = (m * w[:, None, :]) @ np.swapaxes(m, -1, -2)
        return one_or_all(
            np.max(np.abs(gram - np.eye(self.dim)), axis=(-2, -1)), point)

    @functools.cached_property
    def connection(self):
        """Chart components of grad_{e_i} e_i for each leg, as fields: built
        once per frame, so every Laplacian on it shares them."""
        gamma = self.metric.christoffel_fields
        return tuple(covariant_leg(row, row, gamma) for row in self.components)


def _field_matrix(rows, point):
    batch = as_batch(point)
    stacked = np.array([[c(batch) for c in row] for row in rows])
    return one_or_all(np.moveaxis(stacked, -1, 0), point)


# -- Christoffel symbols ------------------------------------------------------


def christoffel_symbols(metric, point):
    """Chart Christoffel symbols as an array G[k, i, j] (G[n, k, i, j] for a
    batch)."""
    d = metric.dim
    batch = as_batch(point)
    out = np.zeros((len(batch), d, d, d))
    for (k, i, j), fld in metric.christoffel_fields.items():
        out[:, k, i, j] = fld(batch)
    return one_or_all(out, point)


@sweep()
def riemann_chart(metric, point):
    """Lowered curvature R[i,j,k,l] = <R(d_i, d_j) d_k, d_l> at a point
    (R[n, i, j, k, l] for a batch)."""
    d = metric.dim
    batch = as_batch(point)
    gamma = christoffel_symbols(metric, batch)
    dgamma = np.zeros((len(batch), d, d, d, d))  # [n, a, k, i, j] = d_a G^k_ij
    for (k, i, j), fld in metric.christoffel_fields.items():
        for a in range(d):
            dgamma[:, a, k, i, j] = fld.diff(a)(batch)
    weights = metric.weights(batch)
    # up[n, l, i, j, k]: R(d_i, d_j) d_k = sum_l up[n, l, i, j, k] d_l
    up = (np.einsum("niljk->nlijk", dgamma)
          - np.einsum("njlik->nlijk", dgamma))
    up += np.einsum("nlim,nmjk->nlijk", gamma, gamma)
    up -= np.einsum("nljm,nmik->nlijk", gamma, gamma)
    low = np.moveaxis(up, 1, -1) * weights[:, None, None, None, :]
    return one_or_all(low, point)


# -- curvature ---------------------------------------------------------------


def gauss_curvature_2d(metric, point):
    """Gauss curvature -d_u f - f^2 with f the unit-axis slope of q.

    Serves the 2-chart surface metrics and, evaluated on the 3-chart, the
    base surface factor of a product metric.
    """
    u = 1 - metric.weighted_axis
    q = metric.conformal_exponent
    f = q.partial(point, u, 1)
    return -q.partial(point, u, 2) - f * f


def _require_orthonormal(frame, batch, check_tol):
    defect = frame.orthonormality_defect(batch)
    bad = defect > check_tol
    if bad.any():
        i = int(np.argmax(bad))
        raise NonOrthonormalFrame(
            f"orthonormality defect {defect[i]:.3e} at "
            f"{tuple(batch[i].tolist())}"
        )


def frame_contraction(low, m, indices):
    """<R(e_i, e_j) e_k, e_l> per point of a batch, from the chart curvature
    ``low`` (n, d, d, d, d) and the frame matrices ``m`` (n, d, d)."""
    i, j, k, l = indices
    return np.einsum("na,nb,nc,nd,nabcd->n",
                     m[:, i], m[:, j], m[:, k], m[:, l], low)


@sweep()
def riemann_component(metric, point, frame: FrameField, indices):
    """<R(e_i, e_j) e_k, e_l> for the given frame legs, at a point or per
    point of a batch.

    The frame must be orthonormal for the metric at every point (checked to
    1e-6).
    """
    batch = as_batch(point)
    _require_orthonormal(frame, batch, 1e-6)
    return one_or_all(frame_contraction(riemann_chart(metric, batch),
                                        frame.matrix(batch), indices), point)


# -- frame Laplacian ----------------------------------------------------------


def add_christoffel_terms(term, l, gamma, u, v):
    """``term`` + sum of G^l_{bm} u^b v^m over the Christoffel fields
    {(l, b, m): field} of ``gamma``, added in their order; ``u`` and ``v``
    are chart component fields."""
    for (k, b, m), gam in gamma.items():
        if k == l:
            term = term + gam * (u[b] * v[m])
    return term


def covariant_leg(e_i, e_j, gamma):
    """Chart components of grad_{e_i} e_j, e_i(e_j^l) + G^l_{bm} e_i^b e_j^m,
    for legs given by their chart component fields and Christoffel fields
    {(l, b, m): field}."""
    return tuple(add_christoffel_terms(directional_field(e_i, e_j[l]), l,
                                       gamma, e_i, e_j)
                 for l in range(len(e_j)))


def laplacian_field(legs, connection, field) -> ScalarField:
    """Delta f = sum_i [e_i(e_i f) - (grad_{e_i} e_i) f] as a field, for
    orthonormal legs e_i given by their chart component fields and
    ``connection``, the chart components of each grad_{e_i} e_i (such as
    ``FrameField.connection``)."""
    total = None
    for row, conn in zip(legs, connection):
        term = directional_field(row, directional_field(row, field))
        term = term - directional_field(conn, field)
        total = term if total is None else total + term
    return total
