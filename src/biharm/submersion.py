"""Riemannian submersions from product 3-charts onto surfaces.

A submersion is represented by its domain metric and the angle spec of an
adapted frame; everything else (integrability data, target curvature, the
biharmonicity residuals) is derived.  The residual system has two channels,

  r1 = -Lap k1 - 2 sum_i f_i e_i(k2) - k2 sum_i (e_i(f_i) - k_i f_i)
       + k1 (-K_N + sum_i f_i^2),
  r2 = -Lap k2 + 2 sum_i f_i e_i(k1) + k1 sum_i (e_i(f_i) - k_i f_i)
       + k2 (-K_N + sum_i f_i^2),

with i running over the horizontal legs, Lap the 3-chart frame Laplacian,
and K_N = e1(f2) - e2(f1) - f1^2 - f2^2 + 2 f3 sigma the target Gauss
curvature.  Both channels vanish exactly on biharmonic submersions; they
are reported separately because they degenerate differently (k2 = 0 kills
most of r2).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import EmptyRange, NonFiniteValue
from .frames import (
    AdaptedFrameSpec,
    adapted_frame,
    integrability_data,
)
from .geometry import (
    FrameField,
    ProductMetric3,
    base_sweep,
    laplacian_field,
)
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    as_field,
    directional_field,
    fcos,
    fcosh,
    fexp,
    flog,
    fsin,
    sweep,
)
from .record import Record
from .report import build_report, max_over_batch

Z_SPREAD_TOL = 1e-10  # all fields must be constant along the flat factor


class SubmersionSpec(Record):
    """A submersion case: domain metric + adapted-frame angles.

    ``family`` tags how the spec was built ("flat_target" for projections
    along the weighted axis, "nonflat_target" for warped constructions);
    ``aux_residual`` optionally carries an independently assembled residual
    field used for dual-route checks, and ``profile`` the solved angle
    profile of a warped construction.
    """

    domain_metric: ProductMetric3
    frame_spec: AdaptedFrameSpec
    label: str
    family: str = None
    aux_residual: ScalarField = None
    profile: object = None

    # -- derived structure --------------------------------------------------

    @cached_property
    def frame(self) -> FrameField:
        return adapted_frame(self.frame_spec, self.domain_metric)

    @cached_property
    def data(self):
        return integrability_data(self.frame_spec, self.frame)

    def _edir(self, leg):
        return lambda fld: directional_field(self.frame.components[leg], fld)

    @cached_property
    def target_curvature_field(self) -> ScalarField:
        return target_curvature(self.data, self.frame)

    @cached_property
    def residual_fields(self):
        d = self.data
        e1, e2 = self._edir(0), self._edir(1)
        legs, conn = self.frame.components, self.frame.connection
        lap1 = laplacian_field(legs, conn, d.kappa1)
        lap2 = laplacian_field(legs, conn, d.kappa2)
        div = (e1(d.f1) - d.kappa1 * d.f1) + (e2(d.f2) - d.kappa2 * d.f2)
        fsq = d.f1 * d.f1 + d.f2 * d.f2
        coeff = -1.0 * self.target_curvature_field + fsq
        r1 = (-1.0 * lap1
              - 2.0 * (d.f1 * e1(d.kappa2) + d.f2 * e2(d.kappa2))
              - d.kappa2 * div + d.kappa1 * coeff)
        r2 = (-1.0 * lap2
              + 2.0 * (d.f1 * e1(d.kappa1) + d.f2 * e2(d.kappa1))
              + d.kappa1 * div + d.kappa2 * coeff)
        return r1, r2

    # -- sweeps ---------------------------------------------------------------

    def verification_points(self, grid=(21, 21)):
        """Base-axes sweep at the middle of the flat factor."""
        return base_sweep(self.domain_metric.box, grid)

    def z_probe_points(self):
        box = self.domain_metric.box
        t, s, _ = box.midpoint()
        lo, hi = box.lower[2] + box.guard, box.upper[2] - box.guard
        return [(t, s, z) for z in (lo, 0.5 * (lo + hi), hi)]


# -- module operations ---------------------------------------------------------


def target_curvature(data, frame: FrameField) -> ScalarField:
    """Target Gauss curvature e1(f2) - e2(f1) - f1^2 - f2^2 + 2 f3 sigma."""
    e1 = directional_field(frame.components[0], data.f2)
    e2 = directional_field(frame.components[1], data.f1)
    return (e1 - e2 - data.f1 * data.f1 - data.f2 * data.f2
            + 2.0 * (data.f3 * data.sigma))


@sweep()
def residual_report(spec: SubmersionSpec, tol=1e-6, grid=(21, 21)):
    """Grid sweep of the residual channels with verdict and classification.

    The sweep covers the base axes only; constancy along the flat factor is
    asserted (not assumed) through a three-point probe that must agree to
    1e-10.
    """
    points = spec.verification_points(grid)
    n = len(points)
    # the flat-factor probes ride along in one batch with the grid, so the
    # fields shared by all channels are evaluated once
    batch = as_batch(points + spec.z_probe_points())
    r1f, r2f = spec.residual_fields
    d = spec.data
    r1 = r1f(batch)
    ch_r1 = max_over_batch("r1", points, r1[:n])
    ch_r2 = max_over_batch("r2", points, r2f(batch)[:n])
    ch_f3 = max_over_batch("f3_adapted", points, d.f3(batch)[:n])
    channels = [ch_r1, ch_r2, ch_f3]

    probes = r1[n:].tolist()
    z_spread = max(probes) - min(probes)
    notes = [f"flat-factor spread {z_spread:.3e}"]
    extra_fail = z_spread > Z_SPREAD_TOL

    k1_max = float(np.max(np.abs(d.kappa1(batch)[:n])))
    k2_max = float(np.max(np.abs(d.kappa2(batch)[:n])))
    residual_ok = max(ch_r1.max_abs, ch_r2.max_abs, ch_f3.max_abs) <= tol
    if not residual_ok:
        classification = "not biharmonic"
    elif max(k1_max, k2_max) <= tol:
        classification = "harmonic"
    elif k1_max > 100.0 * tol or k2_max > 100.0 * tol:
        classification = "proper biharmonic"
    else:
        classification = "indeterminate"
    notes.append(f"max |kappa1| = {k1_max:.6e}")

    if spec.aux_residual is not None:
        gap = r1 - spec.aux_residual(batch)
        channels.append(max_over_batch("dual_residual_gap", points, gap[:n]))

    return build_report(spec.label, tol, channels, len(points),
                        classification=classification, notes=notes,
                        extra_fail=extra_fail)


# -- catalog -------------------------------------------------------------------

_T, _S = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)
_HALF_PI = 0.5 * math.pi


def projection_spec(exponent, box, label) -> SubmersionSpec:
    """Flat-target projection along the weighted axis.

    The domain is e^{2p} dt^2 + ds^2 + dz^2 with p = ``exponent`` in
    (t, s) (a ScalarField on the 2-chart); the submersion forgets
    the weighted coordinate, so the adapted angles are
    theta = alpha = pi/2 and k1 = -p_s.  An independently assembled
    residual field (the base-surface Laplacian of the slope p_s, written
    out as p_sss + p_ss p_s + e^{-2p}(p_tts - p_ts p_t)) is attached for
    dual-route verification.
    """
    metric = ProductMetric3(exponent, box)
    spec3 = AdaptedFrameSpec(as_field(_HALF_PI, 3), as_field(_HALF_PI, 3))
    p = metric.conformal_exponent
    ps = p.diff(1)
    aux = (ps.diff(1).diff(1) + ps.diff(1) * ps
           + fexp(-2.0 * p) * (p.diff(0).diff(0).diff(1)
                               - p.diff(0).diff(1) * p.diff(0)))
    return SubmersionSpec(metric, spec3, label, family="flat_target",
                          aux_residual=aux)


def hyperbolic_spec(c) -> SubmersionSpec:
    """Projection from the hyperbolic product chart e^{2 sqrt(-c) s}."""
    if c >= 0:
        raise ValueError("the hyperbolic family needs c < 0")
    box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.05)
    return projection_spec(math.sqrt(-c) * _S, box,
                           f"hyperbolic({c:g})")


def catalog_examples():
    """The built-in proper biharmonic submersion catalog."""
    cosh4 = projection_spec(
        2.0 * flog(fcosh(_S)),
        ChartBox((-1.0, -1.5, -0.5), (1.0, 1.5, 0.5), 0.05),
        "cosh4",
    )
    y4 = projection_spec(
        2.0 * flog(_S),
        ChartBox((-1.0, 0.5, -0.5), (1.0, 3.0, 0.5), 0.05),
        "y4",
    )
    return [cosh4, y4, hyperbolic_spec(-1.0), hyperbolic_spec(-2.0)]


def catalog_suite(specs, tol=1e-6, grid=(21, 21)):
    """Residual reports for catalog specs (``catalog_examples``, or their
    finite-difference copies); every case must come out proper."""
    reports = []
    for spec in specs:
        rep = residual_report(spec, tol=tol, grid=grid)
        if rep.passed and rep.classification != "proper biharmonic":
            rep = build_report(rep.case_label, tol, rep.channels,
                               rep.points_checked,
                               classification=rep.classification,
                               notes=rep.notes + ("expected proper",),
                               extra_fail=True)
        reports.append(rep)
    return reports


# -- uniqueness scan ------------------------------------------------------------


class ScanRoot(Record):
    slope: float
    kind: str  # "proper" | "harmonic"


def _slope_residual(a, c):
    """Residual of the constant-slope family p = a*s on a base of curvature c.

    For constant k1 = -a the residual channel collapses to
    -(k1^3 + c k1) = a^3 + c a; its nonzero roots are the proper biharmonic
    slopes a = +-sqrt(-c), the root a = 0 is the harmonic projection.
    """
    k1 = -a
    try:
        return -(k1 ** 3 + c * k1)
    except OverflowError:
        raise NonFiniteValue(f"slope^3 overflows at slope {a!r}") from None


def hyperbolic_uniqueness_scan(c, slope_range, samples=201):
    """Roots of the constant-slope residual over ``slope_range``.

    Sign changes are bracketed on a uniform sample and refined by bisection
    to 1e-8.  For c < 0 the roots found are {-sqrt(-c), 0, +sqrt(-c)}
    intersected with the range; for c > 0 only the harmonic root 0 exists.
    """
    lo, hi = slope_range
    if not all(math.isfinite(v) for v in (c, lo, hi)):
        raise EmptyRange(f"scan of c = {c} over [{lo}, {hi}] is not finite")
    if not (hi > lo):
        raise EmptyRange(f"slope range [{lo}, {hi}] is empty")
    if not math.isfinite(hi - lo):
        raise EmptyRange(f"width of slope range [{lo}, {hi}] is not finite")
    if samples < 3:
        raise EmptyRange("need at least 3 samples")
    xs = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    vals = [_slope_residual(x, c) for x in xs]
    roots = []
    for x, v in zip(xs, vals):
        if v == 0.0:
            roots.append(x)
    for k in range(samples - 1):
        if vals[k] == 0.0 or vals[k + 1] == 0.0:
            continue
        if (vals[k] < 0) != (vals[k + 1] < 0):
            a, b = xs[k], xs[k + 1]
            fa = vals[k]
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = _slope_residual(m, c)
                if fm == 0.0 or (b - a) < 1e-8:
                    break
                if (fa < 0) != (fm < 0):
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    out = []
    for r in sorted(roots):
        if out and abs(r - out[-1].slope) < 1e-7:
            continue
        # a root is known to the bisection width, 1e-8
        kind = "harmonic" if abs(r) < 1e-8 else "proper"
        out.append(ScanRoot(slope=r, kind=kind))
    return out


# -- randomized flat-flat family -------------------------------------------------


def flat_random_specs(rng, count):
    """Flat-domain, flat-target specs with nonvanishing fiber curvature.

    The base metric e^{2q} dt^2 + ds^2 is flat exactly when e^q is linear
    in s, so q = log(a(t) s + b(t)) with positive coefficient functions;
    combined with theta = alpha = pi/2 both the base and the target are
    flat while k1 = -q_s never vanishes.
    """
    specs = []
    box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
    for k in range(count):
        a0 = rng.uniform(0.8, 1.2)
        a1 = rng.uniform(0.05, 0.2)
        b0 = rng.uniform(0.8, 1.2)
        b1 = rng.uniform(0.05, 0.2)
        w1, w2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        p1, p2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        a_t = a0 + a1 * fsin(w1 * _T + p1)
        b_t = b0 + b1 * fcos(w2 * _T + p2)
        specs.append(
            projection_spec(flog(a_t * _S + b_t), box, f"flatflat[{k:02d}]")
        )
    return specs
