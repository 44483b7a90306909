"""Construction of biharmonic submersions from the fiber-angle ODE.

The warped construction is driven by the angle alpha(y) between the fibers
and the flat factor, which must solve the third-order ODE

    a''' sin(a) cos^2(a) + cos(a)(sin^2(a)+3) a' a''
        + sin(a)(2 cos^2(a)+3) a'^3 = 0.

Substituting u(a) = a''/a'^2 (so a' a'' = u a'^3, a''' = (u' + 2u^2) a'^3)
reduces it to the Riccati equation

    u'(a) = -2u^2 - (sin^2(a)+3)/(sin(a)cos(a)) u - (2cos^2(a)+3)/cos^2(a),

used here as the independent cross-check of the y-integration.  A solved
profile feeds two builders: the flat-target twisted projection (domain
e^{2p(x,y)} dx^2 + dy^2 + dz^2, target flat) and the non-flat warped pair

    domain tan^2(a(y)) dt^2 + dy^2 + dz^2,
    target dy^2 + sin^2(a(y)) dpsi^2,

whose target Gauss curvature is -(sin a)''/sin a.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyRange,
    ImmediateSingularity,
    OutOfProfile,
    SingularCoefficient,
    SingularProfile,
)
from .geometry import ProductMetric3, SurfaceMetric
from .frames import AdaptedFrameSpec
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    as_field,
    directional_field,
    flog,
    fsin,
    ftan,
    lift,
    sample_grid,
    sweep,
)
from .report import build_report, max_over_batch
from .submersion import SubmersionSpec, projection_spec, residual_report

EPS_SING = 1e-3  # margin on |sin(a) cos(a)| away from the ODE singularities
MIN_SLOPE = 1e-6  # |a'| below this is the degenerate constant-angle branch
MAX_STEPS = 10**7  # about 400 MB of node rows


def _riccati_coefficients(alpha):
    """(p, q) of the Riccati right side -2u^2 - p u - q at alpha."""
    s, c = math.sin(alpha), math.cos(alpha)
    if abs(s * c) < EPS_SING:
        raise SingularCoefficient(
            f"sin*cos = {s * c:.3e} inside the margin {EPS_SING:g} "
            f"at alpha = {alpha:.6g}"
        )
    return (s * s + 3.0) / (s * c), (2.0 * c * c + 3.0) / (c * c)


def riccati_rhs(alpha, u):
    """Right side of the Riccati equation for u(alpha) = a''/a'^2."""
    p, q = _riccati_coefficients(alpha)
    return -2.0 * u * u - p * u - q


def _third_derivative(alpha, a1, a2):
    """a''' from the third-order form, solved for the leading term."""
    s, c = math.sin(alpha), math.cos(alpha)
    lead = s * c * c
    if abs(lead) < EPS_SING ** 2:
        raise SingularCoefficient(
            f"sin*cos^2 = {lead:.3e} inside the margin at alpha = {alpha:.6g}"
        )
    return -(c * (s * s + 3.0) * a1 * a2 + s * (2.0 * c * c + 3.0) * a1 ** 3) \
        / lead


def ode_residual_terms(alpha, a1, a2, a3):
    """The third-order expression exactly as written (zero on solutions)."""
    s, c = math.sin(alpha), math.cos(alpha)
    return (a3 * s * c * c + c * (s * s + 3.0) * a1 * a2
            + s * (2.0 * c * c + 3.0) * a1 ** 3)


# The hot loops below run on plain floats: a numpy scalar costs more to make
# than the arithmetic it carries, and the IEEE operations are the same.


def _floats(column):
    """Read-only view of a node column whose items are Python floats (no
    copy of a float64 array)."""
    return memoryview(np.asarray(column, dtype=float))


class _CubicHermite:
    """Piecewise-cubic interpolant matching values and first derivatives.

    Takes a float or an array of abscissae; OutOfProfile names the first
    abscissa outside the node span.
    """

    def __init__(self, xs, ys, ds):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.ds = np.asarray(ds, dtype=float)
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("nodes must be strictly increasing")

    def __call__(self, x):
        xs = self.xs
        x = np.asarray(x, dtype=float)
        outside = (x < xs[0] - 1e-12) | (x > xs[-1] + 1e-12)
        if outside.any():
            bad = float(x.flat[np.argmax(outside)])
            raise OutOfProfile(f"{bad:.6g} outside the profile span "
                               f"[{xs[0]:.6g}, {xs[-1]:.6g}]")
        i = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        t2, t3 = t * t, t * t * t
        out = ((2 * t3 - 3 * t2 + 1) * self.ys[i]
               + (t3 - 2 * t2 + t) * h * self.ds[i]
               + (-2 * t3 + 3 * t2) * self.ys[i + 1]
               + (t3 - t2) * h * self.ds[i + 1])
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class AlphaProfile:
    """Sampled solution of the fiber-angle ODE with its derivatives.

    Nodes carry (alpha, alpha', alpha''); interpolation between nodes is
    cubic Hermite.  ``truncated`` flags an integration stopped early (see
    integrate_alpha); ``step_error`` is the worst per-step Richardson
    estimate from step halving over the kept steps.
    """

    y_grid: np.ndarray
    alpha: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    truncated: bool = False
    truncate_reason: str = ""
    step_error: float = 0.0
    alpha3: np.ndarray = None

    @property
    def span(self):
        return float(self.y_grid[0]), float(self.y_grid[-1])

    @property
    def node_step(self):
        if len(self.y_grid) < 2:
            raise SingularProfile("profile has fewer than 2 nodes")
        return float(self.y_grid[1] - self.y_grid[0])

    def _alpha3_nodes(self):
        """Third-derivative node values: the stored column when the profile
        came from an integration, otherwise central differences of the
        stored alpha'' (no appeal to the differential equation)."""
        if self.alpha3 is not None:
            return self.alpha3
        cached = self.__dict__.get("_alpha3_fd")
        if cached is None:
            cached = np.gradient(self.alpha2, self.y_grid)
            self.__dict__["_alpha3_fd"] = cached
        return cached

    def validate(self, eps_sing=EPS_SING, min_slope=MIN_SLOPE):
        if len(self.y_grid) < 5:
            raise SingularProfile("profile has fewer than 5 nodes")
        sc = np.sin(self.alpha) * np.cos(self.alpha)
        if np.min(np.abs(sc)) < eps_sing:
            raise SingularProfile(
                f"min |sin*cos| = {np.min(np.abs(sc)):.3e} below {eps_sing:g}"
            )
        if np.min(np.abs(self.alpha1)) < min_slope:
            raise SingularProfile(
                f"min |alpha'| = {np.min(np.abs(self.alpha1)):.3e} "
                f"below {min_slope:g}"
            )

    def _node_residuals(self):
        """(node view, alpha_ode_residual at the interior nodes and NaN at
        the others), made once per profile."""
        cached = self.__dict__.get("_node_table")
        if cached is None:
            d = self.node_step
            (y0, y1), ys = self.span, self.y_grid
            table = np.full(len(ys), math.nan)
            inside = (y0 + d <= ys) & (ys <= y1 - d)
            table[inside] = _ode_residuals(self, ys[inside])
            cached = (_floats(ys), _floats(table))
            self.__dict__["_node_table"] = cached
        return cached

    def _interp(self, which):
        key = f"_interp_{which}"
        cached = self.__dict__.get(key)
        if cached is None:
            if which == "alpha":
                cached = _CubicHermite(self.y_grid, self.alpha, self.alpha1)
            elif which == "alpha1":
                cached = _CubicHermite(self.y_grid, self.alpha1, self.alpha2)
            else:
                cached = _CubicHermite(self.y_grid, self.alpha2,
                                       self._alpha3_nodes())
            self.__dict__[key] = cached
        return cached

    def angle(self, y):
        return self._interp("alpha")(y)

    def slope(self, y):
        return self._interp("alpha1")(y)

    def curvature2(self, y):
        return self._interp("alpha2")(y)

    def field(self, dim=3, axis=1) -> ScalarField:
        """The angle as a chart field varying along one axis only."""
        a = self._interp("alpha")
        a1 = self._interp("alpha1")
        a2 = self._interp("alpha2")
        ys, a3s = self.y_grid, self._alpha3_nodes()

        zero = lambda b: 0.0
        partials = {
            ax: (zero, zero, zero) for ax in range(dim) if ax != axis
        }
        partials[axis] = (
            lambda b: a1(b[:, axis]),
            lambda b: a2(b[:, axis]),
            lambda b: np.interp(b[:, axis], ys, a3s),
        )
        return ScalarField(fn=lambda b: a(b[:, axis]), dim=dim,
                           partials=partials, name="alpha-profile")


def _node(state, eps_sing, min_slope):
    """(third derivative at a node state, "") when the node can be kept,
    otherwise (None, the reason it cannot)."""
    alpha, a1, a2 = state
    if not all(math.isfinite(v) for v in state):
        return None, "non-finite state"
    if abs(math.sin(alpha) * math.cos(alpha)) < eps_sing:
        return None, f"|sin*cos| margin {eps_sing:g} hit at alpha={alpha:.6g}"
    if abs(a1) < min_slope:
        return None, f"|alpha'| fell below {min_slope:g}"
    try:
        return _third_derivative(alpha, a1, a2), ""
    except OverflowError:  # alpha'^3 beyond the float range
        return None, "non-finite state"


def _rk4_step(state, f1, h):
    """One classical RK4 step of (alpha, alpha', alpha''), in the operation
    order of the array form state + (h/6)(k1 + 2 k2 + 2 k3 + k4); ``f1`` is
    the third derivative at ``state``, which the caller already has."""
    a, b, c = state
    hh = 0.5 * h
    a2, b2, c2 = a + hh * b, b + hh * c, c + hh * f1
    f2 = _third_derivative(a2, b2, c2)
    a3, b3, c3 = a + hh * b2, b + hh * c2, c + hh * f2
    f3 = _third_derivative(a3, b3, c3)
    a4, b4, c4 = a + h * b3, b + h * c3, c + h * f3
    f4 = _third_derivative(a4, b4, c4)
    h6 = h / 6.0
    return (a + h6 * (((b + 2 * b2) + 2 * b3) + b4),
            b + h6 * (((c + 2 * c2) + 2 * c3) + c4),
            c + h6 * (((f1 + 2 * f2) + 2 * f3) + f4))


def integrate_alpha(alpha0, alpha1_0, alpha2_0, y_span, step,
                    eps_sing=EPS_SING, min_slope=MIN_SLOPE) -> AlphaProfile:
    """Integrate the third-order angle ODE with classical 4th-order steps.

    Every step is taken twice (once at h, once as two h/2 steps) and the
    halved result is kept; the difference/15 gives the per-step error
    estimate, and ``step_error`` is the worst of it over the kept steps.
    Integration stops early, returning a truncated profile, when a step
    leaves the float range, crosses a zero of sin(2 alpha), or violates a
    singularity margin or the nonzero-slope requirement.  Initial data
    violating the margins raises ImmediateSingularity; a span or step
    that is not finite, or that asks for more than MAX_STEPS steps,
    raises ValueError.
    """
    y0, y1 = y_span
    if not (math.isfinite(y0) and math.isfinite(y1)):
        raise ValueError(f"y span [{y0}, {y1}] is not finite")
    if not math.isfinite(step):
        raise ValueError(f"step {step} is not finite")
    if not y1 > y0:
        raise EmptyRange(f"span [{y0}, {y1}] is empty")
    if step <= 0:
        raise ValueError("step must be positive")
    if step <= math.ulp(max(abs(y0), abs(y1))):  # nodes must be distinct
        raise ValueError(f"step {step:g} is below the float spacing of the "
                         "span")
    steps = (y1 - y0) / step  # inf when the span overflows
    if steps > MAX_STEPS:
        raise ValueError(f"step {step:g} asks for {steps:.6g} steps, more "
                         f"than {MAX_STEPS}")
    n = max(1, round(steps))
    state = (float(alpha0), float(alpha1_0), float(alpha2_0))
    alpha3, reason = _node(state, eps_sing, min_slope)
    if reason:
        raise ImmediateSingularity(f"initial data rejected: {reason}")

    h = (y1 - y0) / n
    # node rows (y, alpha, alpha', alpha'', alpha''') packed as doubles, so
    # a long profile keeps no Python object per node; the third-derivative
    # column is exact on solution trajectories
    nodes = array("d", (y0, *state, alpha3))
    worst = 0.0
    # bound per call, not at import, so that call counters rebinding the
    # module names still count
    rk4, third, isfinite = _rk4_step, _third_derivative, math.isfinite
    sin, cos, floor, pi = math.sin, math.cos, math.floor, math.pi
    # margins are checked at nodes only: a step jumping over zeros of
    # sin(2 alpha) ends outside the start's quarter period floor(2 alpha/pi)
    quarter = floor(2.0 * state[0] / pi)
    for k in range(n):
        try:
            # alpha3 is the third derivative at ``state`` (first same as
            # last): both the whole step and the first half step start there
            full = rk4(state, alpha3, h)
            mid = rk4(state, alpha3, 0.5 * h)
            half = rk4(mid, third(*mid), 0.5 * h)
            a, b, c = half
            if not (isfinite(full[0]) and isfinite(full[1])
                    and isfinite(full[2]) and isfinite(a) and isfinite(b)
                    and isfinite(c)):
                reason = "non-finite state"
            elif floor(2.0 * a / pi) != quarter:
                reason = (f"step crossed sin(2 alpha) = 0 between alpha="
                          f"{state[0]:.6g} and alpha={a:.6g}")
            elif abs(sin(a) * cos(a)) < eps_sing:
                reason = f"|sin*cos| margin {eps_sing:g} hit at alpha={a:.6g}"
            elif abs(b) < min_slope:
                reason = f"|alpha'| fell below {min_slope:g}"
            else:
                alpha3 = third(a, b, c)
        except SingularCoefficient as err:
            reason = str(err)
        except (OverflowError, ValueError):  # a stage left the float range
            reason = "non-finite state"
        if reason:
            break
        worst = max(worst, max(abs(full[0] - a), abs(full[1] - b),
                               abs(full[2] - c)) / 15.0)
        state = half
        nodes.extend((y0 + (k + 1) * h, a, b, c, alpha3))
    ys, alpha, alpha1, alpha2, alpha3 = np.array(nodes).reshape(-1, 5).T.copy()
    return AlphaProfile(
        y_grid=ys, alpha=alpha, alpha1=alpha1, alpha2=alpha2,
        truncated=bool(reason), truncate_reason=reason, step_error=worst,
        alpha3=alpha3,
    )


def _ode_residuals(profile, ys):
    """alpha_ode_residual at every abscissa of the array ``ys`` in one pass:
    the operation order of ode_residual_terms, with sin, cos and the cube
    from libm as there (numpy's may differ in the last bit)."""
    d = profile.node_step
    y0, y1 = profile.span
    ys = np.asarray(ys, dtype=float)
    inside = (y0 + d <= ys) & (ys <= y1 - d)
    if not inside.all():
        raise OutOfProfile(f"{ys.flat[np.argmin(inside)]:.6g} is not "
                           f"interior to [{y0:.6g}, {y1:.6g}]")
    xp, fp = profile.y_grid, profile.alpha2
    a3 = (np.interp(ys + d, xp, fp) - np.interp(ys - d, xp, fp)) / (2.0 * d)
    alpha, a1 = profile.angle(ys), profile.slope(ys)

    def libm(f, col):  # one float at a time, as in ode_residual_terms
        return np.fromiter(map(f, _floats(col.ravel())), float, col.size
                           ).reshape(ys.shape)
    s, c = libm(math.sin, alpha), libm(math.cos, alpha)
    cube = libm(lambda v: v ** 3, a1)
    return (a3 * s * c * c + c * (s * s + 3.0) * a1 * np.interp(ys, xp, fp)
            + s * (2.0 * c * c + 3.0) * cube)


def alpha_ode_residual(profile: AlphaProfile, y):
    """Third-order residual at y, a float or an array, from the integrated
    columns alone.

    alpha''' is recomputed by a central difference of the stored alpha''
    values (node-step wide, linear interpolation off the nodes), so the
    check does not reuse the right side that drove the integration.
    """
    if not isinstance(y, float) and np.ndim(y):
        return _ode_residuals(profile, y)
    ys, table = profile._node_residuals()
    y = float(y)
    j = bisect_left(ys, y)
    if j < len(ys) and ys[j] == y and not math.isnan(table[j]):
        return table[j]
    return float(_ode_residuals(profile, [y])[0])


def riccati_consistency(profile: AlphaProfile):
    """Worst deviation between u = a''/a'^2 and the Riccati flow in alpha.

    The Riccati equation is integrated independently (classical 4th order,
    node-to-node in the alpha variable) from the initial u and compared
    with the profile's own u at every node.
    """
    alphas = profile.alpha.tolist()
    slopes, curvs = profile.alpha1.tolist(), profile.alpha2.tolist()
    if min(map(abs, slopes)) ** 2 == 0.0:
        raise SingularProfile("alpha'^2 = 0 at a node: u = alpha''/alpha'^2 "
                              "is undefined")
    u = curvs[0] / slopes[0] ** 2
    worst = 0.0
    for k in range(len(alphas)):
        u_profile = curvs[k] / slopes[k] ** 2
        worst = max(worst, abs(u - u_profile))
        if k + 1 < len(alphas):
            # riccati_rhs written out, so that k2 and k3 share the
            # coefficients of the midpoint
            a = alphas[k]
            da = alphas[k + 1] - a
            p, q = _riccati_coefficients(a)
            k1 = -2.0 * u * u - p * u - q
            p, q = _riccati_coefficients(a + 0.5 * da)
            v = u + 0.5 * da * k1
            k2 = -2.0 * v * v - p * v - q
            v = u + 0.5 * da * k2
            k3 = -2.0 * v * v - p * v - q
            p, q = _riccati_coefficients(a + da)
            v = u + da * k3
            k4 = -2.0 * v * v - p * v - q
            u = u + (da / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return worst


# -- quadrature -----------------------------------------------------------------


def simpson_integral(f, a, b, abs_tol=1e-10, max_doublings=24):
    """Composite Simpson quadrature with interval doubling to ``abs_tol``."""
    if b == a:
        return 0.0

    def composite(n):
        xs = np.linspace(a, b, n + 1)
        ys = np.array([f(x) for x in xs])
        h = (b - a) / n
        return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                          + 2 * ys[2:-2:2].sum())

    n = 8
    prev = composite(n)
    for _ in range(max_doublings):
        n *= 2
        cur = composite(n)
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
    return prev


# -- builders --------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstructionSpec:
    """Inputs of the warped construction: a solved angle profile plus the
    free functions of the general-coordinates form.

    phi(x) reshapes the horizontal coordinate, w(.) the target fiber
    coordinate and F (nonconstant) the fiber collapse; the defaults give
    the canonical warped pair directly.
    """

    profile: AlphaProfile
    phi: ScalarField = None
    w: ScalarField = None
    F: ScalarField = None
    branch_sign: int = 1
    x_box: ChartBox = field(default_factory=lambda: ChartBox((-1.0,), (1.0,)))
    u_box: ChartBox = field(default_factory=lambda: ChartBox((-1.0,), (1.0,)))

    def __post_init__(self):
        if self.phi is None:
            object.__setattr__(self, "phi", ScalarField.constant(0.0, 1))
        if self.w is None:
            object.__setattr__(self, "w", ScalarField.constant(0.0, 1))
        if self.F is None:
            object.__setattr__(self, "F", ScalarField.coordinate(0, 1))
        if self.branch_sign not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")
        grid = sample_grid(self.u_box, (9,))
        slope = float(np.max(np.abs(self.F.partial(as_batch(grid), 0, 1))))
        if slope <= 1e-12:
            raise ValueError("the fiber collapse F must be nonconstant")

    def horizontal_arc(self, x):
        """The coordinate change t(x) = integral of e^{phi} from the left
        edge of the x box (composite Simpson, abs tol 1e-10)."""
        return simpson_integral(
            lambda xi: math.exp(self.phi((xi,))), self.x_box.lower[0], x
        )


@dataclass(frozen=True)
class NonflatConstruction:
    """Output of the warped builder: canonical and general-coordinates specs,
    the target surface, and a plain-text description of the map."""

    canonical: SubmersionSpec
    general: SubmersionSpec
    target: SurfaceMetric
    map_note: str
    profile: AlphaProfile

    def target_curvature(self, y):
        """-(sin a)''/sin a along the profile."""
        a = self.profile.angle(y)
        a1 = self.profile.slope(y)
        a2 = self.profile.curvature2(y)
        return -(math.cos(a) * a2 - math.sin(a) * a1 ** 2) / math.sin(a)


@sweep()
def build_flat_target(p, box=None, label="flat-target") -> SubmersionSpec:
    """Flat-target twisted projection for a free exponent p(x, y).

    Vanishing base slope p_y means the projection is harmonic; such specs
    are returned flagged rather than rejected.
    """
    if box is None:
        box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
    spec = projection_spec(p, box, label)
    q = spec.domain_metric.conformal_exponent
    pts = as_batch(spec.verification_points((5, 5)))
    slope = float(np.max(np.abs(q.partial(pts, 1, 1))))
    if slope <= 1e-12:
        spec.flags = spec.flags + ("harmonic: vanishing base slope",)
    return spec


def build_nonflat_target(cspec: ConstructionSpec,
                         label="warped") -> NonflatConstruction:
    """Warped construction from a solved angle profile.

    Emits the canonical warped pair (free functions integrated away by the
    coordinate change t = int e^{phi} dx, psi = int e^{w} dphi) and the
    general-coordinates form with exponent log(tan a(y)) + phi(x).  The
    profile must stay inside (0, pi/2) clear of the singularity margins.
    """
    prof = cspec.profile
    prof.validate()
    if np.min(prof.alpha) <= 0.0 or np.max(prof.alpha) >= 0.5 * math.pi:
        raise SingularProfile(
            "the builder needs an angle profile inside (0, pi/2)"
        )
    y0, y1 = prof.span
    pad = max(3.0 * prof.node_step, 0.02 * (y1 - y0))
    guard = 0.05 * (y1 - y0 - 2 * pad)

    def domain_box():
        return ChartBox((-1.0, y0 + pad, -0.5), (1.0, y1 - pad, 0.5), guard)

    alpha3 = prof.field(dim=3, axis=1)
    q_canonical = flog(ftan(alpha3))
    canonical_metric = ProductMetric3(q_canonical, domain_box())
    frame_spec = AdaptedFrameSpec(as_field(0.5 * math.pi, 3), alpha3)

    alpha_target = prof.field(dim=2, axis=0)
    lam = flog(fsin(alpha_target))
    target_box = ChartBox((y0 + pad, -1.0), (y1 - pad, 1.0), guard)
    target = SurfaceMetric(lam, target_box, weighted_axis=1)

    canonical = SubmersionSpec(
        canonical_metric, frame_spec, label + "-canonical",
        target_metric=target, family="nonflat_target",
    )
    canonical.extras = {"profile": prof}

    phi3 = lift(cspec.phi, 3, (0,))
    general_metric = ProductMetric3(q_canonical + phi3, domain_box())
    w2 = lift(cspec.w, 2, (1,))
    general_target = SurfaceMetric(lam + w2, target_box, weighted_axis=1)
    general = SubmersionSpec(
        general_metric, frame_spec, label + "-general",
        target_metric=general_target, family="nonflat_target",
    )
    general.extras = {"profile": prof}

    sign = "+" if cspec.branch_sign > 0 else "-"
    note = (f"(x, y, z) -> (y, F(z {sign} t(x))) with "
            f"t(x) = integral of exp(phi) and the fiber tangent at angle "
            f"alpha(y) to the flat factor")
    return NonflatConstruction(canonical, general, target, note, prof)


@sweep()
def verify_construction(spec: SubmersionSpec, tol=1e-4, grid=(21, 21)):
    """Residual sweep plus the structural side conditions of the family.

    Flat-target specs must agree with their independently assembled slope
    Laplacian channel; warped specs must additionally satisfy
    e1(alpha) = -sigma, transverse annihilation of all data, a base-slope
    product f2*k1*sigma bounded away from zero and a target curvature
    bounded away from zero, and their frame residual must match the
    third-order residual through the factor cos^3(alpha).
    """
    base = residual_report(spec, tol=tol, grid=grid)
    if spec.family != "nonflat_target":
        return base

    channels = list(base.channels)
    notes = list(base.notes)
    extra_fail = not base.passed
    d = spec.data
    frame = spec.frame
    alpha = spec.frame_spec.alpha
    pts = spec.verification_points(grid)
    batch = as_batch(pts)
    e1_alpha = directional_field(frame.components[0], alpha)
    sigma = d.sigma(batch)
    channels.append(
        max_over_batch("slope_plus_sigma", pts, e1_alpha(batch) + sigma))
    for name, fld in (("f2", d.f2), ("kappa1", d.kappa1),
                      ("sigma", d.sigma), ("alpha", alpha)):
        for leg in (1, 2):
            der = directional_field(frame.components[leg], fld)
            channels.append(max_over_batch(
                f"transverse_e{leg + 1}_{name}", pts, der(batch)))

    profile = getattr(spec, "extras", {}).get("profile")
    if profile is not None:
        r1f, _ = spec.residual_fields
        ys = batch[:, 1]
        cos3 = [math.cos(a) ** 3 for a in profile.angle(ys).tolist()]
        channels.append(max_over_batch(
            "ode_vs_channel_gap", pts,
            alpha_ode_residual(profile, ys) - np.array(cos3) * r1f(batch)))

    product_min = float(np.min(np.abs(d.f2(batch) * d.kappa1(batch) * sigma)))
    kn_min = float(np.min(np.abs(spec.target_curvature_field(batch))))
    notes.append(f"min |f2*kappa1*sigma| = {product_min:.3e}")
    notes.append(f"min |target curvature| = {kn_min:.3e}")
    if product_min < tol or kn_min < max(10.0 * tol, 1e-3):
        extra_fail = True

    return build_report(spec.label, tol, channels, len(pts),
                        classification=base.classification, notes=notes,
                        extra_fail=extra_fail)


# -- profile serialization --------------------------------------------------------


def profile_to_text(profile: AlphaProfile) -> str:
    """Columnar text form: header then one node per line, full precision."""
    lines = ["y alpha alpha1 alpha2"]
    for row in zip(profile.y_grid, profile.alpha, profile.alpha1,
                   profile.alpha2):
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def profile_from_text(text) -> AlphaProfile:
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1] != ["y", "alpha", "alpha1", "alpha2"]:
        raise ValueError("expected header 'y alpha alpha1 alpha2'")
    # a header alone: the first row is missing from the line after it
    for no, cols in lines[1:] or [(lines[0][0] + 1, [])]:
        if len(cols) != 4:
            raise ValueError(f"line {no}: expected a node row of 4 numbers")
    rows = np.array([[float(v) for v in cols] for _, cols in lines[1:]])
    return AlphaProfile(y_grid=rows[:, 0], alpha=rows[:, 1],
                        alpha1=rows[:, 2], alpha2=rows[:, 3])
