"""Construction of biharmonic submersions from the fiber-angle ODE.

The warped construction is driven by the angle alpha(y) between the fibers
and the flat factor, which must solve the third-order ODE

    a''' sin(a) cos^2(a) + cos(a)(sin^2(a)+3) a' a''
        + sin(a)(2 cos^2(a)+3) a'^3 = 0.

Substituting u(a) = a''/a'^2 (so a' a'' = u a'^3, a''' = (u' + 2u^2) a'^3)
reduces it to the Riccati equation

    u'(a) = -2u^2 - (sin^2(a)+3)/(sin(a)cos(a)) u - (2cos^2(a)+3)/cos^2(a),

used here as the independent cross-check of the y-integration.  A solved
profile feeds the builder of the non-flat warped pair

    domain tan^2(a(y)) dt^2 + dy^2 + dz^2,
    target dy^2 + sin^2(a(y)) dpsi^2,

whose target Gauss curvature is -(sin a)''/sin a.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import repeat

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
from .record import Record
from .report import build_report, max_over_batch
from .submersion import SubmersionSpec, residual_report

EPS_SING = 1e-3  # margin on |sin(a) cos(a)| away from the ODE singularities
MIN_SLOPE = 1e-6  # |a'| below this is the degenerate constant-angle branch
MAX_STEPS = 10**7  # about 400 MB of node rows
_CHUNK = 1024  # steps per column pass: its temporaries stay this size


def _riccati_coefficients(alpha):
    """(p, q) of the Riccati right side -2u^2 - p u - q at alpha."""
    s, c = math.sin(alpha), math.cos(alpha)
    if abs(s * c) < EPS_SING:
        raise SingularCoefficient(
            f"sin*cos = {s * c:.3e} inside the margin {EPS_SING:g} "
            f"at alpha = {alpha:.6g}"
        )
    return (s * s + 3.0) / (s * c), (2.0 * c * c + 3.0) / (c * c)


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


def _libm(f, column, *args):
    """f(item, *args) of every item of a float array, one Python float at a
    time and no Python frame per item: libm's sin, cos and (through pow,
    the same float_pow as ``**``) cube, whose last bit numpy's may not
    match."""
    return np.fromiter(map(f, _floats(column.ravel()), *map(repeat, args)),
                       float, column.size).reshape(column.shape)


def _third_derivatives(alpha, a1, a2):
    """_third_derivative over node columns, in its operation order; a
    column item inside its margin raises SingularCoefficient."""
    s, c = _libm(math.sin, alpha), _libm(math.cos, alpha)
    lead = s * c * c
    if (np.abs(lead) < EPS_SING ** 2).any():
        raise SingularCoefficient("sin*cos^2 inside the margin in a column")
    return -(c * (s * s + 3.0) * a1 * a2
             + s * (2.0 * c * c + 3.0) * _libm(pow, a1, 3.0)) / lead


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


class AlphaProfile(Record):
    """Sampled solution of the fiber-angle ODE with its derivatives.

    Nodes carry (alpha, alpha', alpha''); interpolation between nodes is
    cubic Hermite.  ``truncated`` flags an integration stopped early (see
    integrate_alpha); ``step_error`` is the worst per-step Richardson
    estimate from step halving over the kept steps, each kept node against
    the whole step from the node before it.
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

    @cached_property
    def _alpha3_nodes(self):
        """Third-derivative node values: the stored column when the profile
        came from an integration, otherwise central differences of the
        stored alpha'' (no appeal to the differential equation)."""
        if self.alpha3 is not None:
            return self.alpha3
        return np.gradient(self.alpha2, self.y_grid)

    def _check_finite(self):
        """Raise SingularProfile naming the first non-finite node value, in
        the columns y, alpha, alpha', alpha'' in turn (every comparison
        with a NaN is False, so the margin checks alone pass one)."""
        for name in ("y_grid", "alpha", "alpha1", "alpha2"):
            column = np.asarray(getattr(self, name), dtype=float)
            bad = ~np.isfinite(column)
            if bad.any():
                j = int(np.argmax(bad))
                raise SingularProfile(f"{name}[{j}] = {column[j]} is not "
                                      "finite")

    def validate(self):
        if len(self.y_grid) < 5:
            raise SingularProfile("profile has fewer than 5 nodes")
        self._check_finite()
        sc = np.sin(self.alpha) * np.cos(self.alpha)
        if np.min(np.abs(sc)) < EPS_SING:
            raise SingularProfile(
                f"min |sin*cos| = {np.min(np.abs(sc)):.3e} below {EPS_SING:g}"
            )
        if np.min(np.abs(self.alpha1)) < MIN_SLOPE:
            raise SingularProfile(
                f"min |alpha'| = {np.min(np.abs(self.alpha1)):.3e} "
                f"below {MIN_SLOPE:g}"
            )

    @cached_property
    def _node_residuals(self):
        """(node view, alpha_ode_residual at the interior nodes and NaN at
        the others, first node, node step, last index)."""
        d = self.node_step
        (y0, y1), ys = self.span, self.y_grid
        table = np.full(len(ys), math.nan)
        inside = (y0 + d <= ys) & (ys <= y1 - d)
        table[inside] = _ode_residuals(self, ys[inside])
        return _floats(ys), _floats(table), y0, d, len(ys) - 1

    # alpha, alpha' and alpha'' between nodes, at a float or an array
    @cached_property
    def angle(self):
        return _CubicHermite(self.y_grid, self.alpha, self.alpha1)

    @cached_property
    def slope(self):
        return _CubicHermite(self.y_grid, self.alpha1, self.alpha2)

    @cached_property
    def curvature2(self):
        return _CubicHermite(self.y_grid, self.alpha2, self._alpha3_nodes)

    def field(self, dim=3, axis=1) -> ScalarField:
        """The angle as a chart field varying along one axis only: the
        1-D leaf of alpha with alpha', alpha'' and alpha''', lifted."""
        a, a1, a2 = self.angle, self.slope, self.curvature2
        ys, a3s = self.y_grid, self._alpha3_nodes
        alpha = ScalarField(lambda b: a(b[:, 0]), 1, (
            lambda b: a1(b[:, 0]),
            lambda b: a2(b[:, 0]),
            lambda b: np.interp(b[:, 0], ys, a3s),
        ))
        return lift(alpha, dim, (axis,))


def _node(state):
    """(third derivative at a node state, "") when the node can be kept,
    otherwise (None, the reason it cannot)."""
    alpha, a1, a2 = state
    if not all(map(math.isfinite, state)):
        return None, "non-finite state"
    if abs(math.sin(alpha) * math.cos(alpha)) < EPS_SING:
        return None, f"|sin*cos| margin {EPS_SING:g} hit at alpha={alpha:.6g}"
    if abs(a1) < MIN_SLOPE:
        return None, f"|alpha'| fell below {MIN_SLOPE:g}"
    try:
        alpha3 = _third_derivative(alpha, a1, a2)
    except OverflowError:  # alpha'^3 beyond the float range
        alpha3 = math.inf
    if not math.isfinite(alpha3):
        return None, "non-finite state"
    return alpha3, ""


def _rk4_step(state, f1, h):
    """One classical RK4 step of (alpha, alpha', alpha''), in the operation
    order of the array form state + (h/6)(k1 + 2 k2 + 2 k3 + k4); ``f1`` is
    the third derivative at ``state``.  The state items and ``f1`` are
    floats, or node columns for _whole_steps' array passes."""
    third = _third_derivative if type(f1) is float else _third_derivatives
    a, b, c = state
    hh = 0.5 * h
    a2, b2, c2 = a + hh * b, b + hh * c, c + hh * f1
    f2 = third(a2, b2, c2)
    a3, b3, c3 = a + hh * b2, b + hh * c2, c + hh * f2
    f3 = third(a3, b3, c3)
    a4, b4, c4 = a + h * b3, b + h * c3, c + h * f3
    f4 = third(a4, b4, c4)
    h6 = h / 6.0
    return (a + h6 * (((b + 2 * b2) + 2 * b3) + b4),
            b + h6 * (((c + 2 * c2) + 2 * c3) + c4),
            c + h6 * (((f1 + 2 * f2) + 2 * f3) + f4))


def _half_steps(y0, state, f1, h, n, quarter):
    """The nodes integrate_alpha keeps: up to n steps from ``state``, whose
    third derivative is ``f1``, each taken as two _rk4_step calls at h/2,
    in one float loop.  Each stage's _third_derivative and each half
    step's update are written out in the same operations, and a kept
    node's third derivative shares the sin and cos of the node's checks.

    Returns (node rows, reason, raised): the rows (y, alpha, alpha',
    alpha'', alpha''') packed as doubles; why the node after the last row
    cannot be kept ("" when all n are); and whether an exception said so
    (SingularCoefficient at a stage inside the margin, as from
    _third_derivative, or OverflowError or ValueError: a non-finite state).
    """
    sin, cos, floor, isfinite, pi = (math.sin, math.cos, math.floor,
                                     math.isfinite, math.pi)
    m = EPS_SING ** 2  # -m < lead < m is abs(lead) < m, NaN included
    hs = 0.5 * h
    hh, h6 = 0.5 * hs, hs / 6.0
    a, b, c = state
    nodes = array("d", (y0, a, b, c, f1))
    try:
        for k in range(n):
            # the two half steps from the node (a, b, c), whose third
            # derivative f1 is known (first same as last)
            x, y, z, f = a, b, c, f1
            for second in (False, True):
                if second:  # the third derivative where the second starts
                    s, co = sin(x), cos(x)
                    lead = s * co * co
                    if -m < lead < m:  # _third_derivative raises
                        _third_derivative(x, y, z)
                    f = -(co * (s * s + 3.0) * y * z
                          + s * (2.0 * co * co + 3.0) * y ** 3) / lead
                a2, b2, c2 = x + hh * y, y + hh * z, z + hh * f
                s, co = sin(a2), cos(a2)
                lead = s * co * co
                if -m < lead < m:
                    _third_derivative(a2, b2, c2)  # raises SingularCoefficient
                f2 = -(co * (s * s + 3.0) * b2 * c2 + s * (2.0 * co * co + 3.0)
                       * b2 ** 3) / lead
                a3, b3, c3 = x + hh * b2, y + hh * c2, z + hh * f2
                s, co = sin(a3), cos(a3)
                lead = s * co * co
                if -m < lead < m:
                    _third_derivative(a3, b3, c3)  # raises SingularCoefficient
                f3 = -(co * (s * s + 3.0) * b3 * c3 + s * (2.0 * co * co + 3.0)
                       * b3 ** 3) / lead
                a4, b4, c4 = x + hs * b3, y + hs * c3, z + hs * f3
                s, co = sin(a4), cos(a4)
                lead = s * co * co
                if -m < lead < m:
                    _third_derivative(a4, b4, c4)  # raises SingularCoefficient
                f4 = -(co * (s * s + 3.0) * b4 * c4 + s * (2.0 * co * co + 3.0)
                       * b4 ** 3) / lead
                x, y, z = (x + h6 * (((y + 2.0 * b2) + 2.0 * b3) + b4),
                           y + h6 * (((z + 2.0 * c2) + 2.0 * c3) + c4),
                           z + h6 * (((f + 2.0 * f2) + 2.0 * f3) + f4))
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                return nodes, "non-finite state", False
            # margins are checked at nodes only: a step jumping over zeros
            # of sin(2 alpha) ends outside the start's quarter period
            # floor(2 alpha/pi)
            if floor(2.0 * x / pi) != quarter:
                return nodes, (f"step crossed sin(2 alpha) = 0 between "
                               f"alpha={a:.6g} and alpha={x:.6g}"), False
            s, co = sin(x), cos(x)
            if abs(s * co) < EPS_SING:
                return nodes, (f"|sin*cos| margin {EPS_SING:g} hit at "
                               f"alpha={x:.6g}"), False
            if abs(y) < MIN_SLOPE:
                return nodes, f"|alpha'| fell below {MIN_SLOPE:g}", False
            # no margin check on sin*cos^2 here: past |sin*cos| >= EPS_SING,
            # |cos| >= EPS_SING and |sin| <= 1 - 4e-7, so |sin*cos^2|
            # exceeds EPS_SING**2 by far more than rounding
            f1 = -(co * (s * s + 3.0) * y * z + s * (2.0 * co * co + 3.0)
                   * y ** 3) / (s * co * co)
            a, b, c = x, y, z
            nodes.extend((y0 + (k + 1) * h, a, b, c, f1))
    except SingularCoefficient as err:
        return nodes, str(err), True
    except (OverflowError, ValueError):  # a value left the float range
        return nodes, "non-finite state", True
    return nodes, "", False


def integrate_alpha(alpha0, alpha1_0, alpha2_0, y_span, step) -> AlphaProfile:
    """Integrate the third-order angle ODE with classical 4th-order steps.

    Every step is taken as two h/2 steps, whose result is kept as the next
    node: the float kernel _half_steps takes all of them in one call.
    Then _whole_steps takes the whole step at h from every node a step
    started from; its difference from the kept node over 15 is the
    per-step error estimate, and ``step_error`` is its worst.
    Integration stops early, returning a truncated profile, when a step
    leaves the float range, crosses a zero of sin(2 alpha), or violates a
    singularity margin or the nonzero-slope requirement; a whole step
    that fails stops it at the node where that step starts.  Initial data
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
    alpha3, reason = _node(state)
    if reason:
        raise ImmediateSingularity(f"initial data rejected: {reason}")

    h = (y1 - y0) / n
    try:
        quarter = math.floor(2.0 * state[0] / math.pi)
    except OverflowError:  # 2 alpha beyond the float range
        raise ImmediateSingularity(
            f"initial data rejected: 2 alpha overflows at alpha = "
            f"{state[0]!r}") from None
    nodes, reason, raised = _half_steps(y0, state, alpha3, h, n, quarter)
    # one copy: the rows are read in place, laid out as columns and freed
    table = np.frombuffer(nodes).reshape(-1, 5).T.copy()
    del nodes
    kept, reason, worst = _whole_steps(table, h, reason, raised)
    ys, alpha, alpha1, alpha2, alpha3 = table[:, :kept + 1]
    return AlphaProfile(
        y_grid=ys, alpha=alpha, alpha1=alpha1, alpha2=alpha2,
        truncated=bool(reason), truncate_reason=reason, step_error=worst,
        alpha3=alpha3,
    )


def _whole_steps(table, h, reason, raised):
    """(steps kept, truncate reason, step_error) from the whole steps at h.

    ``table`` holds the node columns (y, alpha, alpha', alpha'', alpha''')
    the half steps kept, ``reason`` why they stopped and ``raised`` whether
    an exception did.  The whole steps from every node a step started from,
    the stopped step's included, are array passes over _CHUNK nodes each.
    A failing whole step (it raises, leaves the float range or has a stage
    inside the margin) ends the integration at its start node: from a pass
    with an anomaly on, the float code replays the steps in node order.
    """
    err, m = 0.0, table.shape[1] - 1
    cols = table[1:, :m + 1 if reason else m]
    with np.errstate(all="ignore"):
        for i in range(0, cols.shape[1], _CHUNK):
            try:
                whole = np.array(_rk4_step(tuple(cols[:3, i:i + _CHUNK]),
                                           cols[3, i:i + _CHUNK], h))
            except (SingularCoefficient, OverflowError, ValueError):
                break
            if not np.isfinite(whole).all():
                break
            gap = whole[:, :m - i] - table[1:4, i + 1:i + _CHUNK + 1]
            err = max(err, np.abs(gap).max(initial=0.0))
        else:
            return m, reason, float(err) / 15.0
    # the replay reads the nodes from i on: column j is node i + j
    alpha, alpha1, alpha2, alpha3 = table[1:, i:].tolist()
    worst = float(err) / 15.0  # the steps before i: / 15.0 is monotonic
    for k in range(i, cols.shape[1]):
        j = k - i
        try:
            full = _rk4_step((alpha[j], alpha1[j], alpha2[j]), alpha3[j], h)
        except SingularCoefficient as err:
            return k, str(err), worst
        except (OverflowError, ValueError):  # a stage left the float range
            return k, "non-finite state", worst
        if not all(map(math.isfinite, full)):
            # at the step where the loop stopped, the exception that stopped
            # it came before the finiteness check of this whole step
            return k, (reason if k == m and raised
                       else "non-finite state"), worst
        if k < m:
            worst = max(worst, max(abs(full[0] - alpha[j + 1]),
                                   abs(full[1] - alpha1[j + 1]),
                                   abs(full[2] - alpha2[j + 1])) / 15.0)
    return m, reason, worst


def _ode_residuals(profile, ys):
    """alpha_ode_residual at every abscissa of the array ``ys`` in one pass:
    the operation order of ode_residual_terms, with sin, cos and the cube
    from libm as there (numpy's may differ in the last bit).  A non-finite
    node value raises SingularProfile."""
    profile._check_finite()
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
    s, c = _libm(math.sin, alpha), _libm(math.cos, alpha)
    cube = _libm(pow, a1, 3.0)
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
    ys, table, y0, d, last = profile._node_residuals
    y = float(y)
    # the index on a uniform grid, else a search (uneven nodes, y between)
    q = (y - y0) / d
    j = round(q) if 0.0 <= q <= last else 0
    if ys[j] != y:
        j = bisect_left(ys, y)
    if j <= last and ys[j] == y and (r := table[j]) == r:  # r != r: NaN
        return r
    return float(_ode_residuals(profile, [y])[0])


def riccati_consistency(profile: AlphaProfile):
    """Worst deviation between u = a''/a'^2 and the Riccati flow in alpha.

    The Riccati equation is integrated independently (classical 4th order,
    node-to-node in the alpha variable) from the initial u and compared
    with the profile's own u at every node; a non-finite node value raises
    SingularProfile.  Each step's midpoint and end coefficients are column
    passes over _CHUNK steps (_riccati_coefficients' operations, libm's
    sin and cos); a step with such a point inside the margin or not finite
    is replayed by _riccati_coefficients, which raises as the walk would.
    """
    profile._check_finite()
    alphas, slopes, curvs = map(_floats, (profile.alpha, profile.alpha1,
                                          profile.alpha2))
    # one numpy pass; min() of the at most one value left keeps Python's
    # ValueError for an empty column
    least = np.abs(profile.alpha1).min(initial=math.inf, keepdims=True)
    if float(min(least[:len(slopes)])) ** 2 == 0.0:
        raise SingularProfile("alpha'^2 = 0 at a node: u = alpha''/alpha'^2 "
                              "is undefined")
    u, worst = curvs[0] / slopes[0] ** 2, 0.0
    # a step reuses the last end's (p, q) when a + da rounded to its node
    # (always, by Sterbenz's lemma, for neighbours of one sign within 2x)
    end, col = math.nan, np.asarray(alphas)
    steps = min(len(alphas) - 1, len(slopes), len(curvs))  # as zip stops
    for i in range(0, steps, _CHUNK):
        j = min(i + _CHUNK, steps)
        with np.errstate(all="ignore"):  # points past the stop are unread
            da = col[i + 1:j + 1] - col[i:j]
            pts = col[i:j] + np.multiply.outer((0.5, 1.0), da)  # mid, end
            pts[~np.isfinite(pts)] = math.nan  # libm raises on inf, not nan
            s, c = _libm(math.sin, pts), _libm(math.cos, pts)
            sc = s * c
            stop = np.append((np.abs(sc) >= EPS_SING).all(0), False).argmin()
            p, q = (s * s + 3.0) / sc, (2.0 * c * c + 3.0) / (c * c)
        for a, slope, curv, d, e, pm, pe, qm, qe in zip(
                alphas[i:i + stop], slopes[i:], curvs[i:],
                *map(_floats, (da, pts[1], *p, *q))):
            dev = abs(u - curv / slope ** 2)
            if dev > worst:  # max(worst, dev), without the call
                worst = dev
            if end != a:
                p0, q0 = _riccati_coefficients(a)
            k1 = -2.0 * u * u - p0 * u - q0
            v = u + 0.5 * d * k1
            k2 = -2.0 * v * v - pm * v - qm
            v = u + 0.5 * d * k2
            k3 = -2.0 * v * v - pm * v - qm
            v = u + d * k3
            k4 = -2.0 * v * v - pe * v - qe
            u = u + (d / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            end, p0, q0 = e, pe, qe
        if i + stop < j:  # replay the step that stops the walk: it raises
            slopes[i + stop] ** 2  # its deviation's OverflowError comes first
            a, d = alphas[i + stop], float(da[stop])
            for x in ([a] if end != a else []) + [a + 0.5 * d, a + d]:
                _riccati_coefficients(x)
    k = len(alphas) - 1  # the last node
    return max(worst, abs(u - curvs[k] / slopes[k] ** 2))


# -- builders --------------------------------------------------------------------

class ConstructionSpec(Record):
    """Inputs of the warped construction: a solved angle profile plus the
    free functions of the general-coordinates form.

    phi(x) reshapes the horizontal coordinate and F (nonconstant) is the
    fiber collapse; the defaults give the canonical warped pair directly.
    """

    profile: AlphaProfile
    phi: ScalarField = None
    F: ScalarField = None
    branch_sign: int = 1
    u_box: ChartBox = None

    def __post_init__(self):
        if self.phi is None:
            object.__setattr__(self, "phi", ScalarField.constant(0.0, 1))
        if self.F is None:
            object.__setattr__(self, "F", ScalarField.coordinate(0, 1))
        if self.u_box is None:
            object.__setattr__(self, "u_box", ChartBox((-1.0,), (1.0,)))
        if self.branch_sign not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")
        grid = sample_grid(self.u_box, (9,))
        slope = float(np.max(np.abs(self.F.partial(as_batch(grid), 0, 1))))
        if slope <= 1e-12:
            raise ValueError("the fiber collapse F must be nonconstant")


class NonflatConstruction(Record):
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


def build_nonflat_target(cspec: ConstructionSpec) -> NonflatConstruction:
    """Warped construction from a solved angle profile.

    Emits the canonical warped pair (phi integrated away by the coordinate
    change t = int e^{phi} dx) and the general-coordinates form with
    exponent log(tan a(y)) + phi(x).  The profile must stay inside
    (0, pi/2) clear of the singularity margins.
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
        canonical_metric, frame_spec, "warped-canonical",
        family="nonflat_target", profile=prof,
    )

    phi3 = lift(cspec.phi, 3, (0,))
    general_metric = ProductMetric3(q_canonical + phi3, domain_box())
    general = SubmersionSpec(
        general_metric, frame_spec, "warped-general",
        family="nonflat_target", profile=prof,
    )

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
    n = len(pts)
    # the batch residual_report swept (grid plus flat-factor probes): its
    # value table already holds r1, sigma, f2, kappa1, alpha and the frame
    batch = as_batch(pts + spec.z_probe_points())
    e1_alpha = directional_field(frame.components[0], alpha)
    sigma = d.sigma(batch)[:n]
    channels.append(max_over_batch("slope_plus_sigma", pts,
                                   e1_alpha(batch)[:n] + sigma))
    for name, fld in (("f2", d.f2), ("kappa1", d.kappa1),
                      ("sigma", d.sigma), ("alpha", alpha)):
        for leg in (1, 2):
            der = directional_field(frame.components[leg], fld)
            channels.append(max_over_batch(
                f"transverse_e{leg + 1}_{name}", pts, der(batch)[:n]))

    profile = spec.profile
    if profile is not None:
        r1f, _ = spec.residual_fields
        ys = batch[:n, 1]
        cos3 = [math.cos(a) ** 3 for a in profile.angle(ys).tolist()]
        channels.append(max_over_batch(
            "ode_vs_channel_gap", pts,
            alpha_ode_residual(profile, ys) - np.array(cos3)
            * r1f(batch)[:n]))

    product = d.f2(batch)[:n] * d.kappa1(batch)[:n] * sigma
    product_min = float(np.min(np.abs(product)))
    kn_min = float(np.min(np.abs(spec.target_curvature_field(batch)[:n])))
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
