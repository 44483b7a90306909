"""Scalar fields on rectangular chart domains: evaluation, differentiation, grids.

A :class:`ScalarField` is a real-valued function of 1 to 3 chart coordinates
that evaluates a whole batch of points at once: an (n, dim) array of points
gives n values, and a single point (a sequence of dim floats) is a batch of
one that gives a float.  Leaf fields are of four kinds: a coordinate (it
reads its column of the batch), an exact number (a float on the field), an
explicit leaf (an evaluator with per-axis derivative callables) and an
opaque leaf (a bare evaluator, such as every ``numeric_only()`` field).
Evaluators and derivative callables receive the (n, dim) batch only, a
single point included, so they are written for arrays.  Every other field
is derived from fields by a rule: algebra, ``compose``,
``directional_field`` and the unary functions, so a closed-form function
such as log(a(t) s + b(t)) is a graph over coordinate fields.  Exact
numbers fold (0·f is 0, 1·f and f ± 0 are f, and an operation on exact
numbers is an exact number), so constant frame entries prune the terms
they zero.  The unnamed numbers +0.0 and 1.0 are one shared field per
chart dimension, so the derivative rules of numbers and coordinates make
no new fields.

A rule reads its inputs from the value table of the batch being
evaluated (see ``sweep``), and a finite exact number enters a rule as
its float, not as an array of copies: numpy applies the same IEEE
operation to every element either way.

``ScalarField.diff`` is the only place a derivative field is made.  Every
field that is not an opaque leaf carries one derivative rule: the
derivative 1 or 0 of a coordinate, the 0 of a number, explicit partials,
or the chain rule of the operation that derived it (forward mode over the
field graph), so long differentiation chains stay at round-off accuracy in
analytic mode.  An opaque leaf is differenced by a stencil node, one
shifted evaluation of the whole batch per stencil leg.  Pure partials, and
the stencil reach they need, follow from ``diff``.

Values are IEEE double arithmetic on arrays, and the unary functions apply
the ``math`` module one value after another: numpy's vectorised exp, tan,
atan and pow differ from libm in the last bit for some arguments, and
round-off-level residual channels would then report their maxima at other
points.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateBox, NonFiniteValue, PointOutsideGuard

# Central-difference steps: H_FD for first/second differences, H_FD3 for the
# outer step of a nested third difference.  Chosen to balance truncation
# against round-off at double precision.
H_FD = 1e-4
H_FD3 = 1e-3

ChartPoint = tuple
"""A chart point is a plain tuple of 1-3 floats in axis order."""


@dataclass(frozen=True)
class ChartBox:
    """Axis-aligned chart domain with a guard margin.

    The guard is the strip near the boundary excluded from verification
    grids so that every finite-difference stencil evaluated on a grid point
    stays inside the box.  For stencil work the guard should be at least
    twice the difference step.
    """

    lower: tuple
    upper: tuple
    guard: float = 0.0

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper must have equal lengths")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("need lower < upper on every axis")
        if self.guard < 0:
            raise ValueError("guard must be nonnegative")

    @property
    def dim(self):
        return len(self.lower)

    def contains(self, point, margin=0.0):
        return all(
            lo + margin <= x <= hi - margin
            for x, lo, hi in zip(point, self.lower, self.upper)
        )

    def require_stencil(self, point, reach):
        """Raise PointOutsideGuard unless a stencil of half-width ``reach``
        around ``point`` (or around every point of a batch) stays inside the
        box; the error names the first offending point."""
        slack = 1e-12
        for p in as_batch(point).tolist():
            if not self.contains(p, margin=max(self.guard, reach) - slack):
                raise PointOutsideGuard(
                    f"point {tuple(p)} closer than {max(self.guard, reach):g} "
                    f"to the boundary of {self.lower}..{self.upper}"
                )

    def midpoint(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))


def sample_grid(box: ChartBox, resolution) -> list:
    """Uniform grid on the guarded interior of ``box``, row-major order.

    ``resolution`` gives the per-axis point counts (>= 2 each).  The first
    axis varies slowest.  Raises DegenerateBox when the guarded interior is
    empty.
    """
    if isinstance(resolution, int):
        resolution = (resolution,) * box.dim
    if len(resolution) != box.dim:
        raise ValueError("resolution length must match box dimension")
    if any(n < 2 for n in resolution):
        raise ValueError("need at least 2 points per axis")
    axes = []
    for lo, hi, n in zip(box.lower, box.upper, resolution):
        a, b = lo + box.guard, hi - box.guard
        if a > b:
            raise DegenerateBox(f"guard {box.guard:g} empties axis [{lo}, {hi}]")
        axes.append([a + (b - a) * k / (n - 1) for k in range(n)])
    return [tuple(p) for p in itertools.product(*axes)]


_FLOAT = np.dtype(float)


def as_batch(points):
    """Read-only (n, dim) float array of ``points``; one point is a batch of
    one.

    Batches are never written to, so within a sweep a batch object stands
    for its points (see ``sweep``).
    """
    if (type(points) is np.ndarray and points.dtype is _FLOAT
            and points.ndim == 2 and not points.flags.writeable):
        return points
    return _new_batch(np.array(points, dtype=float, ndmin=2))


def _new_batch(array):
    """A freshly made (n, dim) array as a batch; within a sweep, the batch
    already holding these points if there is one."""
    current = _SWEEP.get()
    if current is not None:
        return current.batch(array)
    return _frozen(array)


def _frozen(array):
    array.flags.writeable = False
    return array


def _result(values, points):
    """A float for a single point, the array of values for a batch."""
    return float(values[0]) if np.ndim(points) == 1 else values


def _checked(values, batch):
    """Array of one float per point of ``batch``.

    A single value stands for every point.  Raises NonFiniteValue naming the
    first point, in batch order, whose value is not finite.
    """
    out = values
    n = len(batch)
    if (type(out) is not np.ndarray or out.dtype is not _FLOAT
            or out.shape != (n,)):
        out = np.asarray(out, dtype=float)
        if out.shape != (n,):
            if out.ndim:
                raise ValueError(
                    f"field callable gave shape {out.shape} for {n} points"
                )
            out = np.full(n, float(out))
    # the dot product is finite whenever every value is (barring overflow)
    if not math.isfinite(out.dot(out)):
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteValue(
                f"field evaluated to {float(out[i])!r} at "
                f"{tuple(batch[i].tolist())}"
            )
    return out


class _Sweep:
    """Field values of the evaluation in progress.

    Batches made during a sweep (stencil legs, restrictions, pullbacks) are
    kept once per set of points, so every route to the same points yields
    the same batch object, and a field is evaluated at most once per batch.
    Each batch has a value table, {field: values}, that the rules of the
    fields evaluated on it read their inputs from (``_input``).
    """

    def __init__(self):
        self.computed = {}  # id(batch) -> (batch, {field: values})
        self.batches = {}   # (shape, bytes) -> batch

    def values(self, field, batch):
        entry = self.computed.get(id(batch))
        if entry is None:
            entry = self.computed[id(batch)] = (batch, {})
        known = entry[1]
        values = known.get(field)
        if values is None:
            values = known[field] = field._evaluate(batch, known)
        return values

    def batch(self, array):
        key = (array.shape, array.tobytes())
        out = self.batches.get(key)
        if out is None:
            out = self.batches[key] = _frozen(array)
        return out


_SWEEP = contextvars.ContextVar("sweep", default=None)


@contextlib.contextmanager
def sweep():
    """Evaluate fields that share subfields, sharing their values.

    Inside the block every field is evaluated at most once per batch, so a
    grid sweep that evaluates several channels on one batch wraps them in
    one block.  Each evaluation outside a block is a sweep of its own; the
    values are released when the sweep ends.  Within a batch, a rule reads
    its inputs straight from the batch's value table; a finite exact
    number is read as its float and kept in no table.
    """
    if _SWEEP.get() is not None:
        yield
        return
    token = _SWEEP.set(_Sweep())
    try:
        yield
    finally:
        _SWEEP.reset(token)


class ScalarField:
    """Real-valued function of chart coordinates, evaluated batch-wise.

    A coordinate, exact-number, explicit or opaque leaf, or a field derived
    by a rule from other fields (see the module docstring); build leaves
    with ``coordinate`` and ``constant`` and combine them with the algebra
    and the unary functions of this module.  ``diff`` makes every
    derivative field.

    Parameters
    ----------
    fn : callable batch -> values
        Evaluator.  It receives an (n, dim) float array, one point per row
        (``batch[:, axis]`` is a coordinate), and returns n values or one
        value for all points.  It is called with the batch only, never with
        a single point, so it must be written for arrays.
    dim : int
        Number of chart coordinates (1, 2 or 3).
    partials : dict, optional
        ``{axis: (d1, d2[, d3])}`` explicit derivative callables per axis,
        with the same calling convention as ``fn``; they become the field's
        derivative rule.  Along an axis without them the field is differenced.

    ``number`` is the value of an exact number, None for any other field.
    """

    __slots__ = ("dim", "number", "name", "_fn", "_diff_cache")

    def __init__(self, fn, dim, partials=None, name=""):
        self.dim = int(dim)
        self.number = None
        self.name = name
        if partials:
            fn = _Rule(_explicit_values, _explicit_diff,
                       (fn, dict(partials), self.dim))
        self._fn = fn
        self._diff_cache = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, dim, name=""):
        """The exact number ``value``; a NaN or an infinity raises
        NonFiniteValue when evaluated.  Unnamed, +0.0 and 1.0 are one shared
        field per dimension."""
        value, dim = float(value), int(dim)
        # -0.0 == 0.0, so its sign bit keeps it out of the shared table
        shared = (not name and value in (0.0, 1.0)
                  and math.copysign(1.0, value) > 0.0)
        out = _UNITS.get((value, dim)) if shared else None
        if out is None:
            out = _derived(dim, _number_values, _number_diff, value, dim,
                           name=name)
            out.number = value
            if shared:
                _UNITS[value, dim] = out
        return out

    @classmethod
    def coordinate(cls, axis, dim):
        return _derived(dim, _coordinate_values, _coordinate_diff, axis,
                        int(dim), name=f"x{axis}")

    # -- evaluation ---------------------------------------------------------

    # Each level of a field graph costs three Python frames (``_input``,
    # ``_evaluate`` and the rule): on CPython 3.11 a hot call on a
    # frame-stack chunk boundary maps and unmaps a chunk every time (page
    # faults in fd sweeps).

    def __call__(self, point):
        current = _SWEEP.get()
        if current is None:
            with sweep():
                return self(point)
        batch = as_batch(point)
        values = current.values(self, batch)
        return values if batch is point else _result(values, point)

    def _evaluate(self, batch, known):
        fn = self._fn
        if type(fn) is _Rule:
            return _checked(fn.evaluate(batch, known, *fn.args), batch)
        return _checked(fn(batch), batch)

    # -- differentiation ----------------------------------------------------

    def diff(self, axis) -> "ScalarField":
        """Partial-derivative field along a chart axis."""
        if axis in self._diff_cache:
            return self._diff_cache[axis]
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        out = self._fn.diff(axis) if type(self._fn) is _Rule else None
        if out is None:  # opaque, or a rule that does not cover this axis
            out = _stencil(self, axis, 1)
        self._diff_cache[axis] = out
        return out

    def _partial(self, axis, order):
        """The field whose values are the pure partial of the given order.

        An opaque leaf takes one direct stencil (a second difference, where
        two nested first differences would amplify round-off more); every
        other field follows its ``diff`` chain.
        """
        if type(self._fn) is not _Rule:
            out = _stencil(self, axis, min(order, 2), H_FD)
            return _stencil(out, axis, 1, H_FD3) if order == 3 else out
        out = self
        for _ in range(order):
            out = out.diff(axis)
        return out

    def partial(self, point, axis, order=1):
        """Pure partial of the given order (1..3) at a point or a batch."""
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")
        return self._partial(axis, order)(point)

    def stencil_reach(self, axis, order):
        """Half-width of the set of points that partial() evaluates this
        field at (0 when no stencil is involved)."""
        return _reach(self._partial(axis, order), {})

    # -- structure-stripping (finite-difference mode) ------------------------

    def numeric_only(self) -> "ScalarField":
        """Copy of this field with all analytic derivative routes removed.

        A number keeps its zero derivative: every central difference of a
        constant is exactly zero, so both routes give the same values, and
        the terms that derivative multiplies fold away.  The copy itself is
        not an exact number, so operations on it do not fold.
        """
        name = self.name and self.name + "[fd]"
        if self.number is not None:
            return _derived(self.dim, _number_values, _number_diff,
                            self.number, self.dim, name=name)
        return ScalarField(fn=self.__call__, dim=self.dim, name=name)

    # -- algebra -------------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, (int, float)):
            other = ScalarField.constant(float(other), self.dim)
        if not isinstance(other, ScalarField):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in field algebra")
        f, g = self, other
        # exact numbers fold, so product rules on constant frame components
        # do not evaluate terms that vanish
        cf, cg = f.number, g.number
        if cf is not None and cg is not None:
            return ScalarField.constant(_fold(_OPS[op], cf, cg), self.dim)
        if op == "*" and 0.0 in (cf, cg):
            return ScalarField.constant(0.0, self.dim)
        if (op in "+-" and cg == 0.0) or (op in "*/" and cg == 1.0):
            return f
        if (op == "+" and cf == 0.0) or (op == "*" and cf == 1.0):
            return g
        return _derived(self.dim, _algebra_values, _algebra_diff, op, f, g)

    def __add__(self, other):
        return self._binary(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "-")

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binary(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "/")

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        tag = self.name or (repr(self.number) if self.number is not None
                            else "fn")
        return f"ScalarField({tag}, dim={self.dim})"


# (value, dim) -> the shared unnamed +0.0 or 1.0 field
_UNITS = {}

# one table serves exact numbers and arrays of values alike
_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _input(field, batch, known):
    """Values of ``field`` on ``batch`` for a rule evaluating there, read
    from the batch's value table ``known``; a finite exact number is its
    float (a NaN or an infinity takes the checked path and raises)."""
    number = field.number
    if number is not None and math.isfinite(number):
        return number
    values = known.get(field)
    if values is None:
        values = known[field] = field._evaluate(batch, known)
    return values


def _fold(fn, *numbers):
    """``fn`` of exact numbers; NaN where it is undefined (a division by 0
    or a domain error), so the number raises NonFiniteValue when evaluated."""
    try:
        return fn(*numbers)
    except (ArithmeticError, ValueError):
        return math.nan


class _Rule:
    """Evaluator and derivative rule of a field as functions of fixed
    arguments (lighter to keep than a pair of closures); ``derive`` gives
    None along an axis it does not cover, which is then differenced."""

    __slots__ = ("evaluate", "derive", "args")

    def __init__(self, evaluate, derive, args):
        self.evaluate, self.derive, self.args = evaluate, derive, args

    def diff(self, axis):
        return self.derive(axis, *self.args)


def _derived(dim, evaluate, derive, *args, name=""):
    """Field evaluated as ``evaluate(batch, known, *args)``, ``known`` being
    the batch's value table, whose partial along an axis is
    ``derive(axis, *args)``."""
    return ScalarField(fn=_Rule(evaluate, derive, args), dim=dim, name=name)


def _explicit_values(batch, known, fn, partials, dim):
    return fn(batch)


def _explicit_diff(axis, fn, partials, dim):
    derivs = partials.get(axis)
    if derivs is None:
        return None
    rest = tuple(derivs[1:])
    return ScalarField(fn=derivs[0], dim=dim,
                       partials={axis: rest} if rest else None)


def _number_values(batch, known, value, dim):
    return value


def _number_diff(axis, value, dim):
    return ScalarField.constant(0.0, dim)


def _coordinate_values(batch, known, axis, dim):
    return batch[:, axis]


def _coordinate_diff(axis, coordinate_axis, dim):
    return ScalarField.constant(1.0 if axis == coordinate_axis else 0.0, dim)


def _algebra_values(batch, known, op, f, g):
    return _OPS[op](_input(f, batch, known), _input(g, batch, known))


def _algebra_diff(axis, op, f, g):
    """Derivative field of f .op. g by the chain rules of +,-,*,/."""
    if op == "+":
        return f.diff(axis) + g.diff(axis)
    if op == "-":
        return f.diff(axis) - g.diff(axis)
    if op == "*":
        return f.diff(axis) * g + f * g.diff(axis)
    return (f.diff(axis) * g - f * g.diff(axis)) / (g * g)


class _Stencil:
    """Evaluator of a stencil node: one central difference (first or second,
    ``order``) of ``field`` along ``axis`` with step ``h``."""

    __slots__ = ("field", "axis", "order", "h")

    def __init__(self, field, axis, order, h):
        self.field, self.axis, self.order, self.h = field, axis, order, h

    def __call__(self, batch):
        # looked up on every call, so a rebound _central1/_central2 is used
        central = _central1 if self.order == 1 else _central2
        return central(self.field, batch, self.axis, self.h)


def _stencil(field, axis, order, h=None):
    """Stencil node differencing ``field``.  Without a step, a first
    difference in a ``diff`` chain: H_FD, widened to H_FD3 from the third
    stacked difference on to keep round-off amplification in check."""
    if h is None:
        depth, inner = 1, field._fn
        while type(inner) is _Stencil:
            depth, inner = depth + 1, inner.field._fn
        h = H_FD3 if depth >= 3 else H_FD
    return ScalarField(fn=_Stencil(field, axis, order, h), dim=field.dim,
                       name=f"d{axis}[fd]")


def _reach(field, memo):
    """Half-width of the set of points an evaluation of ``field`` touches:
    the steps of its stencils, the largest reach of a rule's inputs."""
    fn = field._fn
    if type(fn) is _Stencil:
        return fn.h + _reach(fn.field, memo)
    if type(fn) is not _Rule:
        return 0.0
    if id(field) not in memo:
        if fn.evaluate is _directional_values:  # it takes first partials
            comps, f = fn.args
            inputs = comps + tuple(f._partial(a, 1) for a in range(f.dim))
        else:
            inputs = [f for arg in fn.args
                      for f in (arg if type(arg) is tuple else (arg,))
                      if isinstance(f, ScalarField)]
        memo[id(field)] = max((_reach(f, memo) for f in inputs), default=0.0)
    return memo[id(field)]


def _shifted(batch, axis, h):
    """The batch moved by ``h`` along ``axis``: one stencil leg."""
    out = batch.copy()
    out[:, axis] += h
    return _new_batch(out)


def _central1(f, batch, axis, h):
    up = f(_shifted(batch, axis, h))
    dn = f(_shifted(batch, axis, -h))
    return (up - dn) / (2.0 * h)


def _central2(f, batch, axis, h):
    up = f(_shifted(batch, axis, h))
    dn = f(_shifted(batch, axis, -h))
    return (up - 2.0 * f(batch) + dn) / (h * h)


# -- module-level operations -------------------------------------------------


def partial_derivative(field, point, axis, order=1, box=None):
    """Partial derivative of ``field`` at ``point`` (or a batch) along ``axis``.

    When ``box`` is given every point must keep guard+stencil clearance from
    the boundary.
    """
    if box is not None:
        box.require_stencil(point, field.stencil_reach(axis, order))
    return field.partial(point, axis, order)


def frame_derivative(vector_components, field, point):
    """Directional derivative sum_i c_i(p) * d(field)/dx_i at ``point`` (or
    at every point of a batch).

    A partial is only evaluated where its coefficient is nonzero.
    """
    comps = tuple(vector_components)
    if len(comps) != field.dim:
        raise ValueError("component count must equal the chart dimension")
    return _derived(field.dim, _directional_values, _directional_diff,
                    comps, field)(point)


def directional_field(vector_components, field) -> ScalarField:
    """Directional derivative as a composable ScalarField.

    A derived field whose own derivatives follow the product rule, so
    nesting e_i(e_j(f)) keeps the analytic accuracy of the inputs; the
    derivative of an exact number is the exact number 0.
    """
    comps = tuple(vector_components)
    if len(comps) != field.dim:
        raise ValueError("component count must equal the chart dimension")
    if field.number is not None:
        return ScalarField.constant(0.0, field.dim)
    return _derived(field.dim, _directional_values, _directional_diff,
                    comps, field)


def _directional_values(batch, known, comps, field):
    total = np.zeros(len(batch))
    for axis, comp in enumerate(comps):
        c = _input(comp, batch, known)
        live = np.asarray(c != 0.0)  # 0-d when c is a number
        if live.all():
            total = total + c * _input(field._partial(axis, 1), batch, known)
        elif live.any():
            sub = _new_batch(batch[live])
            total[live] += c[live] * field.partial(sub, axis, 1)
    return total


def _directional_diff(axis, comps, field):
    terms = None
    for ax, c in enumerate(comps):
        term = c.diff(axis) * field.diff(ax) + c * field.diff(ax).diff(axis)
        terms = term if terms is None else terms + term
    return terms


def lift(field, dim, axes: Sequence[int]) -> ScalarField:
    """Reinterpret ``field`` on a higher-dimensional chart.

    ``axes[i]`` names the new-chart axis carrying the i-th original
    coordinate; the new field is constant along all other axes.  This is
    ``compose`` with coordinate fields.
    """
    axes = tuple(axes)
    if len(axes) != field.dim:
        raise ValueError("axes must list one target axis per original axis")
    out = compose(field, [ScalarField.coordinate(a, dim) for a in axes])
    if out.number is None:  # a number may be a shared field
        out.name = field.name
    return out


def compose(field, components) -> ScalarField:
    """Pull ``field`` back through a map given by component fields.

    ``components[l]`` is the l-th coordinate of the map, all living on a
    common chart; the result is field(comp_0(p), comp_1(p), ...), a derived
    field whose derivatives follow the chain rule
    d_a (F o phi) = sum_l (d_l F o phi) d_a phi_l.  An exact number pulls
    back to itself.
    """
    comps = tuple(components)
    if len(comps) != field.dim:
        raise ValueError("need one component per field coordinate")
    dims = {c.dim for c in comps}
    if len(dims) != 1:
        raise ValueError("map components must share a chart")
    dim = dims.pop()
    if field.number is not None:
        return ScalarField.constant(field.number, dim)
    return _derived(dim, _compose_values, _compose_diff, field, comps)


def _compose_values(batch, known, field, comps):
    inner = np.empty((len(batch), len(comps)))
    for l, c in enumerate(comps):
        inner[:, l] = _input(c, batch, known)
    return field(_new_batch(inner))


def _compose_diff(axis, field, comps):
    total = None
    for l, c in enumerate(comps):
        term = compose(field.diff(l), comps) * c.diff(axis)
        total = term if total is None else total + term
    return total


# -- unary and binary functions ----------------------------------------------


_UNARY = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "atan": math.atan,
    "cosh": math.cosh,
    "sinh": math.sinh,
}


def _unary(field, label):
    if field.number is not None:
        return ScalarField.constant(_fold(_UNARY[label], field.number),
                                    field.dim)
    return _derived(field.dim, _unary_values, _unary_diff, label, field,
                    name=f"{label}({field.name})")


def _unary_values(batch, known, label, field):
    values = _input(field, batch, known).tolist()
    return np.fromiter(map(_UNARY[label], values), float, len(values))


def _unary_diff(axis, label, field):
    return _UNARY_DERIVS[label](field) * field.diff(axis)


def _one(f):
    return ScalarField.constant(1.0, f.dim)


_UNARY_DERIVS = {
    "sin": lambda f: fcos(f),
    "cos": lambda f: -fsin(f),
    "exp": lambda f: fexp(f),
    "log": lambda f: _one(f) / f,
    "tan": lambda f: _one(f) / (fcos(f) * fcos(f)),
    "sqrt": lambda f: ScalarField.constant(0.5, f.dim) / fsqrt(f),
    "atan": lambda f: _one(f) / (1.0 + f * f),
    "cosh": lambda f: fsinh(f),
    "sinh": lambda f: fcosh(f),
}


def fsin(f):
    return _unary(f, "sin")


def fcos(f):
    return _unary(f, "cos")


def fexp(f):
    return _unary(f, "exp")


def flog(f):
    return _unary(f, "log")


def ftan(f):
    return _unary(f, "tan")


def fsqrt(f):
    return _unary(f, "sqrt")


def fatan(f):
    return _unary(f, "atan")


def fcosh(f):
    return _unary(f, "cosh")


def fsinh(f):
    return _unary(f, "sinh")


def fatan2(y, x):
    """atan2(y, x) of two fields on one chart, derived by
    d atan2(y, x) = (x dy - y dx) / (x^2 + y^2)."""
    if y.dim != x.dim:
        raise ValueError("dimension mismatch in field algebra")
    if y.number is not None and x.number is not None:
        return ScalarField.constant(_fold(math.atan2, y.number, x.number),
                                    y.dim)
    return _derived(y.dim, _atan2_values, _atan2_diff, y, x)


def _atan2_values(batch, known, y, x):
    n = len(batch)
    ys, xs = (np.broadcast_to(_input(f, batch, known), n).tolist()
              for f in (y, x))
    return np.fromiter(map(math.atan2, ys, xs), float, n)


def _atan2_diff(axis, y, x):
    return (x * y.diff(axis) - y * x.diff(axis)) / (x * x + y * y)


def as_field(value, dim) -> ScalarField:
    """Coerce a float or field to a ScalarField of the given dimension."""
    if isinstance(value, ScalarField):
        if value.dim == dim:
            return value
        if value.dim < dim:
            return lift(value, dim, tuple(range(value.dim)))
        raise ValueError("cannot lower field dimension")
    return ScalarField.constant(float(value), dim)
