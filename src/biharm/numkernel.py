"""Scalar fields on rectangular chart domains: evaluation, differentiation, grids.

A :class:`ScalarField` is a real-valued function of 1 to 3 chart coordinates
that evaluates a whole batch of points at once: an (n, dim) array of points
gives n values, and a single point (a sequence of dim floats) is a batch of
one that gives a float.  Leaf fields are of four kinds: a coordinate, an
exact number, an explicit leaf (an evaluator of one coordinate with its
successive derivatives, taken to a chart by ``lift``) and an opaque leaf
(an evaluator without partials, as ``numeric_only`` makes of a field that
is not an exact number).
Evaluators and derivative callables receive the (n, dim) batch only, a
single point included, so they are written for arrays.  Every other field
is derived from fields by a rule: algebra, ``compose``,
``directional_field`` and the unary functions, so a closed-form function
such as log(a(t) s + b(t)) is a graph over coordinate fields.  ``compose``
pulls a field back through a map, evaluating it on a batch of the map's
values; ``lift`` moves a closed form to a higher-dimensional chart without
it, by rebuilding the graph over that chart's coordinates.  Exact
numbers fold (0·f is 0, 1·f and f ± 0 are f, a quotient rule with the
numerator 0 gives 0, and an operation on exact numbers is an exact
number), so constant frame entries prune the terms they zero.  The numbers
+0.0 and 1.0 are one shared field per chart dimension, so the derivative
rules of numbers and coordinates make no new fields.

Every field, leaf, derived field or stencil node, has one shape: a values
function ``_values(batch, known, *_args)`` and a derivative rule
``_derive(axis, *_args)`` over the same fixed arguments ``_args``, the rule
None for a field without partials.  A rule reads its inputs from the value
table ``known`` of the batch being evaluated (see ``sweep``), and a finite
exact number enters a rule as its float, not as an array of copies: numpy
applies the same IEEE operation to every element either way.  An input not
yet in the table is evaluated by ``_input`` itself, which calls the input's
values function and checks the result, so a level of a field graph is two
Python frames deep: ``_input`` and the rule.

``ScalarField.diff`` is the only place a derivative field is made.  The
derivative rules are the derivative 1 or 0 of a coordinate, the 0 of a
number, explicit partials, and the chain rule of the operation that derived
a field (forward mode over the field graph), so long differentiation chains
stay at round-off accuracy in analytic mode; a rule gives a field along
every axis.  A field without a rule is differenced by a stencil node along
an axis its graph reads (see ``_axes``): one evaluation of it on the batch
moved by +h and by -h, both legs stacked in one batch.  Along any other
axis both legs would give the same values, so its derivative is the exact
number 0.  A stencil node has no derivative rule, so its own partials are
stencils in turn, along the axes its input reads.
Directional derivatives and the curvature read first partials through the
cache of ``diff``, so each is one node per field and axis, and a
directional derivative reads every partial it takes (one for each
component that is not the exact 0) on the batch it is evaluated on.
Pure partials, and the stencil reach they need, follow from ``diff``, but
for the second and third partials of a field without a derivative rule
along an axis it reads, which take direct stencils (see
``ScalarField._partial``).

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
from typing import Sequence

import numpy as np

from .errors import DegenerateBox, NonFiniteValue
from .record import Record, replace

# Central-difference steps: H_FD for first/second differences, H_FD3 for the
# outer step of a nested third difference.  Chosen to balance truncation
# against round-off at double precision.
H_FD = 1e-4
H_FD3 = 1e-3


class ChartBox(Record):
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
        if any(map(operator.ge, self.lower, self.upper)):
            raise ValueError("need lower < upper on every axis")
        if self.guard < 0:
            raise ValueError("guard must be nonnegative")

    @property
    def dim(self):
        return len(self.lower)

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


def one_or_all(values, points):
    """``values``, stacked per point on axis 0, as they are for a batch of
    ``points``; for a single point (a sequence of coordinates), its entry,
    a float where that entry is one number."""
    if np.ndim(points) != 1:
        return values
    one = values[0]
    return one if type(one) is np.ndarray else float(one)


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
    # the dot product is finite whenever every value is (barring overflow,
    # which vdot, unlike ndarray.dot, does not report as a warning)
    if not math.isfinite(np.vdot(out, out)):
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

    Batches made during a sweep (stencil legs, pullbacks) are kept once
    per set of points, so every route to the same points yields the same
    batch object, and a field is evaluated at most once per batch.
    Each batch has a value table, {field: values}, that the rules of the
    fields evaluated on it read their inputs from (``_input``).  Batches
    are looked up by the hash of their bytes and a hit is confirmed by
    comparing the bytes, so 0.0 and -0.0 are different points; a batch
    whose hash collides with another's is a batch of its own.
    """

    def __init__(self):
        self.computed = {}  # id(batch) -> (batch, {field: values})
        self.batches = {}   # (shape, hash of the bytes) -> batch

    def values(self, field, batch):
        entry = self.computed.get(id(batch))
        if entry is None:
            entry = self.computed[id(batch)] = (batch, {})
        known = entry[1]
        values = known.get(field)
        if values is None:
            values = known[field] = _checked(
                field._values(batch, known, *field._args), batch)
        return values

    def batch(self, array):
        data = array.tobytes()
        key = (array.shape, hash(data))
        out = self.batches.get(key)
        if out is None:
            out = self.batches[key] = _frozen(array)
        elif out.tobytes() != data:
            out = _frozen(array)
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

    A coordinate, exact-number, explicit or opaque leaf, a field derived by
    a rule from other fields, or a stencil node (see the module docstring);
    build leaves with ``coordinate`` and ``constant`` and combine them with
    the algebra and the unary functions of this module.  Each holds its
    values function, its derivative rule (None without partials) and their
    arguments; ``diff`` makes every derivative field.

    Parameters
    ----------
    fn : callable batch -> values
        Evaluator.  It receives an (n, dim) float array, one point per row
        (``batch[:, axis]`` is a coordinate), and returns n values or one
        value for all points.  It is called with the batch only, never with
        a single point, so it must be written for arrays.
    dim : int
        Number of chart coordinates (1, 2 or 3).
    partials : tuple, optional
        ``(d1, d2[, d3])``, the successive derivatives of a 1-D leaf as
        callables with the same calling convention as ``fn``; they become
        its derivative rule, and the derivative past the last one is
        differenced.  ``lift`` pulls such a leaf back to a chart axis.

    ``number`` is the value of an exact number, None for any other field.
    """

    __slots__ = ("dim", "number", "_values", "_derive", "_args",
                 "_diff_cache")

    def __init__(self, fn, dim, partials=None):
        self.dim = int(dim)
        if partials and self.dim != 1:
            raise ValueError("explicit partials need a 1-D leaf")
        self.number = None
        self._values = _leaf_values
        self._derive = _explicit_diff if partials else None
        # an evaluator reads every axis of its chart
        self._args = (fn, (1 << self.dim) - 1, tuple(partials or ()))
        self._diff_cache = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, dim):
        """The exact number ``value``; a NaN or an infinity raises
        NonFiniteValue when evaluated.  +0.0 and 1.0 are one shared field
        per dimension."""
        value, dim = float(value), int(dim)
        # -0.0 == 0.0, so its sign bit keeps it out of the shared table
        shared = value in (0.0, 1.0) and math.copysign(1.0, value) > 0.0
        out = _UNITS.get((value, dim)) if shared else None
        if out is None:
            out = _derived(dim, _number_values, _number_diff, value, dim)
            out.number = value
            if shared:
                _UNITS[value, dim] = out
        return out

    @classmethod
    def coordinate(cls, axis, dim):
        dim = int(dim)
        return _derived(dim, _coordinate_values, _coordinate_diff, axis, dim)

    # -- evaluation ---------------------------------------------------------

    # Each level of a field graph costs two Python frames (``_input`` and
    # the rule): on CPython 3.11 a hot call on a frame-stack chunk boundary
    # maps and unmaps a chunk every time (page faults in fd sweeps).

    def __call__(self, point):
        current = _SWEEP.get()
        if current is None:
            with sweep():
                return self(point)
        batch = as_batch(point)
        values = current.values(self, batch)
        return values if batch is point else one_or_all(values, point)

    # -- differentiation ----------------------------------------------------

    def diff(self, axis) -> "ScalarField":
        """Partial-derivative field along a chart axis."""
        cache = self._diff_cache
        if cache is None:  # most fields are never differentiated
            cache = self._diff_cache = {}
        elif axis in cache:
            return cache[axis]
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        if self._derive is not None:
            out = self._derive(axis, *self._args)
        elif self._reads(axis):
            out = _stencil(self, axis, 1)
        else:
            out = ScalarField.constant(0.0, self.dim)
        cache[axis] = out
        return out

    def _partial(self, axis, order):
        """The field whose values are the pure partial of the given order.

        A first partial is ``diff``.  A higher partial of a field without a
        derivative rule (an opaque leaf or a stencil node) along an axis it
        reads takes one direct second difference, where two nested first
        differences would amplify round-off more; every other field follows
        its ``diff`` chain.
        """
        if self._derive is None and order > 1 and self._reads(axis):
            out = _stencil(self, axis, 2, H_FD)
            return _stencil(out, axis, 1, H_FD3) if order == 3 else out
        out = self
        for _ in range(order):
            out = out.diff(axis)
        return out

    def _reads(self, axis):
        return _axes(self, {}) >> axis & 1

    def partial(self, point, axis, order=1):
        """Pure partial of the given order (1..3) at a point or a batch."""
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")
        return self._partial(axis, order)(point)

    def stencil_reach(self, axis, order):
        """Half-width of the set of points that partial() evaluates this
        field at (0 when no stencil is involved)."""
        return _reach(self._partial(axis, order), {})

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
        tag = self._values.__name__ if self.number is None else self.number
        return f"ScalarField({tag}, dim={self.dim})"


# (value, dim) -> the shared +0.0 or 1.0 field
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
    float (a NaN or an infinity takes the checked path and raises).  A
    field not yet in the table is evaluated here: its rule runs and
    ``_checked`` checks what it returns."""
    number = field.number
    if number is not None and math.isfinite(number):
        return number
    values = known.get(field)
    if values is None:
        values = known[field] = _checked(
            field._values(batch, known, *field._args), batch)
    return values


def _fold(fn, *numbers):
    """``fn`` of exact numbers; NaN where it is undefined (a division by 0
    or a domain error), so the number raises NonFiniteValue when evaluated."""
    try:
        return fn(*numbers)
    except (ArithmeticError, ValueError):
        return math.nan


def _derived(dim, values, derive, *args):
    """Field evaluated as ``values(batch, known, *args)``, ``known`` being
    the batch's value table, whose partial along an axis is
    ``derive(axis, *args)`` (differenced where ``derive`` is None)."""
    out = object.__new__(ScalarField)
    out.dim, out.number, out._diff_cache = dim, None, None
    out._values, out._derive, out._args = values, derive, args
    return out


def _leaf_values(batch, known, fn, *_):
    return fn(batch)


def _explicit_diff(axis, fn, mask, partials):
    return ScalarField(partials[0], 1, partials[1:])


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
    return _quotient(f.diff(axis) * g - f * g.diff(axis), g * g)


def _quotient(numerator, denominator):
    """numerator / denominator for a quotient rule; a numerator that folds
    to 0 is the derivative itself (the quotient is constant along the
    axis), so the terms it zeroes fold too."""
    if numerator.number == 0.0:
        return numerator
    return numerator / denominator


def _stencil(field, axis, order, h=None):
    """Stencil node: one central difference (first or second, ``order``) of
    ``field`` along ``axis`` with step ``h``, without a derivative rule.
    Without a step, a first difference in a ``diff`` chain: H_FD, widened
    to H_FD3 from the third stacked difference on to keep round-off
    amplification in check."""
    if h is None:
        depth, inner = 1, field
        while inner._values is _stencil_values:
            depth, inner = depth + 1, inner._args[0]
        h = H_FD3 if depth >= 3 else H_FD
    return _derived(field.dim, _stencil_values, None, field, axis, order, h)


def _stencil_values(batch, known, field, axis, order, h):
    # looked up on every call, so a rebound _central1/_central2 is used
    central = _central1 if order == 1 else _central2
    return central(field, batch, axis, h)


def _inputs(field):
    """The fields among a node's arguments."""
    return [f for arg in field._args
            for f in (arg if type(arg) is tuple else (arg,))
            if isinstance(f, ScalarField)]


def _reach(field, memo):
    """Half-width of the set of points an evaluation of ``field`` touches:
    the steps of its stencils, the largest reach of a node's inputs."""
    values, args = field._values, field._args
    if values is _stencil_values:
        return args[3] + _reach(args[0], memo)
    if id(field) not in memo:
        if values is _directional_values:  # it takes first partials
            comps, f = args
            inputs = comps + tuple(map(f.diff, range(f.dim)))
        else:
            inputs = _inputs(field)
        memo[id(field)] = max((_reach(f, memo) for f in inputs), default=0.0)
    return memo[id(field)]


def _axes(field, memo):
    """Bit mask of the chart axes an evaluation of ``field`` reads: a
    coordinate its own, a number none, a leaf those recorded on it (an
    evaluator every axis, a ``numeric_only`` copy those its original
    reads), a compose node those its components read for the coordinates
    its inner field reads, any other node those its inputs read."""
    values, args = field._values, field._args
    if values is _coordinate_values:
        return 1 << args[0]
    if field.number is not None:
        return 0
    if values is _leaf_values:
        return args[1]
    if id(field) not in memo:
        if values is _compose_values:
            reads = _axes(args[0], memo)
            inputs = [c for l, c in enumerate(args[1]) if reads >> l & 1]
        else:
            inputs = _inputs(field)
        mask = 0
        for f in inputs:
            mask |= _axes(f, memo)
        memo[id(field)] = mask
    return memo[id(field)]


def _shifted(batch, axis, h):
    """The batch moved by ``h`` along ``axis``: one stencil leg."""
    out = batch.copy()
    out[:, axis] += h
    return _new_batch(out)


def _legs(f, batch, axis, h):
    """Values of ``f`` on the two stencil legs, ``batch`` moved by +h and by
    -h along ``axis``, from one evaluation on the stacked batch [+h; -h]
    (every rule is elementwise, so these are the values of the legs one at
    a time, bit for bit).  Should that evaluation raise, the legs are
    evaluated one at a time, +h first, so the error raised is the one that
    order meets first."""
    n = len(batch)
    both = np.concatenate((batch, batch))
    both[:n, axis] += h
    both[n:, axis] += -h
    try:
        values = f(_new_batch(both))
    except Exception:
        return f(_shifted(batch, axis, h)), f(_shifted(batch, axis, -h))
    return values[:n], values[n:]


def _central1(f, batch, axis, h):
    up, dn = _legs(f, batch, axis, h)
    return (up - dn) / (2.0 * h)


def _central2(f, batch, axis, h):
    up, dn = _legs(f, batch, axis, h)
    return (up - 2.0 * f(batch) + dn) / (h * h)


# -- module-level operations -------------------------------------------------


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
        if comp.number != 0.0:  # the exact 0 contributes no term
            total = total + (_input(comp, batch, known)
                             * _input(field.diff(axis), batch, known))
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
    coordinate; the new field is constant along all other axes.  The
    closed-form part of the graph (algebra, unary functions, ``fatan2``) is
    rebuilt over the new chart's coordinate fields with the same rules, so
    it is evaluated on the new chart's batch itself; any other node (an
    explicit leaf, which is 1-D, or an opaque leaf, a stencil, compose or
    directional node) is pulled back by ``compose`` with coordinate fields.
    The chain rules then fold exactly as over the original coordinates, and
    to the exact number 0 along the other axes, which no node then reads,
    so every value and partial is that of ``compose(field, coordinates)``,
    bit for bit.
    """
    axes = tuple(axes)
    if len(axes) != field.dim:
        raise ValueError("axes must list one target axis per original axis")
    dim = int(dim)
    coords = [ScalarField.coordinate(a, dim) for a in axes]
    return _lifted(field, dim, coords, {})


def _lifted(f, dim, coords, memo):
    """``f`` rebuilt over ``coords``; ``memo`` maps id(original) -> lifted,
    so shared nodes stay shared.  A module function, not a closure that
    calls itself: such a closure is a reference cycle, and its memo would
    keep the whole lifted graph alive until the cyclic collector runs."""
    out = memo.get(id(f))
    if out is None:
        values = f._values
        if f.number is not None:
            out = ScalarField.constant(f.number, dim)
        elif values is _coordinate_values:
            out = coords[f._args[0]]
        elif values in (_algebra_values, _unary_values, _atan2_values):
            out = _derived(dim, values, f._derive, *(
                _lifted(a, dim, coords, memo) if isinstance(a, ScalarField)
                else a for a in f._args))
        else:
            out = compose(f, coords)
        memo[id(f)] = out
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
    return _derived(field.dim, _unary_values, _unary_diff, label, field)


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
    return _quotient(x * y.diff(axis) - y * x.diff(axis), x * x + y * y)


def as_field(value, dim) -> ScalarField:
    """Coerce a float or field to a ScalarField of the given dimension."""
    if isinstance(value, ScalarField):
        if value.dim == dim:
            return value
        if value.dim < dim:
            return lift(value, dim, tuple(range(value.dim)))
        raise ValueError("cannot lower field dimension")
    return ScalarField.constant(float(value), dim)


def numeric_only(obj):
    """Copy of ``obj`` with every analytic derivative route removed
    (finite-difference mode).

    An exact number has no derivative route to remove and is its own copy
    (a NaN or an infinity too), so fd graphs fold constants as analytic
    graphs do.  Any other ``ScalarField`` becomes an opaque leaf that
    evaluates it, differenced along the axes its graph reads (found by one
    walk of the field and kept on the copy) and the exact number 0 along
    the rest, where every central difference would be +0.0.  A tuple is
    rebuilt from the copies of its items, and a record by
    ``record.replace`` from those of its fields (so ``__post_init__`` runs
    again); one whose copies are all the originals comes back as itself,
    as does any other value.
    """
    if isinstance(obj, ScalarField):
        if obj.number is not None:
            return obj
        return _derived(obj.dim, _leaf_values, None, obj, _axes(obj, {}))
    if type(obj) is tuple:
        items = tuple(map(numeric_only, obj))
        return obj if all(map(operator.is_, items, obj)) else items
    if isinstance(obj, Record):
        changes = {}
        for name in obj._fields:
            value = getattr(obj, name)
            copy = numeric_only(value)
            if copy is not value:
                changes[name] = copy
        return replace(obj, **changes) if changes else obj
    return obj
