"""The contract of ``numeric_only``, the finite-difference copy of a spec.

Every spec type the fd mode strips is walked in parallel with its copy:
each field but an exact number is swapped for an opaque leaf, an exact
number and every value that holds no other field is the original object,
and no cached derived value rides along into the copy.  An opaque leaf is
differenced along the axes its original reads and is the exact 0 along the
rest; an exact number is the exact 0 along every axis, so fd graphs fold
constants as analytic graphs do and every node they build reads an axis.
"""

import math

import numpy as np
import pytest

from biharm.constructor import (
    ConstructionSpec,
    build_nonflat_target,
    integrate_alpha,
)
from biharm import numkernel
from biharm.frames import (
    AdaptedFrameSpec,
    SeededUniform,
    adapted_frame,
    integrability_data,
    random_adapted_specs,
)
from biharm.geometry import (
    FrameField,
    ProductMetric3,
    SurfaceMetric,
)
from biharm.hypersurface import (
    HopfCylinderSpec,
    SurfaceImmersion,
    vertical_cylinder,
)
from biharm.numkernel import (
    H_FD,
    ChartBox,
    ScalarField,
    as_batch,
    compose,
    lift,
    numeric_only,
    sample_grid,
)
from biharm.record import Record
from biharm.submersion import (
    SubmersionSpec,
    catalog_examples,
    projection_spec,
    residual_report,
)
from conftest import S, T, field_of, flipped, graph_nodes


def _built():
    prof = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-3)
    return build_nonflat_target(ConstructionSpec(prof))


def _warped():
    spec = _built().canonical
    spec.residual_fields  # fills the caches on the spec and what it holds
    assert spec.profile is not None
    assert set(vars(spec)) > set(spec._fields)
    return spec


def _projection():
    box = ChartBox((-1.0, 0.5, -0.5), (1.0, 3.0, 0.5), 0.05)
    spec = projection_spec(field_of(2.0 * S ** 2, 2), box, "tagged")
    spec.residual_fields
    assert spec.aux_residual is not None
    return spec


def _cylinder():
    cyl = flipped(vertical_cylinder(1.0, 1.0))
    cyl.normal_fields
    assert cyl.orientation == -1
    return cyl


CASES = {
    "ProductMetric3": (ProductMetric3, lambda: _warped().domain_metric),
    "SurfaceMetric": (SurfaceMetric, lambda: _built().target),
    "FrameField": (FrameField, lambda: _warped().frame),
    "AdaptedFrameSpec": (AdaptedFrameSpec, lambda: _warped().frame_spec),
    "SurfaceImmersion": (SurfaceImmersion, _cylinder),
    "HopfCylinderSpec": (HopfCylinderSpec,
                         lambda: HopfCylinderSpec(1.0, 2.0)),
    "SubmersionSpec-warped": (SubmersionSpec, _warped),
    "SubmersionSpec-projection": (SubmersionSpec, _projection),
}


def _pairs(orig, copy):
    """(original, copy) of the object, of every record field value and of
    every tuple item below it."""
    yield orig, copy
    if type(orig) is tuple:
        assert type(copy) is tuple and len(copy) == len(orig)
        for a, b in zip(orig, copy):
            yield from _pairs(a, b)
    elif isinstance(orig, Record):
        for name in orig._fields:
            yield from _pairs(getattr(orig, name), getattr(copy, name))


def _holds_field(obj):
    """Whether a field other than an exact number is at or below ``obj``."""
    return any(isinstance(a, ScalarField) and a.number is None
               for a, _ in _pairs(obj, obj))


def _is_fd_leaf(f, original):
    """An opaque leaf, not an exact number: differenced along every axis its
    original reads, the exact 0 along the rest."""
    if f.number is not None or f._values is not numkernel._leaf_values:
        return False
    reads = numkernel._axes(original, {})
    return reads != 0 and all(
        f.stencil_reach(a, 1) == H_FD if reads >> a & 1
        else f.diff(a) is ScalarField.constant(0.0, f.dim)
        for a in range(f.dim))


def _is_exact_zero_everywhere(number):
    """The exact 0 along every axis, with no stencil at any order."""
    zero = ScalarField.constant(0.0, number.dim)
    return all(number.diff(a) is zero
               and number.stencil_reach(a, order) == 0.0
               for a in range(number.dim) for order in (1, 2, 3))


@pytest.mark.parametrize("kind", list(CASES))
def test_walk_contract(kind):
    cls, make = CASES[kind]
    orig = make()
    assert type(orig) is cls
    copy = numeric_only(orig)
    assert type(copy) is cls
    # a record copies only what holds a field that is not an exact number
    assert (copy is orig) == (not _holds_field(orig)), kind
    for a, b in _pairs(orig, copy):
        if isinstance(a, ScalarField) and a.number is not None:
            assert b is a, (kind, a)
            assert _is_exact_zero_everywhere(b), (kind, a)
        elif isinstance(a, ScalarField):
            assert b is not a and b.dim == a.dim
            assert _is_fd_leaf(b, a), (kind, a)
        elif not _holds_field(a):
            # labels, families, boxes, orientation, profile, and tuples and
            # records of exact numbers alone
            assert b is a, (kind, a)
        elif isinstance(a, Record):
            assert type(b) is type(a) and b is not a
            # cached_property values stay behind
            assert set(vars(b)) <= set(b._fields), kind


def test_walk_cases_copy_all_but_a_record_of_numbers():
    copied, kept = set(), set()
    for kind, (_, make) in CASES.items():
        orig = make()
        copy = numeric_only(orig)
        if copy is not orig:
            copied.add(kind)
        if any(isinstance(a, ScalarField) and a.number is not None
               for a, _ in _pairs(orig, copy)):
            kept.add(kind)
    # the Hopf cylinder spec holds two exact numbers and nothing else
    assert copied == set(CASES) - {"HopfCylinderSpec"}
    assert kept == set(CASES) - {"ProductMetric3", "SurfaceMetric"}


def test_holders_without_fields_come_back_as_themselves():
    spec = _warped()
    box = spec.domain_metric.box
    values = (box, spec.profile, (1.0, "label", box), (), None, "label",
              {"profile": spec.profile})
    for value in values:
        assert numeric_only(value) is value


def _fields_below(obj):
    return [a for a, _ in _pairs(obj, obj) if isinstance(a, ScalarField)]


def test_every_node_of_an_fd_graph_reads_an_axis():
    # exact numbers fold in fd graphs too, so no node computes a constant
    # once per point: the catalog residuals and the frame data of each
    # family
    roots = [f for spec in catalog_examples()
             for f in numeric_only(spec).residual_fields]
    families = set()
    for label, metric, spec in random_adapted_specs(SeededUniform(7), 4):
        metric, spec = numeric_only((metric, spec))
        frame = adapted_frame(spec, metric)
        roots += _fields_below(frame)
        roots += _fields_below(integrability_data(spec, frame))
        families.add(label)
    assert len(families) == 4
    seen = {}
    for root in roots:
        graph_nodes(root, seen)
    nodes = [f for f in seen.values() if f.number is None]
    assert len(nodes) > 300
    constant = [f for f in nodes if not numkernel._axes(f, {})]
    assert not constant, constant[:5]


def _fd_copies():
    """(original, fd copy) of every catalog spec, of the whole canonical
    warped spec and its target surface, and of one ``SeededUniform`` draw
    of the four frame families (each a metric and its frame spec)."""
    for spec in catalog_examples():
        yield spec, numeric_only(spec)
    warped = _warped()
    yield warped, numeric_only(warped)
    target = _built().target
    yield target, numeric_only(target)
    for label, metric, spec in random_adapted_specs(SeededUniform(7), 4):
        pair = (metric, spec)
        yield pair, numeric_only(pair)


def _chart_grids(obj):
    """A 5-point-per-axis grid on the guarded interior of each chart box
    below ``obj``, by chart dimension (one box per dimension)."""
    boxes = {(a.lower, a.upper, a.guard): a for a, _ in _pairs(obj, obj)
             if isinstance(a, ChartBox)}.values()
    grids = {box.dim: as_batch(sample_grid(box, 5)) for box in boxes}
    assert len(grids) == len(boxes)
    return grids


class TestUnreadAxes:
    """Along an axis its original does not read, an fd leaf's derivative is
    the exact 0, and a stencil there would give +0.0 everywhere."""

    def test_unread_axes_are_the_exact_zero(self):
        unread = 0
        for orig, copy in _fd_copies():
            grids = _chart_grids(orig)
            for a, b in _pairs(orig, copy):
                if not isinstance(a, ScalarField) or a.number is not None:
                    continue
                reads = numkernel._axes(a, {})
                for axis in range(b.dim):
                    if reads >> axis & 1:
                        continue
                    unread += 1
                    assert b.diff(axis) is ScalarField.constant(0.0, b.dim)
                    assert b.stencil_reach(axis, 3) == 0.0
                    # the forced stencil, on the field's own chart
                    forced = numkernel._stencil(b, axis, 1)(grids[b.dim])
                    assert not forced.any() and not np.signbit(forced).any()
        assert unread

    def test_leaves_read_what_they_record_and_compose_what_it_pulls_back(
            self):
        def squared(b):  # reads s alone, but an evaluator reads every axis
            return b[:, 1] ** 2

        opaque = ScalarField(squared, 3)
        for f in (opaque, numeric_only(opaque)):
            assert all(f.stencil_reach(a, 1) == H_FD for a in range(3))

        # 1-D leaves and a closed form pulled back along s, and a compose
        # node whose inner field reads its first coordinate (s) alone
        def square(b):
            return b[:, 0] ** 2

        explicit = ScalarField(square, 1, (lambda b: 2.0 * b[:, 0],))
        s, t = ScalarField.coordinate(1, 3), ScalarField.coordinate(0, 3)
        first = numeric_only(field_of(T * T, 2))
        lifted_opaque = lift(ScalarField(square, 1), 3, (1,))
        zero = ScalarField.constant(0.0, 3)
        for f in (compose(field_of(T * T, 1), (s,)), lift(explicit, 3, (1,)),
                  lifted_opaque, compose(first, (s, t))):
            assert numkernel._axes(f, {}) == 0b010
            assert f.diff(0) is zero and f.diff(2) is zero
            assert [numeric_only(f).stencil_reach(a, 1)
                    for a in range(3)] == [0.0, H_FD, 0.0]
        # along s: the explicit partial, a stencil of the opaque leaf
        assert lift(explicit, 3, (1,)).stencil_reach(1, 1) == 0.0
        assert lifted_opaque.stencil_reach(1, 1) == H_FD

    def test_y4_sweep_differences_along_s_alone(self, leg_rows):
        # the y4 exponent 2 log s reads s alone: 9,768 stencil-leg rows,
        # where differences along all three axes take 66,600
        y4 = next(s for s in catalog_examples() if s.label == "y4")
        assert residual_report(numeric_only(y4), tol=1e-3).passed
        assert sum(leg_rows) < 15_000
