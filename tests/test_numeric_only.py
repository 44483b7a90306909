"""The contract of ``numeric_only``, the finite-difference copy of a spec.

Every spec type the fd mode strips is walked in parallel with its copy:
each field, an exact number included, is swapped for an opaque leaf, every
value that holds no field is the original object, and no cached derived
value rides along into the copy.  An opaque leaf is differenced along the
axes its original reads and is the exact 0 along the rest.
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
from biharm.frames import AdaptedFrameSpec, SeededUniform, random_adapted_specs
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
from conftest import S, T, field_of, flipped


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
    return any(isinstance(a, ScalarField) for a, _ in _pairs(obj, obj))


def _is_fd_leaf(f, original):
    """An opaque leaf, not an exact number: differenced along every axis its
    original reads, the exact 0 along the rest (along every axis, for the
    copy of a number)."""
    if f.number is not None:
        return False
    reads = numkernel._axes(original, {})
    return all(f.stencil_reach(a, 1) == H_FD if reads >> a & 1
               else f.diff(a).number == 0.0 for a in range(f.dim))


@pytest.mark.parametrize("kind", list(CASES))
def test_walk_contract(kind):
    cls, make = CASES[kind]
    orig = make()
    assert type(orig) is cls
    copy = numeric_only(orig)
    assert type(copy) is cls and copy is not orig
    swapped = 0
    for a, b in _pairs(orig, copy):
        if isinstance(a, ScalarField):
            assert b is not a and b.dim == a.dim
            assert _is_fd_leaf(b, a), (kind, a)
            swapped += 1
        elif not _holds_field(a):
            # labels, families, boxes, orientation, profile
            assert b is a, (kind, a)
        elif isinstance(a, Record):
            assert type(b) is type(a) and b is not a
            # cached_property values and owner memos stay behind
            assert set(vars(b)) <= set(b._fields), kind
    assert swapped


def test_holders_without_fields_come_back_as_themselves():
    spec = _warped()
    box = spec.domain_metric.box
    values = (box, spec.profile, (1.0, "label", box), (), None, "label",
              {"profile": spec.profile})
    for value in values:
        assert numeric_only(value) is value


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
