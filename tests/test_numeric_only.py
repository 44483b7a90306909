"""The contract of ``numeric_only``, the finite-difference copy of a spec.

Every spec type the fd mode strips is walked in parallel with its copy:
each field is swapped for an opaque leaf or an fd number, every value that
holds no field is the original object, and no cached derived value rides
along into the copy.
"""

import math
from dataclasses import fields, is_dataclass

import pytest

from biharm.constructor import (
    ConstructionSpec,
    build_nonflat_target,
    integrate_alpha,
)
from biharm.frames import AdaptedFrameSpec
from biharm.geometry import FrameField, ProductMetric3, SurfaceMetric
from biharm.hypersurface import (
    HopfCylinderSpec,
    SurfaceImmersion,
    vertical_cylinder,
)
from biharm.numkernel import H_FD, ChartBox, ScalarField, numeric_only
from biharm.submersion import SubmersionSpec, projection_spec
from conftest import S, field_of


def _warped():
    prof = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-3)
    spec = build_nonflat_target(ConstructionSpec(prof)).canonical
    spec.residual_fields  # fills the caches on the spec and what it holds
    assert spec.profile is not None
    assert set(vars(spec)) > {f.name for f in fields(spec)}
    return spec


def _projection():
    box = ChartBox((-1.0, 0.5, -0.5), (1.0, 3.0, 0.5), 0.05)
    spec = projection_spec(field_of(2.0 * S ** 2, 2), box, "tagged",
                           flags=("tag",))
    spec.residual_fields
    assert spec.aux_residual is not None
    return spec


def _cylinder():
    cyl = vertical_cylinder(1.0, 1.0).flipped()
    cyl.normal_fields
    assert cyl.orientation == -1
    return cyl


CASES = {
    "ProductMetric3": (ProductMetric3, lambda: _warped().domain_metric),
    "SurfaceMetric": (SurfaceMetric, lambda: _warped().target_metric),
    "FrameField": (FrameField, lambda: _warped().frame),
    "AdaptedFrameSpec": (AdaptedFrameSpec, lambda: _warped().frame_spec),
    "SurfaceImmersion": (SurfaceImmersion, _cylinder),
    "HopfCylinderSpec": (HopfCylinderSpec,
                         lambda: HopfCylinderSpec(1.0, 2.0)),
    "SubmersionSpec-warped": (SubmersionSpec, _warped),
    "SubmersionSpec-projection": (SubmersionSpec, _projection),
}


def _pairs(orig, copy):
    """(original, copy) of the object, of every init field value and of
    every tuple item below it."""
    yield orig, copy
    if type(orig) is tuple:
        assert type(copy) is tuple and len(copy) == len(orig)
        for a, b in zip(orig, copy):
            yield from _pairs(a, b)
    elif is_dataclass(orig):
        for f in fields(orig):
            yield from _pairs(getattr(orig, f.name), getattr(copy, f.name))


def _holds_field(obj):
    return any(isinstance(a, ScalarField) for a, _ in _pairs(obj, obj))


def _is_fd_leaf(f):
    """An opaque leaf (differenced along every axis), or an fd number (not
    an exact number, but its derivatives are the exact 0)."""
    if f.number is not None:
        return False
    axes = range(f.dim)
    return (all(f.stencil_reach(a, 1) == H_FD for a in axes)
            or all(f.diff(a).number == 0.0 for a in axes))


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
            assert _is_fd_leaf(b), (kind, a)
            swapped += 1
        elif not _holds_field(a):
            # labels, flags, families, boxes, orientation, profile
            assert b is a, (kind, a)
        elif is_dataclass(a):
            assert type(b) is type(a) and b is not a
            # cached_property values and owner memos stay behind
            assert set(vars(b)) <= {f.name for f in fields(b)}, kind
    assert swapped


def test_holders_without_fields_come_back_as_themselves():
    spec = _warped()
    box = spec.domain_metric.box
    values = (box, spec.profile, (1.0, "label", box), (), None, "label",
              {"profile": spec.profile})
    for value in values:
        assert numeric_only(value) is value
