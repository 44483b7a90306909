"""The record base: construction, immutability, identity, repr and
``replace``, and an import of the package that generates no code and
loads none of its modules."""

import math
import subprocess
import sys

import pytest

from biharm.constructor import ConstructionSpec, integrate_alpha
from biharm.frames import AdaptedFrameSpec
from biharm.hypersurface import (
    CmcClassification,
    HopfCylinderSpec,
    surface_geometry,
    vertical_cylinder,
)
from biharm.numkernel import ChartBox, ScalarField
from biharm.record import Record, replace
from biharm.report import Channel, build_report
from biharm.submersion import ScanRoot, catalog_examples
from conftest import at_point

# counts the code objects compiled from strings that run while biharm and
# its command line are imported, after the modules they share with any
# Python program are in
_IMPORT_CHECK = """
import argparse, json, sys
import numpy
execs = []
def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", "") == "<string>":
        execs.append(args[0].co_name)
sys.addaudithook(hook)
import biharm, biharm.cli
print(len(execs), "dataclasses" in sys.modules)
"""


def test_import_generates_no_code():
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHECK],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False"]


def test_package_import_loads_no_module():
    # the package exports no names: a caller imports the submodule it uses
    out = subprocess.run(
        [sys.executable, "-c", "import sys, biharm\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.startswith(('biharm.', 'numpy'))))"],
        capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        box = ChartBox((-1.0,), (1.0,))
        assert (box.lower, box.upper, box.guard) == ((-1.0,), (1.0,), 0.0)
        assert ChartBox(upper=(1.0,), lower=(-1.0,), guard=0.5).guard == 0.5
        assert ChartBox((-1.0,), upper=(1.0,), guard=0.5).guard == 0.5
        spec = ConstructionSpec(integrate_alpha(0.8, 0.1, -0.01, (0.0, 1.0),
                                                1e-2))
        box = spec.u_box
        assert (box.lower, box.upper, box.guard) == ((-1.0,), (1.0,), 0.0)
        assert spec.branch_sign == 1

    @pytest.mark.parametrize("args, kwargs, message", [
        (((-1.0,),), {}, "missing required argument 'upper'"),
        ((), {"lower": (-1.0,), "guard": 0.0}, "missing required argument"),
        (((-1.0,), (1.0,)), {"width": 2.0}, "unexpected keyword argument"),
        (((-1.0,), (1.0,)), {"lower": (0.0,)}, "multiple values for "
                                                "argument 'lower'"),
        (((-1.0,), (1.0,), 0.0, 1.0), {}, "takes 3 positional arguments "
                                           "but 4 were given"),
    ])
    def test_bad_arguments_are_type_errors(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            ChartBox(*args, **kwargs)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="lower < upper"):
            ChartBox((1.0,), (1.0,))
        spec = AdaptedFrameSpec(0.5, 0.25)
        assert isinstance(spec.theta, ScalarField) and spec.theta.dim == 3

    def test_a_required_field_after_a_default_is_refused(self):
        with pytest.raises(TypeError, match="follows one with a default"):
            class Bad(Record):
                first: int = 0
                second: int


class TestFrozen:
    @pytest.mark.parametrize("make", [
        lambda: ChartBox((-1.0,), (1.0,)),
        lambda: Channel("r1", 0.25, (0.0,)),
        lambda: catalog_examples()[0],
    ], ids=["ChartBox", "Channel", "SubmersionSpec"])
    def test_fields_cannot_be_assigned_or_deleted(self, make):
        record = make()
        name = record._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="cannot assign"):
            record.other = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        assert getattr(record, name) is value

    def test_cached_properties_still_cache(self):
        spec = catalog_examples()[0]
        assert spec.frame is spec.frame
        assert "frame" in vars(spec)


class TestEquality:
    def test_identity_records_compare_by_identity(self):
        # records with equal fields, array fields included: neither == nor
        # hash reads a field
        for make in (lambda: ChartBox((-1.0,), (1.0,)),
                     lambda: Channel("r", 1.0, (0.0,)),
                     lambda: ScanRoot(1.0, "proper"),
                     lambda: HopfCylinderSpec(1.0, 2.0),
                     lambda: catalog_examples()[0],
                     lambda: at_point(surface_geometry,
                                      vertical_cylinder(1.0, 1.0),
                                      point=(0.1, 0.0))):
            a, b = make(), make()
            assert a == a and a != b and not a == b
            assert hash(a) == object.__hash__(a) and len({a, b}) == 2
            # a record equals no tuple of its values
            assert a != tuple(getattr(a, name) for name in a._fields)

    def test_record_defines_neither_eq_nor_hash(self):
        assert "__eq__" not in vars(Record) and "__hash__" not in vars(Record)

    def test_an_eq_option_is_refused(self):
        with pytest.raises(TypeError):
            class X(Record, eq=False):
                field: int


class TestReplace:
    def test_replace_runs_post_init(self):
        box = ChartBox((-1.0,), (1.0,), 0.1)
        moved = replace(box, guard=0.2)
        assert (moved.lower, moved.upper, moved.guard) == ((-1.0,), (1.0,),
                                                           0.2)
        with pytest.raises(ValueError, match="guard must be nonnegative"):
            replace(box, guard=-1.0)
        spec = replace(AdaptedFrameSpec(0.5, 0.25), alpha=0.75)
        assert isinstance(spec.alpha, ScalarField)
        assert spec.alpha((0.0, 0.0, 0.0)) == 0.75

    def test_replace_keeps_the_other_fields_and_drops_caches(self):
        spec = catalog_examples()[1]
        spec.frame
        copy = replace(spec, label="other")
        assert copy.label == "other" and copy.family == spec.family
        assert copy.domain_metric is spec.domain_metric
        assert "frame" not in vars(copy)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            replace(ChartBox((-1.0,), (1.0,)), width=1.0)


def test_repr_text():
    assert repr(ChartBox((-1.0, 0.5), (1.0, 3.0), 0.05)) == (
        "ChartBox(lower=(-1.0, 0.5), upper=(1.0, 3.0), guard=0.05)")
    report = build_report("y4", 1e-6, [Channel("r1", 0.25, (0.0, 1.5))], 9,
                          classification="proper biharmonic", notes=("a",))
    assert repr(report) == (
        "ResidualReport(case_label='y4', points_checked=9, "
        "channels=(Channel(name='r1', max_abs=0.25, at=(0.0, 1.5)),), "
        "tolerance=1e-06, verdict='fail', classification='proper "
        "biharmonic', notes=('a',))")
    assert repr(CmcClassification("minimal", 0.0, details={"H": 0.0})) == (
        "CmcClassification(kind='minimal', mean_curvature=0.0, "
        "sphere_radius=nan, circle_radius=nan, details={'H': 0.0})")
    assert repr(HopfCylinderSpec(2.0, 1.0)) == (
        "HopfCylinderSpec(geodesic_curvature=ScalarField(2.0, dim=1), "
        "base_curvature=ScalarField(1.0, dim=1))")
    assert math.isnan(CmcClassification("minimal", 0.0).sphere_radius)
