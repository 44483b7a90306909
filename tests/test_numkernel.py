import gc
import math
import sys
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from biharm import numkernel
from biharm.errors import DegenerateBox, NonFiniteValue
from biharm.numkernel import (
    H_FD,
    H_FD3,
    ChartBox,
    ScalarField,
    compose,
    directional_field,
    fatan2,
    fcos,
    flog,
    fsin,
    lift,
    numeric_only,
    one_or_all,
    sample_grid,
)
from conftest import (
    S,
    T,
    X,
    field_of,
    field_of_text,
    graph_nodes,
    in_mode,
)


def const(v, dim=3):
    return ScalarField.constant(v, dim)


class TestPartialDerivative:
    def test_square_first(self):
        f = field_of_text("s**2", ("t", "s", "z"))
        assert f.partial((0.0, 2.0, 0.0), 1, 1) == pytest.approx(4.0)

    def test_square_second(self):
        f = field_of_text("s**2", ("t", "s", "z"))
        assert f.partial((0.0, 2.0, 0.0), 1, 2) == pytest.approx(2.0)

    def test_sin_third_analytic(self):
        f = field_of_text("sin(s)", ("s",))
        assert f.partial((0.0,), 0, 3) == pytest.approx(-1.0, abs=1e-12)

    def test_sin_third_fd(self):
        f = ScalarField(fn=lambda b: np.sin(b[:, 0]), dim=1)
        assert f.partial((0.0,), 0, 3) == pytest.approx(-1.0, abs=1e-4)

    def test_explicit_partials_win_over_stencils(self):
        f = _exp_leaf(2)
        assert f.partial((0.3,), 0, 2) == pytest.approx(math.exp(0.3), abs=1e-15)
        # third order nests a difference of the explicit second derivative
        assert f.partial((0.3,), 0, 3) == pytest.approx(math.exp(0.3), abs=1e-6)

    def test_explicit_partials_need_a_1d_leaf(self):
        def first(b):
            return b[:, 0]

        with pytest.raises(ValueError, match="1-D leaf"):
            ScalarField(first, 2, (first,))

    def test_nonfinite(self):
        f = ScalarField(fn=lambda b: math.inf, dim=1)
        with pytest.raises(NonFiniteValue):
            f((0.0,))

    @pytest.mark.parametrize("expr,third", [
        (sp.sin(S), True),
        (sp.exp(S), True),
        (S**4 + 3 * S**2, True),
    ])
    def test_fd_matches_analytic_to_h_squared(self, expr, third):
        f = field_of(expr.subs(S, T), 1)
        g = numeric_only(f)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = (float(rng.uniform(-1, 1)),)
            scale = 1.0 + abs(f(x))
            assert abs(g.partial(x, 0, 1) - f.partial(x, 0, 1)) <= 50 * H_FD**2 * scale
            assert abs(g.partial(x, 0, 2) - f.partial(x, 0, 2)) <= 1e-5 * scale
            if third:
                assert abs(g.partial(x, 0, 3) - f.partial(x, 0, 3)) <= 1e-3 * scale


class TestFrameDerivative:
    def test_unit_axis(self):
        f = field_of_text("s**3", ("t", "s", "z"))
        comps = (const(0.0), const(1.0), const(0.0))
        assert directional_field(comps, f)((0.0, 1.0, 0.0)) == pytest.approx(3.0)

    def test_weighted_leg_flat(self):
        f = field_of_text("t", ("t", "s", "z"))
        comps = (const(1.0), const(0.0), const(0.0))  # e^{-q} with q = 0
        assert directional_field(comps, f)((0.3, 0.7, 0.1)) == pytest.approx(1.0)

    def test_cotangent_slope(self):
        # f = q_s for q = log(sin s); its s-derivative at pi/2 is -1
        q = field_of_text("log(sin(s))", ("t", "s", "z"))
        f = q.diff(1)
        comps = (const(0.0), const(1.0), const(0.0))
        val = directional_field(comps, f)((0.0, math.pi / 2, 0.0))
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f = field_of_text("sin(t)*s", ("t", "s", "z"))
        g = field_of_text("exp(s)+t**2", ("t", "s", "z"))
        comps = (
            field_of_text("cos(s)", ("t", "s", "z")),
            const(1.0),
            const(0.5),
        )
        for _ in range(5):
            p = tuple(rng.uniform(-1, 1, size=3))
            a, b = rng.uniform(-2, 2, size=2)
            lhs = directional_field(comps, a * f + b * g)(p)
            rhs = (a * directional_field(comps, f)(p)
                   + b * directional_field(comps, g)(p))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_mixed_partials_commute(self):
        f = ScalarField(fn=lambda b: np.sin(b[:, 0]) * np.exp(b[:, 1]), dim=2)
        p = (0.4, -0.2)
        dts = f.diff(0).diff(1)(p)
        dst = f.diff(1).diff(0)(p)
        assert dts == pytest.approx(dst, abs=1e-6)

    def test_nesting_matches_symbolic(self):
        # e2(e2(f)) through directional fields vs the exact second partial
        f = field_of_text("s**3 + sin(s)", ("t", "s", "z"))
        comps = (const(0.0), const(1.0), const(0.0))
        inner = directional_field(comps, f)
        outer = directional_field(comps, inner)
        p = (0.0, 0.8, 0.0)
        exact = 6 * 0.8 - math.sin(0.8)
        assert outer(p) == pytest.approx(exact, abs=1e-12)


class TestSampleGrid:
    def test_guarded_corners(self):
        box = ChartBox((0.0, 0.0), (1.0, 1.0), 0.1)
        pts = sample_grid(box, (2, 2))
        assert pts == [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]

    def test_unit_interval(self):
        box = ChartBox((0.0,), (1.0,))
        assert sample_grid(box, (3,)) == [(0.0,), (0.5,), (1.0,)]

    def test_guard_respected(self):
        box = ChartBox((0.0, 0.2), (math.pi, 1.4), 0.05)
        pts = sample_grid(box, (5, 5))
        assert len(pts) == 25
        assert min(p[1] for p in pts) == pytest.approx(0.25)

    def test_degenerate(self):
        with pytest.raises(DegenerateBox):
            sample_grid(ChartBox((0.0,), (1.0,), 0.6), (3,))


class TestFieldAlgebra:
    def test_lift_keeps_values_and_partials(self):
        f = field_of_text("sin(y)", ("y",))
        g = lift(f, 3, (1,))
        p = (0.3, 0.7, -0.2)
        assert g(p) == pytest.approx(math.sin(0.7))
        assert g.partial(p, 1, 1) == pytest.approx(math.cos(0.7), abs=1e-12)
        assert g.partial(p, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_compose_chain_rule(self):
        f = field_of_text("x**2 + y", ("x", "y"))
        u = field_of_text("sin(u)", ("u", "v"))
        v = field_of_text("u*v", ("u", "v"))
        h = compose(f, (u, v))
        p = (0.5, 0.8)
        expected = math.sin(0.5) ** 2 + 0.5 * 0.8
        assert h(p) == pytest.approx(expected, abs=1e-13)
        dd = 2 * math.sin(0.5) * math.cos(0.5) + 0.8
        assert h.partial(p, 0, 1) == pytest.approx(dd, abs=1e-12)

    def test_product_of_leaves_keeps_derivatives(self):
        f = field_of_text("exp(2*s)", ("t", "s", "z"))
        prod = f * f
        p = (0.0, 0.4, 0.0)
        assert prod(p) == f(p) * f(p)
        assert prod.diff(1)(p) == pytest.approx(4 * math.exp(4 * 0.4), abs=1e-11)
        assert prod.diff(1).diff(1)(p) == pytest.approx(
            16 * math.exp(4 * 0.4), abs=1e-10)


class TestLeavesOnly:
    """A combination of fields that are not exact numbers is derived by a
    rule, and exact numbers fold."""

    def test_combinations_of_leaves_are_derived(self):
        f = field_of_text("sin(t) + s", ("t", "s", "z"))
        g = field_of_text("exp(s*z)", ("t", "s", "z"))
        w = field_of_text("x*y", ("x", "y"))
        combined = {
            "sum": f + g, "product": f * g, "quotient": f / g,
            "compose": compose(w, (f, g)),
            "directional": directional_field((f, g, f), g),
            "sin": fsin(f),
        }
        p = (0.3, 0.7, -0.2)
        for label, h in combined.items():
            assert h.number is None, label
            assert math.isfinite(h.diff(1)(p)), label

    def test_numbers_fold(self):
        f = field_of_text("sin(t) + s", ("t", "s", "z"))
        two, three = const(2.0), const(3.0)
        assert (two * three).number == 6.0
        assert (two / three - three).number == 2.0 / 3.0 - 3.0
        assert fsin(const(0.0)).number == 0.0
        assert fatan2(const(1.0), const(-1.0)).number == math.atan2(1, -1)
        assert (const(0.0) * f).number == 0.0
        assert const(1.0) * f is f
        assert f + 0.0 is f and f - 0.0 is f
        w = field_of_text("x*y", ("x", "y"))
        assert compose(const(2.0, 2), (f, f)).number == 2.0
        assert compose(w, (f, f)).number is None
        assert directional_field((f, f, f), two).number == 0.0
        # a number that is undefined is not finite when evaluated
        with pytest.raises(NonFiniteValue):
            (two / const(0.0))((0.1, 0.2, 0.3))
        with pytest.raises(NonFiniteValue):
            flog(const(-1.0))((0.1, 0.2, 0.3))

    def test_float_leaf_keeps_every_digit(self):
        # a number is the double it was given
        x = ScalarField.coordinate(0, 1)
        f = fcos(ScalarField.constant(math.pi / 2, 1) * x)
        assert f((1.0,)) == math.cos(math.pi / 2)


class TestBatchEvaluation:
    """A batch of points gives what its points give one at a time."""

    POINTS = [(0.1 * k - 0.3, 0.25 + 0.05 * k, 0.2 - 0.07 * k)
              for k in range(9)]

    def test_symbolic_leaf(self):
        f = field_of_text("exp(t)*sin(s) + z**3 - log(1 + s)",
                                  ("t", "s", "z"))
        values = f(np.array(self.POINTS))
        assert values.shape == (len(self.POINTS),)
        assert values.tolist() == [f(p) for p in self.POINTS]

    def test_callable_receives_the_batch(self):
        # a callable sees the whole (n, dim) batch, a single point included
        seen = []

        def fn(b):
            seen.append(b.shape)
            return b[:, 0] * b[:, 1]

        f = ScalarField(fn=fn, dim=2)
        assert f(np.array([[1.0, 2.0], [3.0, 4.0]])).tolist() == [2.0, 12.0]
        assert f((3.0, 4.0)) == 12.0
        assert seen == [(2, 2), (1, 2)]

    def test_type_error_in_callable_propagates(self):
        def point_only(p):
            return math.sin(p[0])  # TypeError on a column of two values

        batch = np.array([[0.1], [0.5]])
        with pytest.raises(TypeError):
            ScalarField(fn=point_only, dim=1)(batch)
        explicit = ScalarField(fn=lambda b: b[:, 0], dim=1,
                               partials=(point_only,))
        with pytest.raises(TypeError):
            explicit.partial(batch, 0, 1)

    def test_profile_field_with_explicit_partials(self):
        from biharm.constructor import integrate_alpha

        profile = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-2)
        alpha = profile.field(dim=3, axis=1)
        batch = np.array(self.POINTS)
        assert alpha(batch).tolist() == [alpha(p) for p in self.POINTS]
        for axis in (0, 1):
            for order in (1, 2, 3):
                assert alpha.partial(batch, axis, order).tolist() == [
                    alpha.partial(p, axis, order) for p in self.POINTS
                ]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_numeric_only_partials(self, order):
        f = field_of_text("sin(t + 2*s) * exp(s*z)", ("t", "s", "z"))
        g = numeric_only(f)
        batch = np.array(self.POINTS)
        for axis in range(3):
            together = g.partial(batch, axis, order)
            alone = np.array([g.partial(p, axis, order) for p in self.POINTS])
            np.testing.assert_allclose(together, alone, rtol=1e-12, atol=0)

    def test_nonfinite_names_first_point(self):
        f = ScalarField(
            fn=lambda b: np.where(b[:, 0] > 0.15, np.inf, b[:, 0]), dim=1
        )
        batch = np.array([[0.0], [0.1], [0.2], [0.3], [-0.5]])
        with pytest.raises(NonFiniteValue, match=r"at \(0\.2,\)"):
            f(batch)
        with pytest.raises(NonFiniteValue, match=r"at \(0\.2,\)"):
            (f * 2.0 + 1.0)(batch)


def _exp_leaf(count):
    """exp as a 1-D explicit leaf with ``count`` explicit partials."""
    def exp(b):
        return np.exp(b[:, 0])
    return ScalarField(exp, 1, (exp,) * count)


def _explicit_exp(count=3):
    """exp(t + 2s - z): the explicit leaf of exp with ``count`` partials,
    pulled back through t + 2s - z."""
    return compose(_exp_leaf(count),
                   (field_of_text("t + 2*s - z", ("t", "s", "z")),))


def _leaf_kinds():
    """One field of every kind, on a 3-chart: (label, field, opaque leaf)."""
    from biharm.constructor import integrate_alpha

    sym = field_of_text("sin(t + 2*s) * exp(s*z)", ("t", "s", "z"))
    fd = numeric_only(sym)
    explicit = _explicit_exp()
    profile = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-2)
    u = field_of_text("t + s*s", ("t", "s", "z"))
    v = field_of_text("s - z", ("t", "s", "z"))
    w = field_of_text("sin(x) + x*y", ("x", "y"))
    return [
        ("closed-form", sym, False),
        ("explicit", explicit, False),
        ("explicit-two-partials", _explicit_exp(2), False),
        ("alpha-profile", profile.field(dim=3, axis=1), False),
        ("numeric-only", fd, True),
        ("algebra", fd * sym + explicit / (1.0 + sym * sym), False),
        ("compose", compose(numeric_only(w), (u, fd)), False),
        ("directional", directional_field((sym, explicit, fd), fd), False),
        ("lifted-explicit", lift(profile.field(dim=1, axis=0), 3, (1,)),
         False),
        ("lifted-numeric-only", lift(numeric_only(w), 3, (2, 0)), False),
    ]


class TestDerivativeRoute:
    """Every derivative follows from ``diff``; an opaque leaf's pure partial
    is one direct stencil."""

    BATCH = np.array([(0.1 * k - 0.3, 0.25 + 0.05 * k, 0.2 - 0.07 * k)
                      for k in range(5)])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_partial_is_the_diff_chain(self, order):
        for label, f, opaque_leaf in _leaf_kinds():
            if opaque_leaf:
                continue
            for axis in range(3):
                chain = f
                for _ in range(order):
                    chain = chain.diff(axis)
                got = f.partial(self.BATCH, axis, order)
                assert np.array_equal(got, chain(self.BATCH)), (label, axis)

    def test_opaque_second_partial_is_one_stencil(self):
        g = numeric_only(field_of_text("sin(t + 2*s) * exp(s*z)",
                                       ("t", "s", "z")))
        for axis in range(3):
            up, dn = self.BATCH.copy(), self.BATCH.copy()
            up[:, axis] += H_FD
            dn[:, axis] -= H_FD
            expected = (g(up) - 2.0 * g(self.BATCH) + g(dn)) / (H_FD * H_FD)
            assert np.array_equal(g.partial(self.BATCH, axis, 2), expected)

    def test_stencil_reach(self):
        kinds = {label: f for label, f, _ in _leaf_kinds()}
        for axis in range(3):
            for order in (1, 2, 3):
                for label in ("closed-form", "explicit", "alpha-profile",
                              "lifted-explicit"):
                    assert kinds[label].stencil_reach(axis, order) == 0.0
        fd = kinds["numeric-only"]
        # an opaque leaf: its diff, then one direct stencil per order
        assert fd.stencil_reach(1, 1) == H_FD
        assert fd.stencil_reach(1, 2) == H_FD
        assert fd.stencil_reach(1, 3) == H_FD3 + H_FD
        # stencils over stencil nodes: the sum of their steps; a first
        # partial is diff's, with H_FD3 from the third stacked difference on
        node = fd.diff(0)
        assert node.stencil_reach(0, 1) == H_FD + H_FD
        assert fd.diff(0).diff(0).diff(0).stencil_reach(1, 1) == \
            H_FD + H_FD + H_FD3 + H_FD3
        # explicit partials beyond the given ones are differenced
        assert kinds["explicit-two-partials"].stencil_reach(1, 3) == H_FD
        # a derived field: the largest reach among its inputs
        prod = fd * node
        assert prod.stencil_reach(0, 1) == H_FD + H_FD
        assert prod.stencil_reach(0, 3) == H_FD + H_FD + H_FD3 + H_FD3
        assert kinds["algebra"].stencil_reach(2, 2) == H_FD + H_FD
        # a directional derivative differences its field as it evaluates
        assert kinds["directional"].stencil_reach(0, 1) == H_FD + H_FD
        assert kinds["lifted-numeric-only"].stencil_reach(1, 1) == 0.0
        assert kinds["lifted-numeric-only"].stencil_reach(2, 1) == H_FD

    @pytest.mark.parametrize("order,reach", [
        (1, H_FD), (2, H_FD), (3, H_FD3 + H_FD)])
    def test_box_clearance_is_the_reach(self, order, reach):
        # the clearance from a box edge that a pure partial of an opaque
        # leaf needs
        f = ScalarField(fn=lambda b: np.sin(b[:, 0]), dim=1)
        assert f.stencil_reach(0, order) == reach


# -- chain rule against sympy ------------------------------------------------

# every derivative rule of the field graph, with arguments kept where the
# functions are defined and moderate
_ORACLE_RULES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (2 + sp.sin(b)),
    "powers": lambda a, b: a ** 2 + b ** 3,
    "atan2": lambda a, b: sp.atan2(a, 2 + sp.cos(b)),
    "sin": lambda a, b: sp.sin(a),
    "cos": lambda a, b: sp.cos(a),
    "exp": lambda a, b: sp.exp(sp.sin(a)),
    "log": lambda a, b: sp.log(2 + sp.sin(a)),
    "tan": lambda a, b: sp.tan(sp.sin(a)),
    "sqrt": lambda a, b: sp.sqrt(2 + sp.cos(a)),
    "atan": lambda a, b: sp.atan(a),
    "cosh": lambda a, b: sp.cosh(sp.sin(a)),
    "sinh": lambda a, b: sp.sinh(sp.cos(a)),
}


def _oracle_expressions():
    leaves = st.sampled_from(X) | st.floats(-2.0, 2.0).map(sp.Float)

    def extend(children):
        return st.tuples(st.sampled_from(list(_ORACLE_RULES.values())),
                         children, children).map(lambda p: p[0](p[1], p[2]))
    return st.recursive(leaves, extend, max_leaves=3)


ORACLE_BATCH = np.array([(0.1 * k - 0.4, 0.7 - 0.15 * k, 0.3 + 0.1 * k)
                         for k in range(6)])


@pytest.mark.parametrize("rule", _ORACLE_RULES)
@given(a=_oracle_expressions(), b=_oracle_expressions(),
       axes=st.lists(st.sampled_from((0, 1, 2)), min_size=4, max_size=4))
def test_chain_rule_partials_match_sympy(rule, a, b, axes):
    # a third derivative route, next to the chain rule and the stencils:
    # sympy differentiates the same closed form symbolically
    exact = _ORACLE_RULES[rule](a + X[0], b + X[1])
    field = field_of(exact, 3)
    for order in range(5):
        at_point = sp.lambdify(X, exact, modules=["math"],
                               docstring_limit=0)
        want = np.array([float(at_point(*p)) for p in ORACLE_BATCH.tolist()])
        got = field(ORACLE_BATCH)
        scale = 1.0 + np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * scale,
                                   err_msg=f"{exact} along {axes[:order]}")
        if order < 4:
            field = field.diff(axes[order])
            exact = sp.diff(exact, X[axes[order]])


def test_numeric_only_number_keeps_zero_derivative():
    # an exact number has no derivative route to remove: its copy is itself,
    # so fd graphs fold it as analytic graphs do
    batch = np.array([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
    x = ScalarField.coordinate(1, 3)
    for value in (2.0, -0.0, 0.0, 1.0, math.nan, math.inf):
        number = ScalarField.constant(value, 3)
        assert numeric_only(number) is number
        for axis in range(3):
            assert number.diff(axis) is ScalarField.constant(0.0, 3)
            for order in (1, 2, 3):
                assert number.stencil_reach(axis, order) == 0.0
        if math.isfinite(value):
            assert numeric_only(x * 3.0 + number)(batch).tobytes() == (
                numeric_only(x * 3.0)(batch) + value).tobytes()
        else:
            # a NaN or an infinity stays exact too, and still names the
            # first point when evaluated
            with pytest.raises(NonFiniteValue,
                               match=r"(nan|inf) at \(0\.1, 0\.2, 0\.3\)"):
                (numeric_only(x) * numeric_only(number))(batch)
    # a coordinate is a leaf like any other closed form: differenced in fd
    assert x.diff(1).number == 1.0 and x.diff(0).number == 0.0
    fd = numeric_only(x)
    assert fd is not x and fd.number is None
    assert fd.stencil_reach(1, 1) == H_FD
    assert fd.diff(0) is ScalarField.constant(0.0, 3)


def _outcome(field, batch):
    """The bytes of ``field``'s values on ``batch``, or the message of the
    NonFiniteValue it raises."""
    try:
        return field(batch).tobytes()
    except NonFiniteValue as err:
        return str(err)


# 1e300 overflows on both routes alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumbersInRules:
    """A finite exact number enters a rule as its float; the values are
    those of the same rule on an array of copies of it (an opaque leaf of
    constant value, which no rule folds), bit for bit.  A NaN or an
    infinity raises as before."""

    BATCH = np.array([(0.1, 0.2, 0.3), (0.4, -0.5, 0.6), (-0.7, 0.8, 0.9)])
    NUMBERS = (-0.0, 2.5, -3.0, 1e-300, 1e300, 1.0 / 3.0)

    @staticmethod
    def _field():
        return field_of_text("sin(t) + 2 + s*z", ("t", "s", "z"))

    @staticmethod
    def _filled(c):
        """``c`` as an opaque leaf that reads no axis: its values are an
        array of copies of the number."""
        filled = numkernel._derived(c.dim, numkernel._leaf_values, None, c, 0)
        assert filled.number is None
        return filled

    def test_algebra_on_either_side(self):
        f = self._field()
        compared = 0
        for value in self.NUMBERS:
            c = const(value)
            for op in ("+", "-", "*", "/"):
                for lhs, rhs in ((f, c), (c, f)):
                    exact = lhs._binary(rhs, op)
                    if exact is f or exact.number is not None:
                        continue  # folded: no number reaches a rule
                    filled = (lhs._binary(self._filled(c), op) if lhs is f
                              else self._filled(c)._binary(rhs, op))
                    assert (_outcome(exact, self.BATCH)
                            == _outcome(filled, self.BATCH)), (value, op)
                    compared += 1
        assert compared >= 40

    def test_compose_frame_derivative_and_atan2(self):
        f = self._field()
        g = field_of_text("x*x - 3*y", ("x", "y"))
        for value in self.NUMBERS:
            c = const(value)
            filled = self._filled(c)
            pairs = [
                (compose(g, (f, c)), compose(g, (f, filled))),
                (compose(g, (c, f)), compose(g, (filled, f))),
                (fatan2(c, f), fatan2(filled, f)),
                (fatan2(f, c), fatan2(f, filled)),
                (directional_field((c, f, c), f),
                 directional_field((filled, f, filled), f)),
            ]
            for exact, fd in pairs:
                assert (_outcome(exact, self.BATCH)
                        == _outcome(fd, self.BATCH)), value
            assert (directional_field((f, c, c), f)(self.BATCH).tobytes()
                    == directional_field((f, filled, filled),
                                         f)(self.BATCH).tobytes())

    @pytest.mark.parametrize("make", [
        lambda: const(math.nan), lambda: const(math.inf),
        lambda: const(-math.inf), lambda: const(1.0) / const(0.0),
    ], ids=["nan", "inf", "-inf", "fold-of-1/0"])
    def test_non_finite_number_names_the_first_point(self, make):
        f = self._field()
        number = make()
        assert not math.isfinite(number.number)
        first = r"evaluated to -?(nan|inf) at \(0\.1, 0\.2, 0\.3\)"
        with pytest.raises(NonFiniteValue, match=first):
            (f * number)(self.BATCH)
        with pytest.raises(NonFiniteValue, match=first):
            (number - f)(self.BATCH)
        # the outer point is named, not the point of the inner batch
        g = field_of_text("x + y", ("x", "y"))
        with pytest.raises(NonFiniteValue, match=first):
            compose(g, (f, number))(self.BATCH)
        with pytest.raises(NonFiniteValue, match=first):
            directional_field((f, number, f), f)(self.BATCH)


def _composes(field):
    return [f for f in graph_nodes(field)
            if f._values is numkernel._compose_values]


# (chart dimension of the field, target dimension, target axes)
_LIFTS = [(1, 2, (1,)), (1, 3, (2,)), (2, 3, (0, 1)), (2, 3, (2, 0))]


def _assert_lift_is_compose(field, dim, axes, closed_form):
    """lift(field) against compose(field, coordinates): values and every
    pure and mixed partial up to order 3, byte for byte, and exact numbers
    where compose has them; without a compose node for a closed form."""
    lifted = lift(field, dim, axes)
    oracle = compose(field, [ScalarField.coordinate(a, dim) for a in axes])
    batch = ORACLE_BATCH[:, :dim]
    level = [(lifted, oracle)]
    for order in range(4):
        for got, want in level:
            assert (got.number is None) == (want.number is None)
            assert got(batch).tobytes() == want(batch).tobytes()
            if closed_form:
                assert not _composes(got)
        if order < 3:
            level = [(got.diff(a), want.diff(a)) for got, want in level
                     for a in range(dim)]


class TestLift:
    """``lift`` rebuilds a closed form over the new chart's coordinates and
    pulls any other node back by ``compose``; both give compose's bits."""

    @pytest.mark.parametrize("rule", _ORACLE_RULES)
    @pytest.mark.parametrize("low, dim, axes", _LIFTS)
    def test_closed_form_matches_compose(self, rule, low, dim, axes):
        exact = _ORACLE_RULES[rule](X[0] + 0.3, 0.5 * X[low - 1] - 0.2)
        _assert_lift_is_compose(field_of(exact, low), dim, axes, True)

    @given(a=_oracle_expressions(), b=_oracle_expressions(),
           lifting=st.sampled_from(_LIFTS))
    def test_drawn_closed_forms(self, a, b, lifting):
        low, dim, axes = lifting
        exact = (a * sp.cos(b)).subs({X[2]: X[0] - X[low - 1]})
        if low == 1:
            exact = exact.subs(X[1], 0.5 * X[0])
        _assert_lift_is_compose(field_of(exact, low), dim, axes, True)

    def test_leaves_lift_through_compose(self):
        from biharm.constructor import integrate_alpha

        # one compose node over those of the original: the profile's field
        # on a 1-chart is its explicit leaf pulled back already
        profile = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-2)
        explicit = _exp_leaf(3)
        w = field_of_text("sin(x) + x*y", ("x", "y"))
        x = ScalarField.coordinate(0, 2)
        for field, dim, axes in [
                (explicit, 3, (2,)),
                (fsin(explicit) * ScalarField.coordinate(0, 1), 3, (2,)),
                (profile.field(dim=1, axis=0), 3, (2,)),
                (numeric_only(w), 3, (2, 0)),
                (flog(2.0 + fcos(numeric_only(w) * x)), 3, (0, 1))]:
            lifted = lift(field, dim, axes)
            assert len(_composes(lifted)) == len(_composes(field)) + 1
            _assert_lift_is_compose(field, dim, axes, False)

    @pytest.mark.parametrize("text", ["sin(x) / (2 + cos(x))",
                                      "atan2(sin(x), 2 + cos(x))"])
    def test_quotient_constant_along_an_axis_is_zero(self, text):
        # its numerator folds to 0, so the quotient rule gives the number
        f = field_of_text(text, ("x", "y"))
        assert f.diff(1) is const(0.0, 2)
        assert f.diff(0).diff(1) is const(0.0, 2)
        assert f.diff(0).number is None

    def test_shared_nodes_stay_shared(self):
        x = ScalarField.coordinate(0, 1)
        shared = fsin(x)
        lifted = lift(shared * shared + shared, 3, (1,))
        assert len([f for f in graph_nodes(lifted)
                    if f._values is numkernel._unary_values]) == 1

    def test_a_dropped_lift_is_freed_at_once(self):
        # nothing is left for the cyclic collector: a lifted graph, and the
        # leaf it pulls back, go when the last reference does
        field = fsin(_exp_leaf(3)) * ScalarField.coordinate(0, 1)
        gc.collect()
        gc.disable()
        try:
            lift(field, 3, (2,))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSharedUnits:
    """The numbers +0.0 and 1.0 are one field per dimension."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_one_are_shared(self, dim):
        assert ScalarField.constant(0.0, dim) is ScalarField.constant(0, dim)
        assert ScalarField.constant(1.0, dim) is ScalarField.constant(1, dim)
        assert ScalarField.coordinate(0, dim).diff(0) is const(1.0, dim)
        assert const(2.0, dim).diff(0) is const(0.0, dim)

    def test_negative_zero_keeps_its_sign_and_is_not_shared(self):
        neg = const(-0.0, 2)
        assert math.copysign(1.0, neg.number) == -1.0
        assert neg is not const(0.0, 2) and neg is not const(-0.0, 2)
        assert math.copysign(1.0, neg((0.3, 0.4))) == -1.0

    def test_lift_of_the_shared_zero_stays_shared(self):
        assert lift(const(0.0, 1), 3, (1,)) is const(0.0)
        assert lift(const(1.0, 2), 3, (2, 0)) is const(1.0)


def _left_sum(terms):
    """x + 1*y + 2*y + ... on a 2-D chart, one graph level per term, and
    its values, summed in the same order, on two points."""
    x, y = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)
    total = x
    for k in range(1, terms):
        total = total + k * y
    batch = np.array([(0.3, 0.7), (-1.1, 0.2)])
    want = []
    for px, py in batch.tolist():
        ref = px
        for k in range(1, terms):
            ref = ref + k * py
        want.append(ref)
    return total, batch, want


def _headroom():
    """How many more Python frames fit on the stack from here."""
    def down(k):
        try:
            return down(k + 1)
        except RecursionError:
            return k

    return down(0)


def test_deep_left_sum_evaluates():
    # one graph level per term: a left-deep sum of 250 terms must stay
    # within the default recursion limit
    total, batch, want = _left_sum(250)
    assert total(batch).tolist() == want


def test_a_graph_level_takes_two_frames():
    # 300 levels with room for 2 * 300 + 150 frames above the current
    # depth: two frames per level (the input read and the rule) fit with
    # room for the constant frames at the top and the bottom, three do not
    terms = 300
    total, batch, want = _left_sum(terms)
    old = sys.getrecursionlimit()
    used = old - _headroom()
    sys.setrecursionlimit(used + 2 * terms + terms // 2)
    try:
        values = total(batch)
    finally:
        sys.setrecursionlimit(old)
    assert values.tolist() == want


class TestDirectionalComponents:
    """A directional field decides per component: an exact number is zero
    at every point or none, an array may be zero on part of the batch or
    everywhere.  Either way the values are those of one point at a time,
    bit for bit."""

    # t is zero, of either sign, on part of the batch
    POINTS = [(0.0, 0.3, 0.2), (0.4, -0.5, 0.6), (-0.0, 0.8, -0.9),
              (-0.7, 0.0, 0.1), (0.0, -0.0, -0.0)]

    @staticmethod
    def _kinds():
        t = ScalarField.coordinate(0, 3)
        s = ScalarField.coordinate(1, 3)
        return {"part": t * s, "zero": s - s, "exact 0": const(0.0),
                "exact": const(-2.5)}

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    @pytest.mark.parametrize("kinds", [
        ("part", "zero", "exact 0"),
        ("exact", "part", "zero"),
        ("exact 0", "exact", "part"),
        ("zero", "exact 0", "exact"),
    ])
    def test_matches_one_point_at_a_time(self, kinds, mode):
        comps = self._kinds()
        batch = np.array(self.POINTS)
        assert comps["part"](batch).tolist().count(0.0) == 4
        assert not comps["zero"](batch).any()
        f, = in_mode(mode, [field_of_text("sin(t + 2*s) * exp(s*z) - t*z",
                                          ("t", "s", "z"))])
        d = directional_field([comps[k] for k in kinds], f)
        one_at_a_time = np.array([d(p) for p in self.POINTS])
        assert d(batch).tobytes() == one_at_a_time.tobytes()

    def test_partials_are_read_on_the_batch_evaluated(self, monkeypatch):
        # t is zero at the first point alone; its partial is read on the
        # whole batch, so the evaluation makes no batch of the other point
        t, s = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)
        d = directional_field((t, const(1.0, 2)), fsin(t) * s)
        made = []
        new_batch = numkernel._new_batch

        def counted(array):
            made.append(array)
            return new_batch(array)

        points = [(0.0, 0.5), (0.3, 0.7)]
        with numkernel.sweep():
            batch = numkernel.as_batch(points)
            monkeypatch.setattr(numkernel, "_new_batch", counted)
            values = d(batch)
        assert made == []
        assert values.tolist() == pytest.approx(
            [x * math.cos(x) * y + math.sin(x) for x, y in points],
            rel=1e-15, abs=1e-15)


class TestEvaluatorResults:
    """A field's values are one float64 per point: an evaluator's scalar,
    list or integer array is coerced, at the root and below it, and any
    other shape is refused."""

    BATCH = np.array([(0.5,), (2.0,)])

    @pytest.mark.parametrize("result,want", [
        (lambda b: 3, [3.0, 3.0]),
        (lambda b: [1, 2], [1.0, 2.0]),
        (lambda b: np.array([4, 5]), [4.0, 5.0]),
        (lambda b: np.float32(0.5), [0.5, 0.5]),
    ], ids=["int", "list", "int-array", "float32"])
    def test_coerced(self, result, want):
        leaf = ScalarField(result, 1)
        values = leaf(self.BATCH)
        assert values.dtype == np.float64 and values.tolist() == want
        x = ScalarField.coordinate(0, 1)
        assert (leaf + x)(self.BATCH).tolist() == [
            w + p for w, (p,) in zip(want, self.BATCH.tolist())]

    @pytest.mark.parametrize("result,shape", [
        (lambda b: np.ones((2, 2)), r"\(2, 2\)"),
        (lambda b: [1.0, 2.0, 3.0], r"\(3,\)"),
    ], ids=["2-d", "too-long"])
    def test_wrong_shape_refused(self, result, shape):
        leaf = ScalarField(result, 1)
        x = ScalarField.coordinate(0, 1)
        for field in (leaf, leaf * x):
            with pytest.raises(ValueError,
                               match=rf"gave shape {shape} for 2 points"):
                field(self.BATCH)


def test_non_finite_inner_node_is_named():
    # 1/x is infinite at x = 0, where 1/(1/x) would be 0
    one, x = ScalarField.constant(1.0, 1), ScalarField.coordinate(0, 1)
    f = one / (one / x)
    batch = np.array([(0.5,), (0.0,), (-0.0,), (2.0,)])
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteValue,
                           match=r"evaluated to inf at \(0\.0,\)"):
            f(batch)
        with pytest.raises(NonFiniteValue,
                           match=r"evaluated to -inf at \(-0\.0,\)"):
            f((-0.0,))
    assert f((2.0,)) == 2.0


class TestFiniteCheck:
    """Every evaluation checks its values for NaN and infinities; finite
    values whose squares overflow pass without a warning."""

    BATCH = np.array([(1.0, 0.5), (2.0, -1.0), (3.0, 0.25)])

    def test_large_finite_values_raise_no_warning(self):
        f = 1e200 * ScalarField.coordinate(0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(self.BATCH)
            one = f((2.0, 0.0))
        assert values.tolist() == [1e200, 2e200, 3e200]
        assert one == 2e200

    def test_non_finite_value_among_large_ones_is_named(self):
        f = 1e200 * ScalarField.coordinate(0, 2) / ScalarField.coordinate(1, 2)
        batch = np.array([(1.0, 0.5), (2.0, 0.0), (3.0, 0.25)])
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue, match=r"at \(2\.0, 0\.0\)"):
                f(batch)


class TestOneOrAll:
    """The point-or-batch rule: a batch gives the stacked values, a single
    point its entry, as a float where that entry is one number."""

    def test_batch_values_as_they_are(self):
        values = np.array([1.5, 2.5])
        assert one_or_all(values, [(0.0, 1.0), (2.0, 3.0)]) is values
        assert one_or_all(values, np.zeros((2, 2))) is values

    def test_single_point_gives_a_float(self):
        out = one_or_all(np.array([1.5, 2.5]), (0.0, 1.0))
        assert type(out) is float and out == 1.5

    def test_single_point_gives_a_row(self):
        values = np.arange(12.0).reshape(2, 2, 3)
        out = one_or_all(values, (0.0, 1.0))
        assert type(out) is np.ndarray
        assert out.tobytes() == values[0].tobytes()

    def test_field_call(self):
        f = field_of_text("exp(t)*sin(s)", ("t", "s"))
        pts = [(0.1, 0.2), (0.3, -0.4)]
        batch = f(np.array(pts))
        assert type(batch) is np.ndarray and batch.shape == (2,)
        for p, value in zip(pts, batch.tolist()):
            one = f(p)
            assert type(one) is float and one == value


def _per_leg_central1(f, batch, axis, h):
    """A central difference evaluating its legs one at a time, +h first."""
    up = f(_moved(batch, axis, h))
    dn = f(_moved(batch, axis, -h))
    return (up - dn) / (2.0 * h)


def _per_leg_central2(f, batch, axis, h):
    up = f(_moved(batch, axis, h))
    dn = f(_moved(batch, axis, -h))
    return (up - 2.0 * f(batch) + dn) / (h * h)


def _moved(batch, axis, h):
    out = np.array(batch)
    out[:, axis] += h
    return out


@pytest.fixture
def per_leg(monkeypatch):
    """Run a callable with every central difference taken one leg at a
    time; the stencil nodes look ``_central1``/``_central2`` up on every
    call."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(numkernel, "_central1", _per_leg_central1)
            m.setattr(numkernel, "_central2", _per_leg_central2)
            return fn()
    return run


def _error_of(fn):
    try:
        fn()
    except Exception as err:  # noqa: BLE001 - the error is the result
        return type(err), str(err)
    raise AssertionError("no error raised")


class TestStackedLegs:
    """Both legs of a central difference are evaluated as one stacked batch:
    the values are bit for bit those of the legs one at a time, and an
    error is the one the legs one at a time meet first."""

    def test_catalog_fd_residuals(self, per_leg):
        from biharm.submersion import catalog_examples

        for spec in catalog_examples():
            spec = numeric_only(spec)
            batch = numkernel.as_batch(spec.verification_points((21, 21)))

            def residuals():
                with numkernel.sweep():
                    return [f(batch).tobytes() for f in spec.residual_fields]

            assert residuals() == per_leg(residuals), spec.label

    def test_fd_frame_channels(self, per_leg):
        from biharm.frames import (
            _frame_identity_channels,
            adapted_frame,
            integrability_data,
            random_adapted_specs,
            validate_frame,
        )
        from biharm.geometry import base_sweep

        rng = np.random.default_rng(2024)
        for label, metric, spec in in_mode("fd", random_adapted_specs(rng, 4)):
            frame = adapted_frame(spec, metric)
            data = integrability_data(spec, frame)
            points = base_sweep(metric.box, (5, 5))
            batch = numkernel.as_batch(points)

            def channels():
                with numkernel.sweep():
                    values = [c(batch).tobytes() for _, comps
                              in _frame_identity_channels(frame, data)
                              for c in comps]
                report = validate_frame(frame, data, points, 1e-3)
                return values, [(c.name, c.max_abs, c.at)
                                for c in report.channels]

            assert channels() == per_leg(channels), label

    def test_alpha_profile_past_third_derivative(self, per_leg):
        from biharm.constructor import integrate_alpha

        profile = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-2)
        alpha = profile.field(dim=2, axis=1)
        # stencils on the profile's 1-D leaf alpha''', pulled back along y,
        # from the third stacked difference on at H_FD3
        fourth = alpha.diff(1).diff(1).diff(1).diff(1)
        fields = [fourth, fourth.diff(1), fourth.diff(1).diff(1),
                  fourth.diff(1).diff(1).diff(1)]
        stencil = numkernel._stencil_values
        inner = [f._args[0] for f in fields]
        assert [f._values for f in inner] == [stencil] * 4
        assert [f._args[3] for f in inner] == [H_FD, H_FD, H_FD3, H_FD3]
        assert fourth.diff(0) is const(0.0, 2)
        batch = numkernel.as_batch([(0.1 * k, 0.2 + 0.07 * k)
                                    for k in range(9)])

        def values():
            return [f(batch).tobytes() for f in fields]

        assert values() == per_leg(values)

    def test_quadrant_error_names_the_plus_leg_first(self, per_leg):
        # NaN only in the (x-h, y+h) and (x+h, y-h) quadrants: evaluated one
        # leg at a time, the +h leg of the outer difference meets (x+h, y-h)
        def fn(b):
            dx, dy = b[:, 0] - 0.3, b[:, 1] - 0.3
            bad = ((dx < 0) & (dy > 0)) | ((dx > 0) & (dy < 0))
            return np.where(bad, np.nan, b[:, 0] * b[:, 1])

        mixed = ScalarField(fn=fn, dim=2).diff(1).diff(0)
        err = _error_of(lambda: mixed((0.3, 0.3)))
        assert err == (NonFiniteValue,
                       "field evaluated to nan at (0.3001, 0.2999)")
        assert per_leg(lambda: _error_of(lambda: mixed((0.3, 0.3)))) == err

    def test_out_of_profile_through_nested_stencil(self, per_leg):
        from biharm.constructor import integrate_alpha
        from biharm.errors import OutOfProfile

        profile = integrate_alpha(math.pi / 4, 0.1, -0.01, (0.0, 1.0), 1e-2)

        def fn(b):  # past the span end by 100 (x - y) or by 10 (y - x)
            d = b[:, 0] - b[:, 1]
            return profile.angle(1.0 + 100.0 * np.maximum(d, 0.0)
                                 + 10.0 * np.maximum(-d, 0.0))

        mixed = ScalarField(fn=fn, dim=2).diff(1).diff(0)
        err = _error_of(lambda: mixed((0.3, 0.3)))
        assert err[0] is OutOfProfile and err[1].startswith("1.02 outside")
        assert per_leg(lambda: _error_of(lambda: mixed((0.3, 0.3)))) == err
        # a third difference reaching below the span start
        leaf = numeric_only(profile.field(dim=1, axis=0))
        point = (-H_FD3 + 0.5 * H_FD,)
        err = _error_of(lambda: leaf.partial(point, 0, 3))
        assert err[0] is OutOfProfile
        assert per_leg(lambda: _error_of(
            lambda: leaf.partial(point, 0, 3))) == err


class TestBatchTable:
    """Within a sweep a set of points is one batch, found by the hash of
    its bytes and confirmed by the bytes themselves."""

    POINTS = [(0.25, 1.5), (-0.75, 2.0), (1.0, 0.0)]

    def test_equal_bytes_give_one_batch(self):
        with numkernel.sweep():
            first = numkernel.as_batch(np.array(self.POINTS))
            again = numkernel.as_batch([list(p) for p in self.POINTS])
        assert again is first

    def test_signed_zeros_are_different_points(self):
        sign = ScalarField(fn=lambda b: np.copysign(1.0, b[:, 0]), dim=2)
        with numkernel.sweep():
            plus = numkernel.as_batch([(0.0, 1.0)])
            minus = numkernel.as_batch([(-0.0, 1.0)])
            assert minus is not plus
            assert (sign(plus).tolist(), sign(minus).tolist()) == (
                [1.0], [-1.0])

    def test_hash_collision_gives_a_batch_of_its_own(self):
        f = ScalarField.coordinate(0, 2) * 3.0 + ScalarField.coordinate(1, 2)
        other = np.array([(9.0, 9.0), (8.0, 8.0), (7.0, 7.0)])
        with numkernel.sweep():
            occupant = numkernel.as_batch(other)
            f(occupant)
            # file the occupant under the key the points' bytes hash to
            points = np.array(self.POINTS)
            key = (points.shape, hash(points.tobytes()))
            numkernel._SWEEP.get().batches[key] = occupant
            batch = numkernel.as_batch(points)
            assert batch is not occupant
            assert batch.tolist() == [list(p) for p in self.POINTS]
            assert f(batch).tolist() == [3.0 * t + s for t, s in self.POINTS]
            assert numkernel._SWEEP.get().batches[key] is occupant
