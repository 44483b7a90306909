import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from biharm.errors import DegenerateBox, NonFiniteValue, PointOutsideGuard
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
    frame_derivative,
    fsin,
    lift,
    partial_derivative,
    sample_grid,
)
from conftest import S, T, X, field_of, field_of_text


def const(v, dim=3):
    return ScalarField.constant(v, dim)


class TestPartialDerivative:
    def test_square_first(self):
        f = field_of_text("s**2", ("t", "s", "z"))
        assert partial_derivative(f, (0.0, 2.0, 0.0), 1, 1) == pytest.approx(4.0)

    def test_square_second(self):
        f = field_of_text("s**2", ("t", "s", "z"))
        assert partial_derivative(f, (0.0, 2.0, 0.0), 1, 2) == pytest.approx(2.0)

    def test_sin_third_analytic(self):
        f = field_of_text("sin(s)", ("s",))
        assert partial_derivative(f, (0.0,), 0, 3) == pytest.approx(-1.0, abs=1e-12)

    def test_sin_third_fd(self):
        f = ScalarField(fn=lambda b: np.sin(b[:, 0]), dim=1)
        assert partial_derivative(f, (0.0,), 0, 3) == pytest.approx(-1.0, abs=1e-4)

    def test_explicit_partials_win_over_stencils(self):
        f = ScalarField(
            fn=lambda b: np.exp(b[:, 0]),
            dim=1,
            partials={0: (lambda b: np.exp(b[:, 0]), lambda b: np.exp(b[:, 0]))},
        )
        assert f.partial((0.3,), 0, 2) == pytest.approx(math.exp(0.3), abs=1e-15)
        # third order nests a difference of the explicit second derivative
        assert f.partial((0.3,), 0, 3) == pytest.approx(math.exp(0.3), abs=1e-6)

    def test_guard_violation(self):
        f = ScalarField(fn=lambda b: b[:, 0] ** 2, dim=1)
        box = ChartBox((0.0,), (1.0,), 0.1)
        with pytest.raises(PointOutsideGuard):
            partial_derivative(f, (0.05,), 0, 1, box=box)

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
        g = f.numeric_only()
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
        assert frame_derivative(comps, f, (0.0, 1.0, 0.0)) == pytest.approx(3.0)

    def test_weighted_leg_flat(self):
        f = field_of_text("t", ("t", "s", "z"))
        comps = (const(1.0), const(0.0), const(0.0))  # e^{-q} with q = 0
        assert frame_derivative(comps, f, (0.3, 0.7, 0.1)) == pytest.approx(1.0)

    def test_cotangent_slope(self):
        # f = q_s for q = log(sin s); its s-derivative at pi/2 is -1
        q = field_of_text("log(sin(s))", ("t", "s", "z"))
        f = q.diff(1)
        comps = (const(0.0), const(1.0), const(0.0))
        val = frame_derivative(comps, f, (0.0, math.pi / 2, 0.0))
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
            lhs = frame_derivative(comps, a * f + b * g, p)
            rhs = a * frame_derivative(comps, f, p) + b * frame_derivative(comps, g, p)
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
                               partials={0: (point_only,)})
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
        g = f.numeric_only()
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


def _explicit_exp(count=3):
    """exp(t + 2s - z) with ``count`` explicit partials along every axis."""
    def along(k):
        return lambda b: k * np.exp(b[:, 0] + 2.0 * b[:, 1] - b[:, 2])
    rates = (1.0, 2.0, -1.0)
    return ScalarField(
        fn=along(1.0), dim=3,
        partials={a: tuple(along(r ** n) for n in range(1, count + 1))
                  for a, r in enumerate(rates)})


def _leaf_kinds():
    """One field of every kind, on a 3-chart: (label, field, opaque leaf)."""
    from biharm.constructor import integrate_alpha

    sym = field_of_text("sin(t + 2*s) * exp(s*z)", ("t", "s", "z"))
    fd = sym.numeric_only()
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
        ("compose", compose(w.numeric_only(), (u, fd)), False),
        ("directional", directional_field((sym, explicit, fd), fd), False),
        ("lifted-explicit", lift(profile.field(dim=1, axis=0), 3, (1,)),
         False),
        ("lifted-numeric-only", lift(w.numeric_only(), 3, (2, 0)), False),
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
        g = field_of_text("sin(t + 2*s) * exp(s*z)",
                                  ("t", "s", "z")).numeric_only()
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
        # an opaque leaf: one direct stencil per order
        assert fd.stencil_reach(1, 1) == H_FD
        assert fd.stencil_reach(1, 2) == H_FD
        assert fd.stencil_reach(1, 3) == H_FD3 + H_FD
        # stencils over stencil nodes: the sum of their steps
        node = fd.diff(0)
        assert node.stencil_reach(0, 1) == H_FD + H_FD
        assert fd.diff(0).diff(0).diff(0).stencil_reach(1, 1) == \
            H_FD + H_FD + H_FD3 + H_FD
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
        f = ScalarField(fn=lambda b: np.sin(b[:, 0]), dim=1)
        box = ChartBox((0.0,), (1.0,))
        assert f.stencil_reach(0, order) == reach
        partial_derivative(f, (reach,), 0, order, box=box)
        partial_derivative(f, (1.0 - reach,), 0, order, box=box)
        for x in (reach - 1e-9, 1.0 - reach + 1e-9):
            with pytest.raises(PointOutsideGuard):
                partial_derivative(f, (x,), 0, order, box=box)


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
    two = ScalarField.constant(2.0, 3).numeric_only()
    assert two.number is None  # fd mode folds nothing
    for axis in range(3):
        assert two.diff(axis).number == 0.0
        assert two.stencil_reach(axis, 3) == 0.0
    # a coordinate is a leaf like any other closed form: differenced in fd
    x = ScalarField.coordinate(1, 3)
    assert x.diff(1).number == 1.0 and x.diff(0).number == 0.0
    assert x.numeric_only().stencil_reach(1, 1) == H_FD


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
    those of the same rule on an array of copies of it (a numeric_only()
    copy), bit for bit.  A NaN or an infinity raises as before."""

    BATCH = np.array([(0.1, 0.2, 0.3), (0.4, -0.5, 0.6), (-0.7, 0.8, 0.9)])
    NUMBERS = (-0.0, 2.5, -3.0, 1e-300, 1e300, 1.0 / 3.0)

    @staticmethod
    def _field():
        return field_of_text("sin(t) + 2 + s*z", ("t", "s", "z"))

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
                    filled = (lhs._binary(c.numeric_only(), op) if lhs is f
                              else c.numeric_only()._binary(rhs, op))
                    assert (_outcome(exact, self.BATCH)
                            == _outcome(filled, self.BATCH)), (value, op)
                    compared += 1
        assert compared >= 40

    def test_compose_frame_derivative_and_atan2(self):
        f = self._field()
        g = field_of_text("x*x - 3*y", ("x", "y"))
        for value in self.NUMBERS:
            c, filled = const(value), const(value).numeric_only()
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
            assert (frame_derivative((f, c, c), f, self.BATCH).tobytes()
                    == frame_derivative((f, filled, filled), f,
                                        self.BATCH).tobytes())

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
            frame_derivative((f, number, f), f, self.BATCH)


class TestSharedUnits:
    """The unnamed numbers +0.0 and 1.0 are one field per dimension."""

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

    def test_named_number_is_not_shared(self):
        named = ScalarField.constant(0.0, 2, name="q")
        assert named is not const(0.0, 2) and named.name == "q"
        assert ScalarField.constant(1.0, 2, name="one") is not const(1.0, 2)

    def test_lift_never_renames_a_shared_number(self):
        lifted = lift(ScalarField.constant(0.0, 1, name="q"), 3, (1,))
        assert lifted is const(0.0) and lifted.name == ""
        x = ScalarField.coordinate(0, 1)
        x.name = "s"
        assert lift(x, 3, (1,)).name == "s"


def test_deep_left_sum_evaluates():
    # one graph level per term: a left-deep sum of 250 terms must stay
    # within the default recursion limit
    x, y = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)
    total = x
    for k in range(1, 250):
        total = total + k * y
    batch = np.array([(0.3, 0.7), (-1.1, 0.2)])
    want = []
    for px, py in batch.tolist():
        ref = px
        for k in range(1, 250):
            ref = ref + k * py
        want.append(ref)
    assert total(batch).tolist() == want
