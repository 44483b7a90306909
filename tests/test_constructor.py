import gc
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from biharm import constructor, numkernel
from biharm.cli import run
from biharm.constructor import (
    MAX_STEPS,
    AlphaProfile,
    ConstructionSpec,
    alpha_ode_residual,
    build_nonflat_target,
    integrate_alpha,
    ode_residual_terms,
    profile_to_text,
    riccati_consistency,
    verify_construction,
)
from biharm.errors import (
    ImmediateSingularity,
    OutOfProfile,
    SingularCoefficient,
    SingularProfile,
)
from biharm.numkernel import ChartBox, ScalarField, as_batch, numeric_only
from biharm.report import write_report
from conftest import (
    S,
    T,
    at_point,
    build_flat_target,
    field_of,
    profile_from_text,
    riccati_rhs,
)

START = (math.pi / 4, 0.1, -0.01)  # alpha0, alpha1, alpha2 = u0 * alpha1^2


@pytest.fixture(scope="module")
def solved_profile():
    return integrate_alpha(*START, (0.0, 1.0), 1e-3)


class TestRiccati:
    def test_zero_u(self):
        assert riccati_rhs(math.pi / 4, 0.0) == pytest.approx(-8.0)

    def test_negative_u(self):
        assert riccati_rhs(math.pi / 4, -1.0) == pytest.approx(-3.0)

    def test_singular_margin(self):
        with pytest.raises(SingularCoefficient):
            riccati_rhs(math.pi / 2 - 1e-9, 0.0)


class TestIntegration:
    def test_zero_slope_rejected(self):
        with pytest.raises(ImmediateSingularity):
            integrate_alpha(math.pi / 4, 0.0, 0.0, (0.0, 1.0), 1e-3)

    @pytest.mark.parametrize("alpha1", [1e100, 1e103])
    def test_non_finite_initial_third_derivative_rejected(self, alpha1):
        # 1e100: alpha' alpha'' overflows to inf inside the third
        # derivative; 1e103: alpha'^3 raises OverflowError
        with pytest.raises(ImmediateSingularity, match="non-finite state"):
            integrate_alpha(0.7, alpha1, 1e250, (0.0, 1.0), 1e-3)

    def test_initial_angle_beyond_half_the_float_range_rejected(self):
        # sin and cos of 1e308 clear the margins, but 2 alpha overflows
        with pytest.raises(ImmediateSingularity, match="2 alpha overflows"):
            integrate_alpha(1e308, 0.1, 0.0, (0.0, 1.0), 1e-3)

    def test_profile_stays_regular(self, solved_profile):
        prof = solved_profile
        assert not prof.truncated
        assert len(prof.y_grid) == 1001
        assert prof.step_error < 1e-12
        prof.validate()

    def test_riccati_flow_consistency(self, solved_profile):
        assert riccati_consistency(solved_profile) <= 1e-5

    def test_fourth_order_convergence(self):
        # endpoint differences between steps h and h/2 shrink ~16x; steps
        # are chosen coarse enough for truncation to dominate round-off
        steps = (0.08, 0.04, 0.02)
        end = {}
        for h in steps:
            prof = integrate_alpha(math.pi / 4, 0.6, -0.36, (0.0, 0.64), h)
            end[h] = prof.alpha[-1]
        d1 = abs(end[steps[0]] - end[steps[1]])
        d2 = abs(end[steps[1]] - end[steps[2]])
        assert d2 < d1
        ratio = d1 / max(d2, 1e-18)
        assert 8.0 < ratio < 40.0

    @pytest.mark.parametrize("start, span, step", [
        ((0.3, -50.0, 100.0), (0.0, 1.0), 1e-2),   # a1**3 overflows
        ((0.8, 1.0, 1e6), (0.0, 1.0), 1e-2),       # a stage meets sin(inf)
        ((0.1, -0.5, -2.0), (0.0, 5.0), 1e-3),     # a step jumps over alpha=0
    ])
    def test_blow_up_truncates(self, start, span, step):
        prof = integrate_alpha(*start, span, step)
        assert prof.truncated
        assert math.isfinite(prof.step_error)
        # every kept node lies in the start's quarter period of alpha
        quarter = math.floor(2.0 * start[0] / math.pi)
        assert all(math.floor(2.0 * a / math.pi) == quarter
                   for a in prof.alpha)

    def test_crossing_names_the_step(self):
        prof = integrate_alpha(0.1, -0.5, -2.0, (0.0, 5.0), 1e-3)
        assert len(prof.y_grid) == 106
        assert prof.truncate_reason.startswith("step crossed sin(2 alpha) = 0")

    @pytest.mark.parametrize("start, end", [
        ((0.3, -50.0, 100.0), "-2.89642"),  # over alpha = 0 and -pi/2
        ((0.8, 1.0, 1e6), "-3.1326e+34"),
    ])
    def test_step_over_even_zero_count_caught(self, start, end):
        # sin(2 alpha) has the same sign at both ends of the first step
        prof = integrate_alpha(*start, (0.0, 1.0), 1e-2)
        assert len(prof.y_grid) == 1
        assert prof.truncate_reason == (
            f"step crossed sin(2 alpha) = 0 between alpha={start[0]:.6g} "
            f"and alpha={end}")

    def test_overflow_reason_kept(self, monkeypatch):
        # alpha' = 1e30: the last stage's alpha'**3 leaves the float range
        prof = integrate_alpha(0.3, 1e30, 0.0, (0.0, 1.0), 1e-2)
        assert prof.truncate_reason == "non-finite state"
        assert len(prof.y_grid) == 1
        # a whole step leaving the float range while its halves stay finite
        rk4 = constructor._rk4_step

        def infinite_whole_step(state, f1, h):
            out = rk4(state, f1, h)
            return (math.inf, *out[1:]) if h == 1e-2 else out

        monkeypatch.setattr(constructor, "_rk4_step", infinite_whole_step)
        prof = integrate_alpha(0.3, 1.0, 0.0, (0.0, 1.0), 1e-2)
        assert prof.truncate_reason == "non-finite state"
        assert len(prof.y_grid) == 1

    @pytest.mark.parametrize("span, step", [
        ((0.0, math.inf), 1e-3), ((math.nan, 1.0), 1e-3),
        ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf),
    ])
    def test_non_finite_span_or_step(self, span, step):
        name = "span" if step == 1e-3 else "step"
        with pytest.raises(ValueError, match=f"{name} .* is not finite"):
            integrate_alpha(*START, span, step)

    @pytest.mark.parametrize("step", [1e-320, 1e-300, math.ulp(1.0)])
    def test_step_below_float_spacing_rejected(self, step):
        # nodes this close could not be distinct floats (1e-300 would also
        # never finish), so the step is refused before any integration
        with pytest.raises(ValueError, match="below the float spacing"):
            integrate_alpha(0.8, 0.1, -0.01, (0.0, 1.0), step)

    @pytest.mark.parametrize("span, step, count", [
        ((0.0, 1.0), 1e-12, "1e+12"), ((-1e308, 1e308), 1e300, "inf"),
    ])
    def test_step_count_is_bounded(self, span, step, count):
        # refused before the node array is made; no such run is started
        with pytest.raises(ValueError, match=re.escape(
                f"asks for {count} steps, more than {MAX_STEPS}")):
            integrate_alpha(0.8, 0.1, -0.01, span, step)

    def test_truncation_on_margin(self):
        # drive alpha towards pi/2 fast: the sin*cos margin must stop it
        prof = integrate_alpha(1.45, 0.8, 0.0, (0.0, 1.0), 1e-3)
        assert prof.truncated
        assert "margin" in prof.truncate_reason
        assert prof.y_grid[-1] < 1.0


class TestOdeResidual:
    def test_solution_residual_small(self, solved_profile):
        prof = solved_profile
        for y in np.linspace(0.01, 0.99, 23):
            assert abs(alpha_ode_residual(prof, float(y))) <= 1e-5

    def test_constant_profile_zero(self):
        ys = np.linspace(0.0, 1.0, 11)
        prof = AlphaProfile(
            y_grid=ys, alpha=np.full(11, 0.7), alpha1=np.zeros(11),
            alpha2=np.zeros(11),
        )
        assert alpha_ode_residual(prof, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_node_detected(self, solved_profile):
        prof = solved_profile
        alpha2 = prof.alpha2.copy()
        k = len(alpha2) // 2
        alpha2[k] += 0.1
        bad = AlphaProfile(prof.y_grid, prof.alpha, prof.alpha1, alpha2)
        y = float(prof.y_grid[k])
        assert abs(alpha_ode_residual(bad, y)) > 1e-3

    def test_out_of_profile(self, solved_profile):
        with pytest.raises(OutOfProfile):
            alpha_ode_residual(solved_profile, 2.0)

    def test_too_few_nodes(self):
        one = integrate_alpha(0.3, 1e30, 0.0, (0.0, 1.0), 1e-2)
        assert len(one.y_grid) == 1
        with pytest.raises(SingularProfile):
            alpha_ode_residual(one, 0.0)
        empty = np.array([])
        with pytest.raises(SingularProfile):
            AlphaProfile(empty, empty, empty, empty).validate()

    def test_riccati_zero_slope_node(self):
        ys = np.linspace(0.0, 1.0, 11)
        slopes = np.full(11, 0.5)
        slopes[4] = 0.0
        prof = AlphaProfile(ys, 0.3 + 0.5 * ys, slopes, np.zeros(11))
        with pytest.raises(SingularProfile):
            riccati_consistency(prof)

    def test_residual_terms_sign(self):
        # straight substitution of the printed third-order expression
        val = ode_residual_terms(math.pi / 4, 0.1, -0.01, 0.0)
        s = c = math.sqrt(0.5)
        expected = c * (s * s + 3) * 0.1 * (-0.01) + s * (2 * c * c + 3) * 1e-3
        assert val == pytest.approx(expected, abs=1e-15)


def _numpy_rk4_step(state, h):
    """The array form of one RK4 step, the reference for the float form."""
    def rhs(y):
        return np.array([y[1], y[2],
                         constructor._third_derivative(y[0], y[1], y[2])])

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _bits(value):
    assert type(value) is float
    return value.hex()


def _reference_residual(prof, y):
    """alpha_ode_residual at one abscissa from np.interp and the
    _CubicHermite array path, one point at a time."""
    ys, a2s = prof.y_grid, prof.alpha2
    d = float(ys[1] - ys[0])
    a3 = (np.interp(y + d, ys, a2s) - np.interp(y - d, ys, a2s)) / (2.0 * d)
    at = np.array([y])
    return ode_residual_terms(float(prof.angle(at)[0]),
                              float(prof.slope(at)[0]),
                              float(np.interp(y, ys, a2s)), float(a3))


# the corners of the fiber-angle box every benchmark construction comes from
BOX_CORNERS = [(0.6, 0.05, -1.5 * 0.05 ** 2), (0.95, 0.15, -0.5 * 0.15 ** 2)]


class TestScalarPaths:
    """The float hot paths against their numpy forms, bit for bit."""

    def test_hermite_scalar_matches_array(self, solved_profile):
        herm = solved_profile.angle
        xs = herm.xs
        rng = random.Random(7)
        points = (list(xs[::37]) + list(0.5 * (xs[:-1:41] + xs[1::41]))
                  + [xs[0] - 1e-12, xs[0] + 1e-12, xs[-1] - 1e-12,
                     xs[-1] + 1e-12]
                  + [rng.uniform(xs[0], xs[-1]) for _ in range(200)])
        for x in points:
            ref = herm(np.array([x]))[0]
            assert _bits(herm(float(x))) == float(ref).hex()
            assert _bits(herm(np.float64(x))) == float(ref).hex()

    def test_hermite_scalar_outside_and_nan(self, solved_profile):
        herm = solved_profile.slope
        for x in (-0.5, 1.0 + 1e-9):
            with pytest.raises(OutOfProfile) as scalar:
                herm(x)
            with pytest.raises(OutOfProfile) as array:
                herm(np.array([x]))
            assert str(scalar.value) == str(array.value)
        assert math.isnan(herm(math.nan))
        assert math.isnan(herm(np.array([math.nan]))[0])

    @pytest.mark.parametrize("start", BOX_CORNERS)
    def test_node_table_matches_reference(self, start):
        prof = integrate_alpha(*start, (0.0, 1.0), 1e-4)
        nodes = prof.y_grid[1:-1]
        got = [alpha_ode_residual(prof, y) for y in nodes]
        assert [_bits(v) for v in got] == [
            _reference_residual(prof, float(y)).hex() for y in nodes]

    def test_uneven_nodes_match_reference(self):
        # off the nodes np.interp differences an uneven grid, read back
        # from text
        rng = np.random.default_rng(3)
        ys = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 60))))
        prof = profile_from_text(profile_to_text(AlphaProfile(
            ys, 0.3 + 0.5 * ys, np.full_like(ys, 0.5), np.sin(7 * ys))))
        d = prof.node_step
        inner = ys[(ys[0] + d <= ys) & (ys <= ys[-1] - d)]
        points = np.concatenate((inner, rng.uniform(inner[0], inner[-1], 300)))
        for y in points.tolist():
            assert _bits(alpha_ode_residual(prof, y)) == \
                _reference_residual(prof, y).hex()

    def test_uneven_nodes_read_from_the_table(self, monkeypatch):
        # uniform nodes but for a few moved past the midpoint to the next
        # one, where the index a uniform grid gives misses: the search finds
        # them, and every interior node is read from the one node table
        calls = []
        kernel = constructor._ode_residuals

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(constructor, "_ode_residuals", counted)
        ys = np.linspace(0.0, 1.0, 81)
        ys[5::7] += 0.6 * (ys[1] - ys[0])
        prof = profile_from_text(profile_to_text(AlphaProfile(
            ys, 0.3 + 0.5 * ys, np.full_like(ys, 0.5), np.sin(7 * ys))))
        d = prof.node_step
        inner = ys[(ys[0] + d <= ys) & (ys <= ys[-1] - d)].tolist()
        assert len(inner) == 79
        for y in inner:
            assert _bits(alpha_ode_residual(prof, y)) == \
                _reference_residual(prof, y).hex()
        assert len(calls) == 1

    def test_lookup_forms(self, monkeypatch):
        # an int, a 0-d array and a numpy float on a node read the node
        # table; a y between nodes is a batch of one; NaN is OutOfProfile
        # as in the array path
        calls = []
        kernel = constructor._ode_residuals

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(constructor, "_ode_residuals", counted)
        ys = np.arange(0.0, 21.0)
        prof = AlphaProfile(ys, 0.3 + 0.02 * ys, np.full_like(ys, 0.02),
                            np.sin(0.3 * ys))
        for y in (5, np.array(7.0), np.float64(9.0)):
            assert _bits(alpha_ode_residual(prof, y)) == \
                _reference_residual(prof, float(y)).hex()
        assert len(calls) == 1
        assert _bits(alpha_ode_residual(prof, 10.5)) == \
            _reference_residual(prof, 10.5).hex()
        assert len(calls) == 2
        with pytest.raises(OutOfProfile) as scalar:
            alpha_ode_residual(prof, math.nan)
        with pytest.raises(OutOfProfile) as array:
            alpha_ode_residual(prof, np.array([math.nan]))
        assert str(scalar.value) == str(array.value)

    def test_array_form_matches_scalar_form(self, solved_profile):
        prof = solved_profile
        d = prof.node_step
        rng = random.Random(17)
        ys = np.array(prof.y_grid[1:-1].tolist()
                      + [rng.uniform(d, 1.0 - d) for _ in range(300)])
        got = alpha_ode_residual(prof, ys)
        assert got.shape == ys.shape
        assert [float(v).hex() for v in got] == [
            _bits(alpha_ode_residual(prof, y)) for y in ys.tolist()]
        grid = alpha_ode_residual(prof, ys[:300].reshape(20, 15))
        assert np.array_equal(grid.ravel(), got[:300])
        # the first abscissa outside the interior is named, as by a scalar
        for bad in (2.0, math.nan, 0.0):
            with pytest.raises(OutOfProfile) as scalar:
                alpha_ode_residual(prof, bad)
            with pytest.raises(OutOfProfile) as array:
                alpha_ode_residual(prof, [0.5, bad, -1.0])
            assert str(scalar.value) == str(array.value)

    def test_node_table_built_once(self, monkeypatch):
        calls = []
        kernel = constructor._ode_residuals

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(constructor, "_ode_residuals", counted)
        prof = integrate_alpha(*START, (0.0, 0.2), 1e-3)
        for _ in range(3):
            for y in prof.y_grid[1:-1]:
                alpha_ode_residual(prof, y)
        assert len(calls) == 1
        # an abscissa between nodes is a batch of one
        alpha_ode_residual(prof, 0.1234567)
        assert len(calls) == 2

    def test_rk4_step_matches_numpy(self):
        rng = random.Random(11)
        for _ in range(50):
            state = (rng.uniform(0.3, 1.2), rng.uniform(-1.0, 1.0),
                     rng.uniform(-1.0, 1.0))
            h = rng.choice([1e-4, 1e-3, 0.05])
            got = constructor._rk4_step(
                state, constructor._third_derivative(*state), h)
            ref = _numpy_rk4_step(np.array(state), h)
            assert [_bits(v) for v in got] == [float(v).hex() for v in ref]

    def _counted(self, monkeypatch, name):
        calls = []
        fn = getattr(constructor, name)

        def counted(*args):
            calls.append(1)
            return fn(*args)

        monkeypatch.setattr(constructor, name, counted)
        return calls

    def test_one_rk4_call_per_integration(self, monkeypatch):
        # the half steps run in _half_steps; _rk4_step takes the whole steps
        # as one array pass
        calls = self._counted(monkeypatch, "_rk4_step")
        prof = integrate_alpha(*START, (0.0, 0.05), 1e-3)
        assert not prof.truncated and len(prof.y_grid) == 51
        assert len(calls) == 1

    def test_third_derivative_once_at_the_initial_node(self, monkeypatch):
        # every later node's third derivative is written out in _half_steps,
        # and the array pass evaluates none one at a time
        calls = self._counted(monkeypatch, "_third_derivative")
        prof = integrate_alpha(*START, (0.0, 0.05), 1e-3)
        assert not prof.truncated and len(prof.y_grid) == 51
        assert len(calls) == 1

    def test_next_node_matches_two_numpy_half_steps(self):
        # one- and two-step integrations, at angles of either sign: each
        # kept node is two array-form steps at h/2 from the node before it,
        # with its third derivative
        rng = random.Random(19)
        for _ in range(50):
            state = (rng.choice([1, -1]) * rng.uniform(0.3, 1.2),
                     rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            h = rng.choice([1e-4, 1e-3, 0.05])
            n = rng.choice([1, 2])
            f1 = constructor._third_derivative(*state)
            quarter = math.floor(2.0 * state[0] / math.pi)
            nodes, reason, raised = constructor._half_steps(
                0.25, state, f1, h, n, quarter)
            assert (reason, raised) == ("", False)
            ref, rows = np.array(state), [(0.25, *state, f1)]
            for k in range(n):
                ref = _numpy_rk4_step(_numpy_rk4_step(ref, 0.5 * h), 0.5 * h)
                node = [float(v) for v in ref]
                rows.append((0.25 + (k + 1) * h, *node,
                             constructor._third_derivative(*node)))
            assert [v.hex() for v in nodes] == [
                v.hex() for row in rows for v in row]

    @pytest.mark.parametrize("state, error", [
        # a stage of the first or of the second half step lies inside the
        # sin*cos^2 margin
        ((1.566, 2.2, 0.0), "SingularCoefficient"),
        ((1.55, 3.1, 0.0), "SingularCoefficient"),
        # alpha'^3 of a first-half-step stage leaves the float range
        ((0.3, 1e30, 0.0), "OverflowError"),
        # a stage whose sin*cos^2 is negative and inside the margin
        ((-0.0007505, 0.3, 0.0), "SingularCoefficient"),
    ])
    def test_next_node_raises_as_the_float_steps(self, state, error):
        f1 = constructor._third_derivative(*state)
        h = 1e-2
        rk4 = constructor._rk4_step
        with pytest.raises((SingularCoefficient, OverflowError)) as err:
            mid = rk4(state, f1, 0.5 * h)
            rk4(mid, constructor._third_derivative(*mid), 0.5 * h)
        assert err.type.__name__ == error
        expected = (str(err.value) if error == "SingularCoefficient"
                    else "non-finite state")
        nodes, reason, raised = constructor._half_steps(
            0.0, state, f1, h, 3, 0)
        assert (reason, raised) == (expected, True)
        assert list(nodes) == [0.0, *state, f1]  # the start node alone

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.floats(), max_size=8))
    @example([-0.0, 5e-324, -5e-324, -2.2250738585072014e-308, -1e-103,
              -5.6e102, math.inf, -math.inf, math.nan])
    @example([1.0, -5.7e102])
    def test_cube_is_float_power(self, values):
        column = np.array(values, dtype=float)
        try:
            ref = [v ** 3 for v in values]
        except OverflowError:
            with pytest.raises(OverflowError):
                constructor._libm(pow, column, 3.0)
            return
        got = constructor._libm(pow, column, 3.0)
        assert [float(v).hex() for v in got] == [v.hex() for v in ref]

    def test_ode_residual_matches_numpy(self, solved_profile):
        prof = solved_profile
        ys = prof.y_grid
        d = float(ys[1] - ys[0])
        lo, hi = float(ys[0]) + d, float(ys[-1]) - d
        rng = random.Random(13)
        points = ([float(y) for y in ys if lo <= y <= hi]
                  + [rng.uniform(lo, hi) for _ in range(300)])
        for y in points:
            assert _bits(alpha_ode_residual(prof, y)) == \
                _reference_residual(prof, y).hex()

    @pytest.mark.parametrize("start", [START, (0.95, 0.15, -0.5 * 0.15 ** 2),
                                       None, "jumps"])
    def test_riccati_matches_four_call_loop(self, start):
        if start is None:
            # coarse steps in alpha, so a last-bit change in one stage
            # survives into u instead of rounding away
            ys = np.linspace(0.0, 1.0, 17)
            prof = AlphaProfile(ys, 0.3 + 0.9 * ys, np.full_like(ys, 0.9),
                                np.sin(3 * ys))
        elif start == "jumps":
            # alpha more than doubles or halves between nodes, so a + da
            # can miss the next node (0.7 + (0.19 - 0.7) != 0.19): that
            # step's start coefficients are made afresh, and reusing the
            # last step's would change the result in the last bits
            alphas = [0.35, 0.7, 0.19, 0.89, 0.54]
            assert 0.7 + (0.19 - 0.7) != 0.19
            ys = np.linspace(0.0, 1.0, len(alphas))
            prof = AlphaProfile(ys, np.array(alphas), np.ones_like(ys),
                                np.zeros_like(ys))
        else:
            prof = integrate_alpha(*start, (0.0, 1.0), 1e-3)
        alphas = prof.alpha.tolist()
        slopes, curvs = prof.alpha1.tolist(), prof.alpha2.tolist()
        u = curvs[0] / slopes[0] ** 2
        worst = 0.0
        for k in range(len(alphas)):
            worst = max(worst, abs(u - curvs[k] / slopes[k] ** 2))
            if k + 1 < len(alphas):
                da = alphas[k + 1] - alphas[k]
                k1 = riccati_rhs(alphas[k], u)
                k2 = riccati_rhs(alphas[k] + 0.5 * da, u + 0.5 * da * k1)
                k3 = riccati_rhs(alphas[k] + 0.5 * da, u + 0.5 * da * k2)
                k4 = riccati_rhs(alphas[k] + da, u + da * k3)
                u = u + (da / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert _bits(riccati_consistency(prof)) == worst.hex()

    def test_residual_and_oracles_are_floats(self, solved_profile):
        y = solved_profile.y_grid[500]
        assert type(alpha_ode_residual(solved_profile, y)) is float
        assert type(solved_profile.angle(y)) is float
        assert type(riccati_consistency(solved_profile)) is float


def _reference_integrate(alpha0, alpha1_0, alpha2_0, y_span, step):
    """integrate_alpha with the whole step of every step taken inside the
    loop, before its two halves (valid inputs only)."""
    y0, y1 = y_span
    n = max(1, round((y1 - y0) / step))
    state = (float(alpha0), float(alpha1_0), float(alpha2_0))
    alpha3, reason = constructor._node(state)
    eps_sing, min_slope = constructor.EPS_SING, constructor.MIN_SLOPE
    assert not reason
    h = (y1 - y0) / n
    rows = [(y0, *state, alpha3)]
    worst = 0.0
    rk4, third = constructor._rk4_step, constructor._third_derivative
    quarter = math.floor(2.0 * state[0] / math.pi)
    for k in range(n):
        try:
            full = rk4(state, alpha3, h)
            mid = rk4(state, alpha3, 0.5 * h)
            a, b, c = half = rk4(mid, third(*mid), 0.5 * h)
            if not all(map(math.isfinite, (*full, a, b, c))):
                reason = "non-finite state"
            elif math.floor(2.0 * a / math.pi) != quarter:
                reason = (f"step crossed sin(2 alpha) = 0 between alpha="
                          f"{state[0]:.6g} and alpha={a:.6g}")
            elif abs(math.sin(a) * math.cos(a)) < eps_sing:
                reason = f"|sin*cos| margin {eps_sing:g} hit at alpha={a:.6g}"
            elif abs(b) < min_slope:
                reason = f"|alpha'| fell below {min_slope:g}"
            else:
                alpha3 = third(a, b, c)
        except SingularCoefficient as err:
            reason = str(err)
        except (OverflowError, ValueError):
            reason = "non-finite state"
        if reason:
            break
        worst = max(worst, max(abs(full[0] - a), abs(full[1] - b),
                               abs(full[2] - c)) / 15.0)
        state = half
        rows.append((y0 + (k + 1) * h, a, b, c, alpha3))
    ys, alpha, alpha1, alpha2, alpha3 = np.array(rows).T.copy()
    return AlphaProfile(ys, alpha, alpha1, alpha2, bool(reason), reason,
                        worst, alpha3)


def _assert_same_integration(*args):
    prof = integrate_alpha(*args)
    ref = _reference_integrate(*args)
    for name in ("y_grid", "alpha", "alpha1", "alpha2", "alpha3"):
        assert getattr(prof, name).tobytes() == getattr(ref, name).tobytes()
    assert _bits(prof.step_error) == _bits(ref.step_error)
    assert prof.truncated is ref.truncated
    assert prof.truncate_reason == ref.truncate_reason
    return prof


class TestWholeStepPass:
    """integrate_alpha against the loop that takes each whole step before
    its halves: node columns, step_error and truncation, bit for bit."""

    @pytest.mark.parametrize("start, span, step", [
        (START, (0.0, 1.0), 1e-3),
        ((math.pi / 4, 0.6, -0.36), (0.0, 0.64), 0.08),
        ((math.pi / 4, 0.6, -0.36), (0.0, 0.64), 0.04),
        ((math.pi / 4, 0.6, -0.36), (0.0, 0.64), 0.02),
        ((0.3, -50.0, 100.0), (0.0, 1.0), 1e-2),
        ((0.8, 1.0, 1e6), (0.0, 1.0), 1e-2),
        ((0.1, -0.5, -2.0), (0.0, 5.0), 1e-3),
        ((0.3, 1e30, 0.0), (0.0, 1.0), 1e-2),
        ((0.3, 1.0, 0.0), (0.0, 1.0), 1e-2),
        ((0.8, 0.1, -0.01), (0.0, 1.0), 1e-3),
        ((1.45, 0.8, 0.0), (0.0, 1.0), 1e-3),
        *((corner, (0.0, 1.0), 1e-4) for corner in BOX_CORNERS),
    ])
    def test_matches_reference(self, start, span, step):
        _assert_same_integration(*start, span, step)

    def test_stage_margin_reason_from_the_whole_step(self):
        # a whole-step stage enters the sin*cos^2 margin one step before
        # the halves would stop; the loop alone read 9.990e-07
        prof = _assert_same_integration(1.45, 0.8, 0.0, (0.0, 1.0), 1e-3)
        assert prof.truncate_reason == ("sin*cos^2 = 9.934e-07 inside the "
                                        "margin at alpha = 1.5698")

    @settings(max_examples=30)
    @example(1.45, 0.8, 1.0, 0.0, 1e-3)
    @given(st.floats(0.02, 1.565), st.floats(0.05, 3.0),
           st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0),
           st.sampled_from([1e-2, 2e-3, 1e-3]))
    def test_draws_match_reference(self, alpha0, speed, sign, u0, step):
        # initial data clear of the margins; some runs truncate at a stage
        # margin near pi/2, others at a crossing
        alpha1_0 = sign * speed
        _assert_same_integration(alpha0, alpha1_0, u0 * alpha1_0 ** 2,
                                 (0.0, 1.0), step)

    @pytest.mark.parametrize("start, reason", [
        # the half steps raise at a stage inside the margin: that comes
        # before the non-finite whole step in the checks
        ((1.566, 2.2, 0.0),
         "sin*cos^2 = 4.952e-07 inside the margin at alpha = 1.5715"),
        # the half steps cross a zero of sin(2 alpha)
        ((0.3, -50.0, 100.0), "non-finite state"),
        ((0.3, 1.0, 0.0), "non-finite state"),
    ])
    def test_non_finite_whole_step_where_halves_stop(self, monkeypatch,
                                                     start, reason):
        rk4 = constructor._rk4_step

        def infinite_whole_step(state, f1, h):
            out = rk4(state, f1, h)
            return (math.inf, *out[1:]) if h == 1e-2 else out

        monkeypatch.setattr(constructor, "_rk4_step", infinite_whole_step)
        prof = _assert_same_integration(*start, (0.0, 1.0), 1e-2)
        assert prof.truncate_reason == reason
        assert len(prof.y_grid) == 1

    def test_whole_step_fails_in_a_later_pass(self):
        # the halves stop after 4,617 steps; the whole step of the stopped
        # step, in the fifth pass, enters the margin first
        prof = _assert_same_integration(1.45, 0.8, 0.0, (0.0, 1.0), 1e-4)
        assert len(prof.y_grid) - 1 > 4 * constructor._CHUNK
        assert prof.truncate_reason == ("sin*cos^2 = 9.991e-07 inside the "
                                        "margin at alpha = 1.5698")

    def test_non_finite_whole_step_in_a_later_pass(self, monkeypatch):
        # the whole step from node 1,500 (second pass) is made infinite,
        # in the array pass and in the float replay: the integration ends
        # there, and step_error is the worst of the steps before it, from
        # both passes
        args = (*START, (0.0, 1.0), 1e-4)
        node = float(integrate_alpha(*args).alpha[1500])
        rk4 = constructor._rk4_step

        def infinite_from_node(state, f1, h):
            out = rk4(state, f1, h)
            if h != 1e-4:
                return out
            if type(f1) is float:
                return (math.inf, *out[1:]) if state[0] == node else out
            return (np.where(state[0] == node, math.inf, out[0]), *out[1:])

        monkeypatch.setattr(constructor, "_rk4_step", infinite_from_node)
        prof = _assert_same_integration(*args)
        assert len(prof.y_grid) == 1501
        assert prof.truncate_reason == "non-finite state"
        assert prof.step_error > 0.0

    @pytest.mark.parametrize("start", [(0.8, 1.0, 1e6), (0.3, 1e30, 0.0)])
    def test_overflow_warns_nothing(self, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = integrate_alpha(*start, (0.0, 1.0), 1e-2)
        assert prof.truncated


def _reference_riccati(profile):
    """riccati_consistency as a loop over ``.tolist()`` columns, indexed by
    node (the form it had before it walked the columns in place)."""
    alphas = profile.alpha.tolist()
    slopes, curvs = profile.alpha1.tolist(), profile.alpha2.tolist()
    if min(map(abs, slopes)) ** 2 == 0.0:
        raise SingularProfile("alpha'^2 = 0 at a node: u = alpha''/alpha'^2 "
                              "is undefined")
    coefficients = constructor._riccati_coefficients
    u = curvs[0] / slopes[0] ** 2
    worst = 0.0
    end, end_pq = math.nan, None
    for k in range(len(alphas)):
        worst = max(worst, abs(u - curvs[k] / slopes[k] ** 2))
        if k + 1 < len(alphas):
            a = alphas[k]
            da = alphas[k + 1] - a
            p, q = end_pq if end == a else coefficients(a)
            k1 = -2.0 * u * u - p * u - q
            p, q = coefficients(a + 0.5 * da)
            v = u + 0.5 * da * k1
            k2 = -2.0 * v * v - p * v - q
            v = u + 0.5 * da * k2
            k3 = -2.0 * v * v - p * v - q
            end = a + da
            p, q = end_pq = coefficients(end)
            v = u + da * k3
            k4 = -2.0 * v * v - p * v - q
            u = u + (da / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return worst


def _riccati_outcome(check, profile):
    try:
        return _bits(check(profile))
    except (SingularProfile, SingularCoefficient, ValueError, OverflowError,
            IndexError) as err:
        return type(err).__name__, str(err)


def _assert_same_riccati(profile):
    got = _riccati_outcome(riccati_consistency, profile)
    assert got == _riccati_outcome(_reference_riccati, profile)
    return got


class TestRiccatiWalk:
    """riccati_consistency, walking the node columns in place, against the
    loop over lists: the result bit for bit, and the same errors."""

    @pytest.mark.parametrize("start, span, step", [
        (START, (0.0, 1.0), 1e-3),
        ((math.pi / 4, 0.6, -0.36), (0.0, 0.64), 0.08),
        ((0.3, -50.0, 100.0), (0.0, 1.0), 1e-2),
        ((0.8, 1.0, 1e6), (0.0, 1.0), 1e-2),
        ((0.1, -0.5, -2.0), (0.0, 5.0), 1e-3),
        ((1.45, 0.8, 0.0), (0.0, 1.0), 1e-3),
        *((corner, (0.0, 1.0), 1e-4) for corner in BOX_CORNERS),
    ])
    def test_integration_inputs(self, start, span, step):
        _assert_same_riccati(integrate_alpha(*start, span, step))

    def test_jumps(self):
        # a + da misses the next node, so a step's start coefficients are
        # made afresh
        ys = np.linspace(0.0, 1.0, 5)
        prof = AlphaProfile(ys, np.array([0.35, 0.7, 0.19, 0.89, 0.54]),
                            np.ones_like(ys), np.zeros_like(ys))
        assert isinstance(_assert_same_riccati(prof), str)

    def test_zero_slope_message(self):
        ys = np.linspace(0.0, 1.0, 11)
        slopes = np.full(11, 0.5)
        slopes[4] = 0.0
        prof = AlphaProfile(ys, 0.3 + 0.5 * ys, slopes, np.zeros(11))
        assert _assert_same_riccati(prof)[0] == "SingularProfile"

    def test_margin_message(self):
        # the midpoint of the last step lies within the margin of pi/2
        ys = np.linspace(0.0, 1.0, 11)
        prof = AlphaProfile(ys, 1.0 + 0.6 * ys, np.ones_like(ys),
                            np.zeros_like(ys))
        assert _assert_same_riccati(prof)[0] == "SingularCoefficient"

    def test_short_column_raises(self):
        ys = np.linspace(0.0, 1.0, 5)
        prof = AlphaProfile(ys, 0.5 + 0.1 * ys, np.ones(4), np.zeros(5))
        for check in (riccati_consistency, _reference_riccati):
            with pytest.raises(IndexError):
                check(prof)

    # the largest float inside the sin*cos margin above 0, and the end of
    # the step to it from 0.5, which rounds to a float outside it
    EDGE = 0.0010000006666678665

    @pytest.mark.parametrize("alphas", [
        [EDGE, 0.3, 0.35, 0.4, 0.45],  # the first start
        [0.3, 0.4, 0.5, EDGE, 0.3, 0.35],  # a start the last end missed
        [0.3, 0.4, 0.5, EDGE, -EDGE, 0.3],  # ... whose midpoint is inside too
    ])
    def test_fresh_start_inside_the_margin(self, alphas):
        assert 0.5 + (self.EDGE - 0.5) != self.EDGE
        ys = np.linspace(0.0, 1.0, len(alphas))
        prof = AlphaProfile(ys, np.array(alphas), np.ones_like(ys),
                            np.zeros_like(ys))
        got = _assert_same_riccati(prof)
        assert got[0] == "SingularCoefficient"
        assert f"at alpha = {self.EDGE:.6g}" in got[1]

    def test_midpoint_overflow(self):
        # 1e308 - (-1e308) overflows, so the step's midpoint is infinite
        # and libm's sin raises
        ys = np.linspace(0.0, 1.0, 6)
        prof = AlphaProfile(ys, np.array([0.5, 0.6, 1e308, -1e308, 0.7, 0.8]),
                            np.ones_like(ys), np.zeros_like(ys))
        assert _assert_same_riccati(prof) == ("ValueError",
                                              "math domain error")

    @staticmethod
    def _long_profile(n, top):
        """n nodes of alpha rising from 0.3 to ``top``: more than one
        column pass of steps."""
        assert n > 2 * constructor._CHUNK
        ys = np.linspace(0.0, 1.0, n)
        return ys, 0.3 + (top - 0.3) * ys

    @pytest.mark.parametrize("top", [1.2, 1.6])
    def test_first_bad_step_in_a_later_pass(self, top):
        # alpha passes pi/2 - EPS_SING after the second pass (top 1.6), or
        # never (top 1.2)
        ys, alphas = self._long_profile(2500, top)
        prof = AlphaProfile(ys, alphas, np.full_like(ys, 0.9), np.sin(3 * ys))
        got = _assert_same_riccati(prof)
        assert (got[0] == "SingularCoefficient") == (top > 1.2)

    @pytest.mark.parametrize("bad", [
        "non-finite",  # a midpoint past the float range, after the margin
        "overflow",  # the deviation's alpha'^2 overflows where a point of
                     # the same step is inside the margin: that comes first
    ])
    def test_later_pass_error_order(self, bad):
        ys, alphas = self._long_profile(2500, 1.6)
        slopes = np.full_like(ys, 0.9)
        sc = np.abs(np.sin(alphas) * np.cos(alphas))
        first = int(np.argmax(sc < constructor.EPS_SING)) - 1
        assert first > 2 * constructor._CHUNK
        if bad == "non-finite":
            alphas[first - 40:first - 38] = 1e308, -1e308
        else:
            slopes[first] = 1e200
        prof = AlphaProfile(ys, alphas, slopes, np.sin(3 * ys))
        expected = {"non-finite": "ValueError", "overflow": "OverflowError"}
        assert _assert_same_riccati(prof)[0] == expected[bad]

    @given(st.floats(0.3, 1.2), st.floats(0.05, 1.0),
           st.sampled_from([1.0, -1.0]), st.floats(-2.0, 2.0))
    def test_draws(self, alpha0, speed, sign, u0):
        alpha1_0 = sign * speed
        _assert_same_riccati(integrate_alpha(
            alpha0, alpha1_0, u0 * alpha1_0 ** 2, (0.0, 1.0), 1e-2))


def _column_bytes(profile):
    return sum(getattr(profile, name).nbytes for name in (
        "y_grid", "alpha", "alpha1", "alpha2", "alpha3"))


class TestMemoryStaysFlat:
    """Traced peaks of an integration and of its Riccati check against the
    bytes of the columns the integration returns: the node rows are freed
    once laid out as columns, and the array passes work on fixed-size
    chunks of steps."""

    def test_integration_peak(self):
        # 10**4 steps: tracing the float loop over 10**5 takes about 40 s,
        # for the same ratio
        tracemalloc.start()
        try:
            prof = integrate_alpha(0.8, 0.1, -0.01, (0.0, 1.0), 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prof.y_grid) == 10 ** 4 + 1 and not prof.truncated
        assert peak <= 2.5 * _column_bytes(prof)

    def test_truncated_integration_peak(self):
        # a whole step fails in the fifth pass: the float replay reads the
        # nodes from that pass on, not the whole table
        tracemalloc.start()
        try:
            prof = integrate_alpha(1.45, 0.8, 0.0, (0.0, 1.0), 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prof.y_grid) == 4_618 and prof.truncated
        assert peak <= 2.5 * _column_bytes(prof)

    def test_dropped_construction_is_freed_at_once(self, solved_profile):
        # nothing is left for the cyclic collector, so a construction's
        # profile columns do not outlive it by a collection's phase
        gc.collect()
        gc.disable()
        try:
            built = build_nonflat_target(ConstructionSpec(solved_profile))
            assert verify_construction(built.canonical, tol=1e-4,
                                       grid=(5, 5)).passed
            del built
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_riccati_peak(self):
        prof = integrate_alpha(0.8, 0.1, -0.01, (0.0, 1.0), 1e-5)
        tracemalloc.start()
        try:
            riccati_consistency(prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * _column_bytes(prof)


class TestNonFiniteProfile:
    """A NaN or an infinity in a node column is a SingularProfile naming
    the column and the node; a NaN alone would pass every margin check."""

    @staticmethod
    def _profile(*bad):
        ys = np.linspace(0.0, 1.0, 11)
        cols = {"y_grid": ys, "alpha": 0.3 + 0.5 * ys,
                "alpha1": np.full(11, 0.5), "alpha2": np.sin(3 * ys)}
        for name, node, value in bad:
            cols[name] = cols[name].copy()
            cols[name][node] = value
        return AlphaProfile(**cols)

    @pytest.mark.parametrize("bad, named", [
        ((("alpha", 5, math.nan),), "alpha[5] = nan"),
        ((("alpha1", 9, math.inf),), "alpha1[9] = inf"),
        ((("alpha2", 0, -math.inf),), "alpha2[0] = -inf"),
        ((("y_grid", 4, math.nan),), "y_grid[4] = nan"),
        # the first column in the order y, alpha, alpha', alpha'', then its
        # first node
        ((("alpha1", 2, math.inf), ("alpha", 7, math.nan),
          ("alpha", 8, math.inf)), "alpha[7] = nan"),
    ])
    def test_checks_name_the_first_non_finite_value(self, bad, named):
        prof = self._profile(*bad)
        message = re.escape(f"{named} is not finite")
        with pytest.raises(SingularProfile, match=message):
            prof.validate()
        with pytest.raises(SingularProfile, match=message):
            riccati_consistency(prof)
        # the residual table, on and between nodes, and the array path
        for y in (0.3, 0.45, 0.5, np.array([0.3, 0.5])):
            with pytest.raises(SingularProfile, match=message):
                alpha_ode_residual(self._profile(*bad), y)

    def test_node_lookups_check_once(self, monkeypatch):
        checks = []
        check = AlphaProfile._check_finite

        def counted(profile):
            checks.append(1)
            return check(profile)

        monkeypatch.setattr(AlphaProfile, "_check_finite", counted)
        prof = self._profile()
        for _ in range(3):
            for y in prof.y_grid[1:-1]:
                alpha_ode_residual(prof, y)
        assert len(checks) == 1

    def test_empty_profile_keeps_the_min_error(self):
        empty = np.array([])
        with pytest.raises(ValueError, match=r"^min\(\) arg is an empty "
                                             r"sequence$"):
            riccati_consistency(AlphaProfile(empty, empty, empty, empty))


class TestOneBatchPerCheck:
    def test_no_batch_of_the_grid_alone(self, solved_profile, monkeypatch):
        # the side conditions are evaluated on residual_report's batch
        # (grid plus flat-factor probes), never on the grid by itself
        spec = build_nonflat_target(ConstructionSpec(solved_profile)).canonical
        grid = (7, 7)
        n = len(spec.verification_points(grid))
        rows = []
        batch = numkernel._Sweep.batch

        def counted(self, array):
            rows.append(len(array))
            return batch(self, array)

        monkeypatch.setattr(numkernel._Sweep, "batch", counted)
        rep = verify_construction(spec, tol=1e-4, grid=grid)
        assert rep.passed
        assert n + 3 in rows and n not in rows


class TestAxesRead:
    """The warped construction reads the axes its profile and free
    functions vary along: analytic verification takes no difference, and
    an fd copy takes differences along those axes alone."""

    @pytest.fixture
    def built(self, solved_profile):
        return build_nonflat_target(ConstructionSpec(
            solved_profile, phi=field_of(0.3 * sp.sin(T), 1)))

    def test_exponents_read_their_axes(self, built):
        assert [numkernel._axes(spec.domain_metric.conformal_exponent, {})
                for spec in (built.canonical, built.general)] == [0b010,
                                                                  0b011]

    def test_analytic_verification_takes_no_difference(self, built,
                                                       leg_rows):
        # 16,368 stencil-leg rows per spec while the profile's field was
        # read as every axis
        for spec in (built.canonical, built.general):
            assert verify_construction(spec, tol=1e-4, grid=(11, 11)).passed
        assert leg_rows == []

    def test_fd_copy_differences_along_the_axes_it_reads(self, built,
                                                         leg_rows):
        # 5,456 stencil-leg rows, where differences along all three axes
        # take 77,376
        assert verify_construction(numeric_only(built.canonical), tol=1e-4,
                                   grid=(11, 11)).passed
        assert sum(leg_rows) < 10_000


class TestFlatTargetBuilder:
    def test_cosh_family_residual_vanishes(self):
        spec, tags = build_flat_target(field_of(2 * sp.log(sp.cosh(S)), 2),
                                       ChartBox((-1.0, -1.5, -0.5),
                                                (1.0, 1.5, 0.5), 0.05))
        assert tags == ()
        rep = verify_construction(spec, tol=1e-6, grid=(7, 7))
        assert rep.passed
        assert rep.classification == "proper biharmonic"

    def test_square_root_family(self):
        spec, _ = build_flat_target(field_of(2 * sp.log(S), 2),
                                    ChartBox((-1.0, 0.5, -0.5),
                                             (1.0, 3.0, 0.5), 0.05))
        rep = verify_construction(spec, tol=1e-6, grid=(7, 7))
        assert rep.passed

    def test_square_exponent_residual(self):
        spec, _ = build_flat_target(field_of(S**2, 2))
        assert spec.aux_residual((0.0, 1.0, 0.0)) == pytest.approx(4.0,
                                                                   abs=1e-9)
        rep = verify_construction(spec, tol=1e-6, grid=(5, 5))
        assert not rep.passed

    def test_slope_free_exponent_flagged(self):
        _, tags = build_flat_target(field_of(0.4 * T, 2))
        assert any("harmonic" in f for f in tags)


class TestNonflatBuilder:
    def test_linear_angle_metrics(self):
        # alpha(y) = y exercises the metric builders only (not a solution
        # of the angle ODE): domain tan^2(y) dt^2 + dy^2 + dz^2 and target
        # dy^2 + sin^2(y) dpsi^2 with curvature 1
        ys = np.linspace(0.3, 1.2, 181)
        prof = AlphaProfile(ys, ys.copy(), np.ones_like(ys),
                            np.zeros_like(ys))
        built = build_nonflat_target(ConstructionSpec(prof))
        y = 0.7
        w = at_point(built.canonical.domain_metric.weights,
                     point=(0.1, y, 0.0))
        assert w[0] == pytest.approx(math.tan(y) ** 2, abs=1e-10)
        assert w[1] == w[2] == 1.0
        tw = at_point(built.target.weights, point=(y, 0.3))
        assert tw[1] == pytest.approx(math.sin(y) ** 2, abs=1e-10)
        assert built.target_curvature(y) == pytest.approx(1.0, abs=1e-9)

    def test_linear_angle_is_not_biharmonic(self):
        ys = np.linspace(0.3, 1.2, 181)
        prof = AlphaProfile(ys, ys.copy(), np.ones_like(ys),
                            np.zeros_like(ys))
        built = build_nonflat_target(ConstructionSpec(prof))
        rep = verify_construction(built.canonical, tol=1e-4, grid=(5, 5))
        assert not rep.passed
        assert rep.channel("r1").max_abs > 1e-2

    def test_branch_sign_in_map(self, solved_profile):
        plus = build_nonflat_target(ConstructionSpec(solved_profile))
        minus = build_nonflat_target(
            ConstructionSpec(solved_profile, branch_sign=-1)
        )
        assert "z + t(x)" in plus.map_note
        assert "z - t(x)" in minus.map_note
        # identical metrics either way
        p = (0.1, 0.5, 0.0)
        assert at_point(plus.canonical.domain_metric.weights,
                        point=p) == pytest.approx(
            at_point(minus.canonical.domain_metric.weights, point=p)
        )

    def test_solved_profile_pipeline(self, solved_profile):
        built = build_nonflat_target(ConstructionSpec(solved_profile))
        rep = verify_construction(built.canonical, tol=1e-4, grid=(7, 7))
        assert rep.passed
        assert rep.classification == "proper biharmonic"
        assert rep.channel("ode_vs_channel_gap").max_abs <= 1e-4
        # transverse annihilation holds to round-off
        for c in rep.channels:
            if c.name.startswith("transverse"):
                assert c.max_abs < 1e-8

    def test_general_form_with_free_functions(self, solved_profile):
        phi = field_of(0.3 * sp.sin(T), 1)
        built = build_nonflat_target(ConstructionSpec(solved_profile, phi=phi))
        rep = verify_construction(built.general, tol=1e-4, grid=(5, 5))
        assert rep.passed

    def test_constant_fiber_collapse_rejected(self, solved_profile):
        with pytest.raises(ValueError):
            ConstructionSpec(solved_profile, F=ScalarField.constant(1.0, 1))

    def test_profile_outside_quadrant_rejected(self):
        ys = np.linspace(0.0, 1.0, 101)
        alpha = np.linspace(1.0, 2.0, 101)  # crosses pi/2
        prof = AlphaProfile(ys, alpha, np.ones_like(ys), np.zeros_like(ys))
        with pytest.raises(SingularProfile):
            build_nonflat_target(ConstructionSpec(prof))


class TestConstructCommandOracles:
    """`biharm construct` output against the point-by-point reference."""

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_report_table_and_stdout(self, tmp_path, capsys, mode):
        out, table = tmp_path / "c.jsonl", tmp_path / "p.txt"
        assert run(["construct", "--mode", mode, "--alpha0", "0.8",
                    "--alpha1", "0.1", "--u0", "-1", "--yspan", "0:1",
                    "--step", "1e-3", "--out", str(out),
                    "--profile-out", str(table)]) == 0
        stdout = capsys.readouterr().out
        prof = integrate_alpha(0.8, 0.1, -1.0 * 0.1 ** 2, (0.0, 1.0), 1e-3)
        assert table.read_text() == profile_to_text(prof)
        ode = max(abs(_reference_residual(prof, y))
                  for y in prof.y_grid[2:-2].tolist())
        ricc = riccati_consistency(prof)
        assert (f"third-order residual (differenced) <= {ode:.3e}; "
                f"Riccati cross-check deviation {ricc:.3e}\n") in stdout

        spec = build_nonflat_target(ConstructionSpec(prof)).canonical
        if mode == "fd":
            spec = numeric_only(spec)
        rep = verify_construction(spec, tol=1e-4)
        pts = spec.verification_points((21, 21))
        r1 = spec.residual_fields[0](as_batch(pts)).tolist()
        gaps = [abs(_reference_residual(prof, p[1])
                    - math.cos(prof.angle(p[1])) ** 3 * r)
                for p, r in zip(pts, r1)]
        assert _bits(rep.channel("ode_vs_channel_gap").max_abs) == \
            max(gaps).hex()
        expected = tmp_path / "expected.jsonl"
        write_report(str(expected), [rep], header={
            "command": "construct", "mode": mode, "tolerance": 1e-4,
            "alpha0": 0.8, "alpha1": 0.1, "u0": -1.0, "yspan": [0.0, 1.0],
            "step": 1e-3, "ode_residual": ode, "riccati_deviation": ricc,
        })
        assert out.read_bytes() == expected.read_bytes()


class TestSerialization:
    def test_round_trip(self, solved_profile):
        text = profile_to_text(solved_profile)
        assert text.splitlines()[0] == "y alpha alpha1 alpha2"
        back = profile_from_text(text)
        assert np.array_equal(back.y_grid, solved_profile.y_grid)
        assert np.array_equal(back.alpha, solved_profile.alpha)
        assert np.array_equal(back.alpha1, solved_profile.alpha1)
        assert np.array_equal(back.alpha2, solved_profile.alpha2)

    def test_header_required(self):
        with pytest.raises(ValueError):
            profile_from_text("a b c\n1 2 3\n")

    @pytest.mark.parametrize("text, line", [
        ("y alpha alpha1 alpha2\n", "line 2"),
        ("\ny alpha alpha1 alpha2\n\n0 0.5 0.1 0\n0.1 0.6 0.1\n", "line 5"),
    ])
    def test_missing_or_short_row_names_the_line(self, text, line):
        with pytest.raises(ValueError, match=f"^{line}: "):
            profile_from_text(text)
