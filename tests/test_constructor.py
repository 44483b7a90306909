import math
import random
import re

import numpy as np
import pytest
import sympy as sp

from biharm import constructor
from biharm.cli import run
from biharm.constructor import (
    MAX_STEPS,
    AlphaProfile,
    ConstructionSpec,
    alpha_ode_residual,
    build_flat_target,
    build_nonflat_target,
    integrate_alpha,
    ode_residual_terms,
    profile_from_text,
    profile_to_text,
    riccati_consistency,
    riccati_rhs,
    simpson_integral,
    verify_construction,
)
from biharm.errors import (
    ImmediateSingularity,
    OutOfProfile,
    SingularCoefficient,
    SingularProfile,
)
from biharm.numkernel import ChartBox, ScalarField, as_batch
from biharm.report import write_report
from conftest import S, T, field_of

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
    return ode_residual_terms(float(prof._interp("alpha")(at)[0]),
                              float(prof._interp("alpha1")(at)[0]),
                              float(np.interp(y, ys, a2s)), float(a3))


# the corners of the fiber-angle box every benchmark construction comes from
BOX_CORNERS = [(0.6, 0.05, -1.5 * 0.05 ** 2), (0.95, 0.15, -0.5 * 0.15 ** 2)]


class TestScalarPaths:
    """The float hot paths against their numpy forms, bit for bit."""

    def test_hermite_scalar_matches_array(self, solved_profile):
        herm = solved_profile._interp("alpha")
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
        herm = solved_profile._interp("alpha1")
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

    def test_three_rk4_calls_per_step(self, monkeypatch):
        calls = []
        rk4 = constructor._rk4_step

        def counted(*args):
            calls.append(1)
            return rk4(*args)

        monkeypatch.setattr(constructor, "_rk4_step", counted)
        prof = integrate_alpha(*START, (0.0, 0.05), 1e-3)
        assert not prof.truncated
        assert len(calls) == 3 * (len(prof.y_grid) - 1) == 150

    def test_eleven_evaluations_per_step(self, monkeypatch):
        # the third derivative at a step's start is the previous node's
        calls = []
        third = constructor._third_derivative

        def counted(*args):
            calls.append(1)
            return third(*args)

        monkeypatch.setattr(constructor, "_third_derivative", counted)
        prof = integrate_alpha(*START, (0.0, 0.05), 1e-3)
        assert not prof.truncated
        assert len(calls) == 1 + 11 * (len(prof.y_grid) - 1) == 551

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
                                       None])
    def test_riccati_matches_four_call_loop(self, start):
        if start is None:
            # coarse steps in alpha, so a last-bit change in one stage
            # survives into u instead of rounding away
            ys = np.linspace(0.0, 1.0, 17)
            prof = AlphaProfile(ys, 0.3 + 0.9 * ys, np.full_like(ys, 0.9),
                                np.sin(3 * ys))
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


class TestFlatTargetBuilder:
    def test_cosh_family_residual_vanishes(self):
        spec = build_flat_target(field_of(2 * sp.log(sp.cosh(S)), 2),
                                 ChartBox((-1.0, -1.5, -0.5),
                                          (1.0, 1.5, 0.5), 0.05))
        rep = verify_construction(spec, tol=1e-6, grid=(7, 7))
        assert rep.passed
        assert rep.classification == "proper biharmonic"

    def test_square_root_family(self):
        spec = build_flat_target(field_of(2 * sp.log(S), 2),
                                 ChartBox((-1.0, 0.5, -0.5),
                                          (1.0, 3.0, 0.5), 0.05))
        rep = verify_construction(spec, tol=1e-6, grid=(7, 7))
        assert rep.passed

    def test_square_exponent_residual(self):
        spec = build_flat_target(field_of(S**2, 2))
        assert spec.aux_residual((0.0, 1.0, 0.0)) == pytest.approx(4.0,
                                                                   abs=1e-9)
        rep = verify_construction(spec, tol=1e-6, grid=(5, 5))
        assert not rep.passed

    def test_slope_free_exponent_flagged(self):
        spec = build_flat_target(field_of(0.4 * T, 2))
        assert any("harmonic" in f for f in spec.flags)


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
        w = built.canonical.domain_metric.weights((0.1, y, 0.0))
        assert w[0] == pytest.approx(math.tan(y) ** 2, abs=1e-10)
        assert w[1] == w[2] == 1.0
        tw = built.target.weights((y, 0.3))
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
        assert plus.canonical.domain_metric.weights(p) == pytest.approx(
            minus.canonical.domain_metric.weights(p)
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
        w = field_of(0.2 * T, 1)
        built = build_nonflat_target(
            ConstructionSpec(solved_profile, phi=phi, w=w)
        )
        rep = verify_construction(built.general, tol=1e-4, grid=(5, 5))
        assert rep.passed
        # the horizontal arc integrates e^{phi}
        cs = ConstructionSpec(solved_profile, phi=phi)
        val = cs.horizontal_arc(1.0)
        exact = simpson_integral(lambda x: math.exp(0.3 * math.sin(x)),
                                 -1.0, 1.0, abs_tol=1e-12)
        assert val == pytest.approx(exact, abs=1e-9)

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
            spec = spec.numeric_only()
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


class TestQuadrature:
    def test_exponential(self):
        assert simpson_integral(math.exp, 0.0, 1.0) == pytest.approx(
            math.e - 1.0, abs=1e-10
        )

    def test_empty_interval(self):
        assert simpson_integral(math.exp, 0.5, 0.5) == 0.0
