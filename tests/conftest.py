import math

import pytest
import sympy as sp
from hypothesis import settings

from biharm import numkernel
from biharm.numkernel import ChartBox, ScalarField, fcos, fsin
from biharm.geometry import ProductMetric3
from biharm.hypersurface import SurfaceImmersion

# property tests draw the same few examples on every run, so Tier-1 stays
# deterministic and quick
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=8, database=None)
settings.load_profile("tier1")

# Test inputs are written as sympy expressions in these symbols (axis i of a
# chart is X[i]) and translated to field graphs by ``field_of``; sympy
# itself also serves as an independent derivative oracle.
X = sp.symbols("x0 x1 x2", real=True)
T, S, Z = X

_FUNCTIONS = {
    sp.sin: numkernel.fsin, sp.cos: numkernel.fcos, sp.exp: numkernel.fexp,
    sp.log: numkernel.flog, sp.tan: numkernel.ftan,
    sp.atan: numkernel.fatan, sp.cosh: numkernel.fcosh,
    sp.sinh: numkernel.fsinh,
}


def field_of(expr, dim):
    """The field graph over coordinate fields of a sympy expression in
    X[:dim]; integer powers become products and quotients."""
    expr = sp.sympify(expr)
    if not expr.free_symbols:
        return ScalarField.constant(float(expr), dim)
    if expr.is_Symbol:
        return ScalarField.coordinate(X.index(expr), dim)
    args = [field_of(a, dim) for a in expr.args]
    if expr.is_Add:
        return sum(args[1:], args[0])
    if expr.is_Mul:
        out = args[0]
        for a in args[1:]:
            out = out * a
        return out
    if expr.is_Pow:
        base, power = args[0], expr.exp
        if power == sp.Rational(1, 2):
            return numkernel.fsqrt(base)
        if power.is_Integer:
            out = base
            for _ in range(abs(int(power)) - 1):
                out = out * base
            if power < 0:
                return ScalarField.constant(1.0, dim) / out
            return out
        return numkernel.fexp(float(power) * numkernel.flog(base))
    if expr.func is sp.atan2:
        return numkernel.fatan2(*args)
    return _FUNCTIONS[expr.func](*args)


def field_of_text(text, variables):
    """``field_of`` for a text expression in the given variable names, in
    axis order."""
    names = sp.symbols(list(variables))
    expr = sp.sympify(text).subs(dict(zip(names, X)), simultaneous=True)
    return field_of(expr, len(names))


def in_mode(mode, objs):
    """``objs`` as ``mode`` evaluates them: themselves, or in "fd" mode
    their finite-difference copies, made one at a time as the CLI makes
    them."""
    return map(numkernel.numeric_only, objs) if mode == "fd" else objs


def graph_nodes(field, seen=None):
    """Every field of the graph below ``field``, itself included."""
    seen = {} if seen is None else seen
    if id(field) not in seen:
        seen[id(field)] = field
        for arg in field._args:
            for f in arg if type(arg) is tuple else (arg,):
                if isinstance(f, ScalarField):
                    graph_nodes(f, seen)
    return seen.values()


@pytest.fixture
def leg_rows(monkeypatch):
    """The rows of every stencil leg evaluated from here on, one entry of
    2 x batch rows per central difference."""
    rows = []
    legs = numkernel._legs

    def counted(f, batch, axis, h):
        rows.append(2 * len(batch))
        return legs(f, batch, axis, h)

    monkeypatch.setattr(numkernel, "_legs", counted)
    return rows


@pytest.fixture
def flat_metric3():
    box = ChartBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 0.05)
    return ProductMetric3(ScalarField.constant(0.0, 3), box)


@pytest.fixture
def sphere_metric3():
    """Unit-sphere base: q = log(sin s), Gauss curvature 1."""
    box = ChartBox((-1.0, 0.3, -1.0), (1.0, 2.8, 1.0), 0.05)
    return ProductMetric3(field_of(sp.log(sp.sin(S)), 2), box)


@pytest.fixture
def hyperbolic_metric3():
    """q = s, Gauss curvature -1."""
    box = ChartBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 0.05)
    return ProductMetric3(field_of(S, 2), box)


# -- surfaces --------------------------------------------------------------------

_U, _V = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)


def flat_ambient(extent=3.0) -> ProductMetric3:
    box = ChartBox((-extent,) * 3, (extent,) * 3, 0.05)
    return ProductMetric3(ScalarField.constant(0.0, 3), box)


def graph_immersion(height, extent=1.0) -> SurfaceImmersion:
    """Graph z = h(u, v) over the flat base plane; ``height`` is a field on
    the (u, v) chart."""
    ambient = flat_ambient(extent=max(3.0, 2 * extent))
    comps = (_U, _V, height)
    uv_box = ChartBox((-extent, -extent), (extent, extent), 0.05)
    return SurfaceImmersion(comps, ambient, uv_box, label="graph")


def slice_immersion(ambient: ProductMetric3, z0=0.0) -> SurfaceImmersion:
    """The horizontal slice {z = z0}, a totally geodesic copy of the base."""
    box = ambient.box
    uv_box = ChartBox(box.lower[:2], box.upper[:2], box.guard)
    comps = (
        ScalarField.coordinate(0, 2),
        ScalarField.coordinate(1, 2),
        ScalarField.constant(z0, 2),
    )
    return SurfaceImmersion(comps, ambient, uv_box, label=f"slice(z={z0:g})")


def tilted_plane(a=0.3, b=0.5, extent=1.0) -> SurfaceImmersion:
    return graph_immersion(a * _U + b * _V, extent=extent)


def round_sphere(radius=1.0) -> SurfaceImmersion:
    """Round sphere in the flat chart (polar angle u, azimuth v)."""
    ambient = flat_ambient(extent=2.0 * radius + 1.0)
    comps = (
        radius * fsin(_U) * fcos(_V),
        radius * fsin(_U) * fsin(_V),
        radius * fcos(_U),
    )
    uv_box = ChartBox((0.5, 0.3), (math.pi - 0.5, 2.5), 0.02)
    return SurfaceImmersion(comps, ambient, uv_box,
                            label=f"sphere(R={radius:g})")
