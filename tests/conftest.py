import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import settings

from biharm import numkernel
from biharm.constructor import AlphaProfile, _riccati_coefficients
from biharm.errors import GeometryError
from biharm.frames import adapted_frame, integrability_data, validate_frame
from biharm.numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    fcos,
    fexp,
    fsin,
    sweep,
)
from biharm.geometry import FrameField, ProductMetric3, gauss_curvature_2d
from biharm.hypersurface import (
    SurfaceImmersion,
    biharmonic_residuals_surface,
    surface_geometry,
)
from biharm.record import Record, replace
from biharm.report import ResidualReport, build_report, max_over_batch
from biharm.submersion import SubmersionSpec, projection_spec

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


def flipped(immersion: SurfaceImmersion) -> SurfaceImmersion:
    """The same surface with the opposite unit normal."""
    return replace(immersion, orientation=-immersion.orientation,
                   label=immersion.label + "-flipped")


# -- checks that no command runs ---------------------------------------------------


class NotUmbilic(GeometryError):
    """The shape operator is not a multiple of the identity."""


class UmbilicResult(Record):
    minimal: bool
    consistent: bool
    max_mean_curvature: float
    max_scalar_residual: float


@sweep()
def umbilic_biharmonic_test(immersion: SurfaceImmersion, points, tol=1e-6):
    """For totally umbilical surfaces, check biharmonic <=> minimal.

    Raises NotUmbilic when the shape operator is not H * Id on some point.
    Otherwise the verdict is consistent when either H vanishes everywhere
    (minimal, hence biharmonic) or the scalar residual is nonzero somewhere
    (nonminimal umbilical surfaces are never biharmonic).
    """
    batch = as_batch(points)
    geo = surface_geometry(immersion, batch)
    h = geo.mean_curvature
    dev = geo.shape_operator - h[:, None, None] * np.eye(2)
    defect = float(np.max(np.abs(dev), initial=0.0))
    h_max = float(np.max(np.abs(h), initial=0.0))
    if defect > tol:
        raise NotUmbilic(f"umbilic defect {defect:.3e} exceeds {tol:g}")
    if h_max <= tol:
        return UmbilicResult(minimal=True, consistent=True,
                             max_mean_curvature=h_max,
                             max_scalar_residual=0.0)
    worst = float(np.max(np.abs(
        biharmonic_residuals_surface(immersion, batch)[0])))
    return UmbilicResult(minimal=False, consistent=worst > tol,
                         max_mean_curvature=h_max, max_scalar_residual=worst)


class HarmonicityResult(Record):
    harmonic: bool
    report: object


@sweep()
def harmonicity_test(spec: SubmersionSpec, points, tol=1e-6):
    """Harmonic iff both fiber curvatures k1, k2 vanish on the points.

    Harmonic submersions have totally geodesic fibers; for those the test
    additionally asserts an integrable horizontal distribution (sigma = 0)
    and reports the agreement K_N = 3 sigma^2 + cos^2(alpha) K_base.
    """
    d = spec.data
    points = list(points)
    batch = as_batch(points)
    ch_k1 = max_over_batch("kappa1", points, d.kappa1(batch))
    ch_k2 = max_over_batch("kappa2", points, d.kappa2(batch))
    harmonic = max(ch_k1.max_abs, ch_k2.max_abs) <= tol
    channels = [ch_k1, ch_k2]
    notes = []
    extra_fail = False
    if harmonic:
        sigma = d.sigma(batch)
        channels.append(max_over_batch("sigma", points, sigma))
        kn = spec.target_curvature_field(batch)
        a33 = spec.frame.coeff[2][2](batch)
        kb = gauss_curvature_2d(spec.domain_metric, batch)
        channels.append(max_over_batch(
            "target_vs_base_curvature", points,
            kn - 3.0 * sigma ** 2 - a33 * a33 * kb))
        extra_fail = any(c.max_abs > tol for c in channels[2:])
        notes.append("totally geodesic fibers")
        # harmonic: kappa channels are within tol by definition
        report = build_report(spec.label, tol, channels, len(points),
                              classification="harmonic", notes=notes,
                              extra_fail=extra_fail)
    else:
        # fiber curvature channels are measurements here, not failures
        report = ResidualReport(
            case_label=spec.label, points_checked=len(points),
            channels=tuple(channels), tolerance=tol, verdict="pass",
            classification="not harmonic",
            notes=(f"max |kappa1| = {ch_k1.max_abs:.3e}",
                   f"max |kappa2| = {ch_k2.max_abs:.3e}"),
        )
    return HarmonicityResult(harmonic, report)


def data_channels(data):
    """The six bracket/connection functions of integrability data by name,
    without the base slope fbar they are built from."""
    return {name: getattr(data, name)
            for name in ("f1", "f2", "f3", "sigma", "kappa1", "kappa2")}


@sweep()
def mutation_detected(metric, spec, points, tol=1e-6, factor=1.1):
    """Scale each not-identically-zero data channel and check detection.

    Returns {channel name: detected} for every channel whose magnitude on
    the points exceeds the noise floor (a multiplicative bump of an
    identically-zero function is invisible by construction).
    """
    frame = adapted_frame(spec, metric)
    data = integrability_data(spec, frame)
    results = {}
    batch = as_batch(points)
    for name, fld in data_channels(data).items():
        scale = float(np.max(np.abs(fld(batch))))
        if scale <= 100.0 * tol:
            continue
        mutated = replace(data, **{name: fld * factor})
        results[name] = not validate_frame(frame, mutated, points, tol).passed
    return results


@sweep()
def biharmonic_residuals(spec: SubmersionSpec, point):
    """The two residual channels at a point; (0, 0) iff biharmonic there."""
    r1, r2 = spec.residual_fields
    return r1(point), r2(point)


# -- builders and readers that no command runs -------------------------------------


@sweep()
def build_flat_target(p, box=None, label="flat-target"):
    """Flat-target twisted projection for a free exponent p(x, y), with its
    tags: vanishing base slope p_y means the projection is harmonic, and
    such a spec comes back tagged rather than rejected."""
    if box is None:
        box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
    spec = projection_spec(p, box, label)
    q = spec.domain_metric.conformal_exponent
    pts = as_batch(spec.verification_points((5, 5)))
    slope = float(np.max(np.abs(q.partial(pts, 1, 1))))
    if slope <= 1e-12:
        return spec, ("harmonic: vanishing base slope",)
    return spec, ()


def riccati_rhs(alpha, u):
    """Right side of the Riccati equation for u(alpha) = a''/a'^2."""
    p, q = _riccati_coefficients(alpha)
    return -2.0 * u * u - p * u - q


def semi_geodesic_frame(metric) -> FrameField:
    """Orthonormal coordinate-aligned frame of a diagonal conformal metric.

    Leg 0 is e^{-q} along the weighted axis; the remaining legs are unit
    coordinate fields in ascending axis order.
    """
    d = metric.dim
    q = metric.conformal_exponent
    einv = fexp(-1.0 * q)
    zero = ScalarField.constant(0.0, d)
    one = ScalarField.constant(1.0, d)
    axes = [metric.weighted_axis] + [
        a for a in range(d) if a != metric.weighted_axis
    ]
    rows = []
    for leg, axis in enumerate(axes):
        row = [zero] * d
        row[axis] = einv if leg == 0 else one
        rows.append(tuple(row))
    coeff = tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )
    return FrameField(tuple(rows), metric, coeff)


def profile_from_text(text) -> AlphaProfile:
    """The profile of ``constructor.profile_to_text``'s columnar text."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1] != ["y", "alpha", "alpha1", "alpha2"]:
        raise ValueError("expected header 'y alpha alpha1 alpha2'")
    # a header alone: the first row is missing from the line after it
    for no, cols in lines[1:] or [(lines[0][0] + 1, [])]:
        if len(cols) != 4:
            raise ValueError(f"line {no}: expected a node row of 4 numbers")
    rows = np.array([[float(v) for v in cols] for _, cols in lines[1:]])
    return AlphaProfile(y_grid=rows[:, 0], alpha=rows[:, 1],
                        alpha1=rows[:, 2], alpha2=rows[:, 3])
