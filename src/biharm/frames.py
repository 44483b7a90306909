"""Adapted orthonormal frames on product 3-charts and their integrability data.

The semi-geodesic frame of a chart e^{2q(t,s)} dt^2 + ds^2 + dz^2 is
E1 = e^{-q} d_t, E2 = d_s, E3 = d_z.  An adapted frame is the rotation

    e1 = cos(theta) E1 + sin(theta) E2,
    e2 = -cos(alpha)(sin(theta) E1 - cos(theta) E2) + sin(alpha) E3,
    e3 =  sin(alpha)(sin(theta) E1 - cos(theta) E2) + cos(alpha) E3,

with e3 the unit vertical of a Riemannian submersion onto a surface and
alpha the angle between e3 and the flat factor.  Its integrability data
(f1, f2, f3, sigma, kappa1, kappa2) encode brackets and connection:

    f1 = 0,
    f2 = -fbar cos^2(a) - sin(a)cos(a) E3(theta),
    f3 = -E3(theta),
    sigma  = -fbar sin(a)cos(a) - sin^2(a) E3(theta),
    kappa1 = -fbar sin^2(a) + sin(a)cos(a) E3(theta),
    kappa2 = -e3(alpha),
    fbar   = -sin(theta) E1(theta) + cos(theta) E2(theta) + q_s sin(theta).

Not every smooth pair (theta, alpha) arises from a Riemannian submersion:
the angles must satisfy compatibility conditions (e.g. e1(alpha) = -sigma,
E3(theta) = 0, e1(theta) = q_s cos(theta)).  ``validate_frame`` checks the
full bracket/connection table and the curvature identities numerically and
therefore rejects incompatible specs; ``random_adapted_specs`` draws specs
from families that genuinely come from submersions.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .geometry import (
    FrameField,
    ProductMetric3,
    _require_orthonormal,
    base_sweep,
    frame_contraction,
    gauss_curvature_2d,
    riemann_chart,
)
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    as_field,
    directional_field,
    fatan,
    fatan2,
    fcos,
    fexp,
    flog,
    fsin,
    fsqrt,
    ftan,
    sweep,
)
from .record import Record, replace
from .report import build_report, max_over_batch


class AdaptedFrameSpec(Record):
    """Angle pair (theta, alpha) defining an adapted frame.

    ``theta`` orients the horizontal leg e1 inside the base surface;
    ``alpha`` is the angle between the vertical leg e3 and the flat factor.
    Scalars are accepted and treated as constant fields.
    """

    theta: ScalarField
    alpha: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "theta", as_field(self.theta, 3))
        object.__setattr__(self, "alpha", as_field(self.alpha, 3))


class IntegrabilityData(Record):
    """The six bracket/connection functions of an adapted frame, plus the
    rotated base slope fbar they are built from."""

    f1: ScalarField
    f2: ScalarField
    f3: ScalarField
    sigma: ScalarField
    kappa1: ScalarField
    kappa2: ScalarField
    fbar: ScalarField


def adapted_frame(spec: AdaptedFrameSpec, metric: ProductMetric3) -> FrameField:
    """Adapted frame of the angle spec, with rotation coefficients attached."""
    if metric.weighted_axis != 0:
        raise ValueError("adapted frames require the weighted axis first")
    st, ct = fsin(spec.theta), fcos(spec.theta)
    sa, ca = fsin(spec.alpha), fcos(spec.alpha)
    zero = ScalarField.constant(0.0, 3)
    einv = fexp(-1.0 * metric.conformal_exponent)
    coeff = (
        (ct, st, zero),
        (-1.0 * (ca * st), ca * ct, sa),
        (sa * st, -1.0 * (sa * ct), ca),
    )
    rows = tuple(
        (a1 * einv, a2, a3) for (a1, a2, a3) in coeff
    )
    return FrameField(rows, metric, coeff)


def integrability_data(spec: AdaptedFrameSpec,
                       frame: FrameField) -> IntegrabilityData:
    """Closed-form integrability data, built from ``frame``, the adapted
    frame of ``spec`` they describe: the sines and cosines of its angles
    are its rotation coefficients, and e3 is its vertical leg."""
    theta, alpha = spec.theta, spec.alpha
    (ct, st, _), (_, _, sa), (_, _, ca) = frame.coeff
    q = frame.metric.conformal_exponent
    f = q.diff(1)
    einv = fexp(-1.0 * q)
    e1_theta = einv * theta.diff(0)
    e2_theta = theta.diff(1)
    e3_theta = theta.diff(2)
    fbar = -1.0 * (st * e1_theta) + ct * e2_theta + f * st
    e3_alpha = directional_field(frame.components[2], alpha)
    return IntegrabilityData(
        f1=ScalarField.constant(0.0, 3),
        f2=-1.0 * (fbar * (ca * ca)) - (sa * ca) * e3_theta,
        f3=-1.0 * e3_theta,
        sigma=-1.0 * (fbar * (sa * ca)) - (sa * sa) * e3_theta,
        kappa1=-1.0 * (fbar * (sa * sa)) + (sa * ca) * e3_theta,
        kappa2=-1.0 * e3_alpha,
        fbar=fbar,
    )


# -- identity suite -----------------------------------------------------------

# Curvature table rows: (label, (i,j,k,l) as printed, data expression of
# (D, e, e3(sigma)), coefficient pattern (sign, a-row-1, a-row-2)) where the
# right side is sign * a_{r1}^3 * a_{r2}^3 * K with K the base Gauss
# curvature, and the printed 4-tuple means <R(e_i,e_j) e_l, e_k>.
_CURVATURE_ROWS = (
    ("curv_1312", (1, 3, 1, 2),
     lambda D, e, _: -1.0 * e[1](D.sigma) + 2.0 * (D.kappa1 * D.sigma),
     (-1.0, 2, 3)),
    ("curv_1313", (1, 3, 1, 3),
     lambda D, e, _: e[1](D.kappa1) + D.sigma * D.sigma
     - D.kappa1 * D.kappa1 + D.kappa2 * D.f1,
     (1.0, 2, 2)),
    ("curv_1323", (1, 3, 2, 3),
     lambda D, e, e3_sigma: e[1](D.kappa2) - e3_sigma
     - D.kappa1 * D.f1 - D.kappa1 * D.kappa2,
     (-1.0, 1, 2)),
    ("curv_1212", (1, 2, 1, 2),
     lambda D, e, _: e[1](D.f2) + e[2](D.f1) - D.f1 * D.f1 - D.f2 * D.f2
     + 2.0 * (D.f3 * D.sigma) - 3.0 * (D.sigma * D.sigma),
     (1.0, 3, 3)),
    ("curv_1223", (1, 2, 2, 3),
     lambda D, e, _: -1.0 * e[2](D.sigma) + 2.0 * (D.kappa2 * D.sigma),
     (1.0, 1, 3)),
    ("curv_2313", (2, 3, 1, 3),
     lambda D, e, e3_sigma: e[2](D.kappa1) + e3_sigma
     + D.kappa2 * D.f2 - D.kappa1 * D.kappa2,
     (-1.0, 1, 2)),
    ("curv_2323", (2, 3, 2, 3),
     lambda D, e, _: D.sigma * D.sigma + e[2](D.kappa2)
     - D.kappa1 * D.f2 - D.kappa2 * D.kappa2,
     (1.0, 1, 1)),
)


def _frame_identity_channels(frame: FrameField, data: IntegrabilityData):
    """Residual fields for the bracket and connection table.

    Returns (name, component fields) pairs; each identity is vector-valued
    with one residual field per chart component.
    """
    rows = frame.components
    de = frame.leg_derivatives
    zero = ScalarField.constant(0.0, 3)
    D = data

    def bracket(i, j):
        # [e_i, e_j]^l = e_i(e_j^l) - e_j(e_i^l)
        return list(map(operator.sub, de[i - 1][j - 1], de[j - 1][i - 1]))

    def nabla(i, j):
        return frame.covariant(i - 1, j - 1)

    def combo(*pairs):
        # sum of coeff-field * frame-row combinations, componentwise
        out = [zero, zero, zero]
        for coeff, leg in pairs:
            for l in range(3):
                out[l] = out[l] + coeff * rows[leg - 1][l]
        return out

    minus_one = ScalarField.constant(-1.0, 3)
    two = ScalarField.constant(2.0, 3)
    table = {
        "bracket_12": (bracket(1, 2),
                       combo((D.f1, 1), (D.f2, 2), (minus_one * two * D.sigma, 3))),
        "bracket_13": (bracket(1, 3), combo((D.f3, 2), (D.kappa1, 3))),
        "bracket_23": (bracket(2, 3),
                       combo((minus_one * D.f3, 1), (D.kappa2, 3))),
        "conn_11": (nabla(1, 1), combo((minus_one * D.f1, 2))),
        "conn_12": (nabla(1, 2), combo((D.f1, 1), (minus_one * D.sigma, 3))),
        "conn_13": (nabla(1, 3), combo((D.sigma, 2),)),
        "conn_21": (nabla(2, 1), combo((minus_one * D.f2, 2), (D.sigma, 3))),
        "conn_22": (nabla(2, 2), combo((D.f2, 1),)),
        "conn_23": (nabla(2, 3), combo((minus_one * D.sigma, 1),)),
        "conn_31": (nabla(3, 1),
                    combo((minus_one * D.kappa1, 3), (D.sigma - D.f3, 2))),
        "conn_32": (nabla(3, 2),
                    combo((minus_one * (D.sigma - D.f3), 1),
                          (minus_one * D.kappa2, 3))),
        "conn_33": (nabla(3, 3), combo((D.kappa1, 1), (D.kappa2, 2))),
    }
    channels = []
    for name, (lhs, rhs) in table.items():
        channels.append((name, [lhs[l] - rhs[l] for l in range(3)]))
    return channels


@sweep()
def validate_frame(frame: FrameField, data: IntegrabilityData, points,
                   tol=1e-6):
    """Check the full bracket/connection table and the curvature identities.

    Every connection identity is verified componentwise in the chart; each
    curvature identity is verified along two independent routes (frame
    contraction of the chart curvature vs. the data expression, and the
    data expression vs. the rotation-coefficient multiple of the base Gauss
    curvature).  Returns the report, failing or not; its worst channel
    names the worst identity and the point where it is worst.
    """
    points = list(points)
    batch = as_batch(points)
    metric = frame.metric
    _require_orthonormal(frame, batch, max(tol, 1e-8))
    rows = frame.components

    channels = []
    for name, comps in _frame_identity_channels(frame, data):
        worst = np.max(np.abs([c(batch) for c in comps]), axis=0)
        channels.append(max_over_batch(name, points, worst))

    def e_op(leg):
        return lambda fld: directional_field(rows[leg - 1], fld)

    ops = {1: e_op(1), 2: e_op(2)}
    e3_sigma = directional_field(rows[2], data.sigma)  # read by two rows
    # the frame is orthonormal on every point (checked above), so the chart
    # curvature contracts directly; it is shared by all the rows
    low = riemann_chart(metric, batch)
    m = frame.matrix(batch)
    a = frame.coeff_matrix(batch)
    k_base = gauss_curvature_2d(metric, batch)
    for name, printed, data_expr, (sign, r1, r2) in _CURVATURE_ROWS:
        mid = data_expr(data, ops, e3_sigma)(batch)
        i, j, k, l = printed
        lhs = frame_contraction(low, m, (i - 1, j - 1, l - 1, k - 1))
        rhs = sign * a[:, r1 - 1, 2] * a[:, r2 - 1, 2] * k_base
        values = np.maximum(np.abs(lhs - mid), np.abs(mid - rhs))
        channels.append(max_over_batch(name, points, values))

    return build_report("frame-identities", tol, channels, len(points))


# -- families of genuine submersion specs -------------------------------------


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class SeededUniform:
    """The ``uniform(low, high)`` draws of ``numpy.random.default_rng(seed)``,
    bit for bit, without importing numpy.random.

    The seed's 32-bit words are mixed into a pool of four as SeedSequence
    mixes them, the pool is expanded to PCG64's 128-bit state and
    increment, and a draw is low + (high - low) times the top 53 bits of the
    next XSL-RR output over 2**53.  A negative seed raises numpy's
    ValueError.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed & _M32]
        while seed > _M32:
            seed >>= 32
            words.append(seed & _M32)
        const = 0x43B0D7E5

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x, y):
            out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return out ^ out >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        const, state = 0x8B51F9DD, 0
        for i in range(8):  # SeedSequence.generate_state(4, uint64)
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            state |= (value ^ value >> 16) << 32 * (i ^ 6)
        initstate, initseq = state >> 128, state & _M128
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (self._inc + initstate) * _PCG64_MULT + self._inc & _M128

    def uniform(self, low, high):
        low, high = float(low), float(high)
        state = self._state = self._state * _PCG64_MULT + self._inc & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _M64
        return low + (high - low) * ((value >> 11) * 2.0 ** -53)


def _trig(rng, amp_lo, amp_hi, freq_lo=0.5, freq_hi=1.5):
    amp = rng.uniform(amp_lo, amp_hi)
    freq = rng.uniform(freq_lo, freq_hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return amp, freq, phase


def random_adapted_specs(rng, count):
    """Draw ``count`` (label, metric, spec) triples from
    submersion-compatible families, one at a time as they are asked for.

    Four families cycle: the twisted projection along the weighted axis
    (alpha = pi/2, free conformal exponent), the warped family (alpha a
    function of the geodesic coordinate, exponent log(tan(alpha)) + phi(t)),
    a polar rewrite of the warped family on a flat chart (both angles vary
    across the chart), and the vertical projection onto the base surface
    (alpha = 0).  Arbitrary angle pairs do not satisfy the adapted-frame
    equations; these do.  ``rng`` is any object with a ``uniform(low,
    high)`` method, such as a ``SeededUniform`` or a numpy Generator.
    """
    half_pi = 0.5 * math.pi
    t, s = ScalarField.coordinate(0, 2), ScalarField.coordinate(1, 2)
    t3, s3 = ScalarField.coordinate(0, 3), ScalarField.coordinate(1, 3)
    for k in range(count):
        fam = k % 4
        if fam in (0, 3):
            a = rng.uniform(0.6, 1.4)
            amp, freq, phase = _trig(rng, 0.1, 0.35)
            q = a * s + amp * fsin(freq * t + 0.7 * freq * s + phase)
            box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
            metric = ProductMetric3(q, box)
            alpha = half_pi if fam == 0 else 0.0
            name = "twisted" if fam == 0 else "projection"
            spec = AdaptedFrameSpec(as_field(half_pi, 3), as_field(alpha, 3))
        elif fam == 1:
            mid = rng.uniform(0.55, 0.85)
            amp, freq, phase = _trig(rng, 0.05, 0.18)
            c0, c1, c2 = _trig(rng, 0.1, 0.3)

            def alpha_of(y):
                return mid + amp * fsin(freq * y + phase)

            q = flog(ftan(alpha_of(s))) + c0 * fsin(c1 * t + c2)
            box = ChartBox((-1.0, 0.2, -0.5), (1.0, 1.5, 0.5), 0.05)
            metric = ProductMetric3(q, box)
            spec = AdaptedFrameSpec(as_field(half_pi, 3), alpha_of(s3))
            name = "warped"
        else:
            t0 = -0.8 - rng.uniform(0.0, 0.5)
            s0 = -0.8 - rng.uniform(0.0, 0.5)
            cc = rng.uniform(0.3, 1.0)
            dt, ds = t3 - t0, s3 - s0
            r = fsqrt(dt * dt + ds * ds)
            box = ChartBox((0.0, 0.0, -0.5), (1.0, 1.0, 0.5), 0.05)
            metric = ProductMetric3(ScalarField.constant(0.0, 3), box)
            spec = AdaptedFrameSpec(fatan2(ds, dt), fatan(cc * r))
            name = "polar"
        yield f"frame[{k:02d}]-{name}", metric, spec


def frame_identity_suite(specs, tol=1e-6, grid=(5, 5)):
    """``validate_frame`` reports, labelled, for (label, metric, spec)
    triples such as ``random_adapted_specs`` draws.

    The suite lets go of each spec, with its derivative caches, once it is
    reported, before it draws the next, so a stream drawn lazily holds one
    spec at a time."""
    def report(label, metric, spec):
        frame = adapted_frame(spec, metric)
        data = integrability_data(spec, frame)
        rep = validate_frame(frame, data, base_sweep(metric.box, grid), tol)
        return replace(rep, case_label=label)

    # starmap keeps no triple once its report is made
    return list(itertools.starmap(report, specs))
