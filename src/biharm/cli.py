"""Command-line front end: verification runs, curvature dumps, construction.

Subcommands
-----------
verify     catalog residual suite + frame identity suite, JSON-lines report
curvature  CSV dump of the base Gauss curvature over a named chart
construct  integrate the fiber-angle ODE and verify the warped construction
scan       constant-slope residual roots over a slope interval
surface    Hopf-cylinder residuals and CMC classification for (k_g, K)

Exit codes: 0 when every selected verdict passes, 1 on verification
failure, 2 on argument errors and on an output path that cannot be
written.  Defaults: tolerance 1e-6 in analytic mode, 1e-3 in
finite-difference mode; no environment variables are consulted, so a
command line fully determines its report (byte-identical reruns).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import constructor, hypersurface, submersion
from .errors import GeometryError, SingularProfile
from .frames import SeededUniform, frame_identity_suite, random_adapted_specs
from .geometry import ProductMetric3, base_sweep, gauss_curvature_2d
from .numkernel import (
    ChartBox,
    ScalarField,
    as_batch,
    fcosh,
    flog,
    fsin,
    numeric_only,
    sweep,
)
from .report import (
    REPORT_FORMAT_VERSION,
    ResidualReport,
    _atomic_write,
    build_report,
    max_over_batch,
    write_grid_csv,
    write_report,
)


def _default_tol(args, analytic=1e-6, fd=1e-3):
    """The --tol of a command, else its default for the derivative mode."""
    if args.tol is None:
        return analytic if args.mode == "analytic" else fd
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, "
                         f"got {args.tol!r}")
    return args.tol


def _in_mode(args):
    """What the command's --mode evaluates a spec, metric or surface as:
    the object itself, or in fd mode its finite-difference copy."""
    return numeric_only if args.mode == "fd" else (lambda obj: obj)


def _span(text):
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, got {text!r}"
        ) from err
    return lo, hi


def _print_report(rep: ResidualReport):
    worst = rep.worst_channel
    extra = f" [{rep.classification}]" if rep.classification else ""
    print(f"{rep.verdict.upper():4s} {rep.case_label}: "
          f"max |{worst.name}| = {worst.max_abs:.3e} "
          f"(tol {rep.tolerance:g}){extra}")


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args):
    tol = _default_tol(args)
    if args.specs < 0:
        raise ValueError(f"--specs must be at least 0, got {args.specs}")
    if args.grid < 2:
        raise ValueError("grid counts must be at least 2")
    grid = (args.grid, args.grid)
    cases = args.cases.split(",") if args.cases else ()
    if "" in cases:  # an empty substring would select every case
        raise ValueError(f"--cases has an empty item: {args.cases!r}")

    if args.dump_grids:  # before any case is evaluated
        os.makedirs(args.dump_grids, exist_ok=True)

    def selected(label):
        return not cases or any(c in label for c in cases)

    # every frame spec is drawn, in order, but only selected ones evaluated
    in_mode = _in_mode(args)
    catalog = [in_mode(spec) for spec in submersion.catalog_examples()
               if selected(spec.label)]
    specs = (in_mode(triple) for triple in random_adapted_specs(
        SeededUniform(args.seed), args.specs) if selected(triple[0]))
    reports = (submersion.catalog_suite(catalog, tol, grid)
               + frame_identity_suite(specs, tol))
    for rep in reports:
        _print_report(rep)
    if args.dump_grids:
        for spec in catalog:
            points = spec.verification_points(grid)
            batch = as_batch(points)
            with sweep():  # r1 and r2 share their subgraphs' values
                r1, r2 = [f(batch).tolist() for f in spec.residual_fields]
            rows = [(p[0], p[1], v1, v2)
                    for p, v1, v2 in zip(points, r1, r2)]
            write_grid_csv(
                os.path.join(args.dump_grids, f"{spec.label}.csv"),
                ("axis1", "axis2", "r1", "r2"), rows,
            )
    write_report(args.out, reports, header={
        "command": "verify", "mode": args.mode, "tolerance": tol,
        "grid": list(grid), "specs": args.specs, "seed": args.seed,
    })
    print(f"report: {args.out} ({len(reports)} cases)")
    return 0 if reports and all(r.passed for r in reports) else 1


# -- curvature --------------------------------------------------------------------

def _chart_metric(name, radius, c):
    s = ScalarField.coordinate(1, 2)
    if name == "sphere":
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"--radius must be positive and finite, "
                             f"got {radius!r}")
        q = flog(radius * fsin(s / radius))
        box = ChartBox((-1.0, 0.1 * radius, -0.5),
                       (1.0, (math.pi - 0.1) * radius, 0.5), 0.02)
    elif name == "hyperbolic":
        if not (math.isfinite(c) and c < 0):
            raise ValueError(f"hyperbolic chart needs a finite --c < 0, "
                             f"got {c!r}")
        q = math.sqrt(-c) * s
        box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.02)
    elif name == "flat":
        q = ScalarField.constant(0.0, 2)
        box = ChartBox((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5), 0.02)
    elif name == "cosh4":
        q = 2.0 * flog(fcosh(s))
        box = ChartBox((-1.0, -1.5, -0.5), (1.0, 1.5, 0.5), 0.02)
    elif name == "y4":
        q = 2.0 * flog(s)
        box = ChartBox((-1.0, 0.5, -0.5), (1.0, 3.0, 0.5), 0.02)
    else:
        raise ValueError(f"unknown chart {name!r}")
    return ProductMetric3(q, box)


def _cmd_curvature(args):
    metric = _in_mode(args)(_chart_metric(args.chart, args.radius, args.c))
    points = base_sweep(metric.box, (args.grid,) * 2)
    curvature = gauss_curvature_2d(metric, as_batch(points)).tolist()
    rows = [(t, s, k) for (t, s, _), k in zip(points, curvature)]
    write_grid_csv(args.out, ("axis1", "axis2", "K"), rows)
    print(f"curvature grid: {args.out} ({len(rows)} points)")
    return 0


# -- construct --------------------------------------------------------------------


def _cmd_construct(args):
    tol = _default_tol(args, 1e-4, 1e-4)
    try:
        alpha2 = args.u0 * args.alpha1 ** 2
    except OverflowError:
        raise ValueError(f"--alpha1 {args.alpha1!r}: the initial alpha'' = "
                         f"u0 alpha1^2 overflows") from None
    profile = constructor.integrate_alpha(
        args.alpha0, args.alpha1, alpha2,
        args.yspan, args.step,
    )
    status = "truncated" if profile.truncated else "complete"
    print(f"profile: {len(profile.y_grid)} nodes over "
          f"[{profile.span[0]:g}, {profile.span[1]:g}] ({status}), "
          f"step error {profile.step_error:.3e}")
    if profile.truncated:
        print(f"  stopped early: {profile.truncate_reason}")
    if args.profile_out:
        _atomic_write(args.profile_out, constructor.profile_to_text(profile))
        print(f"profile table: {args.profile_out}")

    if len(profile.y_grid) < 5:
        raise SingularProfile("profile has fewer than 5 nodes")
    ode_worst = float(np.max(np.abs(
        constructor.alpha_ode_residual(profile, profile.y_grid[2:-2]))))
    ricc = constructor.riccati_consistency(profile)
    print(f"third-order residual (differenced) <= {ode_worst:.3e}; "
          f"Riccati cross-check deviation {ricc:.3e}")

    built = constructor.build_nonflat_target(
        constructor.ConstructionSpec(profile)
    )
    rep = constructor.verify_construction(_in_mode(args)(built.canonical),
                                          tol=tol)
    _print_report(rep)
    print(f"map: {built.map_note}")
    oracle_ok = ode_worst <= 1e-5 and ricc <= 1e-5
    if not oracle_ok:
        print("FAIL profile oracles exceeded 1e-5")
    write_report(args.out, [rep], header={
        "command": "construct", "mode": args.mode, "tolerance": tol,
        "alpha0": args.alpha0, "alpha1": args.alpha1, "u0": args.u0,
        "yspan": list(args.yspan), "step": args.step,
        "ode_residual": ode_worst, "riccati_deviation": ricc,
    })
    print(f"report: {args.out}")
    return 0 if rep.passed and oracle_ok else 1


# -- scan -------------------------------------------------------------------------


def _cmd_scan(args):
    roots = submersion.hyperbolic_uniqueness_scan(
        args.c, args.range, samples=args.samples
    )
    if roots:
        for r in roots:
            print(f"root {r.slope:.8f} ({r.kind})")
    else:
        print("no roots in range")
    lines = [json.dumps({"record": "header", "version": REPORT_FORMAT_VERSION,
                         "command": "scan", "c": args.c,
                         "range": list(args.range), "samples": args.samples},
                        sort_keys=True)]
    for r in roots:
        lines.append(json.dumps(
            {"record": "root", "slope": r.slope, "kind": r.kind},
            sort_keys=True))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"report: {args.out}")
    return 0


# -- surface ----------------------------------------------------------------------


def _cmd_surface(args):
    tol = _default_tol(args, 1e-6, 1e-6)
    if not (math.isfinite(args.kg) and args.kg >= 0):
        raise ValueError(f"--kg must be finite and at least 0, "
                         f"got {args.kg!r}")
    if not math.isfinite(args.K):
        raise ValueError(f"--K must be finite, got {args.K!r}")
    spec = hypersurface.HopfCylinderSpec(args.kg, args.K)
    r1, r2 = hypersurface.hopf_cylinder_residuals(spec, 0.0)
    print(f"Hopf system residuals: ({r1:.6g}, {r2:.6g})")
    label = f"cylinder(kg={args.kg:g},K={args.K:g})"
    channels = [
        max_over_batch("hopf_r1", [(0.0,)], np.array([r1])),
        max_over_batch("hopf_r2", [(0.0,)], np.array([r2])),
    ]
    if args.kg == 0:
        reason = "zero geodesic curvature"
        print(f"classification: minimal ({reason})")
        rep = build_report(label, tol, channels, 1, classification="minimal",
                           notes=(reason,))
    else:
        try:
            cyl = hypersurface.vertical_cylinder(args.kg, args.K)
        except ValueError as err:
            print(f"classification unavailable: {err}")
            # no cylinder exists, so the Hopf system must not vanish
            rep = ResidualReport(
                case_label=label, points_checked=1, channels=tuple(channels),
                tolerance=tol, verdict="pass" if abs(r1) > tol else "fail",
                classification="unavailable", notes=(str(err),),
            )
        else:
            rep = _cylinder_report(_in_mode(args)(cyl), tol, label,
                                   channels, r1, r2)
    _print_report(rep)
    write_report(args.out, [rep], header={
        "command": "surface", "kg": args.kg, "K": args.K, "tolerance": tol,
    })
    print(f"report: {args.out}")
    return 0 if rep.passed else 1


def _cylinder_report(cyl, tol, label, channels, r1, r2):
    """Classify the vertical cylinder and check it against the Hopf system."""
    pts = hypersurface.surface_points(cyl, (4, 4))
    cls = hypersurface.cmc_classify(cyl, pts, tol=max(tol, 1e-8))
    print(f"classification: {cls.kind} (H = {cls.mean_curvature:.6g})")
    scalars, tangents = hypersurface.biharmonic_residuals_surface(cyl, pts)
    channels = channels + [
        max_over_batch("surface_scalar", pts, scalars),
        max_over_batch("surface_tangent", pts,
                       np.max(np.abs(tangents), axis=1)),
    ]
    if cls.kind == "proper_biharmonic_vertical_cylinder":
        print(f"ambient sphere radius {cls.sphere_radius:.9g}, "
              f"base circle radius {cls.circle_radius:.9g}")
        consistent = abs(r1) <= tol and abs(r2) <= tol
        return build_report(label, tol, channels, len(pts),
                            classification=cls.kind,
                            extra_fail=not consistent)
    # the two routes must agree: a failing Hopf system must come with a
    # non-proper classification and nonzero surface residuals
    consistent = abs(r1) > tol or abs(r2) > tol
    return ResidualReport(
        case_label=label, points_checked=len(pts), channels=tuple(channels),
        tolerance=tol, verdict="pass" if consistent else "fail",
        classification=cls.kind,
        notes=("nonzero residuals expected for this case",),
    )


# -- entry point ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Verification and construction of biharmonic surfaces "
                    "and Riemannian submersions on product 3-charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, default_out, *reads):
        """A subcommand with --out and those of --tol and --mode it reads."""
        p = sub.add_parser(name, help=summary)
        # a token such as -1:2, -1e4 or -.5 is a value (Python 3.13's rule)
        p._negative_number_matcher = re.compile(r"-\.?\d")
        if "tol" in reads:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance (default 1e-6 analytic, 1e-3 fd)")
        if "mode" in reads:
            p.add_argument("--mode", choices=("analytic", "fd"),
                           default="analytic", help="derivative mode")
        p.add_argument("--out", default=default_out, help="report path")
        return p

    p = command("verify", "catalog + frame identity suites",
                "biharm-verify.jsonl", "tol", "mode")
    p.add_argument("--grid", type=int, default=21, help="points per axis")
    p.add_argument("--specs", type=int, default=20,
                   help="randomized frame specs")
    p.add_argument("--seed", type=int, default=7, help="random seed")
    p.add_argument("--cases", default="", help="substring case filter (csv)")
    p.add_argument("--dump-grids", default="",
                   help="directory for residual grid CSV dumps")
    p.set_defaults(fn=_cmd_verify)

    p = command("curvature", "dump a base curvature grid",
                "biharm-curvature.csv", "mode")
    p.add_argument("--chart", default="sphere",
                   choices=("sphere", "hyperbolic", "flat", "cosh4", "y4"))
    p.add_argument("--radius", type=float, default=1.0,
                   help="sphere radius for --chart sphere")
    p.add_argument("--c", type=float, default=-1.0,
                   help="curvature constant for --chart hyperbolic")
    p.add_argument("--grid", type=int, default=21)
    p.set_defaults(fn=_cmd_curvature)

    p = command("construct", "integrate the angle ODE and verify the "
                             "warped construction",
                "biharm-construct.jsonl", "tol", "mode")
    p.add_argument("--alpha0", type=float, required=True,
                   help="initial angle")
    p.add_argument("--alpha1", type=float, required=True,
                   help="initial angle slope (nonzero)")
    p.add_argument("--u0", type=float, required=True,
                   help="initial alpha''/alpha'^2")
    p.add_argument("--yspan", type=_span, required=True, metavar="LO:HI")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--profile-out", default="",
                   help="write the profile table here")
    p.set_defaults(fn=_cmd_construct)

    p = command("scan", "constant-slope residual roots", "biharm-scan.jsonl")
    p.add_argument("--c", type=float, required=True,
                   help="base curvature constant")
    p.add_argument("--range", type=_span, required=True, metavar="LO:HI")
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(fn=_cmd_scan)

    p = command("surface", "Hopf residuals + CMC classification",
                "biharm-surface.jsonl", "tol", "mode")
    p.add_argument("--kg", type=float, required=True,
                   help="geodesic curvature of the base circle")
    p.add_argument("--K", type=float, required=True,
                   help="base Gauss curvature")
    p.set_defaults(fn=_cmd_surface)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy does not warn of overflow: the value it makes still raises
        # a typed error (NonFiniteValue) where it is checked
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (GeometryError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run(command_line):
    """Programmatic entry point: argument list -> exit code."""
    return main(list(command_line))


if __name__ == "__main__":
    sys.exit(main())
