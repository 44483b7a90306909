"""biharm benchmark: run one workload, check its results, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-fd --seed 1 --seconds 25 \
        --trace 0

Every iteration runs in a fresh interpreter, one child at a time, so each
pays the import and sympy code generation a ``biharm`` command pays.  The
run starts set-up probes (children that only import biharm), then
iterations until ``--seconds`` is spent.  Iterations 0 and 1 share their
inputs, so their reports must be byte-identical; later iterations draw new
inputs from the seed.  Times are paced (``pace.py``): corrected, by probes
taken during the same interval, for neighbours slowing the shared processor.  With ``--trace 1`` each input set runs twice, untraced
and traced, and the per-layer metrics come from the traced child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md for
what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import pace
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
# residuals below this share of their tolerance are round-off: the
# accuracy metric reads this floor instead of noise (see NOTES.md)
RESIDUAL_FLOOR = 1e-3


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class ChildFailed(RuntimeError):
    """A child exited with an error instead of writing its result."""


class Runner:
    """Starts children one at a time and collects their results."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def child(self, workload=None, inputs=None, trace=False, iteration=0):
        tag = f"c{self.count:03d}"
        self.count += 1
        job = {"workload": workload, "inputs": inputs, "trace": trace,
               "iteration": iteration, "workdir": self.workdir, "tag": tag}
        job_path = os.path.join(self.workdir, tag + ".job.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job_path],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - launched))
        lifetime = time.monotonic() - launched
        if proc.returncode != 0:
            raise ChildFailed(f"child {tag} exited {proc.returncode}:\n"
                              f"{proc.stderr[-4000:]}")
        with open(os.path.join(self.workdir, tag + ".result.json")) as handle:
            result = json.load(handle)
        result["raw_setup_s"] = result["setup_done"] - launched
        result["setup_s"] = pace.paced_seconds(result["raw_setup_s"],
                                               result["setup_probes"])
        if "probes" in result:
            result["wall_s"] = pace.paced_seconds(result["raw_wall_s"],
                                                  result["probes"])
            result["pace_factor"] = pace.pace_factor(result["probes"])
        result["lifetime_s"] = lifetime
        if trace:
            result["spans"] = spans.read_spans(
                os.path.join(self.workdir, tag + ".spans.jsonl"))
        return result


def _environment(seed):
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "git_commit": commit,
        "seed": seed,
    }


def _input_set(iteration):
    """Iterations 0 and 1 share input set 0 (the rerun check)."""
    return max(0, iteration - 1)


def _measure(runner, args, start):
    iterations = []
    while True:
        inputs = workloads.make_inputs(args.workload, args.seed,
                                       _input_set(len(iterations)), args.size)
        iterations.append(runner.child(args.workload, inputs,
                                       iteration=len(iterations)))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["lifetime_s"] for r in iterations)
        if len(iterations) >= 2 and elapsed + typical > args.seconds:
            return iterations


def _measure_traced(runner, args, start):
    pairs = []
    while True:
        inputs = workloads.make_inputs(args.workload, args.seed, len(pairs),
                                       args.size)
        plain = runner.child(args.workload, inputs, iteration=len(pairs))
        traced = runner.child(args.workload, inputs, trace=True,
                              iteration=len(pairs))
        pairs.append((plain, traced))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["lifetime_s"] + t["lifetime_s"]
                                    for p, t in pairs)
        if elapsed + typical > args.seconds:
            return pairs


def _rerun_case(first, second, label):
    return {"label": label, "ok": first["digest"] == second["digest"],
            "ratio": None, "why": "reports differ between identical runs"}


def _summary(results, extra_cases):
    cases = [c for r in results for c in r["cases"]] + extra_cases
    failed = [c for c in cases if not c["ok"]]
    ratios = [c["ratio"] for c in cases if c["ratio"] is not None]
    return cases, failed, max(ratios + [RESIDUAL_FLOOR])


def _print_metric(name, value, unit, note=""):
    print(f"  {name:40s} {value:<14.6g} {unit:6s} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "biharm")):
        print(f"error: no biharm sources under {SRC}", file=sys.stderr)
        return 2

    env = _environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
        try:
            runner.child()  # writes bytecode caches; not measured
            setups = [runner.child() for _ in range(SETUP_PROBES)]
            start = time.monotonic()
            if args.trace:
                pairs = _measure_traced(runner, args, start)
            else:
                iterations = _measure(runner, args, start)
        except (ChildFailed, subprocess.TimeoutExpired) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1

        if args.trace:
            results = [r for pair in pairs for r in pair]
            rerun = [_rerun_case(p, t, f"traced-rerun-{k}")
                     for k, (p, t) in enumerate(pairs)]
        else:
            results = iterations
            setups += iterations
            rerun = [_rerun_case(iterations[0], iterations[1], "rerun")]
        cases, failed, residual = _summary(results, rerun)

        print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
              f"{len(results)} children after {len(setups)} set-ups, "
              f"{len(cases)} cases")
        for case in failed:
            print(f"  FAILED {case['label']}: {case['why']}")
        if args.trace:
            metrics = _traced_metrics(pairs)
        else:
            metrics = {
                "wall_s": (statistics.median(r["wall_s"] for r in results),
                           "s"),
                "setup_s": (statistics.median(r["setup_s"] for r in setups),
                            "s"),
                "peak_rss_mb": (
                    statistics.median(r["peak_rss_mb"] for r in results),
                    "MB"),
                "residual_to_tol_max": (residual, "ratio"),
            }
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)
        if not args.trace:
            _print_metric("fail_ratio", len(failed) / len(cases), "ratio",
                          f"({len(failed)} of {len(cases)} cases)")
            for name, runs in (("raw_wall_s", results),
                               ("raw_setup_s", setups)):
                _print_metric(name, statistics.median(r[name] for r in runs),
                              "s", "(not paced; see NOTES.md)")
            _print_metric("pace_factor", statistics.median(
                r["pace_factor"] for r in results), "ratio",
                "(1 = reference pace; below 1 = slowed by neighbours)")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(cases),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_metrics(pairs):
    """Counts from input set 0 (they repeat exactly); times as medians."""
    per_pair = [spans.layer_metrics(t["spans"], t["counts"]) for _, t in pairs]
    out = {}
    for name, (value, unit) in per_pair[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in per_pair)
        out[name] = (value, unit)
    out["trace.overhead_s"] = (
        statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
