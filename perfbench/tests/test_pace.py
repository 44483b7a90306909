"""The pace correction on made-up probes, and one real pacer in a child.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
import pace  # noqa: E402

REF = pace.REFERENCE_PROBE_S


def test_reference_pace_leaves_time_but_the_probes():
    probes = {"samples": [REF] * 4, "spent": 4 * REF}
    assert pace.pace_factor(probes) == pytest.approx(1.0)
    assert pace.paced_seconds(2.0, probes) == pytest.approx(2.0 - 4 * REF)


def test_slowed_half_the_time_reads_as_unslowed():
    # half the probes ran twice as slowly: the interval saw 3/4 of the pace
    probes = {"samples": [REF, 2 * REF], "spent": 0.0}
    assert pace.pace_factor(probes) == pytest.approx(0.75)
    assert pace.paced_seconds(4.0, probes) == pytest.approx(3.0)


def test_no_probe_means_no_correction():
    assert pace.paced_seconds(0.01, {"samples": [], "spent": 0.0}) == 0.01


def test_pacer_probes_a_busy_interpreter():
    code = (
        "import pace, time\n"
        "p = pace.Pacer(); p.start()\n"
        "end = time.perf_counter() + 0.5\n"
        "while time.perf_counter() < end: sum(range(1000))\n"
        "got = p.take(); p.stop()\n"
        "print(len(got['samples']), got['spent'])\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    count, spent = out.stdout.split()
    assert int(count) >= 3 and 0 < float(spent) < 0.5
