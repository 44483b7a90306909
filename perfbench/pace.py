"""Pace probes: wall time corrected for neighbours sharing the processor.

On a shared host the same iteration runs up to about twice as slowly while
a neighbour loads the core it sits on, in phases from a fraction of a
second to minutes.  CPU time slows with it, so neither wall nor CPU time of
one run says how fast the program is.

A ``Pacer`` interrupts the child every ``INTERVAL_S`` (``SIGALRM``) and
times a fixed pure-Python probe in the same thread, so each probe runs at
the speed the program is getting at that moment.  ``paced_seconds`` turns a
raw interval into the seconds it would have taken at the reference pace:

    paced = (raw - time spent in probes) * mean(REFERENCE_PROBE_S / probe)

Probes are taken at even wall-time intervals, so the mean of the speed ratio
is the time-weighted one the interval saw.  The probe touches nothing the
program uses (no random state, no biharm, no numpy), so results and reports
are unchanged.  Only the standard library is imported: the pacer starts
before biharm is imported and paces set-up too.
"""

import math
import signal
import time

INTERVAL_S = 0.05
PROBE_LOOPS = 1400
# the probe's duration on an idle core of a 2.0 GHz Xeon (Python 3.11), so
# paced seconds read close to wall seconds on an unloaded machine of that
# kind; it is a fixed scale and never measured at run time
REFERENCE_PROBE_S = 0.0005


def _probe():
    acc = 0.0
    table = {}
    for i in range(PROBE_LOOPS):
        key = (i % 13, i % 7)
        x = table.get(key, 1.0)
        table[key] = x * 0.999 + math.sin(i * 0.01)
        acc += table[key]
    return acc


class Pacer:
    """Times a probe every ``INTERVAL_S`` until stopped."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        _probe()  # warm up before the first timed probe
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def take(self):
        """Probe durations and time spent in probes since the last take."""
        got = {"samples": self.samples, "spent": self.spent}
        self.samples, self.spent = [], 0.0
        return got

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pace_factor(probes):
    """Mean speed relative to the reference pace (1.0 when no probe ran)."""
    if not probes["samples"]:
        return 1.0
    return math.fsum(REFERENCE_PROBE_S / s for s in probes["samples"]) \
        / len(probes["samples"])


def paced_seconds(raw_s, probes):
    """``raw_s`` without the probes' own time, at the reference pace."""
    return (raw_s - probes["spent"]) * pace_factor(probes)
