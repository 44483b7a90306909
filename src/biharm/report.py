"""Residual reports and their serialized forms.

A report collects, per named residual channel, the largest absolute value
seen over a point sweep and where it occurred.  Reports serialize to
versioned JSON-lines records (one object per case) and grids dump to CSV;
all writes are atomic (temp file + rename) and byte-identical for identical
inputs.
"""

from __future__ import annotations

import json
import os
import tempfile

from .record import Record

REPORT_FORMAT_VERSION = 1


class Channel(Record):
    name: str
    max_abs: float
    at: tuple

    def to_record(self):
        return {"name": self.name, "max_abs": self.max_abs,
                "at": list(self.at)}


class ResidualReport(Record):
    case_label: str
    points_checked: int
    channels: tuple
    tolerance: float
    verdict: str  # "pass" | "fail"
    classification: str = ""
    notes: tuple = ()

    @property
    def passed(self):
        return self.verdict == "pass"

    @property
    def max_abs_residual(self):
        return max((c.max_abs for c in self.channels), default=0.0)

    @property
    def worst_channel(self):
        return max(self.channels, key=lambda c: c.max_abs)

    def channel(self, name):
        for c in self.channels:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_record(self):
        rec = {
            "version": REPORT_FORMAT_VERSION,
            "case_label": self.case_label,
            "points_checked": self.points_checked,
            "channels": [c.to_record() for c in self.channels],
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }
        if self.classification:
            rec["classification"] = self.classification
        if self.notes:
            rec["notes"] = list(self.notes)
        return rec


def build_report(case_label, tolerance, channels, points_checked,
                 classification="", notes=(), extra_fail=False):
    """Assemble a report; verdict is pass iff every channel is within
    tolerance and no extra failure condition was flagged."""
    ok = all(c.max_abs <= tolerance for c in channels) and not extra_fail
    return ResidualReport(
        case_label=case_label,
        points_checked=points_checked,
        channels=tuple(channels),
        tolerance=tolerance,
        verdict="pass" if ok else "fail",
        classification=classification,
        notes=tuple(notes),
    )


def max_over_batch(name, points, values):
    """Channel with the largest |value| from an array of values, one per
    point.

    The maximum is taken in point order (the first of equal maxima), so the
    result is independent of how the sweep was scheduled.
    """
    worst_p, worst_v = None, -1.0
    for point, value in zip(points, values.tolist()):
        a = abs(value)
        if a > worst_v:
            worst_p, worst_v = tuple(point), a
    if worst_p is None:
        raise ValueError("no points supplied")
    return Channel(name, worst_v, worst_p)


def _atomic_write(path, text):
    """Write ``text`` to ``path`` by a temporary file beside it and a rename.
    An OSError names ``path``, not the temporary file, whose name is random."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.errno is not None:
            raise type(err)(err.errno, err.strerror, path) from err
        raise


def write_report(path, reports, header=None):
    """Write reports as JSON lines: one header record, one record per case."""
    head = {"record": "header", "version": REPORT_FORMAT_VERSION}
    if header:
        head.update(header)
    lines = [json.dumps(head, sort_keys=True)]
    for rep in reports:
        rec = {"record": "case"}
        rec.update(rep.to_record())
        lines.append(json.dumps(rec, sort_keys=True))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_grid_csv(path, header_cols, rows):
    """CSV dump of a grid sweep, full double precision."""
    lines = [",".join(header_cols)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
