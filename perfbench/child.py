"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the workload (or none, for a set-up probe that only imports
biharm), its inputs, a work directory, a tag for file names and whether to
trace.  The child writes ``<tag>.result.json`` (and ``<tag>.spans.jsonl``
when traced) into the work directory, with the pace probes taken during
set-up and during the iteration (``pace.py``).  It never prints the result, so the
library's own output cannot corrupt it.
"""

import pace

PACER = pace.Pacer()
PACER.start()  # first, so the probes pace set-up too

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import biharm  # noqa: F401,E402  (set-up ends once the package is imported)
import biharm.cli  # noqa: F401,E402

SETUP_DONE = time.monotonic()
SETUP_PROBES = PACER.take()

import spans  # noqa: E402
import workloads  # noqa: E402


def main(job_path):
    with open(job_path) as handle:
        job = json.load(handle)
    result = {"setup_done": SETUP_DONE, "setup_probes": SETUP_PROBES}
    if job["workload"] is None:
        PACER.stop()
    else:
        tracer = None
        if job["trace"]:
            tracer = spans.Tracer(job["iteration"])
            tracer.install()
        PACER.take()
        start = time.perf_counter()
        cases, outputs = workloads.run_iteration(
            job["workload"], job["inputs"], job["workdir"], job["tag"])
        result["raw_wall_s"] = time.perf_counter() - start
        result["probes"] = PACER.take()
        PACER.stop()
        result["cases"] = cases
        result["digest"] = hashlib.sha256(b"\0".join(outputs)).hexdigest()
        if tracer is not None:
            result["counts"] = tracer.counts
            tracer.write(os.path.join(job["workdir"],
                                      job["tag"] + ".spans.jsonl"))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(os.path.join(job["workdir"], job["tag"] + ".result.json"),
              "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
