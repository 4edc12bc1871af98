"""Reference outputs for the checker: many ``campion`` invocations, one process.

Usage::

    PYTHONPATH=src python e2ebench/reference.py JOBS.json RESULTS.json

``JOBS.json`` is a list of ``{"args": [...], "cwd": "..."}``; each job
runs ``repro.cli.main(args)`` in ``cwd`` with stdout captured, exactly
as ``python -m repro.cli ARGS`` would print it, and ``RESULTS.json``
gets one ``{"exit": N, "stdout": "..."}`` per job, in order.  Running
the jobs in one interpreter saves a start-up and an import per
reference; the outputs are the CLI's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys


def main(argv) -> int:
    jobs_path, results_path = (os.path.abspath(path) for path in argv)
    with open(jobs_path) as handle:
        jobs = json.load(handle)
    import repro.cli

    results = []
    for job in jobs:
        os.chdir(job["cwd"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = repro.cli.main(job["args"])
        results.append({"exit": code, "stdout": stdout.getvalue()})
    with open(results_path, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
