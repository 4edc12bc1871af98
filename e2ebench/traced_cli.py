"""Run one ``campion`` invocation in this process with layer spans traced.

Usage::

    PYTHONPATH=src python e2ebench/traced_cli.py TRACE.json -- ARGS...

``ARGS`` are ``campion`` arguments, exactly as given to
``python -m repro.cli``.  The import of :mod:`repro.cli` is timed as
the ``cli.import`` span; then the tracer wraps every layer entry point
and the invocation runs, under a ``cli.main`` span unless it is
``serve``.  When it returns (for ``serve``: after the SIGTERM drain)
the spans, the invocation's exit code and the program's ``perf``
counters are written to ``TRACE.json`` as Chrome trace-event JSON, and
the process exits with the invocation's exit code.  Stdout is the
invocation's own.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, campion_args = argv[0], argv[2:]
    recorder = tracing.Tracer()
    span = recorder.begin("cli.import")
    import repro.cli
    from repro import perf

    recorder.end(span)
    serving = "serve" in campion_args
    tracing.install(recorder, service=serving)
    # A daemon's main span would be its whole, mostly idle, lifetime.
    span = None if serving else recorder.begin("cli.main")
    code = 1
    try:
        code = repro.cli.main(campion_args)
    finally:
        if span is not None:
            recorder.end(span)
        sys.stdout.flush()
        recorder.write(
            trace_path,
            {"argv": campion_args, "exit": code, "perf": perf.snapshot()},
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
