"""Span recording around the program's layer entry points, and the
self-time rollup that turns a recorded trace into per-layer metrics.

The tracer lives entirely in the benchmark: :func:`install` replaces
each entry point named in :data:`ENTRY_POINTS` with a wrapper that
records a span, both at its definition and at every ``from ... import``
binding of it in an already imported ``repro`` module.  Spans (name,
start, end, parent, thread) stay in memory and are written once, as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto), by
:meth:`Tracer.write`.

:func:`self_times` and :func:`rollup` read such a file back: a span's
self time is its duration minus the part of it that its child spans
cover, and each layer's metric is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# (defining module, attribute, span name).  A class attribute is written
# "Class.method".  Every binding of the same function object in another
# repro module gets the same span, unless BINDING_NAMES overrides it.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.parsers.loader", "parse_config", "parsers.parse"),
    ("repro.parsers.loader", "load_config", "parsers.parse"),
    ("repro.model.fingerprint", "compute_fingerprints", "model.fingerprint"),
    ("repro.model.fingerprint", "compute_template", "model.template"),
    ("repro.encoding.acl_encoder", "acl_equivalence_classes", "encoding.classes"),
    (
        "repro.encoding.routemap_encoder",
        "route_map_equivalence_classes",
        "encoding.classes",
    ),
    ("repro.core.semantic_diff", "diff_acls", "core.semantic_diff"),
    ("repro.core.semantic_diff", "diff_route_maps", "core.semantic_diff"),
    ("repro.core.structural_diff", "structural_diff_all", "core.structural_diff"),
    ("repro.core.config_diff", "config_diff", "core.config_diff"),
    ("repro.core.ddnf", "cached_dag", "core.ddnf"),
    ("repro.core.header_localize", "header_localize", "core.header_localize"),
    ("repro.core.near_symmetry", "plan_near_pairs", "core.near_symmetry.plan"),
    ("repro.core.parallel", "pairwise_count_outcomes", "core.parallel.matrix"),
    ("repro.core.fleet", "compare_fleet", "core.fleet"),
    ("repro.core.coverage", "compute_fleet_coverage", "core.coverage"),
    ("repro.core.serialize", "fleet_report_to_dict", "core.serialize"),
    ("repro.core.serialize", "report_to_dict", "core.serialize"),
    ("repro.core.serialize", "report_to_json", "core.serialize"),
    ("repro.cache", "ArtifactCache.get_device", "cache.read"),
    ("repro.cache", "ArtifactCache.get_diff", "cache.read"),
    ("repro.cache", "ArtifactCache.put_device", "cache.write"),
    ("repro.cache", "ArtifactCache.put_diff", "cache.write"),
    ("repro.service.supervisor", "Supervisor.run_job", "service.job"),
    ("repro.service.journal", "Journal.append", "service.journal"),
)

#: Bindings whose calls belong to another layer than the function's
#: default: ``config_diff`` as called by ``compare_fleet`` builds the
#: fleet's per-device reports.
BINDING_NAMES: Dict[Tuple[str, str], str] = {
    ("repro.core.fleet", "config_diff"): "core.fleet.reports",
}

#: Modules imported before wrapping so that their bindings are found.
SERVICE_MODULES = ("repro.service.app", "repro.service.queue")

#: A ``json.dumps`` is the report's serialization only when the CLI or
#: the service's HTTP front end calls it, not when a cache, journal or
#: fingerprint routine encodes its own records.
SERIALIZING_CALLERS = ("repro.cli", "repro.service.api")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.extra: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "args": {},
        }
        stack.append(span)
        return span

    def end(self, span: Dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def interval(self, name: str, start: float, end: float) -> None:
        """A span outside any thread's call stack (e.g. a queue wait)."""
        self.spans.append(
            {
                "id": next(self._ids),
                "name": name,
                "parent": None,
                "tid": "async",
                "start": start,
                "end": end,
                "args": {},
            }
        )

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.extra[name] = self.extra.get(name, 0) + amount

    def write(self, path: str, other: Dict) -> None:
        """Write the spans as Chrome trace-event JSON to ``path``."""
        pid = os.getpid()
        events = []
        for span in self.spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "ph": "X",
                    "pid": pid,
                    "tid": span["tid"],
                    "ts": (span["start"] - self.origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": dict(span["args"], id=span["id"], parent=span["parent"]),
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(other, counts=self.extra),
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def _wrap(tracer: Tracer, function: Callable, name: str) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        _annotate(tracer, span, result)
        return result

    return traced


def _annotate(tracer: Tracer, span: Dict, result) -> None:
    """Counts that only the return value carries."""
    name = span["name"]
    if name == "encoding.classes":
        span["args"]["classes"] = len(result)
        tracer.count("encoding.classes", len(result))
    elif name == "core.fleet":
        symmetry = getattr(result, "symmetry", None)
        total = len(result.hostnames) * (len(result.hostnames) - 1) // 2
        analyzed = total if symmetry is None else symmetry.analyzed_pairs
        tracer.count("core.near_symmetry.matrix_pairs", total)
        tracer.count("core.near_symmetry.analyzed_pairs", analyzed)
    elif name == "core.serialize" and isinstance(result, str):
        tracer.count("core.serialize.bytes", len(result))


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every entry point, at its definition and at its bindings."""
    if service:
        for module_name in SERVICE_MODULES:
            importlib.import_module(module_name)
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for module_name, attribute, span_name in ENTRY_POINTS:
        try:
            owner, leaf = _resolve(module_name, attribute)
        except ImportError:
            continue  # the service layer, when not serving
        original = getattr(owner, leaf)
        setattr(owner, leaf, _wrap(tracer, original, span_name))
        if "." in attribute:
            continue  # methods are found through their class
        for module in modules:
            if getattr(module, leaf, None) is original:
                bound_name = BINDING_NAMES.get((module.__name__, leaf), span_name)
                setattr(module, leaf, _wrap(tracer, original, bound_name))
    _install_extras(tracer, service)


def _install_extras(tracer: Tracer, service: bool) -> None:
    """Byte counts, top-level JSON encoding and the service queue wait."""
    from repro.cache import ArtifactCache

    write_atomic = ArtifactCache._write_atomic

    @functools.wraps(write_atomic)
    def counted_write(self, path, data):
        tracer.count("cache.bytes_written", len(data))
        return write_atomic(self, path, data)

    ArtifactCache._write_atomic = counted_write

    dumps = json.dumps

    @functools.wraps(dumps)
    def traced_dumps(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") not in SERIALIZING_CALLERS:
            return dumps(*args, **kwargs)
        span = tracer.begin("core.serialize")
        try:
            text = dumps(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.count("core.serialize.bytes", len(text))
        return text

    json.dumps = traced_dumps
    if not service:
        return

    from repro.service.queue import JobQueue

    submit, claim = JobQueue.submit, JobQueue.claim
    submitted: Dict[str, float] = {}

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        job = submit(self, *args, **kwargs)
        submitted[job.id] = time.perf_counter()
        return job

    @functools.wraps(claim)
    def traced_claim(self, *args, **kwargs):
        job = claim(self, *args, **kwargs)
        if job is not None and job.id in submitted:
            tracer.interval(
                "service.queue_wait", submitted.pop(job.id), time.perf_counter()
            )
        return job

    JobQueue.submit, JobQueue.claim = traced_submit, traced_claim


# -- reading a trace back ---------------------------------------------------


def load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(events: Sequence[Dict]) -> List[Tuple[str, float]]:
    """``(name, self seconds)`` per complete event of a trace.

    Children are the events whose ``args.parent`` names this event's
    ``args.id``; the part of the parent's interval that their union
    covers is subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for event in events:
        parent = event["args"].get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
    result = []
    for event in events:
        start, end = event["ts"], event["ts"] + event["dur"]
        covered = _covered(children.get(event["args"]["id"], ()), start, end)
        result.append((event["name"], (event["dur"] - covered) / 1e6))
    return result


def inclusive_times(events: Sequence[Dict]) -> Dict[str, float]:
    """Summed wall seconds per span name, children included."""
    totals: Dict[str, float] = {}
    for event in events:
        totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur"] / 1e6
    return totals


def rollup(document: Dict) -> Dict[str, float]:
    """Summed self seconds per span name for one trace document."""
    totals: Dict[str, float] = {}
    for name, seconds in self_times(document["traceEvents"]):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals
