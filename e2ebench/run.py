"""End-to-end benchmark of what a campion operator waits for.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program under test is
the checkout's ``src/`` tree, driven only through the surfaces users
run, with default settings: ``python -m repro.cli`` in a fresh process
per op, and the ``campion serve`` daemon over HTTP.  Inputs are
generated from ``--seed`` with :mod:`repro.workloads` and handed to the
program as config files (or, for the service, as their texts).

Workloads (rationale in ``README.md``):

* ``fleet-edit``   — ``fleet --json`` on a 32-device parameterized Clos
  fleet against one warm persistent cache; before each op one device
  is replaced by a seeded mutation of its base text (the previous edit
  reverted), rotating through devices;
* ``service-edit`` — a ``campion serve`` daemon and a closed-loop client
  (one tenant) pushing seeded edits and polling each job to ``done``.

Ops are checked against references computed outside the timed region
in an independent configuration (see :mod:`checks`).  With
``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` ops alternate untraced and
traced (:mod:`traced_cli`), and the result carries the per-layer
metrics, the tracing overhead, and the ratios with their bases.
Human-readable detail precedes the JSON line.  Exit code 0 means the
benchmark ran (failed ops are counted, not fatal); anything else means
it could not run.
"""

from __future__ import annotations

import argparse
import collections
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import checks
import stats
import tracer

WORKLOADS = ("fleet-edit", "service-edit")

FLEET_DEVICES = 32
FLEET_ROLES = 3
FLEET_RULES = 24
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: closed-loop service clients.  With two (one per core), a job's
#: latency depended on whether the other client's job overlapped it
#: and the tail spread 0.40 over ten seeds; one client keeps it steady.
CLIENTS = 1
#: ops compared with a reference per run, spread evenly over the run.
#: A fleet reference takes about twice as long as a warm op, so checking
#: every op would more than double a run; the other ops are checked for
#: their exit code (or end state) and for printing JSON.
REFERENCE_SAMPLE = 8
#: ``peak_rss_mb`` is taken over this many ops, one rotation through the
#: fleet's devices: the warm cache and the daemon's memory grow with
#: every edit, so a figure over the whole run would grow with the number
#: of ops the run held, that is with the machine's speed
RSS_OPS = FLEET_DEVICES
OP_TIMEOUT = 150.0
POLL_INTERVAL = 0.01

#: campion arguments of the independent reference configuration
REFERENCE_FLAGS = ("--no-cache", "--set-backend", "bdd")

END_TO_END = (
    ("wall_s.p50", "s"),
    ("wall_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: per-layer metric -> unit.  Times are self seconds per op (span
#: duration minus child spans), except ``service.job_s`` (whole job)
#: and ``service.queue_wait_s`` (submit to claim); counts are per op.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "parsers.parse_s": "s",
    "parsers.lines": "count",
    "model.fingerprint_s": "s",
    "model.template_s": "s",
    "encoding.classes_s": "s",
    "encoding.classes": "count",
    "bdd.applies": "count",
    "core.config_diff_s": "s",
    "core.semantic_diff_s": "s",
    "core.semantic_diff.classes": "count",
    "core.structural_diff_s": "s",
    "core.ddnf_s": "s",
    "core.ddnf.dag_cache_hits": "count",
    "core.ddnf.dag_lookups": "count",
    "core.ddnf.dag_cache_hit_ratio": "ratio",
    "core.header_localize_s": "s",
    "core.header_localize.terms": "count",
    "core.header_localize.ranges": "count",
    "core.near_symmetry.plan_s": "s",
    "core.near_symmetry.analyzed_pairs": "count",
    "core.near_symmetry.matrix_pairs": "count",
    "core.near_symmetry.analyzed_pair_ratio": "ratio",
    "core.fleet_s": "s",
    "core.parallel.matrix_s": "s",
    "core.fleet.reports_s": "s",
    "core.memo.hits": "count",
    "core.memo.lookups": "count",
    "core.memo.hit_ratio": "ratio",
    "core.memo.localization_replays": "count",
    "core.coverage_s": "s",
    "core.serialize_s": "s",
    "core.serialize.bytes": "bytes",
    "cache.read_s": "s",
    "cache.write_s": "s",
    "cache.hits": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "service.queue_wait_s": "s",
    "service.job_s": "s",
    "service.journal_s": "s",
    "service.journal.appends": "count",
    "output.byte_mismatch_ratio": "ratio",
    "trace.ops": "count",
    "trace.wall_s.p50": "s",
    "trace.untraced_wall_s.p50": "s",
    "trace.overhead_s": "s",
}

#: ratio -> (numerator, denominator), all per-layer metrics
RATIOS = {
    "core.ddnf.dag_cache_hit_ratio": ("core.ddnf.dag_cache_hits", "core.ddnf.dag_lookups"),
    "core.near_symmetry.analyzed_pair_ratio": (
        "core.near_symmetry.analyzed_pairs",
        "core.near_symmetry.matrix_pairs",
    ),
    "core.memo.hit_ratio": ("core.memo.hits", "core.memo.lookups"),
    "cache.hit_ratio": ("cache.hits", "cache.lookups"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run (as opposed to an op failing)."""


@dataclass
class Op:
    """One timed (or traced) operation and what is needed to check it."""

    state: object
    wall: float
    returncode: int
    stdout: bytes
    rss_kb: int = 0
    traced: bool = False
    trace_path: Optional[Path] = None
    verdict: Optional[checks.Verdict] = None
    #: compared with a reference (else: exit code or end state, and JSON)
    referenced: bool = False
    #: stdout equals the reference's byte for byte (referenced CLI ops)
    byte_identical: Optional[bool] = None


@dataclass
class Outcome:
    ops: List[Op] = field(default_factory=list)
    window: float = 0.0
    setup_times: List[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    traces: List[Path] = field(default_factory=list)
    #: ops the traced traces cover (service: jobs in the traced phase)
    traced_ops: int = 0


# -- inputs -------------------------------------------------------------------


def config_text(device) -> str:
    """A generated device's config text, as the parser saw it."""
    return "\n".join(device.raw_lines) + "\n"


def generate_fleet(seed: int) -> Dict[str, str]:
    from repro.workloads.datacenter import parameterized_clos_fleet

    devices, _ = parameterized_clos_fleet(
        count=FLEET_DEVICES, roles=FLEET_ROLES, rule_count=FLEET_RULES, seed=seed
    )
    return {device.filename: config_text(device) for device in devices}


#: Edit kinds, cycled op by op.  On the Clos devices only two mutation
#: operators apply: an ACL edit forces new pair analyses, a BGP edit is
#: a cheap structural change.  Op cost is bimodal between them, so a
#: seeded random choice per op would let the median jump between the
#: modes from run to run; a fixed 2:1 cycle keeps every run's mix.
EDIT_CYCLE = ("flip_acl_action", "flip_acl_action", "remove_send_community")


def mutated(base: Dict[str, str], index: int, mutation_seed: int) -> Dict[str, str]:
    """``base`` with device ``index`` edited: edit kind by ``index``,
    site and value by ``mutation_seed``."""
    from repro.workloads import mutation as mutations

    names = sorted(base)
    name = names[index % len(names)]
    operator = getattr(mutations, EDIT_CYCLE[index % len(EDIT_CYCLE)])
    edit = operator(base[name], random.Random(mutation_seed))
    if edit is None:
        edit = mutations.apply_random_mutation(base[name], seed=mutation_seed)
    files = dict(base)
    if edit is not None:
        files[name] = edit.text
    return files


def write_files(directory: Path, files: Dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)


# -- processes ------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The caller's environment minus campion knobs: default settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAMPION_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def campion_argv(args: Sequence[str], trace_path: Optional[Path]) -> List[str]:
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), "--", *args]


def run_timed(args: Sequence[str], cwd: Path, trace_path: Optional[Path] = None) -> Tuple[float, int, bytes, int]:
    """Run one CLI op: (wall to the last stdout byte, exit, stdout, maxrss KB)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        campion_argv(args, trace_path),
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(OP_TIMEOUT, process.kill)
    timer.start()
    try:
        stdout = process.stdout.read()
        wall = time.perf_counter() - start
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        timer.cancel()
        process.stdout.close()
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, process.returncode, stdout, usage.ru_maxrss


def run_cli(args: Sequence[str], cwd: Path) -> int:
    """Run one untimed ``campion`` process; its exit code."""
    return subprocess.run(
        campion_argv(args, None),
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=OP_TIMEOUT,
    ).returncode


def run_references(
    jobs: Dict[object, Tuple[Sequence[str], Path]], work: Path
) -> Dict[object, Tuple[int, bytes]]:
    """Reference outputs, computed in one process outside any timed region."""
    keys = list(jobs)
    work.mkdir(parents=True, exist_ok=True)
    jobs_path = work / "reference-jobs.json"
    results_path = work / "reference-results.json"
    jobs_path.write_text(
        json.dumps([{"args": list(jobs[key][0]), "cwd": str(jobs[key][1])} for key in keys])
    )
    process = subprocess.Popen(
        [sys.executable, str(HERE / "reference.py"), str(jobs_path), str(results_path)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    try:
        code = process.wait(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("reference runs did not finish in time") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"reference run exited {code}")
    results = json.loads(results_path.read_text())
    return {
        key: (result["exit"], result["stdout"].encode("utf-8"))
        for key, result in zip(keys, results)
    }


def sample(states: Sequence) -> list:
    """At most :data:`REFERENCE_SAMPLE` of ``states``, evenly spread."""
    if len(states) <= REFERENCE_SAMPLE:
        return list(states)
    step = len(states) / REFERENCE_SAMPLE
    return [states[int(i * step)] for i in range(REFERENCE_SAMPLE)]


def fleet_args(names: Sequence[str], cache: Optional[Path]) -> List[str]:
    prefix = ["--cache-dir", str(cache)] if cache is not None else list(REFERENCE_FLAGS)
    extra = [] if cache is not None else ["--no-compress"]
    return [*prefix, "fleet", "--json", *extra, *sorted(names)]


# -- CLI workload -------------------------------------------------------------------


class FleetEdit:
    """``fleet --json`` against a warm cache, one seeded edit per op.

    Closed loop, one client, a fresh ``campion`` process per op.
    ``fleet --json`` promises the same bytes cold or warm, but warm ops
    print some replayed objects with their keys in another order (the
    cache stores diff entries with sorted keys and the replay rebuilds
    them in stored order).  The benchmark's workloads must not fail ops,
    so an op fails only when its sorted-key report differs; the byte
    mismatches are counted apart, in ``output.byte_mismatch_ratio``
    and the line beside the error rate.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed)

    def setup(self, directory: Path) -> None:
        """Generate and write the fleet, and warm its cache."""
        self.files = generate_fleet(self.seed)
        write_files(directory, self.files)
        self.inputs = directory
        self.cache = directory / "cache"
        code = run_cli(fleet_args(self.files, self.cache), directory)
        if code not in (0, 1):
            raise BenchError(f"warming the fleet cache exited {code}")
        self.edited: Optional[str] = None

    def prepare(self, index: int):
        """Untimed: revert the last edit, make op ``index``'s; its state key."""
        if self.edited is not None:
            (self.inputs / self.edited).write_text(self.files[self.edited])
        mutation_seed = self.rng.randrange(2**31)
        self.edited = sorted(self.files)[index % len(self.files)]
        edited = mutated(self.files, index, mutation_seed)
        (self.inputs / self.edited).write_text(edited[self.edited])
        return (index, mutation_seed)

    def reference_job(self, state) -> Tuple[List[str], Path]:
        index, mutation_seed = state
        directory = self.work / f"reference-{index:04d}"
        write_files(directory, mutated(self.files, index, mutation_seed))
        return fleet_args(self.files, None), directory

    def run(self, seconds: float, trace: bool, trace_dir: Path) -> Outcome:
        outcome = Outcome()
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.setup(self.work / f"setup-{repeat}")
            outcome.setup_times.append(time.perf_counter() - start)
        index = 0
        start = time.perf_counter()
        minimum = 2 if trace else 1  # a traced run times at least one traced op
        while time.perf_counter() - start < seconds or index < minimum:
            state = self.prepare(index)
            traced = trace and index % 2 == 1
            trace_path = trace_dir / f"op-{index:04d}.json" if traced else None
            wall, code, stdout, rss = run_timed(
                fleet_args(self.files, self.cache), self.inputs, trace_path
            )
            outcome.ops.append(Op(state, wall, code, stdout, rss, traced, trace_path))
            index += 1
        outcome.window = time.perf_counter() - start
        outcome.peak_rss_kb = stats.median(
            [op.rss_kb for op in outcome.ops[:RSS_OPS] if not op.traced]
        )
        outcome.traces = [op.trace_path for op in outcome.ops if op.traced]
        outcome.traced_ops = len(outcome.traces)
        self.check(outcome.ops)
        return outcome

    def check(self, ops: List[Op]) -> None:
        states = sample([op.state for op in ops])
        references = run_references(
            {state: self.reference_job(state) for state in states}, self.work
        )
        expected_codes = {code for code, _ in references.values()}
        for op in ops:
            if op.state not in references:
                op.verdict = checks.check_unreferenced(op.returncode, op.stdout, expected_codes)
                continue
            expected_code, expected_stdout = references[op.state]
            op.referenced = True
            op.verdict = checks.check_output(
                op.returncode, op.stdout, expected_code, expected_stdout
            )
            op.byte_identical = op.stdout == expected_stdout
            if not op.byte_identical and op.verdict.ok:
                where = checks.key_order_difference(
                    json.loads(op.stdout), json.loads(expected_stdout)
                )
                op.verdict = checks.Verdict(
                    True, f"key order differs at {where}" if where else "layout differs"
                )


# -- service workload ------------------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_json(port: int, method: str, path: str, payload: Optional[bytes] = None) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT)
    try:
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Daemon:
    """One ``campion serve`` process with its cache and journal."""

    def __init__(self, directory: Path, cache: Path, trace_path: Optional[Path] = None) -> None:
        self.port = free_port()
        directory.mkdir(parents=True, exist_ok=True)
        args = [
            "--cache-dir", str(cache), "serve",
            "--port", str(self.port), "--journal", str(directory / "journal.jsonl"),
        ]
        self.process = subprocess.Popen(
            campion_argv(args, trace_path),
            cwd=directory,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while True:
            if self.process.poll() is not None:
                raise BenchError(f"campion serve exited {self.process.returncode}")
            try:
                if http_json(self.port, "GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("campion serve did not become ready")
            time.sleep(0.02)

    def submit_and_wait(self, tenant: str, files: Dict[str, str]) -> Tuple[float, str, bytes]:
        """(seconds from submit to seeing the end state, state, document)."""
        body = {
            "tenant": tenant,
            "configs": [{"name": name, "text": files[name]} for name in sorted(files)],
        }
        payload = json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        status, raw = http_json(self.port, "POST", "/v1/fleet", payload)
        if status != 202:
            return time.perf_counter() - start, f"http {status}", raw
        href = json.loads(raw)["href"]
        while True:
            status, raw = http_json(self.port, "GET", href)
            state = json.loads(raw)["job"]["state"] if status == 200 else f"http {status}"
            if state in ("done", "failed", "dead-letter") or status != 200:
                return time.perf_counter() - start, state, raw
            time.sleep(POLL_INTERVAL)

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait()


class ServiceEdit:
    """A ``campion serve`` daemon under closed-loop tenants."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.daemon: Optional[Daemon] = None

    def setup(self, directory: Path) -> None:
        """Start a daemon and warm each tenant's cache with the fleet."""
        self.files = generate_fleet(self.seed)
        self.cache = directory / "cache"
        self.daemon = Daemon(directory, self.cache)
        for client in range(CLIENTS):
            _, state, _ = self.daemon.submit_and_wait(f"tenant{client}", self.files)
            if state != "done":
                self.daemon.stop()
                raise BenchError(f"warming tenant{client} ended {state}")

    def closed_loop(self, daemon: Daemon, seconds: float, traced: bool, outcome: Outcome) -> None:
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client(number: int) -> None:
            rng = random.Random(f"{self.seed}:{number}:{traced}")
            index = 0
            while time.perf_counter() < deadline:
                mutation_seed = rng.randrange(2**31)
                files = mutated(self.files, index, mutation_seed)
                try:
                    wall, state, raw = daemon.submit_and_wait(f"tenant{number}", files)
                except (OSError, ValueError, KeyError) as exc:
                    with lock:  # the daemon is gone or garbled: stop this client
                        outcome.ops.append(Op((number, index, mutation_seed), 0.0, 1, repr(exc).encode()))
                    return
                op = Op(
                    (number, index, mutation_seed),
                    wall,
                    0 if state == "done" else 1,
                    raw,
                    traced=traced,
                )
                with lock:
                    outcome.ops.append(op)
                index += 1
                if index == RSS_OPS and not traced:
                    outcome.peak_rss_kb = daemon.peak_rss_kb()

        threads = [threading.Thread(target=client, args=(n,)) for n in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run(self, seconds: float, trace: bool, trace_dir: Path) -> Outcome:
        outcome = Outcome()
        daemons = []
        try:
            for repeat in range(SETUP_REPEATS):
                start = time.perf_counter()
                self.setup(self.work / f"setup-{repeat}")
                outcome.setup_times.append(time.perf_counter() - start)
                daemons.append(self.daemon)
                if repeat < SETUP_REPEATS - 1:
                    self.daemon.stop()
            start = time.perf_counter()
            self.closed_loop(self.daemon, seconds / 2 if trace else seconds, False, outcome)
            if not outcome.peak_rss_kb:  # the run ended before RSS_OPS jobs
                outcome.peak_rss_kb = self.daemon.peak_rss_kb()
            if trace:
                self.daemon.stop()
                trace_path = trace_dir / "daemon.json"
                self.daemon = Daemon(self.work / "traced", self.cache, trace_path)
                daemons.append(self.daemon)
                self.closed_loop(self.daemon, seconds / 2, True, outcome)
                self.daemon.stop()
                outcome.traces = [trace_path]
                outcome.traced_ops = sum(op.traced for op in outcome.ops)
            outcome.window = time.perf_counter() - start
        finally:
            for daemon in daemons:
                daemon.stop()
        self.check(outcome.ops)
        return outcome

    def check(self, ops: List[Op]) -> None:
        states = sample([op.state for op in ops if op.returncode == 0])
        jobs = {}
        for number, index, mutation_seed in states:
            directory = self.work / f"reference-{number}-{index:04d}-{mutation_seed}"
            files = mutated(self.files, index, mutation_seed)
            write_files(directory, files)
            jobs[(number, index, mutation_seed)] = (fleet_args(files, None), directory)
        references = run_references(jobs, self.work)
        for op in ops:
            if op.returncode != 0:
                op.verdict = checks.Verdict(False, "job did not end done")
                continue
            report = (json.loads(op.stdout).get("result") or {}).get("report")
            if report is None:
                op.verdict = checks.Verdict(False, "done job has no report")
                continue
            if op.state not in references:
                op.verdict = checks.Verdict(True)
                continue
            expected_code, expected_stdout = references[op.state]
            op.referenced = True
            if expected_code not in (0, 1):
                op.verdict = checks.Verdict(False, f"reference exited {expected_code}")
                continue
            op.verdict = checks.check_document(report, expected_stdout)


WORKLOAD_CLASSES = {
    "fleet-edit": FleetEdit,
    "service-edit": ServiceEdit,
}


# -- metrics ----------------------------------------------------------------------


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    walls = [op.wall for op in outcome.ops if not op.traced]
    tail_value, _, _ = stats.tail(walls)
    return {
        "wall_s.p50": stats.median(walls),
        "wall_s.tail": tail_value,
        "ops_per_s": len(walls) / outcome.window,
        "peak_rss_mb": outcome.peak_rss_kb / 1024.0,
        "setup_s": stats.median(outcome.setup_times),
    }


def layer_totals(documents: Sequence[Dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Summed ``(seconds per span name, counts per metric)`` of traces."""
    times: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    for document in documents:
        seconds_by_span = tracer.rollup(document)
        # a job's time is the whole job: its own and its layers'
        seconds_by_span["service.job"] = tracer.inclusive_times(
            document["traceEvents"]
        ).get("service.job", 0.0)
        for name, seconds in seconds_by_span.items():
            times[name] = times.get(name, 0.0) + seconds
        for name, value in document["otherData"]["perf"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in document["otherData"]["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def counter(*names: str) -> int:
        return sum(counters.get(name, 0) for name in names)

    counts.update(
        {
            "parsers.lines": sum(
                value
                for name, value in counters.items()
                if name.startswith("parse.") and name.endswith(".lines")
            ),
            "bdd.applies": counter("bdd.applies"),
            "core.semantic_diff.classes": counter("semantic_diff.classes"),
            "core.ddnf.dag_cache_hits": counter("header_localize.dag_cache_hits"),
            "core.ddnf.dag_lookups": counter(
                "header_localize.dag_cache_hits", "header_localize.dag_cache_misses"
            ),
            "core.header_localize.terms": counter("header_localize.terms"),
            "core.header_localize.ranges": counter("header_localize.ranges"),
            "core.memo.hits": counter("memo.hits"),
            "core.memo.lookups": counter("memo.hits", "memo.misses"),
            "core.memo.localization_replays": counter("memo.localization_replays"),
            "cache.hits": counter("cache.device.hits", "cache.diff.hits"),
            "cache.lookups": counter(
                "cache.device.hits",
                "cache.diff.hits",
                "cache.device.misses",
                "cache.diff.misses",
            ),
            "service.journal.appends": counter("service.journal.appends"),
        }
    )
    return times, counts


def byte_mismatches(outcome: Outcome) -> Tuple[int, int]:
    """(CLI ops byte-compared, those whose stdout differs from the reference)."""
    checked = [op for op in outcome.ops if op.byte_identical is not None]
    return len(checked), sum(not op.byte_identical for op in checked)


def per_layer(outcome: Outcome) -> Dict[str, float]:
    """Per-op layer metrics from the traces of the traced ops."""
    times, counts = layer_totals([tracer.load(str(path)) for path in outcome.traces])
    per_op = max(outcome.traced_ops, 1)
    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name.startswith(("trace.", "output.")) or name in RATIOS:
            continue
        if unit == "s":
            metrics[name] = times.get(name[: -len("_s")], 0.0) / per_op
        else:
            metrics[name] = counts.get(name, 0) / per_op
    for ratio, (numerator, denominator) in RATIOS.items():
        metrics[ratio] = (
            metrics[numerator] / metrics[denominator] if metrics[denominator] else 0.0
        )
    checked, mismatched = byte_mismatches(outcome)
    metrics["output.byte_mismatch_ratio"] = mismatched / checked if checked else 0.0
    traced = [op.wall for op in outcome.ops if op.traced]
    untraced = [op.wall for op in outcome.ops if not op.traced]
    metrics["trace.ops"] = outcome.traced_ops
    metrics["trace.wall_s.p50"] = stats.median(traced) if traced else 0.0
    metrics["trace.untraced_wall_s.p50"] = stats.median(untraced)
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s.p50"] - metrics["trace.untraced_wall_s.p50"]
    )
    return metrics


# -- report -----------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, outcome: Outcome) -> Dict:
    attempted = len(outcome.ops)
    failed = sum(not op.verdict.ok for op in outcome.ops)
    correct = failed == 0
    untraced = [op.wall for op in outcome.ops if not op.traced]
    loop = (
        f"closed loop, {CLIENTS} client(s) with a tenant each, one daemon"
        if workload == "service-edit"
        else "closed loop, 1 client, a fresh process per op"
    )
    print(f"workload {workload} seed {seed}: {attempted} ops in {outcome.window:.2f} s ({loop})")
    print(f"  error_rate {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    referenced = sum(op.referenced for op in outcome.ops)
    print(f"  compared with a reference: {referenced} of {attempted} ops"
          " (the rest: exit code or end state, and JSON)")
    reasons = collections.Counter(op.verdict.reason for op in outcome.ops if not op.verdict.ok)
    for reason, count in reasons.most_common(5):
        print(f"    {count} op(s): {reason}")
    if len(reasons) > 5:
        print(f"    ... and {len(reasons) - 5} more distinct reason(s)")
    checked, mismatched = byte_mismatches(outcome)
    if checked:
        print(f"  stdout byte-identical to the reference: {checked - mismatched} of {checked} ops")
        passed = collections.Counter(
            op.verdict.reason for op in outcome.ops if op.verdict.ok and op.verdict.reason
        )
        for reason, count in passed.most_common(3):
            print(f"    {count} op(s) with the same report: {reason}")
    if trace:
        metrics = per_layer(outcome)
        units = PER_LAYER
        print(f"  traced ops: {outcome.traced_ops}; per-layer values are per op")
        for name in PER_LAYER:
            line = f"  {name:40s} {metrics[name]:.6g} {units[name]}"
            if name in RATIOS:
                numerator, denominator = RATIOS[name]
                line += f"  (= {metrics[numerator]:.6g} {numerator} / {metrics[denominator]:.6g} {denominator})"
            print(line)
        print(f"  tracing overhead: traced wall_s.p50 {metrics['trace.wall_s.p50']:.4f} s"
              f" - untraced {metrics['trace.untraced_wall_s.p50']:.4f} s"
              f" = {metrics['trace.overhead_s']:.4f} s")
        for path in outcome.traces:
            print(f"  chrome trace: {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(outcome)
        units = dict(END_TO_END)
        _, label, beyond = stats.tail(untraced)
        notes = {
            "wall_s.tail": f"{label}, {beyond} of {len(untraced)} samples beyond it",
            "wall_s.p50": f"median of {len(untraced)} samples",
            "setup_s": f"median of {len(outcome.setup_times)} set-ups",
        }
        for name, unit in END_TO_END:
            note = notes.get(name)
            print(f"  {name:12s} {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def prepare_checkout() -> None:
    """Untimed build step: byte-compile the program, import it once."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=child_env(), check=True
    )
    sys.path.insert(0, str(SRC))
    import repro.workloads  # noqa: F401 - imported before set-up is timed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds like an error: its processes are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        prepare_checkout()
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"e2ebench: cannot run: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = WORK / "traces" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
        outcome = workload.run(args.seconds, bool(args.trace), trace_dir)
        result = report(args.workload, args.seed, bool(args.trace), outcome)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
