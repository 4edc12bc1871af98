"""Fleet comparison — n-way equivalence with outlier detection.

§5.1 Scenario 3 wants *all* gateway routers to enforce identical
policy; Campion's unit of work is a pair.  This module lifts ConfigDiff
to a fleet: it computes the pairwise difference matrix, elects the
*medoid* configuration (the device minimizing total differences to the
rest — the fleet's de-facto intent, in the spirit of the outlier-
detection related work the paper cites) and reports every other device
against it, so each outlier comes with Campion's full localization.

Failures are isolated, not fatal: the matrix phase consumes
:class:`~repro.core.parallel.PairOutcome` objects, so a pair that
crashes or exceeds its wall-clock timeout is recorded in
``failed_pairs`` while every surviving pair still lands in the matrix.
The medoid is then elected over *surviving* pairs (mean differences per
surviving pair, so devices with failed pairs are not advantaged by
their missing entries), and devices whose reference report cannot be
produced are listed in ``failed`` alongside ``outliers``/``conforming``.

**Symmetry compression** (``compress``, on by default): real fleets
are heavily templated, so before the matrix the devices are
partitioned into equivalence classes — first by *device fingerprint*
(byte-identical semantic content, so intra-class pairs are zero), then
by *template fingerprint* (equal configurations modulo an allowlisted
parameter substitution — per-device loopbacks, router-ids, BGP peers).
One pair per replay signature is analyzed and its count replayed
across the class; :mod:`repro.core.near_symmetry` owns the plan, the
soundness conditions, and the fallback-to-concrete rules.  The
reference reports still run per device (through the
representative-warmed memo, so clones replay at memo speed): spans,
hostnames, and parse diagnostics are device-specific and deliberately
excluded from fingerprints, and running them live is what keeps the
report — and its serialized form — byte-identical to the uncompressed
run.  The oracle's ``symmetry`` selfcheck generator cross-validates
exactly that identity.

For a fleet of n devices the uncompressed matrix costs n(n-1)/2
comparisons, compressed down to s analyzed pairs for s distinct replay
signatures; pass ``reference=<hostname>`` to skip the election and
compare everything against a known-good device in n-1 comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from .config_diff import config_diff
from .coverage import DeviceCoverage, compute_fleet_coverage
from .fleet_atoms import FleetAtomizer
from .memo import DiffMemo
from .near_symmetry import FALLBACK_COUNTER, plan_near_pairs
from .parallel import pairwise_count_outcomes, resolve_timeout, resolve_workers
from .results import CampionReport
from .setalg import default_backend_name

__all__ = ["FleetReport", "SymmetryStats", "compare_fleet"]


def _elect_medoid(
    candidates: Sequence[str], survivors: Dict[str, List[int]]
) -> str:
    """The device with the smallest mean difference count to its peers.

    Deterministic under ties by construction: candidates are ranked by
    ``(exact mean, hostname)``.  Means are compared exactly, as sums
    scaled to the least common multiple of the survivor counts — float
    division could round two genuinely-equal means (different survivor
    counts) to unequal floats, or vice versa, making the winner depend
    on accumulated rounding rather than the hostname tie-break.  Input
    ordering (and therefore parallel completion order, since callers
    build ``survivors`` from the outcome list) never affects the
    result: the hostname component of the key already totally orders
    the candidates, so no pre-sorting is needed.
    """
    scale = math.lcm(*(len(survivors[hostname]) for hostname in candidates))
    return min(
        candidates,
        key=lambda hostname: (
            sum(survivors[hostname]) * (scale // len(survivors[hostname])),
            hostname,
        ),
    )


@dataclass(frozen=True)
class SymmetryStats:
    """How much of the matrix phase symmetry compression avoided.

    Informational only — deliberately *not* serialized (like timings),
    so compressed and uncompressed runs stay byte-identical in JSON.
    """

    devices: int
    #: template classes the plan partitioned the fleet into
    classes: int
    #: all unordered pairs the uncompressed matrix would compare
    total_pairs: int
    #: pairs actually analyzed (representatives, plus any pairs that
    #: fell back to concrete analysis)
    analyzed_pairs: int
    #: pairs analyzed concretely because the representative pair they
    #: would have replayed failed
    fallback_pairs: int = 0

    @property
    def expanded_pairs(self) -> int:
        """Pairs whose counts were expanded instead of computed."""
        return self.total_pairs - self.analyzed_pairs

    def render(self) -> str:
        """One summary line for CLI/stderr output."""
        line = (
            f"near-symmetry: {self.devices} device(s) in "
            f"{self.classes} template class(es); analyzed "
            f"{self.analyzed_pairs} of {self.total_pairs} matrix pair(s)"
        )
        if self.fallback_pairs:
            line += f"; {self.fallback_pairs} fallback pair(s)"
        return line


@dataclass
class FleetReport:
    """Result of an n-way comparison."""

    reference: str
    hostnames: List[str]
    # difference counts for every unordered pair (by hostname) that
    # completed; failed pairs appear in failed_pairs instead
    matrix: Dict[Tuple[str, str], int] = field(default_factory=dict)
    # full reports of each non-reference device against the reference
    reports: Dict[str, CampionReport] = field(default_factory=dict)
    # pairs whose comparison crashed or timed out, with the cause
    failed_pairs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # devices whose reference report could not be produced, with the cause
    failed_reports: Dict[str, str] = field(default_factory=dict)
    # diagnostics (e.g. fleet-atoms per-group budget fallbacks); kept
    # sorted and deduplicated so the serialized form (schema v4 carries
    # notes) stays byte-identical across backends and worker counts
    notes: List[str] = field(default_factory=list)
    # per-device configuration coverage (schema v4): which policy lines
    # participated in some localized diff vs. untouched policy
    coverage: Dict[str, DeviceCoverage] = field(default_factory=dict)
    # symmetry-compression statistics for the matrix phase, or None
    # when no compressed matrix phase ran; excluded from serialization
    # (like timings) so compressed == uncompressed output holds
    symmetry: Optional[SymmetryStats] = None

    @property
    def outliers(self) -> List[str]:
        """Devices that differ from the reference."""
        return sorted(
            hostname
            for hostname, report in self.reports.items()
            if not report.is_equivalent()
        )

    @property
    def conforming(self) -> List[str]:
        """Devices equivalent to the reference."""
        return sorted(
            hostname
            for hostname, report in self.reports.items()
            if report.is_equivalent()
        )

    @property
    def failed(self) -> List[str]:
        """Devices with no usable reference report."""
        return sorted(self.failed_reports)

    def is_partial(self) -> bool:
        """Whether any part of the fleet analysis is missing or degraded."""
        return bool(
            self.failed_pairs
            or self.failed_reports
            or any(report.is_degraded() for report in self.reports.values())
        )

    def pair_count(self, first: str, second: str) -> int:
        """Difference count between two devices (order-insensitive).

        Raises :class:`KeyError` with a message naming the pair when it
        has no count — because a hostname is unknown, because the
        pair's comparison failed (the recorded cause is included), or
        because the two names are the same device.
        """
        key = (min(first, second), max(first, second))
        if key in self.matrix:
            return self.matrix[key]
        unknown = sorted({first, second} - set(self.hostnames))
        if unknown:
            raise KeyError(
                f"no such device(s) in the fleet: {', '.join(unknown)}"
                f" (fleet: {', '.join(self.hostnames)})"
            )
        if key in self.failed_pairs:
            raise KeyError(
                f"pair {key[0]} vs {key[1]} has no difference count: "
                f"comparison failed ({self.failed_pairs[key]})"
            )
        if first == second:
            raise KeyError(
                f"pair {first} vs {second} is one device, not a pair"
            )
        raise KeyError(f"pair {key[0]} vs {key[1]} was not compared")

    def render_summary(self) -> str:
        """One-paragraph fleet verdict for CLI output."""
        conforming = self.conforming
        outliers = self.outliers
        failed = self.failed
        lines = [
            f"fleet of {len(self.hostnames)}; reference: {self.reference}",
            f"conforming: {len(conforming)}; outliers: {len(outliers)}"
            + (f"; failed: {len(failed)}" if failed else ""),
        ]
        for hostname in outliers:
            report = self.reports[hostname]
            lines.append(
                f"  {hostname}: {report.total_differences()} difference(s) vs {self.reference}"
            )
        for hostname in failed:
            lines.append(
                f"  {hostname}: comparison failed ({self.failed_reports[hostname]})"
            )
        if self.failed_pairs:
            lines.append(f"failed pairs: {len(self.failed_pairs)}")
            for (first, second), cause in sorted(self.failed_pairs.items()):
                lines.append(f"  {first} vs {second}: {cause}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_coverage(self) -> str:
        """Per-device configuration-coverage section for CLI output."""
        lines = ["configuration coverage (policy lines in localized diffs):"]
        for hostname in sorted(self.coverage):
            lines.append(f"  {self.coverage[hostname].render()}")
        return "\n".join(lines)


def compare_fleet(
    devices: Sequence[DeviceConfig],
    reference: Optional[str] = None,
    exhaustive_communities: bool = False,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    memo: Optional[DiffMemo] = None,
    use_memo: bool = True,
    set_backend: Optional[str] = None,
    compress: bool = True,
) -> FleetReport:
    """Compare a fleet of configurations intended to be identical.

    With ``reference=None`` the medoid is elected from the pairwise
    difference matrix: the device with the smallest *mean* difference
    count over its surviving pairs (mean, not total, so a device whose
    pairs failed is not advantaged by the missing entries); ties break
    toward the lexicographically-smallest hostname for determinism.
    Devices with no surviving pair at all cannot stand for election.

    ``compress`` (a bool, default ``True``) switches matrix-phase
    symmetry compression: the plan of
    :func:`repro.core.near_symmetry.plan_near_pairs` analyzes one pair
    per replay signature and expands every other pair's count from it
    (0 within a device-fingerprint class).  Reports, election, and
    serialized output are identical either way — on templated fleets
    the matrix phase just shrinks from O(n²) toward O(k²) for k
    distinct templates.  A failed representative pair marks its
    content-identical pairs failed with the same cause (matching the
    uncompressed outcome for content-deterministic failures — the only
    reproducible kind), while merely near-symmetric pairs *fall back to
    concrete analysis* (counted under ``near_symmetry.fallbacks`` and
    noted on ``FleetReport.notes``), since a fault observed on one
    substitution instance says nothing about the others.
    ``compress=False`` is the uncompressed reference the oracle and the
    end-to-end checker compare against.

    ``workers`` fans the matrix phase over that many processes
    (``None`` consults the ``CAMPION_WORKERS`` environment variable,
    defaulting to serial).  Workers return only difference counts; the
    n-1 reference reports are always computed in this process, so the
    resulting :class:`FleetReport` — and its serialized form — is
    identical whatever the worker count.

    ``timeout`` bounds each pair's wall clock (``None`` consults
    ``CAMPION_PAIR_TIMEOUT``); ``node_limit`` bounds each pair's BDD
    allocation.  Either tripping turns that pair into a ``failed_pairs``
    entry (matrix phase) or a per-component degradation inside the
    report (reference phase) rather than sinking the run.

    Fingerprint memoization is on by default (``use_memo=True``): each
    unique component-content pair is diffed once and replayed across
    the matrix and the reference reports, which is what makes templated
    fleets near-linear instead of quadratic.  Pass a ``memo`` (e.g. a
    :class:`~repro.core.memo.DiffMemo` backed by the persistent
    :class:`~repro.cache.ArtifactCache`) to share results across runs,
    or ``use_memo=False`` for the plain recompute-every-pair baseline.
    Reports and counts are identical in every mode.

    ``set_backend`` names the SemanticDiff set-algebra backend used in
    the matrix workers and the reference reports (``None`` = process
    default; see :mod:`repro.core.setalg`) — another knob that changes
    only the wall clock, never the report.  ``"fleet-atoms"``
    additionally runs fleet-scale atomization before the matrix
    (:class:`~repro.core.fleet_atoms.FleetAtomizer`): each connected
    device group's ACLs are folded into one shared atom universe and
    every intra-group pair count is seeded into the memo as pure bitset
    arithmetic, so the whole matrix phase performs zero BDD applies.
    Per-group budget fallbacks are reported on ``FleetReport.notes``.

    The report also carries per-device *configuration coverage*
    (``FleetReport.coverage``, serialized under schema v4): which
    ACL/route-map lines participated in some localized difference
    versus policies the run found nothing to say about.
    """
    if not isinstance(compress, bool):
        # A truthy mode string such as "off" must not silently compress.
        raise TypeError(f"compress must be a bool, got {compress!r}")
    if len(devices) < 2:
        raise ValueError("a fleet comparison needs at least two devices")
    by_name = {device.hostname: device for device in devices}
    if len(by_name) != len(devices):
        seen: Dict[str, int] = {}
        for device in devices:
            seen[device.hostname] = seen.get(device.hostname, 0) + 1
        duplicates = sorted(name for name, count in seen.items() if count > 1)
        raise ValueError(
            "fleet hostnames must be unique; duplicated: " + ", ".join(duplicates)
        )
    hostnames = sorted(by_name)
    workers = resolve_workers(workers)
    timeout = resolve_timeout(timeout)
    backend_name = (
        set_backend if set_backend is not None else default_backend_name()
    )
    fleet_seeding = backend_name == "fleet-atoms"
    # Fleet-scale atomization communicates with the matrix through the
    # memo (seeded counts), so the backend forces one into existence
    # even under use_memo=False — the recompute-every-pair baseline
    # makes no sense for a backend whose whole point is fleet reuse.
    if memo is None and (use_memo or fleet_seeding):
        memo = DiffMemo()

    notes: List[str] = []
    if fleet_seeding:
        atomizer = FleetAtomizer(
            devices,
            memo,
            exhaustive_communities=exhaustive_communities,
            node_limit=node_limit,
        )
        atomizer.seed()
        notes = list(atomizer.notes)

    matrix: Dict[Tuple[str, str], int] = {}
    failed_pairs: Dict[Tuple[str, str], str] = {}
    symmetry: Optional[SymmetryStats] = None

    if reference is None:
        if compress:
            plan, plan_notes = plan_near_pairs(devices)
            notes.extend(plan_notes)
            pair_keys = list(plan.pair_keys)
        else:
            pair_keys = [
                (first, second)
                for index, first in enumerate(hostnames)
                for second in hostnames[index + 1 :]
            ]
        with perf.timer("fleet.matrix"):
            outcomes = pairwise_count_outcomes(
                [(by_name[a], by_name[b]) for a, b in pair_keys],
                workers=workers,
                exhaustive_communities=exhaustive_communities,
                timeout=timeout,
                node_limit=node_limit,
                memo=memo,
                set_backend=set_backend,
            )
        if compress:
            matrix, failed_pairs, fallback = plan.expand(
                hostnames, dict(zip(pair_keys, outcomes))
            )
            if fallback:
                # A failed representative pair must not poison its
                # merely near-symmetric members: analyze them
                # concretely, under the same matrix timer.
                perf.add(FALLBACK_COUNTER, len(fallback))
                notes.append(
                    f"near-symmetry: {len(fallback)} pair(s) fell back"
                    " to concrete analysis after their representative"
                    " pair failed"
                )
                with perf.timer("fleet.matrix"):
                    fallback_outcomes = pairwise_count_outcomes(
                        [(by_name[a], by_name[b]) for a, b in fallback],
                        workers=workers,
                        exhaustive_communities=exhaustive_communities,
                        timeout=timeout,
                        node_limit=node_limit,
                        memo=memo,
                        set_backend=set_backend,
                    )
                for key, outcome in zip(fallback, fallback_outcomes):
                    if outcome.ok:
                        matrix[key] = outcome.result
                    else:
                        failed_pairs[key] = outcome.describe()
            symmetry = SymmetryStats(
                devices=len(hostnames),
                classes=len(plan.template_classes),
                total_pairs=len(hostnames) * (len(hostnames) - 1) // 2,
                analyzed_pairs=len(pair_keys) + len(fallback),
                fallback_pairs=len(fallback),
            )
            perf.add(
                "fleet.symmetry.pairs_expanded", symmetry.expanded_pairs
            )
        else:
            for key, outcome in zip(pair_keys, outcomes):
                if outcome.ok:
                    matrix[key] = outcome.result
                else:
                    failed_pairs[key] = outcome.describe()
        survivors = {
            hostname: [
                count for pair, count in matrix.items() if hostname in pair
            ]
            for hostname in hostnames
        }
        candidates = [h for h in hostnames if survivors[h]]
        if not candidates:
            raise RuntimeError(
                f"fleet comparison failed: all {len(pair_keys)} pairwise "
                "comparisons failed"
            )
        reference = _elect_medoid(candidates, survivors)
    elif reference not in by_name:
        raise ValueError(f"reference {reference!r} is not in the fleet")

    result = FleetReport(
        reference=reference,
        hostnames=hostnames,
        matrix=matrix,
        failed_pairs=failed_pairs,
        notes=sorted(set(notes)),
        symmetry=symmetry,
    )
    with perf.timer("fleet.reports"):
        for hostname in hostnames:
            if hostname == reference:
                continue
            key = (min(reference, hostname), max(reference, hostname))
            # Always re-run oriented reference-first so reports read
            # uniformly; budgets make the retry of a matrix-phase failure
            # degrade per-component instead of repeating the blow-up.
            try:
                report = config_diff(
                    by_name[reference],
                    by_name[hostname],
                    exhaustive_communities=exhaustive_communities,
                    node_limit=node_limit,
                    time_budget=timeout,
                    memo=memo,
                    set_backend=set_backend,
                )
            except Exception as exc:  # noqa: BLE001 - isolate per-device failure
                result.failed_reports[hostname] = f"{type(exc).__name__}: {exc}"
                continue
            result.reports[hostname] = report
            result.matrix.setdefault(key, report.total_differences())
            result.failed_pairs.pop(key, None)
    result.coverage = compute_fleet_coverage(by_name, result)
    return result
