"""Job execution under supervision: crash quarantine + circuit breaker.

The supervisor is the bridge between a queued job payload (config
texts + options) and the analysis pipeline.  One job = parse every
config (through the tenant's cache namespace) and run
:func:`~repro.core.fleet.compare_fleet` with a
:class:`~repro.core.memo.DiffMemo` in front, so a warm re-push only
analyzes changed pairs.

Worker death is handled at two levels.  :mod:`repro.core.parallel`
already classifies a died worker as a per-pair ``crashed`` outcome
(respawning the pool with backoff) and retries it serially in-parent;
a pair that *still* shows a ``worker-crashed`` diagnostic lands in
``FleetReport.failed_pairs`` and is surfaced by the supervisor as a
structured quarantine entry on the job result — the job itself
succeeds with the surviving pairs.  On top of that, a circuit breaker
watches for *persistent* pool death across jobs: after
``crash_threshold`` consecutive crash-affected jobs it opens and
degrades execution to serial in-process workers (``workers=1`` — no
pool to kill), probing parallel execution again (half-open) after a
jittered, doubling cooldown.

Error classification mirrors the CLI exit-code contract:
:class:`~repro.model.types.ConfigError` / :class:`ValueError` /
:class:`RuntimeError` from the pipeline are *permanent* (a retry
cannot fix a malformed payload or duplicate hostnames); anything else
is transient and eligible for retry.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..cache import ArtifactCache
from ..core import DiffMemo, compare_fleet, fleet_report_to_dict
from ..model.types import ConfigError
from ..parsers import parse_config

__all__ = ["CircuitBreaker", "Supervisor", "JobError"]

_CRASH_MARKER = "worker-crashed"

#: Compression mode names older payloads may carry, and the switch
#: position each now means.
_LEGACY_COMPRESS_MODES = {"off": False, "exact": True, "near": True}


class JobError(Exception):
    """A job failed; ``permanent`` decides retry vs. failed."""

    def __init__(self, message: str, permanent: bool) -> None:
        super().__init__(message)
        self.permanent = permanent


class CircuitBreaker:
    """closed → open (serial) → half-open (probe) → closed.

    Thread-safe; ``decide_workers`` is consulted before every job and
    ``record`` after it, so state advances even when jobs overlap.
    """

    def __init__(
        self,
        crash_threshold: int = 2,
        cooldown: float = 5.0,
        max_cooldown: float = 300.0,
    ) -> None:
        self.crash_threshold = crash_threshold
        self.base_cooldown = cooldown
        self.max_cooldown = max_cooldown
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_crashes = 0
        self._open_until = 0.0
        self._cooldown = cooldown
        self._probing = False

    @property
    def state(self) -> str:
        """Current breaker state: closed, open, or half-open."""
        with self._lock:
            return self._state

    def decide_workers(self, requested: int) -> int:
        """Worker count for the next job under the current state."""
        if requested <= 1:
            return requested
        with self._lock:
            if self._state == "closed":
                return requested
            now = time.monotonic()
            if self._state == "open" and now >= self._open_until:
                self._state = "half-open"
            if self._state == "half-open" and not self._probing:
                # One probe job gets the pool back; the rest stay
                # serial until the probe reports success.
                self._probing = True
                return requested
            return 1

    def record(self, crashed: bool, parallel_job: bool) -> None:
        """Account one finished job's crash evidence."""
        with self._lock:
            if crashed:
                self._consecutive_crashes += 1
                perf.add("service.breaker.crash_jobs")
                if self._state == "half-open":
                    # The probe died too: back to open, longer cooldown.
                    self._probing = False
                    self._trip_locked()
                elif (
                    self._state == "closed"
                    and self._consecutive_crashes >= self.crash_threshold
                ):
                    self._trip_locked()
            else:
                self._consecutive_crashes = 0
                if self._state == "half-open" and parallel_job:
                    # Probe succeeded: pool is healthy again.
                    self._state = "closed"
                    self._probing = False
                    self._cooldown = self.base_cooldown
                    perf.add("service.breaker.closes")

    def _trip_locked(self) -> None:
        self._state = "open"
        self._open_until = time.monotonic() + self._cooldown * (
            1.0 + random.random()
        )
        self._cooldown = min(self.max_cooldown, self._cooldown * 2)
        perf.add("service.breaker.trips")

    def snapshot(self) -> Dict:
        """State, crash streak, and cooldown, for /healthz."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_crash_jobs": self._consecutive_crashes,
                "cooldown_seconds": self._cooldown,
            }


class Supervisor:
    """Executes job payloads through the pipeline, supervised."""

    def __init__(
        self,
        cache: Optional[ArtifactCache],
        workers: int = 1,
        timeout: Optional[float] = None,
        node_limit: Optional[int] = None,
        set_backend: Optional[str] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.cache = cache
        self.workers = workers
        self.timeout = timeout
        self.node_limit = node_limit
        self.set_backend = set_backend
        self.breaker = breaker or CircuitBreaker()

    # -- payload -------------------------------------------------------------
    @staticmethod
    def validate_payload(payload: Dict) -> List[Tuple[str, str]]:
        """``(filename, text)`` per config, or :class:`JobError`.

        Validation failures are *permanent* — the same payload will
        fail the same way on every retry.
        """
        configs = payload.get("configs")
        if not isinstance(configs, list) or len(configs) < 2:
            raise JobError(
                "payload must carry a 'configs' list of at least two"
                " {name, text} objects",
                permanent=True,
            )
        pairs: List[Tuple[str, str]] = []
        for position, config in enumerate(configs):
            if not isinstance(config, dict):
                raise JobError(
                    f"configs[{position}] is not an object", permanent=True
                )
            text = config.get("text")
            if not isinstance(text, str) or not text.strip():
                raise JobError(
                    f"configs[{position}] has no config text", permanent=True
                )
            name = config.get("name")
            if not isinstance(name, str) or not name:
                name = f"config-{position}"
            pairs.append((name, text))
        return pairs

    # -- execution -----------------------------------------------------------
    def run_job(self, payload: Dict, tenant_cache: Optional[ArtifactCache]) -> Dict:
        """Run one fleet analysis; blocking (call from a worker thread).

        Returns the job result document: the timing-free serialized
        fleet report plus supervision metadata (quarantined pairs,
        execution mode, cache/memo deltas for warm-push verification).
        Raises :class:`JobError` with a permanence classification on
        failure.
        """
        configs = self.validate_payload(payload)
        cache = tenant_cache if tenant_cache is not None else self.cache
        requested = int(payload.get("workers") or self.workers)
        effective_workers = self.breaker.decide_workers(requested)
        if effective_workers < requested:
            perf.add("service.jobs.degraded_serial")
        counter_base = {
            name: perf.REGISTRY.counters.get(name, 0)
            for name in (
                "cache.device.hits",
                "cache.diff.hits",
                "memo.hits",
                "memo.misses",
                "memo.localization_replays",
                "header_localize.dag_cache_hits",
                "parallel.worker_crashes",
                "parallel.pool_respawns",
            )
        }
        crashed = False
        try:
            devices = [
                self._parse(name, text, payload, cache)
                for name, text in configs
            ]
            report = compare_fleet(
                devices,
                reference=payload.get("reference"),
                exhaustive_communities=bool(
                    payload.get("exhaustive_communities", False)
                ),
                workers=effective_workers,
                timeout=self._float_option(payload, "timeout", self.timeout),
                node_limit=self._int_option(
                    payload, "node_limit", self.node_limit
                ),
                memo=DiffMemo(cache) if cache is not None else None,
                set_backend=payload.get("set_backend") or self.set_backend,
                compress=self._compress_option(payload),
            )
        except JobError:
            raise
        except ConfigError as exc:
            raise JobError(f"parse error: {exc}", permanent=True)
        except (ValueError, RuntimeError) as exc:
            # Duplicate hostnames / bad reference / all pairs failed:
            # deterministic for this payload — retry cannot help.
            raise JobError(str(exc), permanent=True)
        except Exception as exc:  # noqa: BLE001 - transient by default
            raise JobError(
                f"internal error ({type(exc).__name__}: {exc})",
                permanent=False,
            )
        finally:
            deltas = {
                name: perf.REGISTRY.counters.get(name, 0) - base
                for name, base in counter_base.items()
            }
            crashed = deltas["parallel.worker_crashes"] > 0
            self.breaker.record(
                crashed=crashed, parallel_job=effective_workers > 1
            )
        quarantined = {
            f"{first}<->{second}": cause
            for (first, second), cause in report.failed_pairs.items()
            if _CRASH_MARKER in cause
        }
        if quarantined:
            perf.add("service.jobs.quarantined_pairs", len(quarantined))
        # Symmetry-compression counters: how much of the matrix phase
        # the equivalence classes let this job skip.  Kept out of the
        # serialized report (like timings) and surfaced here instead,
        # alongside the other supervision metadata.
        if report.symmetry is not None:
            symmetry = {
                "compressed": True,
                "devices": report.symmetry.devices,
                "classes": report.symmetry.classes,
                "matrix_pairs": report.symmetry.total_pairs,
                "analyzed_pairs": report.symmetry.analyzed_pairs,
                "expanded_pairs": report.symmetry.expanded_pairs,
                "fallback_pairs": report.symmetry.fallback_pairs,
            }
            perf.add(
                "service.jobs.pairs_expanded", report.symmetry.expanded_pairs
            )
            if report.symmetry.fallback_pairs:
                perf.add(
                    "service.jobs.near_fallback_pairs",
                    report.symmetry.fallback_pairs,
                )
        else:
            symmetry = {"compressed": False}
        return {
            "report": fleet_report_to_dict(report),
            "notes": list(report.notes),
            "symmetry": symmetry,
            "supervision": {
                "workers": effective_workers,
                "requested_workers": requested,
                "mode": "parallel" if effective_workers > 1 else "serial",
                "worker_crashes": deltas["parallel.worker_crashes"],
                "pool_respawns": deltas["parallel.pool_respawns"],
                "quarantined_pairs": quarantined,
            },
            "cache": {
                "device_hits": deltas["cache.device.hits"],
                "diff_hits": deltas["cache.diff.hits"],
                "memo_hits": deltas["memo.hits"],
                "memo_misses": deltas["memo.misses"],
                "localization_replays": deltas["memo.localization_replays"],
                "dag_cache_hits": deltas["header_localize.dag_cache_hits"],
            },
        }

    def _parse(
        self,
        name: str,
        text: str,
        payload: Dict,
        cache: Optional[ArtifactCache],
    ):
        dialect = payload.get("dialect") or "auto"
        strict = bool(payload.get("strict", False))
        if cache is not None:
            device = cache.get_device(text, name, dialect, strict)
            if device is not None:
                return device
        device = parse_config(
            text, filename=name, dialect=dialect, strict=strict
        )
        if cache is not None:
            cache.put_device(text, name, dialect, strict, device)
        return device

    @staticmethod
    def _float_option(payload: Dict, key: str, default):
        value = payload.get(key)
        if value is None:
            return default
        try:
            return float(value)
        except (TypeError, ValueError):
            raise JobError(f"option {key!r} is not a number", permanent=True)

    @staticmethod
    def _int_option(payload: Dict, key: str, default):
        value = payload.get(key)
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise JobError(f"option {key!r} is not an integer", permanent=True)

    @staticmethod
    def _compress_option(payload: Dict) -> bool:
        # The one place the retired compression mode names are still
        # accepted, so journaled and scripted payloads keep working:
        # "off" disables, "exact" and "near" both mean compression on.
        value = payload.get("compress")
        if value is None:
            return True
        if isinstance(value, bool):
            return value
        mode = value.strip().lower() if isinstance(value, str) else None
        if mode in _LEGACY_COMPRESS_MODES:
            return _LEGACY_COMPRESS_MODES[mode]
        raise JobError(
            "option 'compress' must be a boolean or one of"
            " 'off', 'exact', 'near'",
            permanent=True,
        )
