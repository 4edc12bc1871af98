"""Fleet symmetry compression — BENCH_symmetry.json.

The matrix phase of ``compare_fleet`` with and without symmetry
compression on a templated Clos fleet: a few role templates stamped
onto many hostnames, so the device-fingerprint partition has one
equivalence class per (role, vendor) regardless of fleet size.
Uncompressed, the matrix phase runs all N(N-1)/2 pairs (each paying at
least MatchPolicies + memo lookups even when the diff memo replays the
BDD work); compressed, it runs only the K(K-1)/2 representative pairs
(the template step finds no further replay between K distinct roles)
and expands the rest — the wall-clock gap is the point of the phase.

Two regimes, four runs, all serial and cold:

* ``use_memo=False`` (the plain recompute-every-pair baseline):
  compression is the only dedup mechanism standing, so the matrix
  shrinks from N(N-1)/2 full diffs to K(K-1)/2 — this is the regime
  the headline ``matrix_speedup`` (and its >=5x full-scale assertion)
  measures.
* defaults (in-process ``DiffMemo`` on): the memo already replays
  repeated component diffs as arithmetic, so compression's remaining
  win — ``matrix_speedup_memoized`` — is skipping the residual
  per-pair walk (MatchPolicies, fingerprint lookups, memo probes)
  entirely.  Expect a small-integer factor, not an order of
  magnitude.

All four serialized reports must be identical — the speedup is only
meaningful if the answers are (the oracle's ``symmetry`` generator
checks the same identity on shrunken counterexamples).

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_SYMMETRY_DEVICES`` (default 32),
``CAMPION_BENCH_SYMMETRY_ROLES`` (default 3),
``CAMPION_BENCH_SYMMETRY_RULES`` (rules per role, default 24),
``CAMPION_BENCH_SYMMETRY_VENDORS`` (1 = all-Cisco fabric, the default
here, matching the single-vendor fleets the paper measures; 2 =
vendors alternating per clone, which doubles the class count).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_symmetry.py``.
"""

import gc
import os
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict
from repro.workloads.datacenter import templated_clos_fleet

DEVICES = int(os.environ.get("CAMPION_BENCH_SYMMETRY_DEVICES", "32"))
ROLES = int(os.environ.get("CAMPION_BENCH_SYMMETRY_ROLES", "3"))
RULES = int(os.environ.get("CAMPION_BENCH_SYMMETRY_RULES", "24"))
VENDORS = int(os.environ.get("CAMPION_BENCH_SYMMETRY_VENDORS", "1"))
SEED = 21

#: The ≥5x bar only applies at full scale (the ISSUE's acceptance
#: criterion names the 32-device templated fleet); smoke runs with tiny
#: workloads spend their time in fixed overheads.
FULL_SCALE = DEVICES >= 32 and RULES >= 24


def _matrix_seconds() -> float:
    timers = perf.REGISTRY.snapshot()["timers"]
    return timers.get("fleet.matrix", {}).get("total_s", 0.0)


def _run_all() -> dict:
    devices, _ = templated_clos_fleet(
        count=DEVICES, roles=ROLES, rule_count=RULES, seed=SEED, vendors=VENDORS
    )
    result = {
        "devices": DEVICES,
        "roles": ROLES,
        "rules_per_role": RULES,
        "vendors": VENDORS,
    }
    reports = {}
    for use_memo in (False, True):
        regime = "memoized" if use_memo else "recompute"
        for compress in (False, True):
            label = f"{regime}_{'compressed' if compress else 'uncompressed'}"
            gc.collect()
            perf.reset()
            start = time.perf_counter()
            report = compare_fleet(
                devices, workers=1, use_memo=use_memo, compress=compress
            )
            result[f"{label}_seconds"] = time.perf_counter() - start
            result[f"{label}_matrix_seconds"] = _matrix_seconds()
            reports[label] = fleet_report_to_dict(report)
            if compress:
                result["classes"] = report.symmetry.classes
                result["analyzed_pairs"] = report.symmetry.analyzed_pairs
                result["matrix_pairs"] = report.symmetry.total_pairs
    result["matrix_speedup"] = (
        result["recompute_uncompressed_matrix_seconds"]
        / result["recompute_compressed_matrix_seconds"]
    )
    result["matrix_speedup_memoized"] = (
        result["memoized_uncompressed_matrix_seconds"]
        / result["memoized_compressed_matrix_seconds"]
    )
    result["total_speedup"] = (
        result["recompute_uncompressed_seconds"]
        / result["recompute_compressed_seconds"]
    )
    baseline = reports["recompute_uncompressed"]
    result["identical_reports"] = all(
        reports[label] == baseline for label in reports
    )
    assert result["identical_reports"], "compressed report diverged"
    return result


def _write(payload: dict):
    return write_artifact(
        "BENCH_symmetry.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    lines = [
        "Fleet matrix with fingerprint symmetry compression",
        "",
        f"Templated Clos fleet: {payload['devices']} devices,"
        f" {payload['roles']} roles, {payload['rules_per_role']} rules/role"
        f" -> {payload['classes']} fingerprint classes",
        f"  matrix pairs               {payload['matrix_pairs']}"
        f" (analyzed {payload['analyzed_pairs']})",
        "  recompute-every-pair baseline (use_memo=False):",
        f"    uncompressed matrix      {payload['recompute_uncompressed_matrix_seconds']:.2f}s",
        f"    compressed matrix        {payload['recompute_compressed_matrix_seconds']:.2f}s",
        f"    matrix speedup           {payload['matrix_speedup']:.2f}x",
        f"    total speedup            {payload['total_speedup']:.2f}x",
        "  memoized defaults (in-process DiffMemo):",
        f"    uncompressed matrix      {payload['memoized_uncompressed_matrix_seconds']:.2f}s",
        f"    compressed matrix        {payload['memoized_compressed_matrix_seconds']:.2f}s",
        f"    matrix speedup           {payload['matrix_speedup_memoized']:.2f}x",
        f"  identical reports (all 4)  {payload['identical_reports']}",
    ]
    return "\n".join(lines)


def test_symmetry(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_symmetry", _render(payload))

    assert payload["identical_reports"]
    assert payload["analyzed_pairs"] < payload["matrix_pairs"]
    if FULL_SCALE:
        speedup = payload["matrix_speedup"]
        assert speedup >= 5.0, f"compression only {speedup:.2f}x on the matrix"


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
