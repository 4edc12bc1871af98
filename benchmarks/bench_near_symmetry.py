"""Near-symmetry fleet compression — BENCH_near_symmetry.json.

The matrix phase of ``compare_fleet`` with compression off and on, on
the *parameterized* Clos fleet: every device carries unique loopbacks,
interface subnets, and BGP neighbors, so no two devices are
byte-identical and the device-fingerprint classes alone would collapse
nothing.  Compression abstracts the rewritable literals into template
holes, partitions by template fingerprint, and analyzes one pair per
joint-equality signature — on an R-role fleet that is O(R^2) pairs
regardless of N, with every other pair's outcome replayed through the
representative.  The headline ``matrix_speedup_vs_off`` (uncompressed
matrix seconds / compressed matrix seconds) carries the >=5x
assertion.

Two runs, both serial, cold, and memo-free (``use_memo=False`` keeps
the per-pair diff cost honest — with the memo on, the uncompressed run
already replays most BDD work and the remaining gap narrows to the
per-pair walk).  Both serialized reports must be byte-identical — the
speedup is only meaningful if the answers are (the oracle's
``symmetry`` generator checks the same identity on shrunken
counterexamples).

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_NEARSYM_DEVICES`` (default 32),
``CAMPION_BENCH_NEARSYM_ROLES`` (default 3),
``CAMPION_BENCH_NEARSYM_RULES`` (rules per role ACL, default 24),
``CAMPION_BENCH_NEARSYM_UPLINKS`` (interfaces/neighbors per device,
default 2).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_near_symmetry.py``.
"""

import gc
import os
import time

from bench_artifacts import write_artifact
from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict
from repro.workloads.datacenter import parameterized_clos_fleet

DEVICES = int(os.environ.get("CAMPION_BENCH_NEARSYM_DEVICES", "32"))
ROLES = int(os.environ.get("CAMPION_BENCH_NEARSYM_ROLES", "3"))
RULES = int(os.environ.get("CAMPION_BENCH_NEARSYM_RULES", "24"))
UPLINKS = int(os.environ.get("CAMPION_BENCH_NEARSYM_UPLINKS", "2"))
SEED = 33

#: Scale gate for the artifact's ``workload_scale`` stamp.  Unlike the
#: templated-fleet symmetry bench, the >=5x bar holds at smoke scale
#: too: the uncompressed matrix grows with N^2 while the compressed one
#: stays O(roles^2), so even a 12-device smoke fleet clears it with
#: margin.
FULL_SCALE = DEVICES >= 32 and RULES >= 24


def _matrix_seconds() -> float:
    timers = perf.REGISTRY.snapshot()["timers"]
    return timers.get("fleet.matrix", {}).get("total_s", 0.0)


def _run_all() -> dict:
    devices, _ = parameterized_clos_fleet(
        count=DEVICES,
        roles=ROLES,
        rule_count=RULES,
        seed=SEED,
        uplinks=UPLINKS,
    )
    result = {
        "devices": DEVICES,
        "roles": ROLES,
        "rules_per_role": RULES,
        "uplinks": UPLINKS,
    }
    reports = {}
    for label, compress in (("off", False), ("near", True)):
        gc.collect()
        perf.reset()
        start = time.perf_counter()
        report = compare_fleet(
            devices, workers=1, use_memo=False, compress=compress
        )
        result[f"{label}_seconds"] = time.perf_counter() - start
        result[f"{label}_matrix_seconds"] = _matrix_seconds()
        reports[label] = fleet_report_to_dict(report)
    stats = report.symmetry
    result["near_classes"] = stats.classes
    result["near_analyzed_pairs"] = stats.analyzed_pairs
    result["matrix_pairs"] = stats.total_pairs
    result["fallback_pairs"] = stats.fallback_pairs
    result["matrix_speedup_vs_off"] = (
        result["off_matrix_seconds"] / result["near_matrix_seconds"]
    )
    result["total_speedup_vs_off"] = (
        result["off_seconds"] / result["near_seconds"]
    )
    result["identical_reports"] = reports["near"] == reports["off"]
    assert result["identical_reports"], "compressed report diverged"
    return result


def _write(payload: dict):
    return write_artifact(
        "BENCH_near_symmetry.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    lines = [
        "Fleet matrix with near-symmetry template compression",
        "",
        f"Parameterized Clos fleet: {payload['devices']} devices,"
        f" {payload['roles']} roles, {payload['rules_per_role']} rules/role,"
        f" {payload['uplinks']} uplinks (unique loopbacks/subnets/peers)",
        f"  matrix pairs               {payload['matrix_pairs']}",
        f"  template classes           {payload['near_classes']}"
        f" (analyzed {payload['near_analyzed_pairs']},"
        f" {payload['fallback_pairs']} fallback)",
        f"  off matrix                 {payload['off_matrix_seconds']:.2f}s",
        f"  near matrix                {payload['near_matrix_seconds']:.2f}s",
        f"  matrix speedup (vs off)    {payload['matrix_speedup_vs_off']:.2f}x",
        f"  total speedup (vs off)     {payload['total_speedup_vs_off']:.2f}x",
        f"  identical reports          {payload['identical_reports']}",
    ]
    return "\n".join(lines)


def test_near_symmetry(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_near_symmetry", _render(payload))

    assert payload["identical_reports"]
    assert payload["fallback_pairs"] == 0
    assert payload["near_analyzed_pairs"] < payload["matrix_pairs"]
    speedup = payload["matrix_speedup_vs_off"]
    assert speedup >= 5.0, (
        f"near-symmetry only {speedup:.2f}x over off on the matrix"
    )


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
