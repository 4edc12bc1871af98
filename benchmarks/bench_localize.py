"""Atoms-backed, fleet-memoized HeaderLocalize — BENCH_localize.json.

The *reports* phase of ``compare_fleet`` (collect mode: every
difference localized) on the templated Clos fleet, three ways:

* ``bdd`` backend, memo off — the historical full-report path: every
  report re-runs SemanticDiff and BDD-backed HeaderLocalize.
* ``atoms`` backend, fresh shared memo (cold) — bitset localization,
  the pair-scoped LocalizeSession, the process-wide ddNF DAG cache,
  and localization-bearing memo entries being written: each distinct
  localization is computed exactly once and every clone pair replays
  it with span filenames rewritten.
* the same shared memo again (warm) — the steady-state fleet run: all
  localized entries replay, zero SemanticDiff/HeaderLocalize work.

The headline ``collect_speedup`` (bdd reports seconds / warm reports
seconds) carries the >=5x assertion; ``cold_speedup`` shows the first
run already wins.  All serialized fleet reports must be byte-identical
across backends and memo modes — the speedup is only meaningful if the
answers are (the oracle's ``localize`` generator checks the same
term-for-term identity on shrunken counterexamples).

Workload sizes honour environment knobs so the CI smoke job can run a
tiny version: ``CAMPION_BENCH_LOCALIZE_DEVICES`` (default 24),
``CAMPION_BENCH_LOCALIZE_ROLES`` (default 3),
``CAMPION_BENCH_LOCALIZE_RULES`` (rules per role, default 32),
``CAMPION_BENCH_LOCALIZE_UPLINKS`` (default 2).

Runs under pytest-benchmark or standalone:
``PYTHONPATH=src python benchmarks/bench_localize.py``.
"""

import gc
import json
import os

from bench_artifacts import write_artifact
from repro import perf
from repro.core import (
    DiffMemo,
    compare_fleet,
    dag_cache_clear,
    fleet_report_to_dict,
)
from repro.workloads.datacenter import templated_clos_fleet

DEVICES = int(os.environ.get("CAMPION_BENCH_LOCALIZE_DEVICES", "24"))
ROLES = int(os.environ.get("CAMPION_BENCH_LOCALIZE_ROLES", "3"))
RULES = int(os.environ.get("CAMPION_BENCH_LOCALIZE_RULES", "32"))
UPLINKS = int(os.environ.get("CAMPION_BENCH_LOCALIZE_UPLINKS", "2"))
SEED = 7

#: Scale gate for the artifact's ``workload_scale`` stamp.  The >=5x
#: bar holds at smoke scale too: the warm run's reports phase does no
#: set-algebra work at all, so its advantage grows with rule count but
#: clears the bar even on a 12-device, 12-rule fleet.
FULL_SCALE = DEVICES >= 24 and RULES >= 32


def _reports_seconds() -> float:
    timers = perf.REGISTRY.snapshot()["timers"]
    return timers.get("fleet.reports", {}).get("total_s", 0.0)


def _run(devices, set_backend: str, memo):
    gc.collect()
    perf.reset()
    report = compare_fleet(
        devices,
        workers=1,
        use_memo=False if memo is None else True,
        memo=memo,
        set_backend=set_backend,
        compress=True,
    )
    counters = perf.REGISTRY.snapshot()["counters"]
    return fleet_report_to_dict(report), _reports_seconds(), counters


def _run_all() -> dict:
    devices, _ = templated_clos_fleet(
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

    dag_cache_clear()
    bdd_report, bdd_seconds, _ = _run(devices, "bdd", None)
    dag_cache_clear()
    atoms_report, atoms_seconds, _ = _run(devices, "atoms", None)

    memo = DiffMemo()
    dag_cache_clear()
    cold_report, cold_seconds, cold_counters = _run(devices, "atoms", memo)
    # Same shared memo, DAG cache left warm: the steady-state fleet run.
    warm_report, warm_seconds, warm_counters = _run(devices, "atoms", memo)

    result["bdd_reports_seconds"] = bdd_seconds
    result["atoms_reports_seconds"] = atoms_seconds
    result["cold_reports_seconds"] = cold_seconds
    result["warm_reports_seconds"] = warm_seconds
    result["collect_speedup"] = bdd_seconds / warm_seconds
    result["cold_speedup"] = bdd_seconds / cold_seconds
    result["cold_localization_replays"] = cold_counters.get(
        "memo.localization_replays", 0
    )
    result["warm_localization_replays"] = warm_counters.get(
        "memo.localization_replays", 0
    )
    # DAG cache hits show up in the cold run (the warm run replays
    # every localization and never reaches HeaderLocalize at all).
    result["cold_dag_cache_hits"] = cold_counters.get(
        "header_localize.dag_cache_hits", 0
    )
    result["warm_memo_stores"] = warm_counters.get("memo.stores", 0)
    reference = json.dumps(bdd_report, sort_keys=True)
    result["identical_reports"] = all(
        json.dumps(other, sort_keys=True) == reference
        for other in (atoms_report, cold_report, warm_report)
    )
    assert result["identical_reports"], "localization report diverged"
    return result


def _write(payload: dict):
    return write_artifact(
        "BENCH_localize.json",
        payload,
        "full" if FULL_SCALE else "smoke",
    )


def _render(payload: dict) -> str:
    lines = [
        "Full-report fleet runs: atoms localization + memo replay vs BDD recompute",
        "",
        f"Templated Clos fleet: {payload['devices']} devices,"
        f" {payload['roles']} roles, {payload['rules_per_role']} rules/role,"
        f" {payload['uplinks']} uplinks",
        f"  bdd reports (no memo)      {payload['bdd_reports_seconds']:.3f}s",
        f"  atoms reports (no memo)    {payload['atoms_reports_seconds']:.3f}s",
        f"  atoms reports (memo cold)  {payload['cold_reports_seconds']:.3f}s",
        f"  atoms reports (memo warm)  {payload['warm_reports_seconds']:.3f}s",
        f"  collect speedup (warm)     {payload['collect_speedup']:.2f}x",
        f"  collect speedup (cold)     {payload['cold_speedup']:.2f}x",
        f"  warm replays               {payload['warm_localization_replays']}",
        f"  cold DAG cache hits        {payload['cold_dag_cache_hits']}",
        f"  identical reports (all 4)  {payload['identical_reports']}",
    ]
    return "\n".join(lines)


def test_localize(benchmark, results_dir):
    from conftest import emit

    payload = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _write(payload)
    emit(results_dir, "BENCH_localize", _render(payload))

    assert payload["identical_reports"]
    assert payload["warm_localization_replays"] > 0
    assert payload["warm_memo_stores"] == 0, "warm run should store nothing"
    speedup = payload["collect_speedup"]
    assert speedup >= 5.0, (
        f"warm memoized localization only {speedup:.2f}x over BDD recompute"
    )


if __name__ == "__main__":
    payload = _run_all()
    path = _write(payload)
    print(_render(payload))
    print(f"\nwrote {path}")
