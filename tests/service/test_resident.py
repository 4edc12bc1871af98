"""Warm daemon jobs: resident tenant state, per-job counts, wake-ups.

A tenant's parsed devices and diff memo stay in the daemon between its
jobs; these tests pin down that the reuse is invisible in the reports,
bounded by one fleet, scoped per job in the result metadata, and that
an idle runner claims a submitted job without waiting out a poll.
"""

import json
import pickle
import sys
import threading
import time

from repro.cache import ArtifactCache
from repro.core import compare_fleet, fleet_report_to_dict
from repro.parsers import parse_config
from repro.service import app as app_module
from repro.service import supervisor as supervisor_module
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.supervisor import Supervisor

from .conftest import fleet_configs, http_json
from .test_api import wait_for_job


def _edited(configs, index):
    """``configs`` with device ``index % n`` given a distinct route."""
    changed = [dict(entry) for entry in configs]
    victim = changed[index % len(changed)]
    victim["text"] += f"ip route 10.99.{index}.0 255.255.255.0 Null0\n"
    return changed


def _in_process(configs):
    devices = [
        parse_config(entry["text"], filename=entry["name"], dialect="auto")
        for entry in configs
    ]
    return fleet_report_to_dict(compare_fleet(devices, workers=1))


class TestResidentState:
    def test_reports_match_in_process_cold_resident_and_reverted(
        self, tmp_path
    ):
        configs, _, _ = fleet_configs(count=5, outliers=1, seed=17)
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        pushes = [configs, _edited(configs, 1), configs, _edited(configs, 2)]
        for push in pushes:
            result = supervisor.run_job({"configs": push}, "alpha")
            assert json.dumps(result["report"], sort_keys=True) == json.dumps(
                _in_process(push), sort_keys=True
            )

    def test_resident_devices_stay_bounded_by_the_fleet(self, tmp_path):
        configs, _, _ = fleet_configs(count=4, outliers=1, seed=5)
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        supervisor.run_job({"configs": configs}, "alpha")
        cold_entries = len(supervisor._leases["alpha"].memo)
        for index in range(40):
            supervisor.run_job({"configs": _edited(configs, index)}, "alpha")
            lease = supervisor._leases["alpha"]
            assert len(lease.devices) <= len(configs) + 1
            # One job's working set: the edited device's pairs add at
            # most as many entries as a whole cold fleet holds.
            assert len(lease.memo) <= 2 * cold_entries

    def test_a_job_leaves_resident_devices_unchanged(self, tmp_path):
        configs, _, _ = fleet_configs(count=4, outliers=1, seed=9)
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        supervisor.run_job({"configs": configs}, "alpha")
        resident = dict(supervisor._leases["alpha"].devices)
        before = {key: pickle.dumps(device) for key, device in resident.items()}
        result = supervisor.run_job({"configs": configs}, "alpha")
        assert result["cache"]["device_hits"] == len(configs)
        lease = supervisor._leases["alpha"]
        assert all(lease.devices[key] is resident[key] for key in resident)
        after = {key: pickle.dumps(device) for key, device in resident.items()}
        assert after == before

    def test_no_cache_jobs_keep_nothing(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None, workers=1)
        supervisor.run_job({"configs": configs}, "alpha")
        assert not supervisor._leases

    def test_a_lease_works_in_its_tenant_namespace(self, tmp_path):
        root = ArtifactCache(tmp_path / "cache")
        supervisor = Supervisor(cache=root, workers=1)
        assert supervisor._take_lease("alpha").cache.root == (
            root.namespace("alpha").root
        )
        assert supervisor._take_lease(None).cache is root

    def test_many_tenants_keep_a_bounded_number_of_leases(self, tmp_path):
        """Every tenant name a client sends would otherwise keep one
        fleet resident for the daemon's life; past the bound the least
        recently served tenants fall back to the disk cache."""
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        tenants = [
            f"tenant-{number}"
            for number in range(3 * supervisor_module.RESIDENT_TENANTS)
        ]
        for tenant in tenants:
            supervisor._return_lease(supervisor._take_lease(tenant))
            assert len(supervisor._leases) <= (
                supervisor_module.RESIDENT_TENANTS
            )
        assert list(supervisor._leases) == tenants[
            -supervisor_module.RESIDENT_TENANTS :
        ]

    def test_an_evicted_tenant_reads_back_from_disk(self, tmp_path):
        configs, _, _ = fleet_configs(count=4, outliers=1, seed=13)
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        supervisor.run_job({"configs": configs}, "alpha")
        for number in range(supervisor_module.RESIDENT_TENANTS):
            supervisor._return_lease(supervisor._take_lease(f"t{number}"))
        assert "alpha" not in supervisor._leases
        result = supervisor.run_job({"configs": configs}, "alpha")
        assert result["cache"]["device_hits"] == len(configs)
        assert result["cache"]["diff_hits"] > 0
        assert json.dumps(result["report"], sort_keys=True) == json.dumps(
            _in_process(configs), sort_keys=True
        )

    def test_overlapping_jobs_of_one_tenant_get_their_own_lease(
        self, tmp_path
    ):
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        first = supervisor._take_lease("alpha")
        second = supervisor._take_lease("alpha")
        assert first is not second
        supervisor._return_lease(first)
        assert supervisor._take_lease("alpha") is first

    def test_a_lease_is_never_handed_to_two_jobs_at_once(self, tmp_path):
        supervisor = Supervisor(
            cache=ArtifactCache(tmp_path / "cache"), workers=1
        )
        holders = {}
        clashes = []

        def job(number):
            for _ in range(300):
                lease = supervisor._take_lease("alpha")
                if holders.setdefault(id(lease), number) != number:
                    clashes.append(number)
                del holders[id(lease)]
                supervisor._return_lease(lease)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=job, args=(number,))
                for number in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert clashes == []


class TestPerJobCounts:
    def test_concurrent_tenants_report_only_their_own_hits(
        self, tmp_path, monkeypatch
    ):
        """Two tenants' warm jobs forced to overlap each report exactly
        the counts the same job reports when it runs alone."""
        fleets = {
            "alpha": fleet_configs(count=4, outliers=1, seed=21)[0],
            "beta": fleet_configs(count=6, outliers=2, rules=8, seed=22)[0],
        }
        config = ServiceConfig(
            port=0,
            journal_path=tmp_path / "journal.jsonl",
            cache_dir=str(tmp_path / "cache"),
            workers=1,
            job_concurrency=2,
        )

        def push(thread, tenant):
            status, body = http_json(
                f"{thread.url}/v1/fleet",
                {"tenant": tenant, "configs": fleets[tenant]},
            )
            assert status == 202
            return body["job"]["id"]

        def settle(thread, job_id):
            final = wait_for_job(thread.url, job_id, timeout=120)
            assert final["job"]["state"] == "done"
            return final["result"]["cache"]

        with ServiceThread(config) as thread:
            solo = {}
            for tenant in fleets:
                settle(thread, push(thread, tenant))  # cold
                solo[tenant] = settle(thread, push(thread, tenant))  # warm

            barrier = threading.Barrier(2, timeout=30)
            real = supervisor_module.compare_fleet

            def overlapping(*args, **kwargs):
                barrier.wait()
                return real(*args, **kwargs)

            monkeypatch.setattr(
                supervisor_module, "compare_fleet", overlapping
            )
            jobs = {tenant: push(thread, tenant) for tenant in fleets}
            together = {
                tenant: settle(thread, job_id)
                for tenant, job_id in jobs.items()
            }
        for tenant in fleets:
            assert solo[tenant]["device_hits"] == len(fleets[tenant])
            assert solo[tenant]["memo_hits"] > 0
            for name in (
                "device_hits",
                "diff_hits",
                "memo_hits",
                "memo_misses",
                "localization_replays",
            ):
                assert together[tenant][name] == solo[tenant][name], name


class TestImmediateClaims:
    def test_idle_runner_wakes_on_submit_and_shutdown(
        self, tmp_path, monkeypatch, small_fleet
    ):
        monkeypatch.setattr(app_module, "IDLE_WAIT", 30.0)
        configs, _, _ = small_fleet
        config = ServiceConfig(
            port=0,
            journal_path=tmp_path / "journal.jsonl",
            no_cache=True,
            workers=1,
            job_concurrency=1,
        )
        thread = ServiceThread(config).start()
        try:
            # A first job imports and warms everything; the timed one
            # then finds its runner asleep on the idle wait.
            _, body = http_json(f"{thread.url}/v1/fleet", {"configs": configs})
            wait_for_job(thread.url, body["job"]["id"], timeout=120)
            time.sleep(0.3)
            start = time.monotonic()
            _, body = http_json(f"{thread.url}/v1/fleet", {"configs": configs})
            final = wait_for_job(thread.url, body["job"]["id"], timeout=30)
            assert final["job"]["state"] == "done"
            assert time.monotonic() - start < 2.0
            time.sleep(0.3)
        finally:
            start = time.monotonic()
            thread.stop()
        assert not thread._thread.is_alive()
        assert time.monotonic() - start < 2.0
