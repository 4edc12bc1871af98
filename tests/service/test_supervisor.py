"""Supervisor behavior: validation, classification, breaker, quarantine."""

import json
import os
import signal

import pytest

from repro.core import compare_fleet, parallel
from repro.service.supervisor import CircuitBreaker, JobError, Supervisor

from .conftest import fleet_configs


def in_worker():
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


class TestPayloadValidation:
    def test_missing_configs_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload({})
        assert excinfo.value.permanent

    def test_single_config_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload({"configs": [{"text": "x"}]})
        assert excinfo.value.permanent

    def test_config_without_text_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload(
                {"configs": [{"text": "hostname a"}, {"name": "b.cfg"}]}
            )
        assert excinfo.value.permanent

    def test_names_defaulted(self):
        pairs = Supervisor.validate_payload(
            {"configs": [{"text": "hostname a"}, {"text": "hostname b"}]}
        )
        assert [name for name, _ in pairs] == ["config-0", "config-1"]


class TestRunJob:
    def test_happy_path_result_document(self, small_fleet):
        configs, _, expected_outliers = small_fleet
        supervisor = Supervisor(cache=None, workers=1)
        result = supervisor.run_job({"configs": configs}, None)
        assert result["report"]["outliers"] == sorted(expected_outliers)
        assert result["supervision"]["mode"] == "serial"
        assert result["supervision"]["quarantined_pairs"] == {}

    def test_duplicate_hostnames_permanent(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None, workers=1)
        doubled = [configs[0], configs[0]] + configs[1:]
        with pytest.raises(JobError) as excinfo:
            supervisor.run_job({"configs": doubled}, None)
        assert excinfo.value.permanent

    def test_bad_option_permanent(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None, workers=1)
        with pytest.raises(JobError) as excinfo:
            supervisor.run_job(
                {"configs": configs, "timeout": "soon"}, None
            )
        assert excinfo.value.permanent

    def test_crashed_pair_quarantined_not_fatal(self, small_fleet, monkeypatch):
        """A pair whose worker keeps dying (even through the serial
        retry) lands in quarantined_pairs; the job still succeeds."""
        configs, devices, _ = small_fleet
        # the reference device's pairs are healed in-parent by the
        # report phase, so doom a pair that excludes the medoid
        baseline = Supervisor(cache=None, workers=1).run_job(
            {"configs": configs}, None
        )
        reference = baseline["report"]["reference"]
        hostnames = sorted(
            device.hostname
            for device in devices
            if device.hostname != reference
        )
        doomed = {hostnames[0], hostnames[1]}
        real = parallel._count_pair

        def kill_pair(task):
            if {task[0].hostname, task[1].hostname} == doomed:
                if in_worker():
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker-crashed: injected parent-side too")
            return real(task)

        monkeypatch.setattr(parallel, "_count_pair", kill_pair)
        supervisor = Supervisor(cache=None, workers=2)
        # The fault targets hostnames; symmetry compression would expand
        # the doomed pair from its representatives without running it.
        result = supervisor.run_job(
            {"configs": configs, "compress": False}, None
        )
        (quarantined_key,) = result["supervision"]["quarantined_pairs"]
        assert set(quarantined_key.split("<->")) == doomed
        assert result["supervision"]["worker_crashes"] > 0


class TestCompressOption:
    """Compression is one switch; payloads naming the retired modes
    still map onto it, and nothing else is accepted."""

    def test_mode_names_and_booleans_map_onto_the_switch(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None, workers=1)
        cases = [
            ("exact", True), ("near", True), (True, True),
            ("off", False), (False, False),
        ]
        results = [
            supervisor.run_job({"configs": configs, "compress": value}, None)
            for value, _ in cases
        ]
        assert len({json.dumps(result["report"]) for result in results}) == 1
        assert [result["symmetry"]["compressed"] for result in results] == [
            expected for _, expected in cases
        ]
        assert "mode" not in results[0]["symmetry"]

    def test_compare_fleet_rejects_mode_strings(self, small_fleet):
        # "off" is truthy: accepting it would silently compress.
        _, devices, _ = small_fleet
        with pytest.raises(TypeError, match="compress must be a bool"):
            compare_fleet(devices, compress="off")


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(crash_threshold=2)
        assert breaker.decide_workers(4) == 4
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "closed"
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "open"

    def test_open_degrades_to_serial(self):
        breaker = CircuitBreaker(crash_threshold=1, cooldown=60.0)
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "open"
        assert breaker.decide_workers(4) == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(crash_threshold=2)
        breaker.record(crashed=True, parallel_job=True)
        breaker.record(crashed=False, parallel_job=True)
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self, monkeypatch):
        breaker = CircuitBreaker(crash_threshold=1, cooldown=0.0)
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "open"
        # cooldown of 0: the next decision transitions to half-open and
        # grants one probe the full pool
        assert breaker.decide_workers(4) == 4
        assert breaker.state == "half-open"
        # concurrent jobs stay serial while the probe is in flight
        assert breaker.decide_workers(4) == 1
        breaker.record(crashed=False, parallel_job=True)
        assert breaker.state == "closed"
        assert breaker.decide_workers(4) == 4

    def test_half_open_probe_failure_reopens_with_longer_cooldown(self):
        breaker = CircuitBreaker(crash_threshold=1, cooldown=0.0)
        breaker.record(crashed=True, parallel_job=True)
        before = breaker.snapshot()["cooldown_seconds"]
        breaker.decide_workers(4)  # half-open probe
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.state == "open"
        assert breaker.snapshot()["cooldown_seconds"] >= before

    def test_serial_requests_bypass(self):
        breaker = CircuitBreaker(crash_threshold=1)
        breaker.record(crashed=True, parallel_job=True)
        assert breaker.decide_workers(1) == 1  # no pool involved
