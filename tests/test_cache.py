"""Tests for the persistent content-addressed artifact cache."""

import json
import random

import pytest

from repro import cache as cache_module
from repro import perf
from repro.cache import (
    CACHE_DIR_ENV,
    ArtifactCache,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.core import acl_key
from repro.model import device as device_module
from repro.model import fingerprint as fingerprint_module
from repro.parsers import parse_cisco
from repro.workloads.datacenter import parameterized_clos_fleet
from repro.workloads.figure1 import CISCO_FIGURE1
from repro.workloads.mutation import flip_acl_action


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def _device(hostname="r1"):
    text = CISCO_FIGURE1.replace("hostname cisco_router", f"hostname {hostname}")
    return text, parse_cisco(text, f"{hostname}.cfg")


class TestResolveCacheDir:
    def test_explicit_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "cli")) == tmp_path / "cli"

    def test_environment_beats_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_is_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert resolve_cache_dir(None) == tmp_path / "xdg" / "campion"
        assert default_cache_dir() == tmp_path / "xdg" / "campion"


class TestDeviceStore:
    def test_roundtrip(self, cache):
        text, device = _device()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        cache.put_device(text, "r1.cfg", "auto", False, device)
        cached = cache.get_device(text, "r1.cfg", "auto", False)
        assert cached is not None
        assert cached.hostname == device.hostname
        # Fingerprints were materialized before pickling and ride along.
        assert "_fingerprints" in cached.__dict__
        assert cached.fingerprints == device.fingerprints

    def test_derived_artifacts_ride_along(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        cached = cache.get_device(text, "r1.cfg", "auto", False)
        for name in ("_fingerprints", "_template", "_component_spans"):
            assert name in cached.__dict__
        assert cached.template == device.template
        assert cached.component_spans == device.component_spans

    def test_entry_under_previous_schema_is_a_miss(self, cache, monkeypatch):
        text, device = _device()
        current = cache_module.CACHE_SCHEMA_VERSION
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", current - 1)
        cache.put_device(text, "r1.cfg", "auto", False, device)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", current)
        assert cache.get_device(text, "r1.cfg", "auto", False) is None

    def test_key_covers_text_and_options(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert cache.get_device(text + "\n!", "r1.cfg", "auto", False) is None
        assert cache.get_device(text, "r2.cfg", "auto", False) is None
        assert cache.get_device(text, "r1.cfg", "cisco", False) is None
        assert cache.get_device(text, "r1.cfg", "auto", True) is None

    def test_corrupt_entry_degrades_to_miss(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"not a pickle")
        perf.reset()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        counters = perf.snapshot()["counters"]
        assert counters.get("cache.errors", 0) == 1
        # The corrupt file was removed; the store is empty again.
        assert list(cache._entries("devices")) == []


class TestDiffStore:
    KEY = acl_key("fp-a", "fp-b")
    ENTRY = {"count": 2, "semantic": [{"kind": "ACLs"}], "structural": []}

    def test_roundtrip(self, cache):
        assert cache.get_diff(self.KEY) is None
        cache.put_diff(self.KEY, self.ENTRY)
        assert cache.get_diff(self.KEY) == self.ENTRY

    def test_roundtrip_keeps_key_order(self, cache):
        entry = {"count": 1, "semantic": [{"example": {"z": 1, "a": 2}}]}
        cache.put_diff(self.KEY, entry)
        example = cache.get_diff(self.KEY)["semantic"][0]["example"]
        assert list(example) == ["z", "a"]

    def test_entry_under_previous_schema_is_a_miss(self, cache, monkeypatch):
        current = cache_module.CACHE_SCHEMA_VERSION
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", current - 1)
        cache.put_diff(self.KEY, self.ENTRY)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", current)
        assert cache.get_diff(self.KEY) is None

    def test_entries_are_json_with_schema_stamps(self, cache):
        cache.put_diff(self.KEY, self.ENTRY)
        (entry,) = list(cache._entries("diffs"))
        payload = json.loads(entry.read_text())
        assert payload["cache_schema"] == cache_module.CACHE_SCHEMA_VERSION
        assert payload["entry"] == self.ENTRY

    def test_stale_schema_rejected_and_deleted(self, cache):
        cache.put_diff(self.KEY, self.ENTRY)
        (entry,) = list(cache._entries("diffs"))
        payload = json.loads(entry.read_text())
        payload["cache_schema"] = -1
        entry.write_text(json.dumps(payload))
        perf.reset()
        assert cache.get_diff(self.KEY) is None
        assert perf.snapshot()["counters"].get("cache.stale", 0) == 1
        assert list(cache._entries("diffs")) == []

    def test_schema_bump_changes_key_digest(self, cache, monkeypatch):
        cache.put_diff(self.KEY, self.ENTRY)
        monkeypatch.setattr(
            cache_module,
            "CACHE_SCHEMA_VERSION",
            cache_module.CACHE_SCHEMA_VERSION + 1,
        )
        # The digest is derived from the schema stamp, so old entries
        # are simply unreachable after a bump.
        assert cache.get_diff(self.KEY) is None

    def test_eviction_bounds_the_store(self, tmp_path):
        small = ArtifactCache(tmp_path / "small", max_entries=3)
        perf.reset()
        for index in range(6):
            small.put_diff(acl_key(f"fp{index}", "x"), {"count": 0})
        assert len(list(small._entries("diffs"))) == 3
        assert perf.snapshot()["counters"].get("cache.evictions", 0) == 3

    @staticmethod
    def _count_scans(cache, monkeypatch):
        scans = []
        entries = cache._entries

        def counted(store):
            scans.append(store)
            return entries(store)

        monkeypatch.setattr(cache, "_entries", counted)
        return scans

    def test_writes_below_capacity_scan_the_store_once(
        self, cache, monkeypatch
    ):
        scans = self._count_scans(cache, monkeypatch)
        for index in range(100):
            cache.put_diff(acl_key(f"fp{index}", "x"), {"count": 0})
        assert scans == ["diffs"]
        assert len(list(ArtifactCache(cache.root)._entries("diffs"))) == 100

    def test_writes_past_capacity_rescan_once_per_eighth(
        self, tmp_path, monkeypatch
    ):
        """A rescan over the bound trims an eighth below it, so a full
        store is listed once per ``max_entries // 8 + 1`` writes."""
        full = ArtifactCache(tmp_path / "full", max_entries=64)
        reader = ArtifactCache(full.root)
        scans = self._count_scans(full, monkeypatch)
        perf.reset()
        for index in range(64 + 90):
            full.put_diff(acl_key(f"fp{index}", "x"), {"n": 1})
            assert len(list(reader._entries("diffs"))) <= 64
        # The first write, then the 65th and every 9th write after it.
        assert len(scans) == 1 + 10
        assert len(list(reader._entries("diffs"))) == 56 + 8
        assert perf.snapshot()["counters"]["cache.evictions"] == 90

    def test_clear_resets_the_count(self, tmp_path, monkeypatch):
        small = ArtifactCache(tmp_path / "small", max_entries=3)
        scans = self._count_scans(small, monkeypatch)
        for index in range(3):
            small.put_diff(acl_key(f"fp{index}", "x"), {"count": 0})
        small.clear()
        small.put_diff(acl_key("after", "x"), {"count": 0})
        assert scans.count("diffs") == 2 + 1  # first write, clear, rescan

    def test_threads_sharing_an_instance_keep_the_count(self, tmp_path):
        """The count is updated under the store lock: a lost update
        would leave the store above the bound after the last write."""
        import sys
        import threading

        small = ArtifactCache(tmp_path / "small", max_entries=5)

        def writer(number):
            for index in range(25):
                small.put_diff(acl_key(f"fp{number}-{index}", "x"), {"n": 1})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(number,))
                for number in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(list(small._entries("diffs"))) == 5

    def test_instances_sharing_a_root_stay_bounded(self, tmp_path):
        """Each writer rescans once its own count passes the bound, so
        the store holds at most one bound's worth of writes per writer
        and every rescan trims it back to the bound."""
        root = tmp_path / "shared"
        writers = [
            ArtifactCache(root, max_entries=4),
            ArtifactCache(root, max_entries=4),
        ]
        reader = ArtifactCache(root)
        for index in range(30):
            writers[index % 2].put_diff(acl_key(f"fp{index}", "x"), {"n": 1})
            assert len(list(reader._entries("diffs"))) <= 2 * 4
        assert len(list(reader._entries("diffs"))) == 4


class TestMaintenance:
    def test_stats_and_clear(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        cache.put_diff(TestDiffStore.KEY, TestDiffStore.ENTRY)
        stats = cache.stats()
        assert stats["stores"]["devices"]["entries"] == 1
        assert stats["stores"]["diffs"]["entries"] == 1
        assert stats["stores"]["devices"]["bytes"] > 0
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["stores"]["devices"]["entries"] == 0
        assert stats["stores"]["diffs"]["entries"] == 0

    def test_stats_on_missing_root(self, tmp_path):
        stats = ArtifactCache(tmp_path / "nothing-here").stats()
        assert stats["stores"]["devices"] == {"entries": 0, "bytes": 0}


class TestCliCache:
    @pytest.fixture
    def fleet_files(self, tmp_path):
        paths = []
        for name in ("a", "b", "c"):
            text = CISCO_FIGURE1.replace(
                "hostname cisco_router", f"hostname {name}"
            )
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            paths.append(str(path))
        return paths

    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_warm_fleet_run_is_identical_and_hits(
        self, fleet_files, tmp_path, capsys
    ):
        base = ["--cache-dir", str(tmp_path / "cache")]
        cold_code, cold_out, cold_err = self._run(
            base + ["fleet", "--json"] + fleet_files, capsys
        )
        warm_code, warm_out, warm_err = self._run(
            base + ["fleet", "--json"] + fleet_files, capsys
        )
        assert cold_code == warm_code == 0
        assert cold_out == warm_out
        assert "campion: cache: hits=0" in cold_err
        warm_line = [
            line for line in warm_err.splitlines() if "campion: cache:" in line
        ][0]
        assert "misses=0" in warm_line
        hits = int(warm_line.split("hits=")[1].split()[0])
        assert hits > 0

    @pytest.fixture
    def edited_clos_files(self, tmp_path):
        """A non-conforming Clos fleet: one device has a flipped ACL
        action, so warm runs replay localized differences."""
        devices, _ = parameterized_clos_fleet(
            count=6, roles=2, rule_count=8, seed=3
        )
        directory = tmp_path / "clos"
        directory.mkdir()
        paths = []
        for index, device in enumerate(devices):
            text = "\n".join(device.raw_lines) + "\n"
            if index == 2:
                text = flip_acl_action(text, random.Random(5)).text
            path = directory / device.filename
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_warm_replay_is_byte_identical_to_cold(
        self, edited_clos_files, tmp_path, capsys
    ):
        argv = ["--cache-dir", str(tmp_path / "cache"), "fleet", "--json"]
        cold_code, cold_out, _ = self._run(argv + edited_clos_files, capsys)
        warm_code, warm_out, warm_err = self._run(
            argv + edited_clos_files, capsys
        )
        assert cold_code == warm_code == 1
        assert "localization_replays=0" not in warm_err
        assert json.loads(cold_out)["outliers"]
        assert cold_out == warm_out

    def test_warm_run_rederives_only_missed_devices(
        self, edited_clos_files, tmp_path, capsys, monkeypatch
    ):
        argv = ["--cache-dir", str(tmp_path / "cache"), "fleet", "--json"]
        self._run(argv + edited_clos_files, capsys)
        edited = edited_clos_files[0]
        with open(edited) as handle:
            text = handle.read()
        with open(edited, "w") as handle:
            handle.write(flip_acl_action(text, random.Random(9)).text)
        templates = []
        walks = []
        compute_template = fingerprint_module.compute_template
        reachable_spans = device_module.reachable_spans

        def counted_template(device):
            templates.append(device.hostname)
            return compute_template(device)

        def counted_walk(value):
            walks.append(value)
            return reachable_spans(value)

        monkeypatch.setattr(
            fingerprint_module, "compute_template", counted_template
        )
        monkeypatch.setattr(device_module, "reachable_spans", counted_walk)
        _, _, err = self._run(argv + edited_clos_files, capsys)
        assert "cache: hits=" in err
        # Only the edited device missed the cache; it alone is derived.
        original = parse_cisco(text, edited)
        assert templates == [original.hostname]
        assert len(walks) == len(original.acls) + len(original.route_maps)

    def test_no_cache_flag_disables_everything(
        self, fleet_files, tmp_path, capsys
    ):
        code, out, err = self._run(
            ["--no-cache", "fleet", "--json"] + fleet_files, capsys
        )
        assert code == 0
        assert "campion: cache:" not in err

    def test_cache_stats_and_clear_subcommand(
        self, fleet_files, tmp_path, capsys
    ):
        base = ["--cache-dir", str(tmp_path / "cache")]
        self._run(base + ["parse", fleet_files[0]], capsys)
        code, out, _ = self._run(base + ["cache", "stats"], capsys)
        assert code == 0
        assert str(tmp_path / "cache") in out
        assert "devices: 1 entry" in out
        code, out, _ = self._run(base + ["cache", "clear"], capsys)
        assert code == 0
        assert "removed 1 artifact" in out
        code, out, _ = self._run(base + ["cache", "stats"], capsys)
        assert "devices: 0 entries" in out

    def test_compare_reuses_cached_parses(self, fleet_files, tmp_path, capsys):
        base = ["--cache-dir", str(tmp_path / "cache")]
        self._run(base + ["compare", fleet_files[0], fleet_files[1]], capsys)
        _, _, err = self._run(
            base + ["compare", fleet_files[0], fleet_files[1]], capsys
        )
        warm_line = [
            line for line in err.splitlines() if "campion: cache:" in line
        ][0]
        assert "misses=0" in warm_line


class TestQuarantine:
    def test_corrupt_entry_moved_to_quarantine(self, cache, capsys):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"not a pickle")
        perf.reset()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        counters = perf.snapshot()["counters"]
        assert counters.get("cache.quarantined", 0) == 1
        quarantined = list(cache._quarantine_entries())
        assert [path.name for path in quarantined] == [entry.name]
        assert quarantined[0].read_bytes() == b"not a pickle"
        assert "quarantined corrupt entry" in capsys.readouterr().err

    def test_stats_and_clear_cover_quarantine(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"garbage")
        cache.get_device(text, "r1.cfg", "auto", False)
        stats = cache.stats()
        assert stats["stores"]["quarantine"]["entries"] == 1
        assert cache.clear() == 1
        assert list(cache._quarantine_entries()) == []

    def test_stale_schema_is_deleted_not_quarantined(self, cache, monkeypatch):
        cache.put_diff(TestDiffStore.KEY, TestDiffStore.ENTRY)
        monkeypatch.setattr(
            cache_module, "_schema_stamp", lambda: (999, 999, 999)
        )
        perf.reset()
        assert cache.get_diff(TestDiffStore.KEY) is None
        assert list(cache._quarantine_entries()) == []


class TestLocking:
    def test_write_takes_the_advisory_lock(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert (cache.root / ".lock").exists()

    def test_concurrent_writers_keep_entries_readable(self, cache):
        import threading

        text, device = _device()

        def hammer(index):
            for _ in range(5):
                cache.put_device(text, f"r{index}.cfg", "auto", False, device)

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(4):
            cached = cache.get_device(text, f"r{index}.cfg", "auto", False)
            assert cached is not None and cached.hostname == device.hostname

    def test_lock_degrades_to_noop_without_fcntl(self, cache, monkeypatch):
        monkeypatch.setattr(cache_module, "fcntl", None)
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert cache.get_device(text, "r1.cfg", "auto", False) is not None


class TestTenantNamespaces:
    def test_namespaces_are_isolated(self, cache):
        text, device = _device()
        alpha = cache.namespace("alpha")
        beta = cache.namespace("beta")
        alpha.put_device(text, "r1.cfg", "auto", False, device)
        assert alpha.get_device(text, "r1.cfg", "auto", False) is not None
        assert beta.get_device(text, "r1.cfg", "auto", False) is None
        assert cache.get_device(text, "r1.cfg", "auto", False) is None

    def test_namespace_roots_stay_under_tenants_dir(self, cache):
        assert cache.namespace("alpha").root == cache.root / "tenants" / "alpha"

    def test_hostile_tenant_names_are_sanitized(self, cache):
        for name in ("", ".", "..", "../../etc", "a/b\\c", "week nd"):
            namespaced = cache.namespace(name)
            assert cache.root / "tenants" in namespaced.root.parents

    def test_max_entries_carries_into_namespace(self, tmp_path):
        parent = ArtifactCache(tmp_path / "cache", max_entries=7)
        assert parent.namespace("t").max_entries == 7
