"""Unit tests for the CI regression guard (benchmarks/check_bench_regression.py)."""

import importlib.util
import json
import pathlib

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "check_bench_regression.py"
)


@pytest.fixture()
def guard():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression_under_test", _MODULE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def dirs(tmp_path):
    baselines = tmp_path / "baselines"
    results = tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    return baselines, results


def _write(directory, name, payload):
    (directory / name).write_text(json.dumps(payload))


def _run(guard, baselines, results):
    return guard.main(
        [
            "--baselines-dir",
            str(baselines),
            "--results-dir",
            str(results),
            "--artifacts",
            "BENCH_localize.json",
        ]
    )


class TestWorkloadScaleGuard:
    def test_scale_mismatch_is_refused(self, guard, dirs, capsys):
        baselines, results = dirs
        _write(
            baselines,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "full"},
        )
        _write(
            results,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "smoke"},
        )
        assert _run(guard, baselines, results) == 1
        assert "workload_scale mismatch" in capsys.readouterr().err

    def test_scale_mismatch_names_the_fresh_side_and_its_bench(
        self, guard, dirs, capsys
    ):
        baselines, results = dirs
        _write(
            baselines,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "smoke"},
        )
        _write(
            results,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "full"},
        )
        assert _run(guard, baselines, results) == 1
        message = capsys.readouterr().err
        assert "fresh result" in message and "is 'full' scale" in message
        assert "rerun benchmarks/bench_localize.py at the 'smoke' scale" in (
            message
        )

    def test_every_tracked_artifact_names_its_bench(self, guard):
        assert set(guard.SCRIPTS) == set(guard.TRACKED)
        benchmarks = _MODULE_PATH.parent
        assert all((benchmarks / script).exists() for script in guard.SCRIPTS.values())

    def test_matching_scales_compare_normally(self, guard, dirs):
        baselines, results = dirs
        _write(
            baselines,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "smoke"},
        )
        _write(
            results,
            "BENCH_localize.json",
            {"collect_speedup": 9.0, "workload_scale": "smoke"},
        )
        assert _run(guard, baselines, results) == 0

    def test_matching_scales_still_catch_regressions(self, guard, dirs, capsys):
        baselines, results = dirs
        _write(
            baselines,
            "BENCH_localize.json",
            {"collect_speedup": 10.0, "workload_scale": "smoke"},
        )
        _write(
            results,
            "BENCH_localize.json",
            {"collect_speedup": 1.0, "workload_scale": "smoke"},
        )
        assert _run(guard, baselines, results) == 1
        assert "regressed" in capsys.readouterr().err
