"""The CI speedup band in ``benchmarks/check_bench_regression.py``."""

import json

from benchmarks.check_bench_regression import main


def _bench(tmp_path, name, results):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "schema_version": 2,
                "bench": "demo",
                "engines": {"native-c": {"quick": {"results": results}}},
            }
        )
    )
    return str(path)


def _gate(tmp_path, fresh, committed):
    return main(
        [
            "--fresh", _bench(tmp_path, "fresh.json", fresh),
            "--committed", _bench(tmp_path, "committed.json", committed),
        ]
    )


def test_within_band_passes(tmp_path):
    assert _gate(tmp_path, {"a": {"speedup": 6.0}}, {"a": {"speedup": 10.0}}) == 0


def test_below_band_fails(tmp_path):
    assert _gate(tmp_path, {"a": {"speedup": 4.0}}, {"a": {"speedup": 10.0}}) == 1


def test_committed_speedup_missing_from_fresh_run_fails(tmp_path, capsys):
    status = _gate(
        tmp_path,
        {"a": {"speedup": 10.0}},
        {"a": {"speedup": 10.0}, "b": {"nested": {"speedup": 3.0}}},
    )
    assert status == 1
    assert "[MISSING] native-c/quick b.nested.speedup" in capsys.readouterr().out


def test_fresh_only_speedup_is_not_gated(tmp_path):
    assert _gate(
        tmp_path,
        {"a": {"speedup": 10.0}, "b": {"speedup": 0.1}},
        {"a": {"speedup": 10.0}},
    ) == 0


def test_slot_without_committed_baseline_is_skipped(tmp_path):
    fresh = _bench(tmp_path, "fresh.json", {"a": {"speedup": 1.0}})
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps({"schema_version": 2, "engines": {}}))
    assert main(["--fresh", fresh, "--committed", str(committed)]) == 0
