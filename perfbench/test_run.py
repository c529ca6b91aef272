"""End-to-end runs of the benchmark on one workload: the result
line names exactly the metrics and units that BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(capsys, trace, section):
    assert run.main(["--workload", "medium-sparse", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["hosts_stable"] and record["samples"]["solve_s"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= run.COVERAGE_FLOOR
        assert result["metrics"]["spectral.dense_calls"]["value"] == 1
        assert result["metrics"]["spectral.iterative_calls"]["value"] == 2
        assert record["absent"] == []


def test_missing_wrapped_name_is_reported_absent(capsys, monkeypatch):
    import imforge.gadgets
    import imforge.immersion_dense
    monkeypatch.delattr(imforge.gadgets, "short_avoiding_path")
    monkeypatch.delattr(imforge.immersion_dense, "greedy_three_paths")
    assert run.main(["--workload", "medium-sparse", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert result["correct"]
    assert record["absent"] == ["dense.link", "imforge.gadgets.short_avoiding_path",
                                "imforge.immersion_dense.greedy_three_paths"]
    assert "dense.link_s" not in result["metrics"] and "bfs.s" in result["metrics"]
