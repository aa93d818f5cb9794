"""Smoke tests of the benchmark itself (one university, short runs).

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import make_workload  # noqa: E402

from repro import QueryAnswerer, Strategy  # noqa: E402
from repro.datasets import generate_lubm  # noqa: E402

WORKLOADS = ("lubm-read", "example1", "write-read")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    info, result = measure.run_workload(
        workload, seed=3, seconds=0.1, trace=trace, smoke=True, out_dir=tmp_path
    )
    catalogue = PER_LAYER if trace else END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(catalogue)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalogue[name]["unit"]
        assert isinstance(metric["value"], float) or isinstance(metric["value"], int)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Every failure is the known schema-write defect (write-read only).
    assert result["failed"] == info["known_defect_failures"]
    assert info["seed"] == 3 and info["triples"] > 0 and info["reads"] > 0
    if trace:
        assert (tmp_path / ("spans-%s-u1-seed3.jsonl" % workload)).exists()


def test_oracle_trips_on_a_corrupted_answer(monkeypatch, tmp_path):
    answer = QueryAnswerer.answer

    def corrupted(self, query, *args, **kwargs):
        report = answer(self, query, *args, **kwargs)
        if report.answer:
            report.answer = frozenset(list(report.answer)[1:])
        return report

    monkeypatch.setattr(QueryAnswerer, "answer", corrupted)
    _, result = measure.run_workload(
        "lubm-read", seed=1, seconds=0.1, trace=0, smoke=True, out_dir=tmp_path
    )
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_same_seconds_send_the_same_requests(tmp_path):
    """A run's work is fixed by its arguments, not by the machine's
    speed: two seeds send as many operations, and as many of them meet
    the known defect."""
    results = [
        measure.run_workload(
            "write-read", seed=seed, seconds=3, trace=0, smoke=True,
            out_dir=tmp_path,
        )[1]
        for seed in (1, 2)
    ]
    assert results[0]["attempted"] == results[1]["attempted"] == 2 * 16
    assert results[0]["failed"] == results[1]["failed"] > 0


def test_traced_read_matches_answer(tmp_path):
    """The traced pipeline returns what answer() returns, and counts
    the interval collapse as answer() reports it."""
    workload = make_workload("example1", smoke=True)
    graph = generate_lubm(universities=workload.universities, seed=1)
    answerer = QueryAnswerer(graph, engine="columnar", interval_encoding=True)
    query = workload.reads["Ex1-Univ2"]
    report = answerer.answer(query, Strategy.REF_GCOV)
    tracer = tracing.Tracer()
    traced = tracing.traced_read(tracer, answerer, query, "Ex1-Univ2")
    assert traced == report.answer
    (record,) = tracing.per_request(tracer)
    assert record["branches_collapsed"] == (
        report.details["interval"]["branches_collapsed"]
    )
    assert set(record["stages"]) == set(tracing.READ_STAGES)
    assert record["stage_sum"] <= record["seconds"]


def test_count_drift_is_flagged(tmp_path):
    records = [
        {"kind": "read", "label": "Q1", **{name: 1 for name in measure.COUNTS}},
        {"kind": "write", "label": "insert s"},
    ]
    path = tmp_path / "counts.json"
    assert measure.count_drift(records, path) == []
    assert measure.count_drift(records, path) == []
    records[0]["plan_nodes"] = 2
    assert measure.count_drift(records, path) == ["plan_nodes"]


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["lubm-read", "write-read"]
    assert {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (m["unit"], m["better"]) for name, m in PER_LAYER.items()
    }


def test_one_command_prints_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "write-read",
         "--seed", "1", "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *_, info, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result["metrics"]) == set(END_TO_END)
    assert json.loads(info.split(" ", 1)[1])["workload"] == "write-read"


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lubm-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
