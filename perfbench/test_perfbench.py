"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

They check that the bytes the benchmark digests are the bytes the CLI
writes, that the generators are seeded, that the output checks reject
broken results, and that the printed metrics match BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
from kpindex.cli import main as cli_main
from kpindex.similarity import NeighborSet
from spans import NullTracer
from workloads import ExtractDense, IndexSearch, NeighborsWide

ROOT = Path(__file__).resolve().parent.parent


def one_pass(wl):
    wl.generate()
    wl.setup(NullTracer())
    items = wl.items()
    outputs = run.Outputs(len(items))
    run.run_passes(wl, items, 0, True, outputs)
    first = run.validate(wl, items, outputs)
    assert outputs.failed == 0, outputs.messages
    return items, first, outputs


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("workload, command, n", [
    (ExtractDense, "extract", 24), (NeighborsWide, "neighbors", 60)])
def test_digest_equals_cli_output(tmp_path, workload, command, n):
    wl = workload(ROOT, tmp_path, seed=3, n=n)
    _, _, outputs = one_pass(wl)
    out = tmp_path / "cli.jsonl"
    assert cli_main([command, wl.corpus_path, "--output", str(out)]) == 0
    assert run.digest(wl, outputs) == sha256_file(out)


def test_search_results_equal_cli_output(tmp_path):
    wl = IndexSearch(ROOT, tmp_path, seed=3, n=80)
    items, _, outputs = one_pass(wl)
    for idx in range(0, len(items), 97):
        out = tmp_path / "search.jsonl"
        assert cli_main(["search", wl.index_path, items[idx][1],
                         "--top", str(wl.top), "--output", str(out)]) == 0
        cli_lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert outputs.first[idx][1].split("\n")[1:] == cli_lines


def test_generators_are_seeded():
    records = gen.load_records(str(ROOT / "src/kpindex/data/sample100.jsonl"))
    assert gen.extract_dense(records, 5, 30) == gen.extract_dense(records, 5, 30)
    assert gen.extract_dense(records, 5, 30) != gen.extract_dense(records, 6, 30)
    assert gen.mixed(records, 5, 30, 0.4, "t") == gen.mixed(records, 5, 30, 0.4, "t")
    assert gen.search_inputs(records, 5, 30, 20) == gen.search_inputs(records, 5, 30, 20)
    terms = {gen.absent_term(i) for i in range(5000)}
    assert len(terms) == 5000


def test_checks_reject_broken_results(tmp_path):
    wl = NeighborsWide(ROOT, tmp_path, seed=3, n=60)
    items, first, _ = one_pass(wl)
    doc_id, good = next((d, r) for d, r in zip(items, first)
                        if len(r.neighbors) >= 2)
    broken = [
        good.neighbors[::-1],
        [(doc_id, 1.0)] + good.neighbors[1:],
        [(good.neighbors[0][0], 0.01)],
        [("no-such-id", good.neighbors[0][1])],
    ]
    for pairs in broken:
        assert wl.check(doc_id, NeighborSet(doc_id, pairs, 5, 0.1)) is not None

    wl = ExtractDense(ROOT, tmp_path, seed=3, n=12)
    items, first, _ = one_pass(wl)
    ranked = first[0]
    assert wl.check(items[0], ranked[::-1]) is not None
    ranked[0].score = float("nan")
    assert wl.check(items[0], ranked) is not None

    wl = IndexSearch(ROOT, tmp_path, seed=3, n=40)
    items, first, _ = one_pass(wl)
    idx = next(i for i, q in enumerate(items) if q[0] == "absent")
    assert wl.check(items[idx], []) is not None
    assert wl.check(items[idx], [("no-such-id", 1.0)]) is not None


def test_later_operations_must_repeat_the_first():
    outputs = run.Outputs(2)
    outputs.add(0, "r", "line a", None)
    outputs.add(1, None, None, "ValueError: boom")
    outputs.add(0, "r", "line a", None)
    outputs.add(0, "r", "line b", None)
    assert (outputs.attempted, outputs.failed) == (4, 2)
    assert outputs.first == [("r", "line a"), None]
    assert outputs.repeats == [1, 0]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "extract-dense", "neighbors-wide", "index-search"]


@pytest.mark.parametrize("measure, units", [
    (run.end_to_end, run.END_TO_END), (run.traced, run.PER_LAYER)])
def test_result_line(tmp_path, measure, units):
    wl = IndexSearch(ROOT, tmp_path, seed=2, n=60)
    wl.generate()
    report, line = measure(wl, 0.2)
    assert report["sha256"]
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
