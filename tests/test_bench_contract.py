"""The names the benchmark's traced run patches are the ones the package calls.

perfbench/spans.py wraps ``ranking.build_enriched_graph`` and the stage
functions as ``ranking`` module globals. A stage that the pipeline stops
calling through them still runs, but its metric silently reads 0.0,
because ``traced`` turns a zero count into a zero ratio. This runs a small
traced ``extract-dense`` pass and requires every stage and graph metric to
be measured. It also requires the ``index-search`` postings count, which
reads ``len()`` of the index's postings, to count what the saved file
holds.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # perfbench/run.py
from kpindex.index import query_terms
from spans import NullTracer
from workloads import ExtractDense, IndexSearch

MEASURED = ["corpus.candidates_s", "similarity.neighbors_s",
            "graph.document_s", "graph.expand_s", "graph.bridge_s",
            "ranking.pagerank_s", "ranking.rank_s", "graph.nodes_present",
            "graph.edges_document"]


@pytest.fixture(scope="module")
def traced_extract(tmp_path_factory):
    wl = ExtractDense(ROOT, tmp_path_factory.mktemp("bench"), seed=2, n=12)
    wl.generate()
    report, line = run.traced(wl, 0.2)
    return report, json.loads(line)


@pytest.mark.parametrize("metric", MEASURED)
def test_traced_extract_measures_every_stage(traced_extract, metric):
    _, result = traced_extract
    assert result["correct"]
    assert result["metrics"][metric]["value"] > 0


def test_one_graph_counted_per_traced_document(traced_extract):
    report, _ = traced_extract
    samples = report["samples"]
    assert report["counts"]["graph.graphs"] == (
        samples["items_per_pass"] * samples["traced_passes"])


def test_postings_scanned_counts_the_saved_rows(tmp_path):
    """index.postings_scanned is the mean, over the query mix, of the
    posting rows that the saved file holds for the query's terms."""
    wl = IndexSearch(ROOT, tmp_path, seed=2, n=60)
    wl.generate()
    wl.setup(NullTracer())
    with open(wl.index_path, "rb") as fh:
        postings = json.loads(fh.read()[13:])["postings"]
    scanned = [sum(len(postings.get(t, [])) for t in query_terms(text))
               for _, text, _ in wl.query_mix]
    assert sum(scanned) > 0
    assert (wl.layer_counts()["index.postings_scanned"]
            == sum(scanned) / len(scanned))
