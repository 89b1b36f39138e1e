"""Acceptance suite: every release criterion runs here at its stated
tolerance and prints one pass/fail line. Run with `pytest -s` to see the
lines stream."""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import pytest

import kpindex
from kpindex import (Config, Corpus, build_index, evaluate_corpus,
                     extract_pipeline, load_corpus, load_index, search)
from kpindex.corpus import Document
from kpindex.evaluation import split_present_absent
from kpindex.graph import build_document_graph
from kpindex.ranking import pagerank, rank_keyphrases
from kpindex.similarity import TfidfSimilarity

from conftest import make_corpus, write_jsonl
from synth import build_synthetic_records
from test_graph import assert_bridged_like_oracle, random_layered_graph
from test_ranking import linear_solve_scores, random_graph, scale_edges
from test_evaluation import EXPECTED, f1, fixed_model


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL: {description}")
        raise
    print(f"\n[criterion {num}] PASS: {description}")


# ----------------------------------------------------------------------
# shared fixtures
# ----------------------------------------------------------------------

VOCAB = ["graph", "ranking", "node", "edge", "model", "neural", "network",
         "translation", "quantum", "protein", "fold", "index", "search",
         "query", "text", "corpus", "learning", "deep", "matrix", "vector"]


def twenty_doc_rows(seed=97):
    rng = random.Random(seed)
    rows = []
    for i in range(20):
        words = rng.choices(VOCAB, k=rng.randint(12, 30))
        title = " ".join(words[:3])
        body = []
        for j, w in enumerate(words[3:]):
            body.append(w)
            if j % 7 == 6:
                body.append(".")
        abstract = " ".join(body).replace(" .", ".") + "."
        rows.append((f"f{i:02d}", title, abstract))
    return rows


@pytest.fixture(scope="module")
def synthetic_corpus(stopwords):
    records, injected = build_synthetic_records()
    docs = [Document.build(r["id"], r["title"], r["abstract"],
                           r["keyphrases"]) for r in records]
    return Corpus(docs, stopwords), records, injected


def ranking_bytes(ranked):
    return json.dumps([{"key": r.key, "surface": r.surface, "score": r.score,
                        "origin": r.origin.value, "sources": r.sources}
                       for r in ranked], sort_keys=True).encode()


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_baseline_collapse(stopwords):
    with criterion(1, "disabled enrichment reproduces single-document "
                      "ranking byte-for-byte on a 20-doc fixture in < 5 s"):
        started = time.perf_counter()
        corpus = make_corpus(twenty_doc_rows(), stopwords)
        cfg = Config(k_neighbors=0, absent_quota=0,
                     lambda_domain=0.0).validate()
        provider = TfidfSimilarity(corpus)
        for doc_id in sorted(corpus.ids()):
            piped = extract_pipeline(doc_id, corpus, cfg, provider)
            cands = corpus.candidates_for(doc_id, cfg.max_len)
            g = build_document_graph(corpus[doc_id], cands, cfg)
            scores, _ = pagerank(g, cfg)
            baseline = rank_keyphrases(g, scores, corpus, cfg)
            assert ranking_bytes(piped) == ranking_bytes(baseline)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_pagerank_numerics():
    with criterion(2, "200 random graphs: power iteration matches linear "
                      "solve (1e-5), sums to 1 (1e-6), scale-invariant (1e-9)"):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_graph(rng, max_nodes=8)
            scores, _ = pagerank(g)
            assert abs(sum(scores.values()) - 1.0) <= 1e-6
            oracle = linear_solve_scores(g, 0.85)
            for key in scores:
                assert abs(scores[key] - oracle[key]) <= 1e-5
            for factor in (0.5, 3.0, 10.0):
                scaled, _ = pagerank(scale_edges(g, factor))
                for key in scores:
                    assert abs(scaled[key] - scores[key]) <= 1e-9


def test_criterion_3_wcc_against_transitive_closure():
    with criterion(3, "100 random graphs (<= 50 nodes): bridging scales "
                      "exactly the DOMAIN edges between components of the "
                      "transitive-closure oracle"):
        rng = random.Random(77)
        for _ in range(100):
            g = random_layered_graph(rng, 50, 4.0)
            assert_bridged_like_oracle(g, 2.0)


def test_criterion_4_absent_gold_fraction():
    with criterion(4, "bundled 100-abstract gold sample has absent-gold "
                      "fraction in [0.35, 0.65]"):
        path = str(resources.files("kpindex").joinpath("data/sample100.jsonl"))
        corpus = load_corpus(path)
        assert len(corpus) == 100
        total_present = total_absent = 0
        for doc in corpus:
            present, absent = split_present_absent(doc.gold, doc)
            total_present += len(present)
            total_absent += len(absent)
        fraction = total_absent / (total_present + total_absent)
        print(f"  measured absent-gold fraction: {fraction:.4f}")
        assert 0.35 <= fraction <= 0.65


def test_criterion_5_expansion_efficacy(synthetic_corpus):
    with criterion(5, "synthetic corpus: expansion lifts ABSENT R@10 above "
                      "the zero baseline without hurting ALL F1@10 (> 0.02)"):
        started = time.perf_counter()
        corpus, _, _ = synthetic_corpus
        cfg = Config().validate()
        noexp_cfg = cfg.replace(k_neighbors=0, absent_quota=0,
                                lambda_domain=0.0)
        provider = TfidfSimilarity(corpus)
        full_preds = {d: extract_pipeline(d, corpus, cfg, provider)
                      for d in sorted(corpus.ids())}
        noexp_preds = {d: extract_pipeline(d, corpus, noexp_cfg, provider)
                       for d in sorted(corpus.ids())}
        full = evaluate_corpus(
            corpus, lambda doc: [r.surface for r in full_preds[doc.id]],
            cfg, "full")
        noexp = evaluate_corpus(
            corpus, lambda doc: [r.surface for r in noexp_preds[doc.id]],
            noexp_cfg, "no-expansion")
        r_full = full.macro["absent"][10].recall
        r_noexp = noexp.macro["absent"][10].recall
        f1_full = full.macro["all"][10].f1
        f1_noexp = noexp.macro["all"][10].f1
        print(f"  ABSENT R@10: full={r_full:.3f} no-expansion={r_noexp:.3f}; "
              f"ALL F1@10: full={f1_full:.3f} no-expansion={f1_noexp:.3f}")
        assert r_noexp == 0.0
        assert r_full > r_noexp
        assert f1_full >= f1_noexp - 0.02
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_vocabulary_mismatch_retrieval(synthetic_corpus):
    with criterion(6, "paired index builds: >= 90% of injected-keyphrase "
                      "queries retrieve the target only in the expanded index"):
        corpus, _, injected = synthetic_corpus
        provider = TfidfSimilarity(corpus)
        expanded_cfg = Config().validate()
        baseline_cfg = expanded_cfg.replace(absent_quota=0)
        expanded = build_index(corpus, {
            d: extract_pipeline(d, corpus, expanded_cfg, provider)
            for d in sorted(corpus.ids())}, expanded_cfg.to_dict())
        baseline = build_index(corpus, {
            d: extract_pipeline(d, corpus, baseline_cfg, provider)
            for d in sorted(corpus.ids())}, baseline_cfg.to_dict())
        successes = 0
        for doc_id, query in sorted(injected.items()):
            expanded_hits = {d for d, _ in search(expanded, query, top_n=10)}
            baseline_hits = {d for d, _ in search(baseline, query, top_n=10)}
            if doc_id in expanded_hits and doc_id not in baseline_hits:
                successes += 1
        rate = successes / len(injected)
        print(f"  retrieved-only-in-expanded rate: {successes}/{len(injected)}"
              f" = {rate:.2%}")
        assert rate >= 0.9


def run_cli_process(argv, hash_seed):
    """Run `python -m kpindex.cli argv` in a fresh interpreter."""
    src = str(Path(kpindex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "kpindex.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_criterion_7_process_determinism(synthetic_corpus, tmp_path):
    with criterion(7, "extract/index/evaluate outputs byte-identical across "
                      "processes with different hash seeds"):
        _, records, _ = synthetic_corpus
        corpus_path = write_jsonl(tmp_path / "synthetic.jsonl", records)
        outputs = {}
        for seed in (1, 2):
            extract_out = tmp_path / f"extract.{seed}.jsonl"
            eval_out = tmp_path / f"eval.{seed}.json"
            index_out = tmp_path / f"index.{seed}.kpix"
            run_cli_process(["extract", corpus_path,
                             "--output", str(extract_out)], seed)
            run_cli_process(["index", corpus_path, str(index_out)], seed)
            run_cli_process(["evaluate", corpus_path, "--model", "full",
                             "--output", str(eval_out)], seed)
            outputs[seed] = (extract_out.read_bytes(),
                             index_out.read_bytes(),
                             eval_out.read_bytes())
        assert outputs[1][0] == outputs[2][0], "extract differs"
        assert outputs[1][1] == outputs[2][1], "index differs"
        assert outputs[1][2] == outputs[2][2], "evaluate differs"
        assert load_index(str(tmp_path / "index.1.kpix")) == \
            load_index(str(tmp_path / "index.2.kpix"))


def test_criterion_8_evaluation_arithmetic(toy_gold_corpus):
    with criterion(8, "hand-scored 3-doc fixture reproduces P/R/F1 exactly "
                      "(1e-12) in all three gold scopes"):
        report = evaluate_corpus(toy_gold_corpus, fixed_model)
        assert report.absent_gold_fraction == pytest.approx(0.5, abs=1e-12)
        by_id = {d.doc_id: d for d in report.per_document}
        for doc_id, scopes in EXPECTED.items():
            for scope, (p5, r5, p10, r10) in scopes.items():
                for k, (p, r) in ((5, (p5, r5)), (10, (p10, r10))):
                    got = by_id[doc_id].metrics[scope][k]
                    assert got.precision == pytest.approx(p, abs=1e-12)
                    assert got.recall == pytest.approx(r, abs=1e-12)
                    assert got.f1 == pytest.approx(f1(p, r), abs=1e-12)
