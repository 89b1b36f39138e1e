"""The benchmark's three workloads, driven through kpindex's public API.

Each workload is one client in one process running a closed loop: the next
operation starts when the previous one returns, because kpindex is a batch
CLI and a library, not a server. An operation is one document
(``extract-dense``, ``neighbors-wide``) or one query (``index-search``), and
its output is formatted exactly as the CLI would print it, so the SHA-256
of a full pass equals the digest of the CLI's output for the same corpus.

A workload object is used in this order: ``generate`` writes the inputs,
``setup`` (repeated) loads them, then passes of ``op`` over ``items`` run
inside the timed loop, each pass starting from ``begin_pass``. ``check``
validates one operation's result afterwards; ``finish`` runs the work done
once after the loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

import gen
import kpindex
from kpindex.graph import Origin
from kpindex.index import query_terms
from kpindex.ranking import RankedKeyphrase

SAMPLE = Path("src/kpindex/data/sample100.jsonl")


def _jsonl(record) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


class Workload:
    name = ""
    op_unit = ""  # what one operation is: "document" or "query"
    size = 0  # documents in the generated corpus
    setup_repeats = 3

    def __init__(self, root: Path, workdir: Path, seed: int,
                 n: int | None = None) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.n = n or self.size
        self.cfg = kpindex.Config().validate()
        self.corpus_path = str(workdir / "corpus.jsonl")

    def _records(self) -> list[dict]:
        return gen.load_records(str(self.root / SAMPLE))

    def begin_pass(self):
        return None

    def digest(self, lines: list[str]) -> str:
        return hashlib.sha256(self.output_bytes(lines)).hexdigest()

    def output_bytes(self, lines: list[str]) -> bytes:
        return "".join(line + "\n" for line in lines).encode("utf-8")

    def finish(self, outputs, tracer) -> dict:
        return {}

    def fingerprint(self) -> str | None:
        """Digest of files the set-up writes, which must repeat exactly."""
        return None

    def layer_counts(self) -> dict:
        """Per-layer counts read from the set-up's results after the run."""
        return {}


class _CorpusWorkload(Workload):
    """Set-up shared by the two per-document workloads: load + tf-idf."""

    setup_repeats = 5

    def setup(self, tracer) -> dict:
        with tracer.span("corpus.load"):
            self.corpus = kpindex.load_corpus(self.corpus_path)
        with tracer.span("similarity.build"):
            self.provider = kpindex.TfidfSimilarity(self.corpus)
        return {}

    def items(self) -> list[str]:
        return sorted(self.corpus.ids())

    def output_bytes(self, lines: list[str]) -> bytes:
        header = _jsonl({"config": self.cfg.to_dict()})
        return super().output_bytes([header] + lines)


class ExtractDense(_CorpusWorkload):
    """The ``extract`` path over clusters of near-variant documents."""

    name = "extract-dense"
    op_unit = "document"
    size = 600  # six variants of each sample100 record

    def generate(self) -> None:
        gen.write_jsonl(gen.extract_dense(self._records(), self.seed, self.n),
                        self.corpus_path)

    def begin_pass(self):
        # A fresh Corpus over the same documents empties the candidate cache,
        # so every pass pays what one CLI run pays.
        return kpindex.Corpus(list(self.corpus), self.corpus.stopwords)

    def op(self, corpus, doc_id):
        ranked = kpindex.extract_pipeline(doc_id, corpus, self.cfg, self.provider)
        return ranked, _jsonl({"id": doc_id, "keyphrases": [
            {"phrase": rk.surface, "score": rk.score, "origin": rk.origin.value}
            for rk in ranked]})

    def check(self, doc_id, ranked) -> str | None:
        if len(ranked) > self.cfg.top_n:
            return "more than top_n keyphrases"
        keys = self.corpus.candidates_for(doc_id, self.cfg.max_len)
        for i, rk in enumerate(ranked):
            if not (math.isfinite(rk.score) and rk.score > 0):
                return f"score {rk.score!r} is not finite and positive"
            if i and (-ranked[i - 1].score, ranked[i - 1].key) >= (-rk.score, rk.key):
                return "keyphrases out of order"
            if rk.origin not in (Origin.PRESENT, Origin.ABSENT):
                return f"invalid origin {rk.origin!r}"
            if (rk.origin is Origin.PRESENT) != (rk.key in keys):
                return f"origin {rk.origin.value} wrong for {rk.key!r}"
        return None

    def finish(self, outputs, tracer) -> dict:
        predicted = {doc_id: [rk.surface for rk in ranked]
                     for doc_id, ranked in zip(self.items(), outputs)}
        start = time.perf_counter()
        with tracer.span("evaluation.evaluate"):
            report = kpindex.evaluate_corpus(
                self.corpus, lambda doc: predicted[doc.id], self.cfg, "full")
        return {"f1_at_10": report.macro["all"][10].f1,
                "evaluate_s": time.perf_counter() - start}

    def properties(self, outputs) -> dict:
        counts = [len(self.provider.neighbors(d, len(self.corpus), self.cfg.min_sim))
                  for d in self.items()]
        return _neighbor_properties(counts, self.cfg.k_neighbors, uncapped=True)


class NeighborsWide(_CorpusWorkload):
    """The ``neighbors`` path over a wide corpus with sparse neighbors."""

    name = "neighbors-wide"
    op_unit = "document"
    size = 1000

    def generate(self) -> None:
        gen.write_jsonl(gen.mixed(self._records(), self.seed, self.n, 0.4,
                                  self.name), self.corpus_path)

    def op(self, _, doc_id):
        nbrs = self.provider.neighbors(doc_id, self.cfg.k_neighbors,
                                       self.cfg.min_sim)
        return nbrs, _jsonl({"id": doc_id, "neighbors": [
            {"id": nid, "sim": sim} for nid, sim in nbrs.neighbors]})

    def check(self, doc_id, nbrs) -> str | None:
        pairs = nbrs.neighbors
        if nbrs.source != doc_id or len(pairs) > self.cfg.k_neighbors:
            return "wrong source or too many neighbors"
        for i, (nid, sim) in enumerate(pairs):
            if nid == doc_id or nid not in self.corpus:
                return f"neighbor {nid!r} is the document itself or unknown"
            if not self.cfg.min_sim <= sim <= 1.0:
                return f"similarity {sim!r} outside [min_sim, 1]"
            if i and (-pairs[i - 1][1], pairs[i - 1][0]) >= (-sim, nid):
                return "neighbors out of order"
        return None

    def properties(self, outputs) -> dict:
        counts = [len(nbrs.neighbors) for nbrs in outputs]
        return _neighbor_properties(counts, self.cfg.k_neighbors, uncapped=False)


def _neighbor_properties(counts: list[int], k: int, uncapped: bool) -> dict:
    n = len(counts)
    out = {"documents": n,
           "mean_neighbors_returned": sum(min(c, k) for c in counts) / n,
           "zero_neighbor_share": sum(1 for c in counts if c == 0) / n}
    if uncapped:
        out["mean_neighbors_above_min_sim"] = sum(counts) / n
    return out


class IndexSearch(Workload):
    """Index build, save and load, then BM25 queries over the loaded index."""

    name = "index-search"
    op_unit = "query"
    size = 3000
    top = 10
    queries = 1200

    def generate(self) -> None:
        docs, phrases, self.query_mix = gen.search_inputs(
            self._records(), self.seed, self.n, self.queries)
        gen.write_jsonl(docs, self.corpus_path)
        self.keyphrases = {}
        for doc_id, by_origin in phrases.items():
            self.keyphrases[doc_id] = [
                RankedKeyphrase(key=key, surface=phrase, score=1.0, origin=origin)
                for origin, group in ((Origin.PRESENT, by_origin["present"]),
                                      (Origin.ABSENT, by_origin["absent"]))
                for phrase in group
                if (key := kpindex.normalize_phrase(phrase))]
        self.index_path = str(self.workdir / "corpus.kpix")

    def setup(self, tracer) -> dict:
        with tracer.span("corpus.load"):
            self.corpus = kpindex.load_corpus(self.corpus_path)
        start = time.perf_counter()
        with tracer.span("index.build"):
            built = kpindex.build_index(self.corpus, self.keyphrases,
                                        self.cfg.to_dict())
        with tracer.span("index.save"):
            kpindex.save_index(built, self.index_path)
        opened = time.perf_counter()
        with tracer.span("index.load"):
            self.index = kpindex.load_index(self.index_path)
        done = time.perf_counter()
        return {"index_write_s": opened - start, "index_open_s": done - opened}

    def items(self):
        return self.query_mix

    def op(self, _, query):
        text = query[1]
        results = kpindex.search(self.index, text, top_n=self.top)
        lines = [_jsonl({"query": text})] + [
            _jsonl({"rank": rank, "id": doc_id, "score": score})
            for rank, (doc_id, score) in enumerate(results, start=1)]
        return results, "\n".join(lines)

    def check(self, query, results) -> str | None:
        kind, _, owner = query
        if len(results) > self.top:
            return "more than top results"
        for i, (doc_id, score) in enumerate(results):
            if doc_id not in self.corpus:
                return f"unknown id {doc_id!r}"
            if not (math.isfinite(score) and score > 0):
                return f"score {score!r} is not finite and positive"
            if i and (-results[i - 1][1], results[i - 1][0]) >= (-score, doc_id):
                return "results out of order"
        if kind == "absent" and (not results or results[0][0] != owner):
            return f"absent-only term did not return {owner}"
        if kind == "title" and not results:
            return "title query returned nothing"
        return None

    def _index_bytes(self) -> bytes:
        with open(self.index_path, "rb") as fh:
            return fh.read()

    def output_bytes(self, lines: list[str]) -> bytes:
        return self._index_bytes() + super().output_bytes(lines)

    def fingerprint(self) -> str:
        return hashlib.sha256(self._index_bytes()).hexdigest()

    def layer_counts(self) -> dict:
        scanned = [sum(len(self.index.postings.get(t, ())) for t in query_terms(text))
                   for _, text, _ in self.query_mix]
        return {"index.file_bytes": os.path.getsize(self.index_path),
                "index.postings_scanned": sum(scanned) / len(scanned)}

    def properties(self, outputs) -> dict:
        kinds = [kind for kind, _, _ in self.query_mix]
        return {"documents": len(self.corpus),
                "queries": len(kinds),
                "query_mix": {k: kinds.count(k) / len(kinds)
                              for k in ("title", "gold", "absent")},
                **self.layer_counts()}


WORKLOADS = {w.name: w for w in (ExtractDense, NeighborsWide, IndexSearch)}
