import contextlib
import gc
import heapq
import json
import math
import os
import random
import sys
import tempfile
import threading
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

import kpindex.index as index_module

from kpindex import (Config, ConfigError, build_index, extract_pipeline,
                     load_index, save_index, search)
from kpindex.errors import DataError
from kpindex.index import (B, FIELD_KP_ABSENT, FIELD_KP_PRESENT, FIELD_TEXT,
                           FIELD_WEIGHTS, FIELDS, K1, InvertedIndex,
                           query_terms)

from conftest import (index_file_bytes, make_corpus, nested_json,
                      write_payload)

def extract_all(corpus, cfg):
    return {doc_id: extract_pipeline(doc_id, corpus, cfg)
            for doc_id in sorted(corpus.ids())}


class TestBuildIndex:
    def test_every_nonstop_stem_gets_a_text_posting(self, stopwords):
        corpus = make_corpus(
            [("a", "Graph ranking", "The ranking of graphs matters.")],
            stopwords)
        index = build_index(corpus, {})
        doc = corpus["a"]
        expected = {s for t, s in zip(doc.tokens, doc.stems)
                    if t != "<s>" and t not in stopwords
                    and s not in corpus.stopword_stems}
        for stem_ in expected:
            entries = [p for p in index.postings[stem_]
                       if p[0] == "a" and p[1] == FIELD_TEXT]
            assert len(entries) == 1
            assert entries[0][2] > 0

    def test_absent_keyphrase_stems_land_in_absent_field(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0, top_n=15).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        for stem_ in ("semant", "index"):
            fields = {p[1] for p in index.postings[stem_] if p[0] == "a"}
            assert FIELD_KP_ABSENT in fields
            assert FIELD_TEXT not in fields

    def test_present_keyphrase_stems_land_in_present_field(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        fields = {p[1] for p in index.postings["graph"] if p[0] == "a"}
        assert fields == {FIELD_TEXT, FIELD_KP_PRESENT}

    def test_no_duplicate_doc_field_entries(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        for plist in index.postings.values():
            pairs = [(doc_id, field) for doc_id, field, _ in plist]
            assert pairs == sorted(pairs)
            assert len(pairs) == len(set(pairs))


def text_lengths(text):
    """Field lengths with `text` in TEXT and empty keyphrase fields."""
    return {FIELD_TEXT: text, FIELD_KP_PRESENT: 0.0, FIELD_KP_ABSENT: 0.0}


class TestPersistence:
    def build(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        return build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                           cfg.to_dict())

    def test_round_trip(self, two_doc_corpus, tmp_path):
        index = self.build(two_doc_corpus)
        path = str(tmp_path / "c.kpix")
        save_index(index, path)
        assert load_index(path) == index

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_index(str(tmp_path / "nope.kpix"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.kpix"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError, match="bad magic"):
            load_index(str(path))

    def test_bad_version(self, two_doc_corpus, tmp_path):
        path = tmp_path / "c.kpix"
        save_index(self.build(two_doc_corpus), str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 99"):
            load_index(str(path))

    def test_truncated(self, two_doc_corpus, tmp_path):
        path = tmp_path / "c.kpix"
        save_index(self.build(two_doc_corpus), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(DataError, match="truncated"):
            load_index(str(path))

    def test_failed_write_keeps_previous_index(self, two_doc_corpus, tmp_path,
                                               monkeypatch):
        path = tmp_path / "c.kpix"
        save_index(self.build(two_doc_corpus), str(path))
        before = path.read_bytes()

        class FailingFile:
            """Writes the header, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def write(self, data):
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(index_module, "open",
                            lambda *args: FailingFile(open(*args)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_index(InvertedIndex({}, {}, {"other": True}), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.kpix"]

    @pytest.mark.parametrize("payload, field", [
        ({"postings": {}}, "doc_lengths"),
        ({"doc_lengths": [], "postings": {}}, "doc_lengths"),
        ({"doc_lengths": {"a": {"text": 1.0}}, "postings": {}}, "doc_lengths"),
        ({"doc_lengths": {}}, "postings"),
        ({"doc_lengths": {}, "postings": {"x": [["a", "text", 1.0]]}},
         "postings"),
        ({"doc_lengths": {"a": {"text": 1, "kp_present": 0, "kp_absent": 0}},
          "postings": {"x": [["a", "title", 1.0]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(math.nan)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(math.inf)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(-1.0)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", -math.inf]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", math.inf]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", math.nan]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", -5.0]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", 0.0]]}}, "postings"),
        ({"config": 5, "doc_lengths": {}, "postings": {}}, "config"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", 1.0, 2.0]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(2.0)},
          "postings": {"x": [["a", "text", 1.0], ["a", "text", 1.0]]}},
         "postings"),
        ({"doc_lengths": {"a": {**text_lengths(1.0), "title": 0.0}},
          "postings": {"x": [["a", "text", 1.0]]}}, "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths("1")},
          "postings": {"x": [["a", "text", 1.0]]}}, "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(True)},
          "postings": {"x": [["a", "text", 1.0]]}}, "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", "1"]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", True]]}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(1.0)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(2.0), "b": text_lengths(500.0)},
          "postings": {"graph": [["a", "text", 2.0], ["b", "text", 1.0]]}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", 0.5]], "y": [["a", "text", 0.25]]}},
         "doc_lengths"),
        # JSON integers beyond the float range
        ({"doc_lengths": {"a": text_lengths(10**400)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(1.0)},
          "postings": {"x": [["a", "text", 10**400]]}}, "postings"),
    ])
    def test_malformed_payload_names_field(self, tmp_path, payload, field):
        path = write_payload(tmp_path / "c.kpix", payload)
        with pytest.raises(DataError, match=f"'{field}'"):
            load_index(path)

    @given(st.lists(st.tuples(st.sampled_from("abé"), st.sampled_from(FIELDS),
                              st.integers(1, 9).map(float)), max_size=12))
    @example([("b", FIELD_TEXT, 1.0), ("a", FIELD_KP_ABSENT, 2.0),
              ("b", FIELD_KP_PRESENT, 5.0), ("a", FIELD_TEXT, 4.0),
              ("b", FIELD_TEXT, 3.0), ("a", FIELD_KP_PRESENT, 6.0)])
    @settings(max_examples=200, deadline=None)
    def test_constructor_orders_postings_by_doc_and_field(self, rows):
        """Rows sharing a (doc id, field) keep their input order."""
        index = InvertedIndex({"x": list(rows)}, {})
        assert index.postings["x"] == sorted(rows, key=lambda p: (p[0], p[1]))

    def test_lengths_that_sum_the_postings_load(self, tmp_path):
        path = write_payload(tmp_path / "c.kpix", {
            "doc_lengths": {"a": text_lengths(3), "b": text_lengths(0.75)},
            "postings": {"graph": [["a", "text", 2], ["b", "text", 0.5]],
                         "rank": [["a", "text", 1], ["b", "text", 0.25]]}})
        index = load_index(path)
        assert index.doc_lengths["a"] == text_lengths(3.0)
        assert sorted(doc_id for doc_id, _ in search(index, "graph")) == ["a", "b"]


def huge_kp_present_index_parts():
    """Postings and lengths of three documents matching "graph"; a's
    kp_present weight of 1.7e308 is finite, but 1.5x it is not."""
    lengths = {"a": {FIELD_TEXT: 0.0, FIELD_KP_PRESENT: 1.7e308,
                     FIELD_KP_ABSENT: 0.0},
               "b": text_lengths(1.0), "c": text_lengths(1.0)}
    postings = {"graph": [("a", FIELD_KP_PRESENT, 1.7e308),
                          ("b", FIELD_TEXT, 1.0), ("c", FIELD_TEXT, 1.0)]}
    return postings, lengths


class TestWeightedLengthOverflow:
    """A weighted length that is not finite would make a NaN norm and NaN
    scores, whose rank is undefined; the index is refused instead."""

    def test_built_index_names_document_and_field(self):
        postings, lengths = huge_kp_present_index_parts()
        with pytest.raises(DataError, match="document 'a': field "
                                            "'kp_present'"):
            InvertedIndex(postings, lengths)

    def test_index_file_is_refused_at_load(self, tmp_path):
        postings, lengths = huge_kp_present_index_parts()
        path = write_payload(tmp_path / "c.kpix",
                             {"doc_lengths": lengths, "postings": postings})
        with pytest.raises(DataError, match="document 'a': field "
                                            "'kp_present'"):
            load_index(path)

    def test_fields_that_overflow_only_together(self):
        lengths = {FIELD_TEXT: 1e308, FIELD_KP_PRESENT: 1e308,
                   FIELD_KP_ABSENT: 0.0}
        with pytest.raises(DataError, match="document 'a': field "
                                            "'kp_present'"):
            InvertedIndex({}, {"a": lengths})

    def test_documents_that_overflow_only_together(self):
        with pytest.raises(DataError, match="weighted lengths sum"):
            InvertedIndex({}, {"a": text_lengths(1e308),
                               "b": text_lengths(1e308)})

    def test_largest_finite_lengths_are_kept(self):
        # 1.5 * 1e308 is still finite
        postings, lengths = huge_kp_present_index_parts()
        postings["graph"][0] = ("a", FIELD_KP_PRESENT, 1e308)
        lengths["a"][FIELD_KP_PRESENT] = 1e308
        index = InvertedIndex(postings, lengths)
        assert all(math.isfinite(norm) for norm in index.norms.values())
        hits = search(index, "graph", top_n=3)
        assert [doc_id for doc_id, _ in hits] == ["a", "b", "c"]
        assert all(math.isfinite(score) for _, score in hits)


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def small_index():
    return InvertedIndex({"graph": [("a", FIELD_TEXT, 2.0)]},
                         {"a": text_lengths(2.0)}, {"top_n": 10})


class TestCollectorPause:
    @pytest.mark.parametrize("blob, error", [
        (None, None),
        (b"NOPE" + bytes(20), "bad magic"),
        (index_file_bytes(b"{}")[:-1], "truncated"),
        (index_file_bytes(b"{not json"), "corrupt index payload"),
        (index_file_bytes(b'{"postings": {}}'), "'doc_lengths'"),
        (index_file_bytes(json.dumps(
            {"doc_lengths": {"a": text_lengths(1.0)},
             "postings": {"x": [["a", "text", 10**400]]}}).encode()),
         "'postings'"),
        (index_file_bytes(b'{"config": {"n": ' + nested_json().encode()
                          + b'}}'), "nested too deeply"),
    ], ids=["valid", "bad-magic", "truncated", "corrupt", "no-doc-lengths",
            "overflow", "nested"])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_load_restores_collector_state(self, tmp_path, blob, error,
                                           enabled):
        path = tmp_path / "c.kpix"
        if blob is None:
            save_index(small_index(), str(path))
        else:
            path.write_bytes(blob)
        with collector(enabled):
            if error is None:
                assert load_index(str(path)) == small_index()
            else:
                with pytest.raises(DataError, match=error):
                    load_index(str(path))
            assert gc.isenabled() is enabled

    def test_collector_is_paused_while_the_index_is_made(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "c.kpix")
        save_index(small_index(), path)
        seen = []

        def spy(*args):
            seen.append(gc.isenabled())
            return InvertedIndex(*args)
        monkeypatch.setattr(index_module, "InvertedIndex", spy)
        with collector(True):
            load_index(path)
            assert gc.isenabled()
        assert seen == [False]


def save_index_oracle(index):
    """The index file bytes as save_index wrote them when it first copied
    every posting into a fresh list and sorted the terms itself."""
    payload = {
        "format": "kpindex-inverted-index",
        "fields": list(FIELDS),
        "config": index.config,
        "doc_lengths": index.doc_lengths,
        "postings": {term: [list(p) for p in plist]
                     for term, plist in sorted(index.postings.items())},
    }
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return index_file_bytes(body.encode("utf-8"))


# non-ASCII names, integer-valued and fractional weights, nested configs
names = st.text(min_size=1, max_size=4)
weights = st.one_of(st.integers(1, 10**6).map(float),
                    st.floats(min_value=1e-9, max_value=1e9))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
indexes = st.builds(
    InvertedIndex,
    st.dictionaries(names, st.lists(st.tuples(names, st.sampled_from(FIELDS),
                                              weights), max_size=4),
                    max_size=5),
    st.dictionaries(names, st.fixed_dictionaries({f: weights for f in FIELDS}),
                    max_size=4),
    st.dictionaries(st.text(max_size=4), json_values, max_size=4))


class TestSaveOracle:
    @given(indexes)
    @example(InvertedIndex({}, {}, {}))
    @example(InvertedIndex({"réseau": [("é", FIELD_TEXT, 0.25),
                                       ("d", FIELD_KP_ABSENT, 3.0)]},
                           {"é": text_lengths(0.25), "d": text_lengths(0.0)},
                           {"nested": {"list": [1, 2.5, "ü"]}}))
    @settings(max_examples=200, deadline=None)
    def test_save_writes_the_oracle_bytes(self, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            save_index(index, path)
            with open(path, "rb") as fh:
                assert fh.read() == save_index_oracle(index)


FIVE_DOC_ROWS = [
    ("d1", "Spectral graph partitioning", "Cutting graphs into parts."),
    ("d2", "Neural machine translation", "Sequence models translate text."),
    ("d3", "Bayesian inference methods", "Posterior estimation with priors."),
    ("d4", "Sorting network design", "Comparator circuits sort inputs."),
    ("d5", "Cache coherence protocols", "Shared memory synchronization."),
]


class TestSearch:
    def test_stopword_query_is_empty(self, stopwords):
        corpus = make_corpus(FIVE_DOC_ROWS, stopwords)
        index = build_index(corpus, {})
        assert search(index, "the of and") == []

    def test_exact_title_ranks_first(self, stopwords):
        corpus = make_corpus(FIVE_DOC_ROWS, stopwords)
        index = build_index(corpus, {})
        for doc_id, title, _ in FIVE_DOC_ROWS:
            results = search(index, title, top_n=10)
            assert results[0][0] == doc_id

    def test_scores_invariant_to_posting_insertion_order(self):
        counts = {"d1": Counter({"graph": 2, "rank": 1}),
                  "d2": Counter({"graph": 1, "text": 3})}

        def index_in_order(doc_ids):
            postings = defaultdict(list)
            for doc_id in doc_ids:
                for term, count in counts[doc_id].items():
                    postings[term].append((doc_id, FIELD_TEXT, float(count)))
            return InvertedIndex(
                dict(postings),
                {doc_id: text_lengths(float(counts[doc_id].total()))
                 for doc_id in doc_ids})

        a = index_in_order(("d1", "d2"))
        b = index_in_order(("d2", "d1"))
        assert search(a, "graph text") == search(b, "graph text")

    def test_vocabulary_mismatch_demonstration(self, two_doc_corpus):
        expanded_cfg = Config(k_neighbors=1, min_sim=0.0, top_n=15).validate()
        baseline_cfg = expanded_cfg.replace(absent_quota=0)
        expanded = build_index(two_doc_corpus,
                               extract_all(two_doc_corpus, expanded_cfg))
        baseline = build_index(two_doc_corpus,
                               extract_all(two_doc_corpus, baseline_cfg))
        # "construction" occurs only in b's text; doc a gains it (or its
        # phrase) solely through absent keyphrase postings
        expanded_hits = {doc_id for doc_id, _ in
                         search(expanded, "semantic index", top_n=10)}
        baseline_hits = {doc_id for doc_id, _ in
                         search(baseline, "semantic index", top_n=10)}
        assert "a" in expanded_hits
        assert "a" not in baseline_hits

    def test_deterministic_tie_break_by_doc_id(self, stopwords):
        corpus = make_corpus([
            ("x2", "graph", "graph."),
            ("x1", "graph", "graph."),
        ], stopwords)
        index = build_index(corpus, {})
        results = search(index, "graph")
        assert [doc_id for doc_id, _ in results] == ["x1", "x2"]

    @pytest.mark.parametrize("top_n", [-1, 0])
    def test_top_n_below_one_is_config_error(self, stopwords, top_n):
        corpus = make_corpus(FIVE_DOC_ROWS, stopwords)
        index = build_index(corpus, {})
        assert search(index, "graph ranking", top_n=1)
        with pytest.raises(ConfigError, match="top_n"):
            search(index, "graph ranking", top_n=top_n)

    def test_query_terms_stemmed(self):
        assert query_terms("Ranking Networks!") == ["rank", "network"]


def weighted_length(index, doc_id):
    lengths = index.doc_lengths[doc_id]
    return math.fsum(FIELD_WEIGHTS[f] * lengths[f] for f in FIELDS)


def average_length(index):
    if not index.doc_lengths:
        return 0.0
    total = math.fsum(weighted_length(index, d)
                      for d in sorted(index.doc_lengths))
    return total / len(index.doc_lengths)


def search_oracle(index, query, top_n=10):
    """BM25 as search computed it before the length norms were precomputed:
    the average length and every document length are recomputed per query."""
    terms = query_terms(query)
    if not terms:
        return []
    n = len(index.doc_lengths)
    if n == 0:
        return []
    avgdl = average_length(index)
    scores = defaultdict(float)
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        tf_weighted = defaultdict(float)
        for doc_id, field, weight in plist:
            tf_weighted[doc_id] += FIELD_WEIGHTS[field] * weight
        df = len(tf_weighted)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id in sorted(tf_weighted):
            tf = tf_weighted[doc_id]
            dl = weighted_length(index, doc_id)
            denom = tf + K1 * (1.0 - B + B * (dl / avgdl if avgdl > 0 else 0.0))
            scores[doc_id] += idf * tf * (K1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_n]


def search_uncached_oracle(index, query, top_n=10):
    """BM25 as search computed it before the contribution cache: every
    query regroups each term's postings and recomputes its idf and its
    per-document quotients."""
    norms = index.norms
    n = len(index.doc_lengths)
    scores = defaultdict(float)
    for term in query_terms(query):
        plist = index.postings.get(term)
        if not plist:
            continue
        tf_weighted = defaultdict(float)
        for doc_id, field, weight in plist:
            tf_weighted[doc_id] += FIELD_WEIGHTS[field] * weight
        df = len(tf_weighted)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, tf in tf_weighted.items():
            scores[doc_id] += idf * tf * (K1 + 1.0) / (tf + norms[doc_id])
    return heapq.nsmallest(top_n, scores.items(),
                           key=lambda item: (-item[1], item[0]))


def round_trip(index):
    """`index` saved to a temporary file and loaded back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.kpix")
        save_index(index, path)
        return load_index(path)


# query words, their index stems, and two words that are never indexed
WORDS = ["graph", "ranking", "networks", "index", "semantic"]
STEMS = query_terms(" ".join(WORDS))
QUERY_WORDS = WORDS + ["zebra", "the"]

# per document, one stem -> count map per field; an all-empty document
# has no postings and length zero
documents = st.lists(
    st.fixed_dictionaries({field: st.dictionaries(st.sampled_from(STEMS),
                                                  st.integers(1, 4),
                                                  max_size=4)
                           for field in FIELDS}),
    max_size=6)


def random_index(docs):
    postings = defaultdict(list)
    doc_lengths = {}
    for i, fields in enumerate(docs):
        doc_id = f"d{i}"
        for field, counts in fields.items():
            for term, count in counts.items():
                postings[term].append((doc_id, field, float(count)))
        doc_lengths[doc_id] = {field: float(sum(counts.values()))
                               for field, counts in fields.items()}
    return InvertedIndex(dict(postings), doc_lengths)


class TestSearchOracle:
    @given(documents, st.lists(st.sampled_from(QUERY_WORDS), max_size=6),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_query_scan(self, docs, words, data):
        index = random_index(docs)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            save_index(index, path)
            loaded = load_index(path)
        query = " ".join(words)
        top_n = data.draw(st.integers(1, len(docs) + 1), label="top_n")
        for ix in (index, loaded):
            assert search(ix, query, top_n) == search_oracle(ix, query, top_n)

    def test_zero_length_documents(self):
        index = random_index([{field: {} for field in FIELDS}] * 3)
        assert index.norms == {f"d{i}": K1 * (1.0 - B) for i in range(3)}
        assert search(index, "graph") == []

    def test_ties_across_the_cut_off(self):
        """20 identical documents tie on one score below 3 higher ones;
        top_n below, at the start of, inside, at the end of and past the
        tied block gives the exact ids, the tied ones in id order."""
        def text(**counts):
            return {FIELD_TEXT: counts, FIELD_KP_PRESENT: {},
                    FIELD_KP_ABSENT: {}}

        docs = ([text(graph=k) for k in (4, 3, 2)]    # d0 > d1 > d2
                + [text(graph=1, rank=1)] * 20        # d3..d22 tie
                + [text(graph=1, rank=4)]             # d23, below the tie
                + [text(rank=2)] * 3)                 # no match
        index = random_index(docs)
        scores = dict(search(index, "graph", len(docs)))
        tied = sorted(f"d{i}" for i in range(3, 23))
        assert len({scores[doc_id] for doc_id in tied}) == 1
        assert scores["d2"] > scores[tied[0]] > scores["d23"]
        expected = ["d0", "d1", "d2", *tied, "d23"]
        for top_n in (1, 2, 3, 4, 5, 12, 22, 23, 24, 25, 100):
            got = search(index, "graph", top_n)
            assert [doc_id for doc_id, _ in got] == expected[:top_n]
            assert got == search_uncached_oracle(index, "graph", top_n)
            assert got == search_oracle(index, "graph", top_n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_index_equals_oracles(self, seed):
        """A few hundred documents over five stems, so most queries match
        far more documents than top_n and many tie at the floor."""
        rng = random.Random(seed)
        docs = [{field: {stem: rng.randint(1, 4)
                         for stem in rng.sample(STEMS, rng.randint(0, 3))}
                 for field in FIELDS}
                for _ in range(300)]
        index = random_index(docs)
        query_seq = [" ".join(rng.choices(QUERY_WORDS, k=rng.randint(1, 4)))
                     for _ in range(12)] + ["graph", "graph graph", "zebra"]
        for ix in (index, round_trip(index)):
            for query in query_seq:
                for top_n in (1, 10, 500):
                    got = search(ix, query, top_n)
                    assert got == search_oracle(ix, query, top_n)
                    assert got == search_uncached_oracle(ix, query, top_n)
        assert len(search(index, "graph", 500)) > 100


# queries of one to four words, so that a short sequence repeats words
queries = st.lists(st.sampled_from(QUERY_WORDS), min_size=1,
                   max_size=4).map(" ".join)


class TestContributionCache:
    @given(documents, st.lists(queries, max_size=8), st.integers(1, 7))
    @example([{FIELD_TEXT: {"graph": 2, "rank": 1}, FIELD_KP_PRESENT: {},
               FIELD_KP_ABSENT: {"index": 1}},
              {FIELD_TEXT: {"graph": 1}, FIELD_KP_PRESENT: {"rank": 3},
               FIELD_KP_ABSENT: {}}],
             ["graph graph", "zebra the", "rank graph", "graph graph",
              "the index zebra"], 1)
    @settings(max_examples=200, deadline=None)
    def test_warm_cache_equals_oracles(self, docs, query_seq, top_n):
        """A sequence of queries through one index gives what both oracles
        give, and what the reversed sequence gives on a fresh index."""
        index = random_index(docs)
        for ix, fresh in ((index, random_index(docs)),
                          (round_trip(index), round_trip(index))):
            results = [search(ix, q, top_n) for q in query_seq]
            for q, got in zip(query_seq, results):
                assert got == search_oracle(ix, q, top_n)
                assert got == search_uncached_oracle(ix, q, top_n)
            reversed_results = [search(fresh, q, top_n)
                                for q in reversed(query_seq)]
            assert reversed_results[::-1] == results

    def test_cache_stays_out_of_persistence_and_equality(self, stopwords,
                                                         tmp_path):
        corpus = make_corpus(FIVE_DOC_ROWS, stopwords)
        index = build_index(corpus, {}, {"top_n": 10})
        path = str(tmp_path / "c.kpix")
        save_index(index, path)
        with open(path, "rb") as fh:
            cold = fh.read()
        for query in ("zebra", "the of and", "zebra the"):
            assert search(index, query) == []
        assert index.contributions == {}

        for query in ("graph networks", "graph graph", "zebra sorting the"):
            search(index, query)
        assert set(index.contributions) == {"graph", "network", "sort"}
        graph = index.contributions["graph"]
        search(index, "graph partitioning")
        assert index.contributions["graph"] is graph

        warm_path = str(tmp_path / "warm.kpix")
        save_index(index, warm_path)
        with open(warm_path, "rb") as fh:
            assert fh.read() == cold == save_index_oracle(index)
        loaded = load_index(path)
        assert index == loaded and loaded.contributions == {}
        for term, pairs in index.contributions.items():
            assert [doc_id for doc_id, _ in pairs] == sorted(
                {doc_id for doc_id, _, _ in index.postings[term]})

    def test_threads_sharing_a_cold_index_get_the_oracle_results(self,
                                                                 stopwords):
        """Threads that fill the same terms at once store equal lists, so
        each sees the results a lone caller sees."""
        corpus = make_corpus(FIVE_DOC_ROWS, stopwords)
        query_seq = [title for _, title, _ in FIVE_DOC_ROWS] * 3
        expected = [search_uncached_oracle(build_index(corpus, {}), q)
                    for q in query_seq]
        index = build_index(corpus, {})
        got = {}

        def worker(i):
            got[i] = [search(index, q) for q in query_seq]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == {i: expected for i in range(8)}
