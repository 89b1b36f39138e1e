import contextlib
import gc
import heapq
import inspect
import json
import math
import os
import random
import re
import sys
import tempfile
import threading
from array import array
from collections import Counter, defaultdict
from functools import partial
from importlib import resources

import pytest
from hypothesis import event, example, given, settings, strategies as st

import kpindex.cli as cli
import kpindex.corpus as corpus_module
import kpindex.index as index_module
import kpindex.ranking as ranking_module
import kpindex.similarity as similarity_module

from kpindex import (Config, ConfigError, Corpus, TfidfSimilarity,
                     build_index, evaluate_corpus, extract_pipeline,
                     load_corpus, load_index, save_index, search)
from kpindex.corpus import Document, load_stopwords
from kpindex.errors import DataError
from kpindex.graph import Origin
from kpindex.index import (B, FIELD_KP_ABSENT, FIELD_KP_PRESENT, FIELD_TEXT,
                           FIELD_WEIGHTS, FIELDS, K1, MAX_COUNT,
                           InvertedIndex, Postings, query_terms)
from kpindex.ranking import RankedKeyphrase

from conftest import (canonical_payload, index_file_bytes, kept_and_peak,
                      make_corpus, nested_json, write_payload)

SAMPLE100 = str(resources.files("kpindex").joinpath("data/sample100.jsonl"))
CODE_FIELDS = sorted(FIELDS)  # a field's code is its place here


def columns(rows, doc_lengths):
    """A term's (doc id, field, weight) rows as Postings columns: a
    document's row is its place in sorted(doc_lengths), a field's code its
    place in sorted(FIELDS). A document not in doc_lengths gets row
    len(doc_lengths), a field not in FIELDS code 3, so that the
    constructor names them."""
    row_of = {doc_id: row for row, doc_id in enumerate(sorted(doc_lengths))}
    return Postings(
        array("i", [row_of.get(doc_id, len(row_of)) for doc_id, _, _ in rows]),
        bytes(CODE_FIELDS.index(f) if f in FIELDS else 3 for _, f, _ in rows),
        array("d", [weight for _, _, weight in rows]))


def hand_index(postings, doc_lengths, config=None):
    """An index made by hand from {term: (doc id, field, weight) rows}, the
    layout postings had before they became columns."""
    return InvertedIndex({term: columns(rows, doc_lengths)
                          for term, rows in postings.items()},
                         doc_lengths, {} if config is None else config)


def rows_of(index, term):
    """A term's postings as (doc id, field, weight) rows."""
    plist = index.postings[term]
    return [(index.doc_ids[row], CODE_FIELDS[code], weight)
            for row, code, weight in zip(plist.rows, plist.codes,
                                         plist.weights)]


def extract_all(corpus, cfg):
    provider = TfidfSimilarity(corpus)
    return {doc_id: extract_pipeline(doc_id, corpus, cfg, provider)
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
            entries = [p for p in rows_of(index, stem_)
                       if p[0] == "a" and p[1] == FIELD_TEXT]
            assert len(entries) == 1
            assert entries[0][2] > 0

    def test_absent_keyphrase_stems_land_in_absent_field(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0, top_n=15).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        for stem_ in ("semant", "index"):
            fields = {p[1] for p in rows_of(index, stem_) if p[0] == "a"}
            assert FIELD_KP_ABSENT in fields
            assert FIELD_TEXT not in fields

    def test_present_keyphrase_stems_land_in_present_field(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        fields = {p[1] for p in rows_of(index, "graph") if p[0] == "a"}
        assert fields == {FIELD_TEXT, FIELD_KP_PRESENT}

    def test_no_duplicate_doc_field_entries(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        index = build_index(two_doc_corpus, extract_all(two_doc_corpus, cfg),
                            cfg.to_dict())
        for term in index.postings:
            pairs = [(doc_id, field)
                     for doc_id, field, _ in rows_of(index, term)]
            assert pairs == sorted(pairs)
            assert len(pairs) == len(set(pairs))


PAST_CAP = math.nextafter(MAX_COUNT, math.inf)  # the first float above 2**53


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

    @pytest.mark.parametrize("config, error", [
        ({"x": {1, 2}}, "value of type set is not a JSON value"),
        ({"x": (1, 2)}, "value of type tuple is not a JSON value"),
        ({"x": [{"y": b"z"}]}, "value of type bytes is not a JSON value"),
        ({("a", 1): 1}, "key of type tuple is not a str"),
        ({1: 2}, "key 1 is not a str"),
        ({"a": 2, 1: 1}, "key 1 is not a str"),
        ({"x": {None: 1}}, "key of type NoneType is not a str"),
        ({"x": math.nan}, "value nan is not finite"),
        ({"x": [-math.inf]}, "value -inf is not finite"),
    ], ids=["set", "tuple", "bytes", "tuple-key", "int-key", "mixed-keys",
            "none-key", "nan", "infinity"])
    def test_config_json_cannot_give_back_equal_is_refused(self, config,
                                                          error):
        """JSON would write such a config as another value (a tuple as a
        list, an int key as a str) or not at all."""
        with pytest.raises(DataError, match=f"^'config': {re.escape(error)}$"):
            InvertedIndex({}, {}, config)

    @pytest.mark.parametrize("kind, error", [
        ("cycle", "Circular reference detected"),
        ("deep", "maximum recursion depth exceeded"),
    ])
    def test_config_json_cannot_write_is_refused_at_save(self, tmp_path,
                                                         kind, error):
        """The constructor walks a cycle once and a deep config without
        recursion; save refuses both, with no file left."""
        config = {}
        if kind == "cycle":
            config["self"] = config
        else:
            inner = config
            for _ in range(100_000):
                inner["n"] = inner = {}
        index = InvertedIndex({}, {}, config)
        with pytest.raises(DataError, match=f"^'config': not a JSON value "
                                            f"\\({re.escape(error)}"):
            save_index(index, str(tmp_path / "c.kpix"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("payload, field", [
        ({"postings": {}}, "doc_lengths"),
        ({"doc_lengths": [], "postings": {}}, "doc_lengths"),
        ({"doc_lengths": {"a": {"text": 1.0}}, "postings": {}}, "doc_lengths"),
        ({"doc_lengths": {}}, "postings"),
        ({"doc_lengths": {}, "postings": {"x": [["a", "text", 1.0]]}},
         "postings"),
        ({"doc_lengths": {"a": {"text": 1, "kp_present": 0, "kp_absent": 0}},
          "postings": {"x": [["a", "title", 1.0]]}}, "postings"),
        ({"doc_lengths": {}, "postings": {"x": ""}}, "postings"),
        ({"doc_lengths": {"a": text_lengths(math.nan)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(math.inf)}, "postings": {}},
         "doc_lengths"),
        ({"doc_lengths": {"a": text_lengths(-1.0)}, "postings": {}},
         "doc_lengths"),
        # the constructor refuses a weight out of range before load's sum
        # rule would see that it cannot sum to the length 1.0
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

    def test_payload_that_is_no_object_is_corrupt(self, tmp_path):
        path = tmp_path / "c.kpix"
        path.write_bytes(index_file_bytes(b'[{"doc_lengths": {}}]'))
        path = str(path)
        with pytest.raises(DataError, match=": corrupt index payload$"):
            load_index(path)

    @given(st.lists(st.tuples(st.sampled_from("abé"), st.sampled_from(FIELDS),
                              st.integers(1, 9).map(float)), max_size=12))
    @example([("b", FIELD_TEXT, 1.0), ("a", FIELD_KP_ABSENT, 2.0),
              ("b", FIELD_KP_PRESENT, 5.0), ("a", FIELD_TEXT, 4.0),
              ("b", FIELD_TEXT, 3.0), ("a", FIELD_KP_PRESENT, 6.0)])
    @example([("a", FIELD_KP_ABSENT, 2.0), ("a", FIELD_TEXT, 4.0),
              ("é", FIELD_KP_PRESENT, 6.0)])
    @settings(max_examples=200, deadline=None)
    def test_constructor_takes_only_postings_in_doc_and_field_order(self,
                                                                    rows):
        """Columns that strictly increase in (row, code), which is (doc
        id, field) order, are kept as given, the caller's own Postings;
        any other order, a repeated pair included, is refused at the first
        posting that breaks it."""
        lengths = {doc_id: text_lengths(0.0) for doc_id in "abé"}
        plist = columns(rows, lengths)
        pairs = [(doc_id, field) for doc_id, field, _ in rows]
        if all(a < b for a, b in zip(pairs, pairs[1:])):
            index = InvertedIndex({"x": plist}, lengths)
            assert index.postings["x"] is plist
            assert rows_of(index, "x") == rows
        else:
            i = next(i for i in range(1, len(pairs))
                     if pairs[i] <= pairs[i - 1])
            doc_id, field = pairs[i]
            with pytest.raises(DataError, match=(
                    f"^'postings': term 'x': document {doc_id!r}: field "
                    f"{field!r}: not after the previous posting's")):
                InvertedIndex({"x": plist}, lengths)
        assert plist == columns(rows, lengths)

    def test_lengths_that_sum_the_postings_load(self, tmp_path):
        path = write_payload(tmp_path / "c.kpix", {
            "doc_lengths": {"a": text_lengths(3), "b": text_lengths(0.75)},
            "postings": {"graph": [["a", "text", 2.0], ["b", "text", 0.5]],
                         "rank": [["a", "text", 1.0], ["b", "text", 0.25]]}})
        index = load_index(path)
        assert index.doc_lengths["a"] == text_lengths(3.0)
        assert sorted(doc_id for doc_id, _ in search(index, "graph")) == ["a", "b"]

    @pytest.mark.parametrize("weights, length, loads", [
        ([0.1, 0.2, 0.3], 0.6, True),
        ([0.1, 0.2, 0.3], 0.1 + 0.2 + 0.3, False),
        ([MAX_COUNT - 2, 1.0, 1.0], MAX_COUNT, True),
        ([MAX_COUNT, 1.0, 1.0], MAX_COUNT, False),
    ], ids=["fractions", "fractions-summed-in-turn", "integers-to-the-cap",
            "integers-past-the-cap"])
    def test_sum_rule_is_fsum_not_a_running_sum(self, tmp_path, weights,
                                                length, loads):
        """A length must be the fsum of its weights, one per term here,
        even where adding them in turn rounds."""
        path = write_payload(tmp_path / "c.kpix", {
            "doc_lengths": {"a": text_lengths(length)},
            "postings": {f"t{i}": [["a", "text", weight]]
                         for i, weight in enumerate(weights)}})
        if loads:
            assert load_index(path).doc_lengths["a"][FIELD_TEXT] == length
        else:
            with pytest.raises(DataError, match="'text': not the fsum of its "
                                                "weights$"):
                load_index(path)


def huge_kp_present_index_parts():
    """Postings and lengths of three documents matching "graph"; a's
    kp_present weight of 1.7e308 is finite, but 1.5x it is not."""
    lengths = {"a": {FIELD_TEXT: 0.0, FIELD_KP_PRESENT: 1.7e308,
                     FIELD_KP_ABSENT: 0.0},
               "b": text_lengths(1.0), "c": text_lengths(1.0)}
    postings = {"graph": [("a", FIELD_KP_PRESENT, 1.7e308),
                          ("b", FIELD_TEXT, 1.0), ("c", FIELD_TEXT, 1.0)]}
    return postings, lengths


class TestNumberRanges:
    """A field length must lie in [0, 2**53] and a posting weight in
    (0, 2**53]: 2**53 is the largest count a float holds exactly, and the
    cap keeps every BM25 contribution finite and >= 0. The constructor
    checks lengths before weights and names the document and field."""

    def test_built_index_names_document_and_field(self):
        postings, lengths = huge_kp_present_index_parts()
        with pytest.raises(DataError, match="document 'a': field "
                                            "'kp_present'"):
            hand_index(postings, lengths)

    def test_index_file_is_refused_at_load(self, tmp_path):
        postings, lengths = huge_kp_present_index_parts()
        path = write_payload(tmp_path / "c.kpix",
                             {"doc_lengths": lengths, "postings": postings})
        with pytest.raises(DataError, match="document 'a': field "
                                            "'kp_present'"):
            load_index(path)

    def test_counts_at_the_cap_are_kept_and_score_finitely(self):
        """2**53 in every field, as length and as weight, and the smallest
        positive float as a weight."""
        lengths = {"a": {f: MAX_COUNT for f in FIELDS},
                   "b": text_lengths(1.0), "c": text_lengths(1.0),
                   "d": text_lengths(0.0)}
        postings = {"graph": [("a", f, MAX_COUNT) for f in sorted(FIELDS)]
                    + [("b", FIELD_TEXT, 1.0), ("c", FIELD_TEXT, 1.0),
                       ("d", FIELD_KP_ABSENT, 5e-324)]}
        index = hand_index(postings, lengths)
        assert all(math.isfinite(norm) for norm in index.norms)
        hits = search(index, "graph", top_n=4)
        assert [doc_id for doc_id, _ in hits] == ["a", "b", "c", "d"]
        assert all(math.isfinite(score) and score >= 0.0 for _, score in hits)
        assert hits == search_oracle(index, "graph", 4)
        assert search(index, "graph", 1) == hits[:1]

    @pytest.mark.parametrize("field", FIELDS)
    def test_length_past_the_cap_is_refused(self, field):
        lengths = text_lengths(0.0)
        lengths[field] = PAST_CAP
        with pytest.raises(DataError, match=f"^'doc_lengths': document 'a': "
                                            f"field '{field}': length"):
            InvertedIndex({}, {"a": lengths, "b": text_lengths(1.0)})

    @pytest.mark.parametrize("field", FIELDS)
    def test_weight_past_the_cap_is_refused(self, field):
        lengths = {f: MAX_COUNT for f in FIELDS}
        with pytest.raises(DataError, match=f"^'postings': term 'graph': "
                                            f"document 'a': field "
                                            f"'{field}': weight"):
            hand_index({"graph": [("a", field, PAST_CAP),
                                  ("b", FIELD_TEXT, 1.0)]},
                       {"a": lengths, "b": text_lengths(1.0)})

    @pytest.mark.parametrize("weight", [math.nan, -math.inf, math.inf, 0.0,
                                        -0.0, PAST_CAP])
    def test_weight_between_valid_ones_is_refused(self, weight):
        """The smallest and largest weight of a term are in range, and the
        weight between them is not."""
        with pytest.raises(DataError, match="^'postings': term 'graph': "
                                            "document 'b': field 'text': "
                                            "weight "):
            hand_index({"graph": [("a", FIELD_TEXT, 1.0),
                                  ("b", FIELD_TEXT, weight),
                                  ("c", FIELD_TEXT, 2.0)]},
                       {doc_id: text_lengths(1.0) for doc_id in "abc"})

    def test_lengths_are_checked_before_weights(self):
        lengths = {"a": text_lengths(1.0), "b": text_lengths(PAST_CAP)}
        with pytest.raises(DataError, match="^'doc_lengths': document 'b': "
                                            "field 'text': length"):
            hand_index({"graph": [("a", FIELD_TEXT, -1.0)]}, lengths)


class TestUnknownDocumentOrField:
    """A posting must name a document of doc_lengths and a field of
    FIELDS. The constructor names the term, the document (by its row when
    the row is out of range) and the field (by its code when the code is
    out of range); a file holding such a posting is refused at load, in
    its postings."""

    CASES = [
        ({"graph": [("a", FIELD_TEXT, 1.0), ("zz", FIELD_TEXT, 1.0)]},
         "^'postings': term 'graph': document row 1: field 'text': document "
         "not in doc_lengths$"),
        ({"graph": [("a", FIELD_TEXT, 1.0)], "rank": [("a", "title", 1.0)]},
         "^'postings': term 'rank': document 'a': field code 3: field not "
         "in FIELDS$"),
    ]

    @pytest.mark.parametrize("postings, error", CASES,
                             ids=["document", "field"])
    def test_hand_built_index_is_refused(self, postings, error):
        with pytest.raises(DataError, match=error):
            hand_index(postings, {"a": text_lengths(1.0)})

    @pytest.mark.parametrize("postings, _", CASES, ids=["document", "field"])
    def test_index_file_is_refused_at_load(self, tmp_path, postings, _):
        path = write_payload(tmp_path / "c.kpix",
                             {"doc_lengths": {"a": text_lengths(1.0)},
                              "postings": postings})
        with pytest.raises(DataError, match="field 'postings' is missing or "
                                            "malformed"):
            load_index(path)


class TestOneRule:
    """The constructor refuses every index that load_index refuses, but
    for load's sum rule: each case was accepted by the constructor, or
    raised a bare KeyError, before the constructor held the whole rule.
    A file holding the case is refused with the same message after its
    path."""

    CASES = {
        "repeated-pair": (
            {"x": [("a", FIELD_TEXT, 1.0), ("a", FIELD_TEXT, 1.0)]},
            {"a": text_lengths(2.0)},
            "'postings': term 'x': document 'a': field 'text': not after "
            r"the previous posting's \(doc id, field\)$"),
        "out-of-order": (
            {"x": [("b", FIELD_TEXT, 1.0), ("a", FIELD_TEXT, 1.0)]},
            {"a": text_lengths(1.0), "b": text_lengths(1.0)},
            "'postings': term 'x': document 'a': field 'text': not after "),
        "fields-out-of-order": (
            {"x": [("a", FIELD_TEXT, 1.0), ("a", FIELD_KP_ABSENT, 1.0)]},
            {"a": {**text_lengths(1.0), FIELD_KP_ABSENT: 1.0}},
            "'postings': term 'x': document 'a': field 'kp_absent': not "
            "after "),
        "negative-weight": (
            {"x": [("a", FIELD_TEXT, -1.0)]}, {"a": text_lengths(1.0)},
            "'postings': term 'x': document 'a': field 'text': weight -1.0 "
            r"not in \(0, 2\*\*53\]$"),
        "missing-lengths": (
            {}, {"a": {FIELD_TEXT: 1.0}},
            "'doc_lengths': document 'a': the length map does not name "
            "exactly "),
        "extra-length": (
            {}, {"a": {**text_lengths(0.0), "title": 0.0}},
            "'doc_lengths': document 'a': the length map does not name "
            "exactly "),
        "lengths-not-a-map": (
            {}, {"a": [1.0, 0.0, 0.0]},
            "'doc_lengths': document 'a': the length map does not name "
            "exactly "),
        "bool-length": (
            {}, {"a": text_lengths(False)},
            "'doc_lengths': document 'a': field 'text': length of type bool "),
        "huge-length": (
            {}, {"a": text_lengths(1e300)},
            r"'doc_lengths': document 'a': field 'text': length 1e\+300 "
            r"not in \[0, 2\*\*53\]$"),
    }

    @pytest.mark.parametrize("postings, lengths, error", CASES.values(),
                             ids=CASES.keys())
    def test_constructor_refuses(self, postings, lengths, error):
        with pytest.raises(DataError, match="^" + error):
            hand_index(postings, lengths)

    @pytest.mark.parametrize("postings, lengths, error", CASES.values(),
                             ids=CASES.keys())
    def test_load_refuses_naming_the_file(self, tmp_path, postings, lengths,
                                          error):
        path = write_payload(tmp_path / "c.kpix",
                             {"doc_lengths": lengths, "postings": postings})
        with pytest.raises(DataError, match=f"^{re.escape(path)}: {error}"):
            load_index(path)

    @pytest.mark.parametrize("postings, lengths, error", [
        ({"x": [(1, FIELD_TEXT, 1.0)]}, {1: text_lengths(1.0)},
         "'doc_lengths': document id 1 is not a str"),
        ({}, {"a": text_lengths(0.0), None: text_lengths(0.0)},
         "'doc_lengths': document id of type NoneType is not a str"),
        ({1: [("a", FIELD_TEXT, 1.0)]}, {"a": text_lengths(1.0)},
         "'postings': term 1 is not a str"),
        ({"x": [], ("x",): []}, {},
         "'postings': term of type tuple is not a str"),
    ], ids=["int-id", "none-id", "int-term", "tuple-term"])
    def test_ids_and_terms_that_are_no_str_are_refused(self, postings,
                                                       lengths, error):
        """JSON names are strings: such an index saved to a file that
        load refused, or that loaded unequal."""
        with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
            hand_index(postings, lengths)

    @pytest.mark.parametrize("weight", [True, "1", None, [1.0], 1, 2**53 + 1,
                                        10**400],
                             ids=["bool", "str", "null", "array", "int",
                                  "inexact-int", "huge-int"])
    def test_load_refuses_weights_no_column_holds(self, tmp_path, weight):
        """A weights column holds floats, and save_index writes each as a
        JSON float: a file's weight must be one, never an integer."""
        path = write_payload(tmp_path / "c.kpix", {
            "doc_lengths": {"a": text_lengths(1.0)},
            "postings": {"x": [["a", FIELD_TEXT, weight]]}})
        with pytest.raises(DataError, match=f"^{re.escape(path)}: index "
                                            f"payload field 'postings' is "
                                            f"missing or malformed$"):
            load_index(path)

    @pytest.mark.parametrize("plist", [
        [("a", FIELD_TEXT, 1.0)],
        Postings([0], b"\x02", array("d", [1.0])),
        Postings(array("l", [0]), b"\x02", array("d", [1.0])),
        Postings(array("i", [0]), bytearray(b"\x02"), array("d", [1.0])),
        Postings(array("i", [0]), [2], array("d", [1.0])),
        Postings(array("i", [0]), b"\x02", array("f", [1.0])),
        Postings(array("i", [0]), b"\x02", [1.0]),
        Postings(array("i", [0, 0]), b"\x02", array("d", [1.0])),
        Postings(array("i", [0]), b"\x01\x02", array("d", [1.0])),
        Postings(array("i", [0]), b"\x02", array("d", [1.0, 2.0])),
    ], ids=["tuples", "list-rows", "int64-rows", "bytearray-codes",
            "list-codes", "float32-weights", "list-weights",
            "rows-longer-than-codes", "codes-longer-than-rows",
            "weights-longer-than-rows"])
    def test_postings_that_are_no_columns_are_refused(self, plist):
        """Other containers would save, but load back unequal."""
        with pytest.raises(DataError, match="^'postings': term 'x': not a "
                                            "Postings of "):
            InvertedIndex({"x": plist}, {"a": text_lengths(1.0)})

    @pytest.mark.parametrize("rows, codes, error", [
        ([-1], b"\x02", "document row -1: field 'text': document not in "),
        ([0, 1], b"\x02\x02", "document row 1: field 'text': document not "),
        ([0], b"\x07", "document 'a': field code 7: field not in FIELDS$"),
    ], ids=["negative-row", "row-past-the-end", "code-past-the-end"])
    def test_rows_and_codes_out_of_range_are_named_by_number(self, rows,
                                                            codes, error):
        plist = Postings(array("i", rows), codes, array("d", [1.0] * len(rows)))
        with pytest.raises(DataError, match=f"^'postings': term 'x': {error}"):
            InvertedIndex({"x": plist}, {"a": text_lengths(1.0)})

    def test_config_that_is_no_dict_is_refused(self, tmp_path):
        with pytest.raises(DataError, match="^'config': not a dict$"):
            InvertedIndex({}, {}, [1])
        path = write_payload(tmp_path / "c.kpix", {
            "config": [1], "doc_lengths": {}, "postings": {}})
        with pytest.raises(DataError, match=f"^{re.escape(path)}: 'config': "
                                            f"not a dict$"):
            load_index(path)

    def test_constructor_leaves_its_arguments_unchanged(self):
        """It once sorted each caller's postings list in place."""
        rows = [("a", FIELD_KP_ABSENT, 2.0), ("a", FIELD_TEXT, 1.0),
                ("b", FIELD_TEXT, 3)]
        lengths = {"a": {**text_lengths(1.0), FIELD_KP_ABSENT: 2.0},
                   "b": text_lengths(3)}
        plist = columns(rows, lengths)
        postings = {"x": plist, "y": columns([], lengths)}
        before = repr([postings, lengths])
        index = InvertedIndex(postings, lengths)
        assert index.postings is postings and postings["x"] is plist
        assert repr([postings, lengths]) == before
        assert index.doc_lengths is lengths
        assert type(lengths["b"][FIELD_TEXT]) is int
        backwards = columns(rows[::-1], lengths)
        with pytest.raises(DataError, match="not after"):
            InvertedIndex({"x": backwards}, lengths)
        assert backwards == columns(rows[::-1], lengths)


def spread_index(n_docs, n_terms):
    """An index whose document i lists term j in TEXT when i + j is even
    and in KP_ABSENT when i + j is a multiple of 7, with non-ASCII ids."""
    postings = defaultdict(list)
    lengths = {}
    for i in range(n_docs):
        doc_id = f"dé-{i:05d}"
        lengths[doc_id] = text_lengths(0.0)
        for j in range(n_terms):
            for field, step in ((FIELD_KP_ABSENT, 7), (FIELD_TEXT, 2)):
                if (i + j) % step == 0:
                    weight = float(1 + (i * j) % 3)
                    postings[f"term{j:04d}"].append((doc_id, field, weight))
                    lengths[doc_id][field] += weight
    return hand_index(dict(postings), lengths)


def wide_corpus(stopwords, n_docs, n_words):
    """Documents over invented words, document i holding word j when
    i + j is even."""
    letters = "bcdfghklmnprtvz"
    words = [f"qu{a}o{b}" for a in letters for b in letters][:n_words]
    return make_corpus([(f"dé-{i:05d}", "", " ".join(
        w for j, w in enumerate(words) if (i + j) % 2 == 0) + ".")
                        for i in range(n_docs)], stopwords)


class TestColumns:
    """Built and loaded indexes hold each term's postings as an array('i')
    of rows, a bytes of field codes and an array('d') of weights, and map a
    row to the doc id string that doc_lengths holds."""

    def test_built_and_loaded_postings_are_columns(self, tmp_path, stopwords):
        corpus = wide_corpus(stopwords, 40, 30)
        keyphrases = {doc_id: [RankedKeyphrase("quboc", "quboc", 1.0,
                                               Origin.ABSENT)]
                      for doc_id in corpus.ids()[::3]}
        built = build_index(corpus, keyphrases)
        path = str(tmp_path / "c.kpix")
        save_index(built, path)
        loaded = load_index(path)
        assert loaded == built
        assert set(rows_of(built, "quboc")) > {
            (doc_id, FIELD_KP_ABSENT, 1.0) for doc_id in keyphrases}
        for index in (built, loaded):
            assert index.doc_ids == sorted(index.doc_lengths)
            keys = {doc_id: doc_id for doc_id in index.doc_lengths}
            assert all(doc_id is keys[doc_id] for doc_id in index.doc_ids)
            assert sum(map(len, index.postings.values())) > 500
            for plist in index.postings.values():
                assert type(plist) is Postings
                assert (type(plist.rows), plist.rows.typecode) == (array, "i")
                assert type(plist.codes) is bytes
                assert ((type(plist.weights), plist.weights.typecode)
                        == (array, "d"))
                assert (len(plist) == len(plist.rows) == len(plist.codes)
                        == len(plist.weights) > 0)

    def test_build_keeps_few_bytes_per_posting(self, stopwords):
        """The built index keeps about 16 bytes per posting here: 13 in
        its columns, the rest per term and per document. A (doc id, field,
        weight) tuple per posting kept about 98."""
        corpus = wide_corpus(stopwords, 500, 200)
        index, kept, _ = kept_and_peak(lambda: build_index(corpus, {}))
        n_postings = sum(map(len, index.postings.values()))
        assert n_postings >= 50_000
        assert kept / n_postings < 40

    def test_load_peaks_and_keeps_few_bytes_per_posting(self, tmp_path):
        """The loaded index keeps about 17 bytes per posting here, where a
        (doc id, field, weight) tuple per posting kept about 98. Past what
        the index keeps, load peaks at about 1.2 times the file size, mostly
        the payload text; decoding the whole payload before making any
        posting peaked at about 6.5 times."""
        path = str(tmp_path / "c.kpix")
        save_index(spread_index(400, 200), path)
        index, kept, peak = kept_and_peak(lambda: load_index(path))
        n_postings = sum(map(len, index.postings.values()))
        assert n_postings >= 50_000
        assert kept / n_postings < 40
        assert peak - kept <= 2 * os.path.getsize(path)


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
    return hand_index({"graph": [("a", FIELD_TEXT, 2.0)]},
                      {"a": text_lengths(2.0)}, {"top_n": 10})


class TestCollectorPause:
    """The package's bulk entry points run with the cyclic garbage
    collector paused, through the one helper corpus.collector_paused, and
    give its previous state back whether they return or raise. The CLI
    pauses around each command, since _extract_all calls the stages
    itself. save_index and the queries (search, neighbors) are not
    paused: they ran no faster without the collector."""

    @pytest.mark.parametrize("blob, error", [
        (None, None),
        (b"NOPE" + bytes(20), "bad magic"),
        (index_file_bytes(b"{}")[:-1], "truncated"),
        (index_file_bytes(b"{not json"), "corrupt index payload"),
        (index_file_bytes(b"\xff"), "corrupt index payload"),
        (index_file_bytes(canonical_payload({"postings": {}})),
         "'doc_lengths'"),
        (index_file_bytes(canonical_payload(
            {"doc_lengths": {"a": text_lengths(1.0)},
             "postings": {"x": [["a", "text", 10**400]]}})), "'postings'"),
        (index_file_bytes(b'{"config": {"n": ' + nested_json().encode()
                          + b'}}'), "nested too deeply"),
    ], ids=["valid", "bad-magic", "truncated", "corrupt", "invalid-utf8",
            "no-doc-lengths", "overflow", "nested"])
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

    @pytest.mark.parametrize("call, error", [
        (lambda tmp: load_corpus(SAMPLE100), None),
        (lambda tmp: load_corpus(corpus_file(tmp, '{"id": "a", "title": "t", '
                                             '"abstract": ""}\n{not json\n')),
         (DataError, "^line 2: invalid JSON")),
        (lambda tmp: TfidfSimilarity(pause_corpus()), None),
        (lambda tmp: TfidfSimilarity(Corpus([], [])),
         (DataError, "^empty corpus$")),
        (lambda tmp: extract_pipeline("a", pause_corpus(), Config(),
                                      TfidfSimilarity(pause_corpus())), None),
        (lambda tmp: extract_pipeline("zz", pause_corpus(), Config(),
                                      TfidfSimilarity(pause_corpus())),
         (KeyError, "unknown document id zz")),
        (lambda tmp: build_index(pause_corpus(), {}), None),
        (lambda tmp: build_index(pause_corpus(), {}, {1: 2}),
         (DataError, "key 1 is not a str")),
        (lambda tmp: save_index(small_index(), str(tmp / "c.kpix")), None),
        (lambda tmp: save_index(hand_index(
            {"graph": [("a\ud800", FIELD_TEXT, 2.0)]},
            {"a\ud800": text_lengths(2.0)}), str(tmp / "c.kpix")),
         (DataError, "^index text is not valid UTF-8")),
        (lambda tmp: cli.main(["extract", corpus_file(tmp, PAUSE_RECORDS)]),
         0),
        (lambda tmp: cli.main(["extract", corpus_file(tmp, "{not json\n")]),
         2),
        (lambda tmp: cli.main(["extract", corpus_file(tmp, PAUSE_RECORDS),
                               "--damping", "1.5"]), 1),
    ], ids=["load_corpus", "load_corpus-bad-line", "TfidfSimilarity",
            "TfidfSimilarity-empty", "extract_pipeline",
            "extract_pipeline-unknown-id", "build_index",
            "build_index-bad-config", "save_index", "save_index-surrogate-id",
            "main", "main-data-error",
            "main-config-error"])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_restores_collector_state(self, tmp_path, capsys, call, error,
                                      enabled):
        """`error` is the exception and message a call raises, or the exit
        code main returns: main reports a DataError (2) or a ConfigError
        (1) after the pause around its command has ended. save_index is
        not paused, and leaves the collector as it found it too."""
        with collector(enabled):
            if isinstance(error, tuple):
                with pytest.raises(error[0], match=error[1]):
                    call(tmp_path)
            else:
                returned = call(tmp_path)
                assert error is None or returned == error
            assert gc.isenabled() is enabled

    def test_main_restores_collector_state_after_any_error(self, tmp_path,
                                                           monkeypatch):
        def broken(*args):
            raise RuntimeError("a bug")
        monkeypatch.setattr(cli, "build_enriched_graph", broken)
        with collector(True):
            with pytest.raises(RuntimeError, match="a bug"):
                cli.main(["extract", corpus_file(tmp_path, PAUSE_RECORDS)])
            assert gc.isenabled()

    @pytest.mark.parametrize("prepare, owner, name", [
        (lambda tmp: partial(load_corpus, SAMPLE100), corpus_module, "Corpus"),
        (lambda tmp: partial(TfidfSimilarity, pause_corpus()),
         similarity_module, "compute_idf"),
        (lambda tmp: partial(extract_pipeline, "a", pause_corpus(), Config(),
                             TfidfSimilarity(pause_corpus())),
         ranking_module, "pagerank"),
        (lambda tmp: partial(build_index, pause_corpus(), {}), index_module,
         "InvertedIndex"),
        (lambda tmp: partial(load_index, saved(tmp, small_index())),
         index_module, "InvertedIndex"),
        (lambda tmp: partial(cli.main, ["extract", corpus_file(
            tmp, PAUSE_RECORDS)]), cli, "build_enriched_graph"),
    ], ids=["load_corpus", "TfidfSimilarity", "extract_pipeline",
            "build_index", "load_index", "main"])
    def test_collector_is_off_inside(self, tmp_path, capsys, monkeypatch,
                                     prepare, owner, name):
        """A spy on one step inside the entry point sees the collector off.
        The CLI's spy is a stage that _extract_all calls itself, outside
        every paused library function."""
        call, original, seen = prepare(tmp_path), getattr(owner, name), []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
        with collector(True):
            call()
            assert gc.isenabled()
        assert seen and not any(seen)

    def test_the_pause_defers_no_garbage(self, tmp_path):
        """The pause's premise: sample100 through every bulk entry point,
        save_index and the queries makes no reference cycle, so with the
        collector off throughout, a collection afterwards finds
        nothing."""
        path = str(tmp_path / "c.kpix")
        gc.collect()
        with collector(False):
            corpus = load_corpus(SAMPLE100)
            provider = TfidfSimilarity(corpus)
            cfg = Config()
            extracted = {doc_id: extract_pipeline(doc_id, corpus, cfg,
                                                  provider)
                         for doc_id in corpus.ids()}
            save_index(build_index(corpus, extracted, cfg.to_dict()), path)
            index = load_index(path)
            for doc in corpus:
                search(index, " ".join(doc.tokens[:8]))
            report = evaluate_corpus(
                corpus, lambda doc: [rk.surface for rk in extracted[doc.id]],
                cfg)
            assert report.macro["all"][10].f1 > 0
            assert gc.collect() == 0

    def test_one_helper_pauses_the_collector(self):
        """Only corpus.collector_paused touches the collector, and every
        paused entry point is wrapped by it and keeps its own signature,
        which test_package.py's stage-input checks read."""
        sources = {path.name: path.read_text("utf-8")
                   for path in resources.files("kpindex").iterdir()
                   if path.name.endswith(".py")}
        assert {name for name, text in sources.items()
                if re.search(r"\bgc\.", text)} == {"corpus.py"}
        assert sources["corpus.py"].count("gc.disable(") == 1
        assert "gc.disable(" in inspect.getsource(
            corpus_module.collector_paused)
        paused = corpus_module.collector_paused(len).__code__
        for fn in PAUSED:
            assert fn.__code__ is paused
            params = inspect.signature(fn).parameters
            assert params == inspect.signature(fn.__wrapped__).parameters
            assert not {p.kind for p in params.values()} & {
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD}
        for fn in (save_index, search, TfidfSimilarity.neighbors,
                   evaluate_corpus, corpus_module.collector_paused):
            assert not hasattr(fn, "__wrapped__")


#: The entry points that pause the collector; cli.main pauses around the
#: command it runs.
PAUSED = [load_corpus, TfidfSimilarity.__init__, extract_pipeline,
          build_index, load_index]

PAUSE_RECORDS = "".join(json.dumps(record) + "\n" for record in [
    {"id": "a", "title": "Graph ranking",
     "abstract": "Graph ranking models rank the nodes of a graph."},
    {"id": "b", "title": "Graph models",
     "abstract": "Ranking models score graph nodes by their links."}])


def pause_corpus():
    return Corpus([Document.build(r["id"], r["title"], r["abstract"])
                   for r in map(json.loads, PAUSE_RECORDS.splitlines())],
                  load_stopwords(None))


def corpus_file(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def saved(tmp_path, index):
    path = str(tmp_path / "c.kpix")
    save_index(index, path)
    return path


def tuple_postings(index):
    """The index's postings as {term: (doc id, field, weight) rows}, the
    layout they had before they became columns."""
    return {term: rows_of(index, term) for term in index.postings}


def save_index_oracle(index):
    """The index file bytes as save_index wrote them when postings were
    (doc id, field, weight) tuples, saved as they were."""
    payload = {
        "format": "kpindex-inverted-index",
        "fields": list(FIELDS),
        "config": index.config,
        "doc_lengths": index.doc_lengths,
        "postings": tuple_postings(index),
    }
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      allow_nan=False)
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


def sorted_postings(weight_of):
    """A postings list from a {(doc id, field): weight} map."""
    return [(doc_id, field, weight_of[doc_id, field])
            for doc_id, field in sorted(weight_of)]


@st.composite
def indexes(draw):
    """Up to four documents and five terms whose postings name only those
    documents, each pair once and in (doc id, field) order, with lengths
    unrelated to the postings."""
    doc_lengths = draw(st.dictionaries(
        names, st.fixed_dictionaries({f: weights for f in FIELDS}),
        max_size=4))
    plists = (st.dictionaries(st.tuples(st.sampled_from(sorted(doc_lengths)),
                                        st.sampled_from(FIELDS)),
                              weights, max_size=4).map(sorted_postings)
              if doc_lengths else st.builds(list))
    postings = draw(st.dictionaries(names, plists, max_size=5))
    config = draw(st.dictionaries(st.text(max_size=4), json_values,
                                  max_size=4))
    return hand_index(postings, doc_lengths, config)


class TestSaveOracle:
    @given(indexes())
    @example(InvertedIndex({}, {}, {}))
    @example(hand_index({"réseau": [("d", FIELD_KP_ABSENT, 3.0),
                                    ("é", FIELD_TEXT, 0.25)]},
                        {"é": text_lengths(0.25), "d": text_lengths(0.0)},
                        {"nested": {"list": [1, 2.5, "ü"]}}))
    @settings(max_examples=200, deadline=None)
    def test_save_writes_the_oracle_bytes(self, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            save_index(index, path)
            with open(path, "rb") as fh:
                assert fh.read() == save_index_oracle(index)

    @given(st.deferred(lambda: summed_indexes()))
    @example(hand_index({"graph": [("a", FIELD_TEXT, 2), ("é", FIELD_KP_ABSENT,
                                                          0.5)]},
                        {"a": text_lengths(2),
                         "é": {**text_lengths(0.0), FIELD_KP_ABSENT: 0.5}}))
    @settings(max_examples=100, deadline=None)
    def test_loaded_index_writes_the_oracle_bytes(self, index):
        loaded = round_trip(index)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            save_index(loaded, path)
            with open(path, "rb") as fh:
                assert fh.read() == save_index_oracle(loaded)
        assert save_index_oracle(loaded) == save_index_oracle(index)


@st.composite
def summed_indexes(draw):
    """An index the constructor accepts whose every field length is the
    fsum of its posting weights, as build_index writes it. Weights are
    ints or floats, small enough that five sum within MAX_COUNT, and an
    integral length may be an int."""
    ids = draw(st.lists(names, max_size=4, unique=True))
    in_range = st.one_of(st.integers(1, 2**50),
                         st.floats(min_value=5e-324, max_value=2.0**50))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(FIELDS))
    plists = (st.dictionaries(pairs, in_range, max_size=4) if ids
              else st.just({}))
    weight_maps = draw(st.dictionaries(names, plists, max_size=5))
    weights = defaultdict(list)
    for weight_of in weight_maps.values():
        for pair, weight in weight_of.items():
            weights[pair].append(weight)
    doc_lengths = {}
    for doc_id in ids:
        doc_lengths[doc_id] = {}
        for f in FIELDS:
            length = math.fsum(weights[doc_id, f])
            if length.is_integer() and draw(st.booleans()):
                length = int(length)
            doc_lengths[doc_id][f] = length
    config = draw(st.dictionaries(st.text(max_size=4), json_values,
                                  max_size=4))
    return hand_index({term: sorted_postings(weight_of)
                       for term, weight_of in weight_maps.items()},
                      doc_lengths, config)


class TestRoundTrip:
    @given(summed_indexes())
    @example(InvertedIndex({}, {}, {}))
    @example(hand_index({"graph": [("a", FIELD_TEXT, 2), ("b", FIELD_TEXT,
                                                             0.5)],
                         "rank": [("a", FIELD_TEXT, 1.0)]},
                        {"a": text_lengths(3), "b": text_lengths(0.5)}))
    @settings(max_examples=200, deadline=None)
    def test_load_gives_back_what_save_wrote(self, index):
        """load_index(save_index(ix)) == ix, and saving the loaded index
        writes the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            first, second = (os.path.join(tmp, name) for name in "ab")
            save_index(index, first)
            loaded = load_index(first)
            assert loaded == index
            save_index(loaded, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()

    @given(st.deferred(lambda: reshaped_parts()))
    @example(({"x": [["a", FIELD_TEXT, 1]]}, {"a": text_lengths(1)}, {}))
    @example(({"x": (("a", FIELD_TEXT, 1.0),)}, {"a": text_lengths(1.0)},
              {1: 2}))
    @example(({}, {}, {"x": (1, 2)}))
    @settings(max_examples=200, deadline=None)
    def test_hand_built_index_round_trips_or_is_refused(self, parts):
        """Whatever shape its rows and numbers had, a hand-built index
        either loads back equal or is refused for its config."""
        try:
            index = hand_index(*parts)
        except DataError as exc:
            assert str(exc).startswith("'config': ")
            event("refused")
            return
        assert round_trip(index) == index
        event("round-trips")


@st.composite
def reshaped_parts(draw):
    """A summed index's (doc id, field, weight) rows, each row a list or a
    tuple, each term's rows a list or a tuple and an integral weight maybe
    an int, with doc_lengths and a config that JSON may not give back
    equal."""
    index = draw(summed_indexes())
    postings = {}
    for term, rows in tuple_postings(index).items():
        shaped = []
        for doc_id, field, weight in rows:
            if weight.is_integer() and draw(st.booleans()):
                weight = int(weight)
            shaped.append(draw(st.sampled_from([tuple, list]))(
                (doc_id, field, weight)))
        postings[term] = draw(st.sampled_from([tuple, list]))(shaped)
    odd_configs = st.dictionaries(
        st.one_of(st.text(max_size=2), st.integers(), st.none()),
        st.one_of(json_values, st.tuples(st.integers()), st.floats(),
                  st.frozensets(st.integers(), max_size=2)), max_size=3)
    config = draw(st.one_of(st.just(index.config), odd_configs))
    return postings, index.doc_lengths, config


# payload parts that are arbitrary JSON, or near-valid shapes holding it
junk_numbers = st.one_of(json_values, weights, st.floats(),
                         st.integers(-2, 2**54), st.just(10**400))
junk_length_maps = st.one_of(
    json_values,
    st.fixed_dictionaries({f: junk_numbers for f in FIELDS}),
    st.dictionaries(st.sampled_from([*FIELDS, "title"]), junk_numbers,
                    max_size=4))
junk_rows = st.one_of(
    json_values,
    st.lists(st.one_of(
        json_values,
        st.tuples(st.one_of(st.sampled_from("ab"), json_values),
                  st.one_of(st.sampled_from(FIELDS), json_values),
                  junk_numbers).map(list)), max_size=3))
junk_doc_lengths = st.dictionaries(st.sampled_from("ab"), junk_length_maps,
                                   max_size=2)
junk_postings = st.dictionaries(names, junk_rows, max_size=3)
junk_payloads = st.one_of(
    st.fixed_dictionaries({}, optional={
        "config": json_values,
        "doc_lengths": st.one_of(json_values, junk_doc_lengths),
        "postings": st.one_of(json_values, junk_postings)}),
    st.fixed_dictionaries({"doc_lengths": junk_doc_lengths,
                           "postings": junk_postings},
                          optional={"config": json_values}))


class TestArbitraryPayloads:
    @given(junk_payloads)
    @example({"doc_lengths": {"a": text_lengths(None)}, "postings": {}})
    @example({"doc_lengths": {"a": text_lengths(1.0)},
              "postings": {"x": [["a", "text", [[1]]]]}})
    @settings(max_examples=300, deadline=None)
    def test_load_returns_an_index_or_raises_data_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            with open(path, "wb") as fh:
                fh.write(index_file_bytes(canonical_payload(payload)))
            try:
                index = load_index(path)
            except DataError as exc:
                assert str(exc).startswith(f"{path}: ")
                event("refused")
            else:
                assert isinstance(index, InvertedIndex)
                event("loaded")


#: the members of an index payload, in the order save_index writes them
PAYLOAD_MEMBERS = ["config", "doc_lengths", "fields", "format", "postings"]


class Pairs(dict):
    """A decoded JSON object, as json.loads makes it, that also keeps its
    (name, value) pairs in order, repeated names included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def decode_payload_oracle(path, text):
    """load_index's payload decoder as one json.loads of the whole payload,
    each object keeping its pairs, then the check of the canonical form,
    member by member and term by term in the order the text holds them,
    with a loop that makes each term's rows columns, one row at a time."""
    try:
        payload = json.loads(text, object_pairs_hook=Pairs)
    except ValueError:
        raise DataError(f"{path}: corrupt index payload") from None
    except RecursionError:
        raise DataError(f"{path}: index payload nested too deeply") from None
    if not isinstance(payload, Pairs):
        raise DataError(f"{path}: corrupt index payload")

    def malformed(part):
        return DataError(f"{path}: index payload field {part!r} is missing "
                         f"or malformed")

    def columns_of(terms, row_of):
        postings, previous = {}, None
        for term, rows in terms.pairs:
            if previous is not None and term <= previous:
                raise DataError(f"{path}: index payload field 'postings': "
                                f"term {term!r} is not after {previous!r}")
            previous = term
            doc_rows, codes, weights = [], [], []
            try:
                if type(rows) is not list:
                    raise TypeError("no rows")
                for doc_id, field, weight in rows:
                    if type(weight) is not float:
                        raise TypeError("no weight")
                    doc_rows.append(row_of[doc_id])
                    codes.append(CODE_FIELDS.index(field))
                    weights.append(weight)
            except (KeyError, TypeError, ValueError):
                raise malformed("postings") from None
            postings[term] = Postings(array("i", doc_rows), bytes(codes),
                                      array("d", weights))
        return postings

    members = {}
    for n, (key, value) in enumerate(payload.pairs):
        if PAYLOAD_MEMBERS[n:n + 1] != [key]:
            expected = (repr(PAYLOAD_MEMBERS[n]) if n < len(PAYLOAD_MEMBERS)
                        else "the end")
            raise DataError(f"{path}: index payload field {key!r} where "
                            f"{expected} belongs")
        if (key in ("doc_lengths", "postings") and not isinstance(value, dict)
                or key == "fields" and value != list(FIELDS)
                or key == "format" and value != "kpindex-inverted-index"):
            raise malformed(key)
        # the terms are checked where they stand, before any later member
        members[key] = value if key != "postings" else columns_of(
            value, {doc_id: row for row, doc_id
                    in enumerate(sorted(members["doc_lengths"]))})
    if len(members) < len(PAYLOAD_MEMBERS):
        raise malformed(PAYLOAD_MEMBERS[len(members)])
    doc_lengths = members["doc_lengths"]
    try:
        index = InvertedIndex(members["postings"], doc_lengths,
                              members["config"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    cells = defaultdict(list)
    for rows in tuple_postings(index).values():
        for doc_id, field, weight in rows:
            cells[doc_id, field].append(weight)
    for doc_id in sorted(doc_lengths):
        for f in FIELDS:
            if math.fsum(cells[doc_id, f]) != doc_lengths[doc_id][f]:
                raise DataError(f"{path}: 'doc_lengths': document {doc_id!r}: "
                                f"field {f!r}: not the fsum of its weights")
    return index


def decoded(decode, text):
    """The repr of the index `decode` makes of `text`, which shows the
    order of every map and the type of every number, or its DataError."""
    try:
        index = decode("c.kpix", text)
    except DataError as exc:
        return f"DataError: {exc}"
    return repr((index.postings, index.doc_lengths, index.config))


class Members(list):
    """A JSON object as a list of (key, value) pairs, so keys may repeat."""


def dump(value, space):
    """JSON text for `value` with `space` on both sides of every
    separator; a Members object may repeat its keys."""
    if isinstance(value, (dict, Members)):
        pairs = value.items() if isinstance(value, dict) else value
        return "{%s%s%s}" % (space, f"{space},{space}".join(
            f"{json.dumps(k)}{space}:{space}{dump(v, space)}"
            for k, v in pairs), space)
    if isinstance(value, (list, tuple)):
        return "[%s%s%s]" % (space, f"{space},{space}".join(
            dump(v, space) for v in value), space)
    return json.dumps(value)


def saved_text(index):
    """The payload text save_index writes for `index`."""
    return save_index_oracle(index)[13:].decode("utf-8")


@st.composite
def payload_texts(draw):
    """A saved index's payload text, or the same members written with
    other whitespace, maybe in another order, with repeated terms and
    repeated doc_lengths or postings members holding a copy or arbitrary
    JSON. All but the saved text and its respacing are refused."""
    index = draw(st.one_of(indexes(), summed_indexes()))
    if draw(st.booleans()):
        return saved_text(index)
    postings = Members(sorted(tuple_postings(index).items()))
    for _ in range(draw(st.integers(0, 3))):
        term = draw(st.sampled_from([t for t, _ in postings])
                    if postings else names)
        rows = draw(st.one_of(st.sampled_from([r for _, r in postings]),
                              junk_rows) if postings else junk_rows)
        postings.insert(draw(st.integers(0, len(postings))), (term, rows))
    members = Members([("config", index.config),
                       ("doc_lengths", index.doc_lengths),
                       ("fields", list(FIELDS)),
                       ("format", "kpindex-inverted-index"),
                       ("postings", postings)])
    if draw(st.booleans()):
        members = Members(draw(st.permutations(members)))
    for _ in range(draw(st.integers(0, 2))):
        key, junk = draw(st.sampled_from([("doc_lengths", junk_doc_lengths),
                                          ("postings", junk_postings)]))
        copy = next(v for k, v in members if k == key)
        value = draw(st.one_of(st.just(copy), junk, json_values))
        members.insert(draw(st.integers(0, len(members))), (key, value))
    return dump(members, draw(st.sampled_from(["", " ", "\n", " \t\r\n "])))


SMALL_TEXT = saved_text(hand_index(
    {"graph": [("a", FIELD_TEXT, 2.0), ("é", FIELD_KP_ABSENT, 1)],
     "rank": [("a", FIELD_TEXT, 0.5)]},
    {"a": text_lengths(2.5), "é": {**text_lengths(0.0), FIELD_KP_ABSENT: 1}},
    {"top_n": 10, "nested": {"list": [1, 2.5, "ü"]}}))


def members_text(postings="{}", tail=""):
    """A payload text of the canonical members around an empty index,
    `postings` being the text of that member's value and `tail` the text
    before the closing brace."""
    return ('{"config": {}, "doc_lengths": {}, "fields": '
            + json.dumps(list(FIELDS))
            + ', "format": "kpindex-inverted-index", "postings": '
            + postings + tail + "}")


class TestDecodeOracle:
    """load_index's term-by-term walk makes the index the whole-payload
    json.loads decoder makes, or raises its DataError message. Both check
    the canonical form in the order the text holds it, so they agree
    exactly on every valid JSON text. On invalid JSON the walk stops at
    the first fault it meets: where a fault of shape comes before the
    syntax error, it names that fault and json.loads the syntax error."""

    @given(payload_texts())
    @example(SMALL_TEXT)
    @example(dump(json.loads(SMALL_TEXT), " "))
    @example(dump(Members([("postings", {"x": [["a", "text", 1.0]]}),
                           ("doc_lengths", {"a": text_lengths(1.0)})]), " "))
    @example(dump(Members([("doc_lengths", []),
                           ("postings", {"x": [["a", "text", 1.0]]}),
                           ("doc_lengths", {"a": text_lengths(1.0)})]), ""))
    @example(members_text(dump(Members([("x", [["a", "text", 1.0]]),
                                        ("x", [["a", "text", 1.0]])]), "")))
    @example(members_text('{"y": [], "x": 1}', ', "postings": {}'))
    @settings(max_examples=400, deadline=None)
    def test_walk_equals_whole_payload_decode(self, text):
        whole = decoded(decode_payload_oracle, text)
        assert decoded(index_module._decode_payload, text) == whole
        assert not whole.startswith("DataError") or whole.startswith(
            "DataError: c.kpix: ")
        event("refused" if whole.startswith("DataError") else "loaded")

    @pytest.mark.parametrize("text", [
        "\ufeff" + SMALL_TEXT,
        SMALL_TEXT.replace("0.5]", "NaN]"),
        SMALL_TEXT.replace("2.5,", "Infinity,"),
        SMALL_TEXT.replace("0.5]", "1" * 5000 + "]"),
        "[" + SMALL_TEXT + "]",
        '{"config": ' + nested_json() + ', "doc_lengths": {}, "postings": {}}',
        members_text('{"x": ' + nested_json() + "}"),
        members_text(nested_json()),
        members_text(tail=", " + nested_json()),
        nested_json(),
        SMALL_TEXT + " x",
        SMALL_TEXT[:-1] + ", }",
        SMALL_TEXT.replace('"graph"', '"graph\n"'),
        members_text() + "\n\t ",
        SMALL_TEXT.replace(', "fields"', ' "fields"'),
        members_text('{"x": []}', ", "),
        members_text('{"x" []}'),
        members_text('{"x": [],}'),
        members_text('{"x": ""}'),
        members_text('{"x": []}', ', "postings": 5'),
        members_text("5", ', "postings": {"x": []}'),
        '{"postings": {"x": [["a", "text", 1]]}}',
        members_text(tail=", 1: 2"),
        "", " ", "{", "{}", "{ }", "null", '"x"',
    ], ids=["bom", "nan-weight", "infinite-length", "huge-int",
            "top-level-array", "nested-config", "nested-rows",
            "nested-postings", "nested-member-name", "nested-top-level",
            "extra-data", "trailing-comma", "control-character",
            "trailing-space", "missing-comma", "trailing-member-comma",
            "missing-colon", "trailing-term-comma", "string-rows",
            "junk-last-postings", "junk-first-postings", "no-doc-lengths",
            "number-member-name", "empty", "space", "open", "empty-object",
            "spaced-empty-object", "null", "string"])
    def test_edge_payloads_equal_the_oracle(self, text):
        assert (decoded(index_module._decode_payload, text)
                == decoded(decode_payload_oracle, text))

    def test_every_cut_of_a_small_payload_equals_the_oracle(self):
        for text in (SMALL_TEXT, dump(json.loads(SMALL_TEXT), " \n")):
            for end in range(len(text) + 1):
                assert (decoded(index_module._decode_payload, text[:end])
                        == decoded(decode_payload_oracle, text[:end])), end

    def test_a_fault_of_shape_hides_a_later_syntax_error(self):
        text = '{"doc_lengths": {}, 1: 2}'
        assert decoded(index_module._decode_payload, text) == (
            "DataError: c.kpix: index payload field 'doc_lengths' where "
            "'config' belongs")
        assert decoded(decode_payload_oracle, text) == (
            "DataError: c.kpix: corrupt index payload")


def canonical_pairs(postings=(("x", [["a", FIELD_TEXT, 1.0]]),)):
    """The members of an index of one document, in the order save_index
    writes them, as (name, value) pairs; `postings` as (term, rows)
    pairs."""
    return [("config", {}), ("doc_lengths", {"a": text_lengths(1.0)}),
            ("fields", list(FIELDS)), ("format", "kpindex-inverted-index"),
            ("postings", Members(postings))]


CANONICAL = canonical_pairs()


class TestCanonicalForm:
    """load_index reads exactly what save_index writes: the members
    config, doc_lengths, fields, format and postings, in that order and
    each once, `format` naming the format, `fields` listing FIELDS in
    order, and strictly increasing terms, each a list of [doc id, field,
    float weight] rows. Any other payload is refused, naming the file and
    the member; each case below but no-postings loaded before the reader
    required that form, as did an int weight (see
    test_load_refuses_weights_no_column_holds)."""

    CASES = {
        "bogus-format": (
            [*CANONICAL[:3], ("format", "bogus"), CANONICAL[4]],
            "index payload field 'format' is missing or malformed$"),
        "no-fields": (
            CANONICAL[:2] + CANONICAL[3:],
            "index payload field 'format' where 'fields' belongs$"),
        "fields-in-another-order": (
            [*CANONICAL[:2], ("fields", sorted(FIELDS)), *CANONICAL[3:]],
            "index payload field 'fields' is missing or malformed$"),
        "members-out-of-order": (
            [CANONICAL[1], CANONICAL[0], *CANONICAL[2:]],
            "index payload field 'doc_lengths' where 'config' belongs$"),
        "repeated-member": (
            [CANONICAL[0], *CANONICAL],
            "index payload field 'config' where 'doc_lengths' belongs$"),
        "member-after-postings": (
            [*CANONICAL, CANONICAL[4]],
            "index payload field 'postings' where the end belongs$"),
        "no-postings": (
            CANONICAL[:4],
            "index payload field 'postings' is missing or malformed$"),
        "repeated-term": (
            canonical_pairs([("x", [["a", FIELD_TEXT, 1.0]])] * 2),
            "index payload field 'postings': term 'x' is not after 'x'$"),
        "terms-out-of-order": (
            canonical_pairs([("y", [["a", FIELD_TEXT, 0.5]]),
                             ("x", [["a", FIELD_TEXT, 0.5]])]),
            "index payload field 'postings': term 'x' is not after 'y'$"),
        "object-rows": (
            canonical_pairs([("x", {}), ("y", [["a", FIELD_TEXT, 1.0]])]),
            "index payload field 'postings' is missing or malformed$"),
    }

    def test_canonical_payload_loads(self, tmp_path):
        path = tmp_path / "c.kpix"
        path.write_bytes(index_file_bytes(
            dump(Members(CANONICAL), " ").encode()))
        assert load_index(str(path)) == hand_index(
            {"x": [("a", FIELD_TEXT, 1.0)]}, {"a": text_lengths(1.0)})

    @pytest.mark.parametrize("members, error", CASES.values(),
                             ids=CASES.keys())
    def test_other_payloads_are_refused(self, tmp_path, members, error):
        path = tmp_path / "c.kpix"
        path.write_bytes(index_file_bytes(
            dump(Members(members), " ").encode()))
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}: {error}"):
            load_index(str(path))

    def test_reader_takes_the_members_save_writes_in_sorted_order(
            self, tmp_path, monkeypatch):
        written = []
        dumps = json.dumps

        def spy(payload, **kwargs):
            written.append(list(payload))
            return dumps(payload, **kwargs)
        monkeypatch.setattr(index_module.json, "dumps", spy)
        save_index(small_index(), str(tmp_path / "c.kpix"))
        assert list(index_module._MEMBERS) == sorted(written[0])
        assert index_module._MEMBERS == tuple(PAYLOAD_MEMBERS)


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

    def test_postings_out_of_doc_order_are_refused(self):
        """The constructor no longer sorts, so the order in which a caller
        lists documents cannot reach the scores: only doc id order is
        taken, and the same postings in another order are refused."""
        counts = {"d1": Counter({"graph": 2, "rank": 1}),
                  "d2": Counter({"graph": 1, "text": 3})}

        def index_in_order(doc_ids):
            postings = defaultdict(list)
            for doc_id in doc_ids:
                for term, count in counts[doc_id].items():
                    postings[term].append((doc_id, FIELD_TEXT, float(count)))
            return hand_index(
                dict(postings),
                {doc_id: text_lengths(float(counts[doc_id].total()))
                 for doc_id in doc_ids})

        a = index_in_order(("d1", "d2"))
        assert search(a, "graph text") == search_oracle(a, "graph text")
        with pytest.raises(DataError, match="^'postings': term 'graph': "
                                            "document 'd1': field 'text': "
                                            "not after"):
            index_in_order(("d2", "d1"))

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
        plist = rows_of(index, term) if term in index.postings else []
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
    norms = dict(zip(index.doc_ids, index.norms))
    n = len(index.doc_lengths)
    scores = defaultdict(float)
    for term in query_terms(query):
        plist = rows_of(index, term) if term in index.postings else []
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
    return hand_index({term: sorted(plist)
                       for term, plist in postings.items()}, doc_lengths)


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
        assert index.norms == [K1 * (1.0 - B)] * 3
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
        for term, (contributions, bound) in index.contributions.items():
            assert list(contributions) == sorted(
                {doc_id for doc_id, _, _ in rows_of(index, term)})
            assert bound == max(contributions.values())

    def test_threads_sharing_a_cold_index_get_the_oracle_results(self,
                                                                 stopwords):
        """Threads that fill the same terms at once store equal entries, so
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


class Tracked(dict):
    """A cached contribution map that records whether search walked it."""

    walked = False

    def __iter__(self):
        self.walked = True
        return super().__iter__()


def track(index):
    """Swap each cached entry of `index` for a tracked copy; the copies by
    term."""
    tracked = {}
    for term, (contributions, bound) in index.contributions.items():
        tracked[term] = Tracked(contributions)
        index.contributions[term] = (tracked[term], bound)
    return tracked


def fields_of(text=(), present=()):
    """A document's field -> stem counts from (stem, count) pairs."""
    return {FIELD_TEXT: dict(text), FIELD_KP_PRESENT: dict(present),
            FIELD_KP_ABSENT: {}}


RARE = "semant"
COMMON = ("graph", "rank", "index")
# the documents a rare term reaches come in three shapes, so several of
# them tie exactly, also at the cut-off
RARE_SHAPES = [fields_of([(RARE, 5), ("graph", 1)]),
               fields_of([(RARE, 5), ("graph", 1)], [(RARE, 2)]),
               fields_of([(RARE, 4), ("rank", 2)], [(RARE, 2)])]
common_documents = st.lists(st.sampled_from(COMMON), min_size=1,
                            max_size=4).map(
    lambda stems: fields_of(Counter(stems).items()))


@st.composite
def pruning_cases(draw):
    """An index where one rare term reaches at least top_n high-scoring
    documents and common terms reach most documents, with a query that
    holds the rare term and common ones, repeats included."""
    top_n = draw(st.integers(1, 7), label="top_n")
    rare = draw(st.lists(st.sampled_from(RARE_SHAPES), min_size=top_n,
                         max_size=top_n + 4))
    common = draw(st.lists(common_documents, min_size=15, max_size=40))
    docs = draw(st.permutations(rare + common))
    words = ["semantic"] * draw(st.integers(1, 2)) + draw(st.lists(
        st.sampled_from(["graph", "ranking", "index", "the", "zebra"]),
        max_size=5))
    return docs, " ".join(draw(st.permutations(words))), top_n


class TestPruning:
    @given(pruning_cases())
    @settings(max_examples=200, deadline=None)
    def test_pruned_search_equals_oracles(self, case):
        """Cold and with a warm cache, search gives what both oracles give,
        although it often never walks the common terms."""
        docs, query, top_n = case
        cold = random_index(docs)
        got = search(cold, query, top_n)
        assert got == search_oracle(cold, query, top_n)
        assert got == search_uncached_oracle(cold, query, top_n)
        warm = random_index(docs)
        for word in ("graph", "ranking", "index", "semantic", query):
            search(warm, word, top_n)
        tracked = track(warm)
        assert search(warm, query, top_n) == got
        walked = [tracked[t].walked for t in query_terms(query)
                  if t in tracked]
        event("pruned" if not all(walked) else "not pruned")

    def test_terms_below_theta_are_never_walked(self):
        """Two documents reach the rare term, 30 reach only common terms:
        after the rare term the common terms' bound is below theta."""
        docs = ([RARE_SHAPES[0]] * 2
                + [fields_of([("graph", 2), ("rank", 1)])] * 30)
        index = random_index(docs)
        query = "graph semantic ranking graph"
        expected = search_oracle(index, query, 2)
        assert search(index, query, 2) == expected
        tracked = track(index)
        assert search(index, query, 2) == expected
        assert tracked[RARE].walked
        assert not tracked["graph"].walked and not tracked["rank"].walked
        # at top_n 3 the rare term scores too few documents to stop
        assert search(index, query, 3) == search_oracle(index, query, 3)
        assert tracked["graph"].walked or tracked["rank"].walked

    def test_later_term_can_tie_theta(self):
        """Two terms with equal bounds, each reaching one of two equal
        documents: after the first, theta equals the second's bound, and
        the document only the second reaches ties at the floor and wins
        the tie-break, so search must not stop there."""
        docs = [fields_of([("rank", 1), ("index", 1)]),
                fields_of([("graph", 1), ("index", 1)])]
        index = random_index(docs)
        scores = dict(search(index, "graph ranking"))
        assert scores["d0"] == scores["d1"]
        assert search(index, "graph ranking", 1) == [("d0", scores["d0"])]
        assert search(index, "ranking graph", 1) == [("d0", scores["d0"])]

    def test_non_finite_contributions_cannot_be_built(self):
        """A hand-built weight near the float maximum once scored NaN and
        gave its term an infinite bound; the constructor refuses it."""
        with pytest.raises(DataError, match="^'postings': term 'graph': "
                                            "document 'a': field "
                                            "'kp_present': weight"):
            hand_index({"graph": [("a", FIELD_KP_PRESENT, 1.7e308),
                                  ("b", FIELD_TEXT, 1.0)]},
                       {"a": text_lengths(1.0), "b": text_lengths(1.0)})

    def test_negative_contributions_cannot_be_built(self):
        """A hand-built negative weight once scored below zero, so its
        term's largest contribution bounded nothing; the constructor
        refuses it."""
        with pytest.raises(DataError, match="^'postings': term 'rank': "
                                            "document 'n1': field 'text': "
                                            "weight -1.0 "):
            hand_index(
                {"semant": [("r1", FIELD_TEXT, 4.0), ("r2", FIELD_TEXT, 1.0)],
                 "rank": [("n1", FIELD_TEXT, -1.0), ("n2", FIELD_TEXT, -1.0)]},
                {doc_id: text_lengths(1.0)
                 for doc_id in ("r1", "r2", "n1", "n2")})


# lengths and weights anywhere in their ranges, the ends included
in_range_lengths = st.one_of(st.sampled_from([0.0, 5e-324, MAX_COUNT]),
                             st.floats(min_value=0.0, max_value=MAX_COUNT))
in_range_weights = st.one_of(st.sampled_from([5e-324, 1.0, MAX_COUNT]),
                             st.floats(min_value=5e-324, max_value=MAX_COUNT))
# just outside them, NaN and both infinities included
out_of_range_lengths = st.one_of(
    st.just(math.nan), st.floats(max_value=-5e-324),
    st.floats(min_value=PAST_CAP))
out_of_range_weights = st.one_of(
    st.just(math.nan), st.floats(max_value=0.0),
    st.floats(min_value=PAST_CAP))


@st.composite
def hand_built_parts(draw):
    """Postings and lengths of up to six documents, the lengths unrelated
    to the postings, with up to six postings per stem in (doc id, field)
    order."""
    ids = [f"d{i}" for i in range(draw(st.integers(1, 6)))]
    lengths = {doc_id: draw(st.fixed_dictionaries(
        {f: in_range_lengths for f in FIELDS})) for doc_id in ids}
    plists = st.dictionaries(st.tuples(st.sampled_from(ids),
                                       st.sampled_from(FIELDS)),
                             in_range_weights, min_size=1, max_size=6)
    postings = draw(st.dictionaries(st.sampled_from(STEMS),
                                    plists.map(sorted_postings),
                                    max_size=len(STEMS)))
    return postings, lengths


@st.composite
def refused_cases(draw):
    """Postings whose field lengths are the fsum of their weights, as
    build_index writes them, with one length or one weight set out of its
    range (for a weight, its field length is the new fsum). Returns the
    parts and the (doc id, field) at fault."""
    ids = [f"d{i}" for i in range(draw(st.integers(1, 4)))]
    cells = st.tuples(st.sampled_from(ids), st.sampled_from(FIELDS))
    small = st.one_of(st.integers(1, 9).map(float),
                      st.floats(min_value=5e-324, max_value=2.0**50))
    postings = {term: sorted_postings(cell_map)
                for term, cell_map in draw(st.dictionaries(
                    st.sampled_from(STEMS),
                    st.dictionaries(cells, small, min_size=1, max_size=4),
                    min_size=1, max_size=3)).items()}
    if draw(st.booleans(), label="bad weight"):
        term = draw(st.sampled_from(sorted(postings)))
        i = draw(st.integers(0, len(postings[term]) - 1))
        doc_id, field, _ = postings[term][i]
        postings[term][i] = (doc_id, field, draw(out_of_range_weights))
        bad_length = None
    else:
        doc_id, field = draw(cells)
        bad_length = draw(out_of_range_lengths)
    weights = defaultdict(list)
    for plist in postings.values():
        for row_doc, row_field, weight in plist:
            weights[row_doc, row_field].append(weight)
    lengths = {d: {f: math.fsum(weights[d, f]) for f in FIELDS} for d in ids}
    if bad_length is not None:
        lengths[doc_id][field] = bad_length
    return postings, lengths, (doc_id, field), bad_length is None


class TestNumberRangeProperties:
    @given(hand_built_parts(), queries, st.integers(1, 7))
    @example(({"graph": [("d0", FIELD_KP_PRESENT, MAX_COUNT),
                         ("d1", FIELD_TEXT, 5e-324)],
               "rank": [("d1", FIELD_KP_ABSENT, MAX_COUNT),
                        ("d1", FIELD_TEXT, 5e-324)]},
              {"d0": {f: MAX_COUNT for f in FIELDS},
               "d1": text_lengths(5e-324)}),
             "ranking graph ranking", 1)
    @settings(max_examples=300, deadline=None)
    def test_accepted_indexes_score_finitely_and_equal_oracles(
            self, parts, query, top_n):
        index = hand_index(*parts)
        got = search(index, query, top_n)
        assert got == search_oracle(index, query, top_n)
        assert got == search_uncached_oracle(index, query, top_n)
        for word in WORDS:
            search(index, word)
        for contributions, bound in index.contributions.values():
            assert all(0.0 <= c < math.inf for c in contributions.values())
            assert bound == max(contributions.values())

    @given(refused_cases())
    @example(({"t0": [("a", FIELD_TEXT, 0.0)]}, {"a": text_lengths(0.0)},
              ("a", FIELD_TEXT), True))
    @example(({"t0": [("a", FIELD_TEXT, -5.0)],
               "t1": [("a", FIELD_TEXT, 5.0)]},
              {"a": text_lengths(0.0)}, ("a", FIELD_TEXT), True))
    @example(({"t0": [("a", FIELD_TEXT, PAST_CAP)]},
              {"a": text_lengths(PAST_CAP)}, ("a", FIELD_TEXT), True))
    @settings(max_examples=300, deadline=None)
    def test_out_of_range_numbers_are_refused_built_and_loaded(self, case):
        """The constructor names the part, the document and the field at
        fault, and the term of a posting. It checks lengths first, so a bad
        weight whose fsum puts its length out of range is refused as that
        length. Load runs the constructor before its sum rule, so a file
        is refused with the same message after the file's path."""
        postings, lengths, (doc_id, field), bad_weight = case
        if 0.0 <= lengths[doc_id][field] <= MAX_COUNT:
            assert bad_weight
            fault = (f"'postings': term '[^']+': document {doc_id!r}: "
                     f"field {field!r}: weight ")
        else:
            fault = f"'doc_lengths': document {doc_id!r}: field {field!r}: "
        payload = {"doc_lengths": lengths, "postings": postings}
        with pytest.raises(DataError, match="^" + fault):
            hand_index(postings, lengths)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.kpix")
            with open(path, "wb") as fh:
                fh.write(index_file_bytes(canonical_payload(payload)))
            with pytest.raises(DataError,
                               match=f"^{re.escape(path)}: {fault}"):
                load_index(path)


def test_sample100_titles_and_gold_phrases_equal_oracles(tmp_path):
    path = str(tmp_path / "c.kpix")
    assert cli.main(["index", SAMPLE100, path]) == 0
    index = load_index(path)
    with open(SAMPLE100, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    queries = [r["title"] for r in records] + [
        phrase for r in records for phrase in r.get("keyphrases", [])]
    assert len(queries) > 500
    for query in queries:
        for top_n in (1, 10):
            got = search(index, query, top_n)
            assert got == search_oracle(index, query, top_n)
            assert got == search_uncached_oracle(index, query, top_n)
