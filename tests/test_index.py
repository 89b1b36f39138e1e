from collections import Counter

import pytest

import kpindex.index as index_module

from kpindex import (Config, IndexFileError, InvertedIndex, build_index,
                     extract_pipeline, load_index, save_index, search)
from kpindex.index import (FIELD_KP_ABSENT, FIELD_KP_PRESENT, FIELD_TEXT,
                           query_terms)

from conftest import make_corpus, write_payload

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
        with pytest.raises(IndexFileError, match="cannot read"):
            load_index(str(tmp_path / "nope.kpix"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.kpix"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(IndexFileError, match="bad magic"):
            load_index(str(path))

    def test_bad_version(self, two_doc_corpus, tmp_path):
        path = tmp_path / "c.kpix"
        save_index(self.build(two_doc_corpus), str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFileError, match="version 99"):
            load_index(str(path))

    def test_truncated(self, two_doc_corpus, tmp_path):
        path = tmp_path / "c.kpix"
        save_index(self.build(two_doc_corpus), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(IndexFileError, match="truncated"):
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
            save_index(InvertedIndex({"other": True}), str(path))
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
    ])
    def test_malformed_payload_names_field(self, tmp_path, payload, field):
        path = write_payload(tmp_path / "c.kpix", payload)
        with pytest.raises(IndexFileError, match=f"'{field}'"):
            load_index(path)


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
        a = InvertedIndex()
        b = InvertedIndex()
        counts = {"d1": Counter({"graph": 2, "rank": 1}),
                  "d2": Counter({"graph": 1, "text": 3})}
        for doc_id in ("d1", "d2"):
            a.add_postings(doc_id, FIELD_TEXT, counts[doc_id])
        for doc_id in ("d2", "d1"):
            b.add_postings(doc_id, FIELD_TEXT, counts[doc_id])
        a.finalize()
        b.finalize()
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

    def test_query_terms_stemmed(self):
        assert query_terms("Ranking Networks!") == ["rank", "network"]
