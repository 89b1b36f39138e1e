import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import kpindex.similarity as similarity_module

from kpindex import Corpus, TfidfSimilarity
from kpindex.corpus import Document
from kpindex.errors import DataError
from kpindex.similarity import compute_idf, cosine, vectorize

from conftest import make_corpus


def vec(weights):
    """A unit-length vector with the direction of weights."""
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()}


class TestComputeIdf:
    def test_term_in_every_document(self, stopwords):
        corpus = make_corpus([("a", "graph", "x."), ("b", "graph", "y."),
                              ("c", "graph", "z.")], stopwords)
        idf = compute_idf(corpus)
        assert idf["graph"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rare_term(self, stopwords):
        corpus = make_corpus([("a", "graph", "quantum."), ("b", "graph", "w."),
                              ("c", "graph", "x."), ("d", "graph", "y.")],
                             stopwords)
        idf = compute_idf(corpus)
        assert idf["quantum"] == pytest.approx(math.log(5.0), abs=1e-12)

    def test_stopword_stem_excluded(self, stopwords):
        corpus = make_corpus([("a", "the graph", "x.")], stopwords)
        idf = compute_idf(corpus)
        assert "the" not in idf
        assert "graph" in idf

    def test_empty_corpus(self, stopwords):
        with pytest.raises(DataError):
            compute_idf(Corpus([], stopwords))


class TestVectorize:
    def test_stopwords_only(self, stopwords):
        doc = Document.build("a", "the", "of and.")
        v = vectorize(doc, {"graph": 1.0})
        assert v == {}

    def test_repeated_stem_normalizes_to_unit(self):
        doc = Document.build("a", "graph", "graph.")
        v = vectorize(doc, {"graph": 1.0})
        assert v == {"graph": 1.0}

    def test_identical_stem_multisets_identical_vectors(self, stopwords):
        d1 = Document.build("a", "graph ranking", "ranking graphs.")
        d2 = Document.build("b", "ranking graphs", "graph ranking.")
        idf = {"graph": 1.3, "rank": 0.7}
        assert vectorize(d1, idf) == vectorize(d2, idf)

    def test_norm_consistent(self, stopwords):
        doc = Document.build("a", "graph ranking", "networks rank graphs.")
        v = vectorize(doc, {"graph": 1.0, "rank": 2.0, "network": 0.5})
        assert len(v) == 3
        assert math.fsum(w * w for w in v.values()) == \
            pytest.approx(1.0, abs=1e-12)


class TestCosine:
    def test_self_similarity(self):
        v = vec({"x": 0.3, "y": 1.7})
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine(vec({"x": 1.0}), vec({"y": 1.0})) == 0.0

    def test_half_overlap(self):
        a = vec({"x": 1.0, "y": 1.0})
        b = vec({"x": 1.0, "z": 1.0})
        assert cosine(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm(self):
        assert cosine({}, vec({"x": 1.0})) == 0.0
        assert cosine(vec({"x": 1.0}), {}) == 0.0

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(0.01, 10.0), max_size=6),
           st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(0.01, 10.0), max_size=6))
    @settings(max_examples=200)
    def test_symmetry_and_range(self, wa, wb):
        a, b = vec(wa), vec(wb)
        assert abs(cosine(a, b) - cosine(b, a)) < 1e-12
        assert 0.0 <= cosine(a, b) <= 1.0


    @given(st.dictionaries(st.text("abcdefghij", min_size=1, max_size=3),
                           st.floats(1e-6, 1e3), max_size=12),
           st.dictionaries(st.text("abcdefghij", min_size=1, max_size=3),
                           st.floats(1e-6, 1e3), max_size=12))
    @settings(max_examples=300)
    def test_equals_sorted_order_oracle(self, wa, wb):
        a, b = vec(wa), vec(wb)
        assert cosine(a, b) == sorted_cosine(a, b)
        assert cosine(b, a) == sorted_cosine(b, a)


def sorted_cosine(a, b):
    """cosine as it was when the dot product summed terms in sorted order."""
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = math.fsum(w * large[t] for t, w in sorted(small.items()) if t in large)
    return min(1.0, max(0.0, dot))


def brute_force_neighbors(provider, doc_id, k, min_sim):
    """The exhaustive scan: cosine against every other document."""
    vectors = provider.vectors
    scored = [(other_id, cosine(vectors[doc_id], vec))
              for other_id, vec in vectors.items() if other_id != doc_id]
    scored = [(i, s) for i, s in scored if s >= min_sim]
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


TWO_TOPIC_ROWS = [
    ("g1", "Graph ranking", "Graph ranking orders graph nodes by links."),
    ("g2", "Ranking graphs", "Links between graph nodes drive graph ranking."),
    ("g3", "Node ranking", "Graph links rank nodes in the graph."),
    ("q1", "Quantum states", "Quantum gates entangle quantum states."),
    ("q2", "Quantum gates", "Entangled quantum states pass quantum gates."),
]


class TestFindNeighbors:
    def test_k_zero(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        nbrs = TfidfSimilarity(corpus).neighbors("g1", k=0, min_sim=0.0)
        assert nbrs.neighbors == []

    @pytest.mark.parametrize("k, min_sim, message", [
        (-1, 0.1, "k must be >= 0"),
        (5, -0.1, r"min_sim must lie in \[0, 1\]"),
        (5, 1.5, r"min_sim must lie in \[0, 1\]"),
        (5, math.nan, r"min_sim must lie in \[0, 1\]")])
    def test_out_of_range_argument_is_value_error(self, stopwords, k, min_sim,
                                                  message):
        provider = TfidfSimilarity(make_corpus(TWO_TOPIC_ROWS, stopwords))
        with pytest.raises(ValueError, match=message):
            provider.neighbors("g1", k, min_sim)

    def test_duplicate_ranks_first_with_unit_similarity(self, stopwords):
        rows = TWO_TOPIC_ROWS + [("g1copy", "Graph ranking",
                                  "Graph ranking orders graph nodes by links.")]
        corpus = make_corpus(rows, stopwords)
        nbrs = TfidfSimilarity(corpus).neighbors("g1", k=3, min_sim=0.0)
        top_id, top_sim = nbrs.neighbors[0]
        assert top_id == "g1copy"
        assert top_sim == pytest.approx(1.0, abs=1e-12)

    def test_planted_topics(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        nbrs = provider.neighbors("g1", k=2, min_sim=0.05)
        assert set([nid for nid, _ in nbrs.neighbors]) == {"g2", "g3"}
        assert nbrs.neighbors == brute_force_neighbors(provider, "g1", 2, 0.05)

    def test_unknown_id(self, stopwords):
        provider = TfidfSimilarity(make_corpus(TWO_TOPIC_ROWS, stopwords))
        with pytest.raises(KeyError):
            provider.neighbors("nope", k=2, min_sim=0.0)

    def test_source_never_a_neighbor(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        for doc in corpus:
            nbrs = provider.neighbors(doc.id, k=10, min_sim=0.0)
            assert doc.id not in [nid for nid, _ in nbrs.neighbors]

    def test_invariant_under_corpus_reordering(self, stopwords):
        forward = make_corpus(TWO_TOPIC_ROWS, stopwords)
        backward = make_corpus(list(reversed(TWO_TOPIC_ROWS)), stopwords)
        for doc_id in ("g1", "q2"):
            a = TfidfSimilarity(forward).neighbors(doc_id, k=3, min_sim=0.0)
            b = TfidfSimilarity(backward).neighbors(doc_id, k=3, min_sim=0.0)
            assert a.neighbors == b.neighbors

    def test_min_sim_and_k_monotonicity(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        base = provider.neighbors("g1", k=4, min_sim=0.0)
        stricter = provider.neighbors("g1", k=4, min_sim=0.3)
        assert set([nid for nid, _ in stricter.neighbors]) <= \
            set([nid for nid, _ in base.neighbors])
        wider = provider.neighbors("g1", k=6, min_sim=0.0)
        assert set([nid for nid, _ in base.neighbors]) <= \
            set([nid for nid, _ in wider.neighbors])

    def test_agrees_with_brute_force_on_random_corpus(self, stopwords):
        rng = random.Random(7)
        vocab = ["graph", "rank", "node", "edge", "quantum", "gate", "state",
                 "protein", "fold", "model", "learn", "deep", "text", "index"]
        rows = []
        for i in range(60):
            words = rng.choices(vocab, k=rng.randint(5, 20))
            rows.append((f"d{i:02d}", " ".join(words[:3]),
                         " ".join(words) + "."))
        corpus = make_corpus(rows, stopwords)
        provider = TfidfSimilarity(corpus)
        for doc_id in ("d00", "d17", "d42", "d59"):
            got = provider.neighbors(doc_id, k=5, min_sim=0.1)
            assert got.neighbors == brute_force_neighbors(provider, doc_id, 5, 0.1)

    def test_k_zero_walks_no_postings(self, stopwords, monkeypatch):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        calls = []

        def counting_cosine(a, b):
            calls.append((a, b))
            return cosine(a, b)
        monkeypatch.setattr(similarity_module, "cosine", counting_cosine)
        # a walk would look up the source's stems here and fail
        monkeypatch.setattr(provider, "postings", {})
        for doc in corpus:
            for min_sim in (0.0, 0.5):
                nbrs = provider.neighbors(doc.id, k=0, min_sim=min_sim)
                assert nbrs.neighbors == []
        assert calls == []

    def test_postings_hold_rows_and_the_vectors_floats(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        assert provider.ids == corpus.ids()
        assert set(provider.postings) == {
            t for vec in provider.vectors.values() for t in vec}
        for t, (rows, weights) in provider.postings.items():
            assert rows == sorted(set(rows))
            assert [provider.ids[row] for row in rows] == [
                doc_id for doc_id, vec in provider.vectors.items() if t in vec]
            for row, w in zip(rows, weights):
                assert w is provider.vectors[provider.ids[row]][t]

    def test_rescores_only_documents_sharing_a_stem(self, stopwords,
                                                    monkeypatch):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        pairs = []

        def counting_cosine(a, b):
            pairs.append((a, b))
            return cosine(a, b)
        monkeypatch.setattr(similarity_module, "cosine", counting_cosine)
        nbrs = provider.neighbors("g1", k=4, min_sim=0.05)
        assert set([nid for nid, _ in nbrs.neighbors]) == {"g2", "g3"}
        assert len(pairs) < len(corpus) - 1


WORDS = ["graph", "ranking", "nodes", "quantum", "gates", "states", "the",
         "of", "and"]


@st.composite
def small_corpora(draw):
    """Abstracts over a small vocabulary with stopwords, some duplicated,
    plus one empty and one stopword-only document."""
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=6)
                          .map(" ".join), min_size=1, max_size=8))
    copies = draw(st.lists(st.sampled_from(texts), max_size=2))
    return texts + copies + ["", "the of and"]


# 5e-10 lies inside the 1e-9 margin: documents sharing no stem pass the
# floor, score 0.0 and are dropped
MIN_SIMS = [0.0, 5e-10, 1.0]


def dict_walk_sums(provider, doc_id):
    """The walk as neighbors made it before postings held rows: a stem ->
    document-id postings map, and per posting a weight read from the other
    document's vector and a get and a set on a string-keyed dict. Maps each
    document sharing a stem with doc_id, doc_id included, to its sum."""
    vectors = provider.vectors
    postings = defaultdict(list)
    for other_id, vec in vectors.items():
        for t in vec:
            postings[t].append(other_id)
    approx = {}
    for t, w in vectors[doc_id].items():
        for other_id in postings[t]:
            approx[other_id] = approx.get(other_id, 0.0) \
                + w * vectors[other_id][t]
    return approx


def dict_walk_rescored(provider, doc_id, min_sim):
    """The (source, other) pairs the dict walk rescored with cosine."""
    approx = dict_walk_sums(provider, doc_id)
    approx.pop(doc_id, None)
    floor = min_sim - 1e-9
    return sorted((doc_id, other_id) for other_id, dot in approx.items()
                  if dot >= floor)


class TestNeighborsOracle:
    @given(small_corpora(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_sums_and_rescored_pairs_equal_the_dict_walk(
            self, stopwords, texts, data):
        corpus = make_corpus([(f"d{i}", "", text)
                              for i, text in enumerate(texts)], stopwords)
        provider = TfidfSimilarity(corpus)
        vectors = provider.vectors
        owner = {id(vec): doc_id for doc_id, vec in vectors.items()}
        pairwise = sorted({cosine(vectors[a], vectors[b])
                           for a in vectors for b in vectors if a < b})
        for doc_id in vectors:
            expected = dict_walk_sums(provider, doc_id)
            got = provider.dot_sums(doc_id)
            assert [x.hex() for x in got] == [
                expected.get(other_id, 0.0).hex() for other_id in provider.ids]
            assert {other_id for other_id, x in zip(provider.ids, got) if x} \
                == set(expected)
            k = data.draw(st.integers(1, len(vectors)), label="k")
            min_sim = data.draw(st.sampled_from(MIN_SIMS + pairwise),
                                label="min_sim")
            pairs = []

            def counting_cosine(a, b):
                pairs.append((owner[id(a)], owner[id(b)]))
                return cosine(a, b)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(similarity_module, "cosine", counting_cosine)
                provider.neighbors(doc_id, k, min_sim)
            assert sorted(pairs) == dict_walk_rescored(provider, doc_id,
                                                       min_sim)

    @given(small_corpora(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_exhaustive_scan(self, stopwords, texts, data):
        corpus = make_corpus([(f"d{i}", "", text)
                              for i, text in enumerate(texts)], stopwords)
        provider = TfidfSimilarity(corpus)
        vectors = provider.vectors
        # the corpus's own similarities put min_sim exactly on a boundary
        pairwise = sorted({cosine(vectors[a], vectors[b])
                           for a in vectors for b in vectors if a < b})
        for doc_id in vectors:
            k = data.draw(st.integers(0, len(vectors)), label="k")
            min_sim = data.draw(st.sampled_from(MIN_SIMS + pairwise),
                                label="min_sim")
            got = provider.neighbors(doc_id, k, min_sim)
            assert got.neighbors == brute_force_neighbors(provider, doc_id,
                                                          k, min_sim)

    def test_margin_keeps_document_whose_walk_sum_rounds_low(self, stopwords):
        corpus = make_corpus([("d0", "", "gates quantum graph states"),
                              ("d1", "", "graph gates quantum"),
                              ("d2", "", "graph")], stopwords)
        provider = TfidfSimilarity(corpus)
        source, other = provider.vectors["d0"], provider.vectors["d1"]
        min_sim = cosine(source, other)
        walk = 0.0
        for t, w in source.items():
            if t in other:
                walk += w * other[t]
        assert walk < min_sim  # the plain sum lands one ulp low here
        assert provider.neighbors("d0", 2, min_sim).neighbors == [("d1", min_sim)]
