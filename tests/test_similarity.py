import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kpindex import (Corpus, CorpusError, DocVector, Document, TfidfSimilarity,
                     compute_idf, cosine, find_neighbors, vectorize)

from conftest import make_corpus


def vec(weights):
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return DocVector(weights, norm)


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
        with pytest.raises(CorpusError):
            compute_idf(Corpus([], stopwords))


class TestVectorize:
    def test_stopwords_only(self, stopwords):
        doc = Document.build("a", "the", "of and.")
        v = vectorize(doc, {"graph": 1.0})
        assert v.weights == {} and v.norm == 0.0

    def test_repeated_stem_normalizes_to_unit(self):
        doc = Document.build("a", "graph", "graph.")
        v = vectorize(doc, {"graph": 1.0})
        assert v.weights == {"graph": 1.0}
        assert v.norm == 1.0

    def test_identical_stem_multisets_identical_vectors(self, stopwords):
        d1 = Document.build("a", "graph ranking", "ranking graphs.")
        d2 = Document.build("b", "ranking graphs", "graph ranking.")
        idf = {"graph": 1.3, "rank": 0.7}
        assert vectorize(d1, idf).weights == vectorize(d2, idf).weights

    def test_norm_consistent(self, stopwords):
        doc = Document.build("a", "graph ranking", "networks rank graphs.")
        v = vectorize(doc, {"graph": 1.0, "rank": 2.0, "network": 0.5})
        recomputed = math.sqrt(sum(w * w for w in v.weights.values()))
        assert abs(v.norm - recomputed) < 1e-9


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
        assert cosine(DocVector({}, 0.0), vec({"x": 1.0})) == 0.0

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
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    small, large = (a.weights, b.weights) if len(a.weights) <= len(b.weights) \
        else (b.weights, a.weights)
    dot = math.fsum(w * large[t] for t, w in sorted(small.items()) if t in large)
    return min(1.0, max(0.0, dot / (a.norm * b.norm)))


def brute_force_neighbors(corpus, doc_id, k, min_sim):
    provider = TfidfSimilarity(corpus)
    scored = [(other.id, provider.similarity(doc_id, other.id))
              for other in corpus if other.id != doc_id]
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
        nbrs = find_neighbors("g1", corpus, k=0, min_sim=0.0)
        assert nbrs.neighbors == []

    def test_duplicate_ranks_first_with_unit_similarity(self, stopwords):
        rows = TWO_TOPIC_ROWS + [("g1copy", "Graph ranking",
                                  "Graph ranking orders graph nodes by links.")]
        corpus = make_corpus(rows, stopwords)
        nbrs = find_neighbors("g1", corpus, k=3, min_sim=0.0)
        top_id, top_sim = nbrs.neighbors[0]
        assert top_id == "g1copy"
        assert top_sim == pytest.approx(1.0, abs=1e-12)

    def test_planted_topics(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        nbrs = find_neighbors("g1", corpus, k=2, min_sim=0.05)
        assert set(nbrs.ids()) == {"g2", "g3"}
        assert nbrs.neighbors == brute_force_neighbors(corpus, "g1", 2, 0.05)

    def test_unknown_id(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        with pytest.raises(KeyError):
            find_neighbors("nope", corpus, k=2, min_sim=0.0)

    def test_source_never_a_neighbor(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        for doc in corpus:
            nbrs = find_neighbors(doc.id, corpus, k=10, min_sim=0.0)
            assert doc.id not in nbrs.ids()

    def test_invariant_under_corpus_reordering(self, stopwords):
        forward = make_corpus(TWO_TOPIC_ROWS, stopwords)
        backward = make_corpus(list(reversed(TWO_TOPIC_ROWS)), stopwords)
        for doc_id in ("g1", "q2"):
            a = find_neighbors(doc_id, forward, k=3, min_sim=0.0)
            b = find_neighbors(doc_id, backward, k=3, min_sim=0.0)
            assert a.neighbors == b.neighbors

    def test_min_sim_and_k_monotonicity(self, stopwords):
        corpus = make_corpus(TWO_TOPIC_ROWS, stopwords)
        provider = TfidfSimilarity(corpus)
        base = provider.neighbors("g1", k=4, min_sim=0.0)
        stricter = provider.neighbors("g1", k=4, min_sim=0.3)
        assert set(stricter.ids()) <= set(base.ids())
        wider = provider.neighbors("g1", k=6, min_sim=0.0)
        assert set(base.ids()) <= set(wider.ids())

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
            assert got.neighbors == brute_force_neighbors(corpus, doc_id, 5, 0.1)
