import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kpindex import (Config, Layer, NodeInfo, Origin, RankParams,
                     SemMultiGraph, build_document_graph, extract_pipeline,
                     pagerank, rank_keyphrases)
from kpindex.ranking import _power_iteration

from conftest import make_corpus
from test_graph import graph_of


def linear_solve_scores(g, damping):
    """Independent oracle: solve (I - dM) S = (1-d)/n directly, normalize."""
    keys = sorted(g.nodes)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}
    weights = {}
    for e in g.edges():
        pair = (idx[e.u], idx[e.v])
        weights[pair] = weights.get(pair, 0.0) + e.weight
    total = np.zeros(n)
    for (i, j), w in weights.items():
        total[i] += w
        total[j] += w
    m = np.zeros((n, n))
    for (i, j), w in weights.items():
        m[i, j] = w / total[j]
        m[j, i] = w / total[i]
    a = np.eye(n) - damping * m
    b = np.full(n, (1.0 - damping) / n)
    s = np.linalg.solve(a, b)
    s = s / s.sum()
    return {k: s[idx[k]] for k in keys}


def pair_weights_oracle(g):
    """Per-pair DOCUMENT + DOMAIN sums that PageRank read before its rows
    were integer-indexed; kept as the oracle of the row layout."""
    summed = {}
    for edge in g.edges():
        pair = (edge.u, edge.v)
        summed[pair] = summed.get(pair, 0.0) + edge.weight
    return [(u, v, w) for (u, v), w in sorted(summed.items())]


def power_iteration_oracle(g, p):
    """The dict-based power iteration that _power_iteration replaced."""
    keys = sorted(g.nodes)
    n = len(keys)
    adjacency = {k: [] for k in keys}
    for pair_u, pair_v, weight in pair_weights_oracle(g):
        adjacency[pair_u].append((pair_v, weight))
        adjacency[pair_v].append((pair_u, weight))
    for k in keys:
        adjacency[k].sort()
    total_weight = {k: sum(w for _, w in adjacency[k]) for k in keys}

    base = (1.0 - p.damping) / n
    scores = {k: 1.0 / n for k in keys}
    for _ in range(p.max_iter):
        nxt = {}
        for u in keys:
            acc = 0.0
            for v, w in adjacency[u]:
                acc += w / total_weight[v] * scores[v]
            nxt[u] = base + p.damping * acc
        delta = sum(abs(nxt[k] - scores[k]) for k in keys)
        scores = nxt
        yield scores, delta
        if delta <= p.tol:
            return


NODE_NAMES = [f"n{i}" for i in range(7)]

# (nodes, edges): edges may repeat a pair, within a layer or across both
graphs = st.integers(1, len(NODE_NAMES)).flatmap(lambda n: st.tuples(
    st.just(NODE_NAMES[:n]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.sampled_from(list(Layer)),
                       st.floats(0.01, 50.0)), max_size=3 * n)))


def random_graph(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    keys = [f"n{i}" for i in range(n)]
    edges = []
    seen = set()
    for _ in range(rng.randint(0, n * (n - 1) // 2)):
        u, v = rng.sample(keys, 2)
        pair = (min(u, v), max(u, v))
        if pair in seen:
            continue
        seen.add(pair)
        layer = rng.choice([Layer.DOCUMENT, Layer.DOMAIN])
        edges.append((pair[0], pair[1], layer, rng.uniform(0.1, 5.0)))
    return graph_of(keys, edges)


def scale_edges(g, factor):
    scaled = SemMultiGraph()
    for key, info in g.nodes.items():
        scaled.add_node(key, info)
    for e in g.edges():
        scaled.add_edge(e.u, e.v, e.layer, e.weight * factor)
    return scaled


class TestPagerank:
    def test_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            pagerank(SemMultiGraph())

    def test_single_node(self):
        scores = pagerank(graph_of("a", []))
        assert scores["a"] == pytest.approx(1.0, abs=1e-12)

    def test_two_nodes_one_edge(self):
        scores = pagerank(graph_of("ab", [("a", "b", Layer.DOCUMENT, 3.0)]))
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_triangle_equal_weights(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOCUMENT, 1.0),
                             ("a", "c", Layer.DOCUMENT, 1.0)])
        scores = pagerank(g)
        for v in scores.values():
            assert v == pytest.approx(1 / 3, abs=1e-9)

    def test_weighted_path_ordering(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 2.0),
                             ("b", "c", Layer.DOCUMENT, 1.0)])
        scores = pagerank(g)
        assert scores["b"] > scores["a"] > scores["c"]
        oracle = linear_solve_scores(g, 0.85)
        for k in scores:
            assert scores[k] == pytest.approx(oracle[k], abs=1e-5)

    def test_isolated_node_keeps_teleport_share_only(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0)])
        scores = pagerank(g)
        assert scores["a"] == pytest.approx(scores["b"], abs=1e-12)
        assert scores["c"] < scores["a"]
        base, connected = 0.05, 0.05 / 0.15
        total = 2 * connected + base
        assert scores["c"] == pytest.approx(base / total, abs=1e-6)

    def test_scores_sum_to_one(self):
        rng = random.Random(5)
        for _ in range(30):
            scores = pagerank(random_graph(rng))
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(v >= 0 for v in scores.values())

    def test_matches_linear_solve_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng)
            scores = pagerank(g)
            oracle = linear_solve_scores(g, 0.85)
            for k in scores:
                assert scores[k] == pytest.approx(oracle[k], abs=1e-5)

    def test_uniform_weight_scaling_invariance(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng)
            base = pagerank(g)
            for factor in (0.5, 3.0, 10.0):
                scaled = pagerank(scale_edges(g, factor))
                for k in base:
                    assert scaled[k] == pytest.approx(base[k], abs=1e-9)

    def test_l1_residual_non_increasing(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng)
            deltas = [d for _, d in
                      _power_iteration(g, RankParams(tol=1e-12, max_iter=60))]
            for earlier, later in zip(deltas, deltas[1:]):
                assert later <= earlier + 1e-15

    def test_insertion_order_invariance(self):
        edges = [("a", "b", Layer.DOCUMENT, 1.0),
                 ("b", "c", Layer.DOMAIN, 0.5),
                 ("a", "c", Layer.DOCUMENT, 2.0)]
        forward = graph_of("abc", edges)
        backward = graph_of("cba", list(reversed(edges)))
        assert pagerank(forward) == pagerank(backward)


class TestPowerIterationOracle:
    @given(graphs, st.sampled_from([RankParams(),
                                    RankParams(tol=1e-12, max_iter=60),
                                    RankParams(damping=0.5, max_iter=3)]))
    @example((["n0"], []), RankParams())  # single node
    @example((["n0", "n1", "n2"], [(0, 1, Layer.DOCUMENT, 2.0)]),
             RankParams())  # isolated node
    @example((["n0", "n1", "n2"], [(0, 1, Layer.DOCUMENT, 0.3),
                                   (1, 0, Layer.DOMAIN, 0.1),
                                   (1, 2, Layer.DOMAIN, 0.7)]),
             RankParams())  # both layers on one pair
    def test_scores_and_deltas_bit_equal(self, graph, params):
        nodes, edges = graph
        g = graph_of(nodes, [(nodes[i], nodes[j], layer, w)
                             for i, j, layer, w in edges if i != j])
        keys = sorted(g.nodes)
        got = [(list(scores), delta)
               for scores, delta in _power_iteration(g, params)]
        want = [([scores[k] for k in keys], delta)
                for scores, delta in power_iteration_oracle(g, params)]
        assert got == want
        last = want[-1][0]
        norm = sum(last)
        assert pagerank(g, params) == {k: s / norm for k, s in zip(keys, last)}


def node(origin, surfaces, first_offset=None, sources=("d",)):
    return NodeInfo(origin=origin, source_docs=set(sources),
                    surfaces=Counter(surfaces),
                    first_offset=first_offset or {})


class TestRankKeyphrases:
    def build(self):
        g = SemMultiGraph()
        g.add_node("p", node(Origin.PRESENT, {"p": 1}, {"p": 0}))
        g.add_node("q", node(Origin.ABSENT, {"q": 1}, sources=("n1",)))
        return g

    def test_gamma_zero_drops_absent(self):
        g = self.build()
        ranked = rank_keyphrases(g, {"p": 0.5, "q": 0.5},
                                 RankParams(gamma_absent=0.0))
        assert [r.key for r in ranked] == ["p"]

    def test_no_absent_nodes_preserves_raw_order(self):
        g = SemMultiGraph()
        for k in "abc":
            g.add_node(k, node(Origin.PRESENT, {k: 1}, {k: 0}))
        scores = {"a": 0.2, "b": 0.5, "c": 0.3}
        ranked = rank_keyphrases(g, scores, RankParams(gamma_absent=0.0))
        assert [r.key for r in ranked] == ["b", "c", "a"]
        assert [r.score for r in ranked] == [0.5, 0.3, 0.2]

    def test_interleaving_arithmetic(self):
        g = self.build()
        ranked = rank_keyphrases(g, {"p": 0.10, "q": 0.15},
                                 RankParams(gamma_absent=0.8))
        assert [r.key for r in ranked] == ["q", "p"]
        assert ranked[0].score == pytest.approx(0.12, abs=1e-12)

    def test_truncation_and_tie_break(self):
        g = SemMultiGraph()
        for k in ("k1", "k2", "k3"):
            g.add_node(k, node(Origin.PRESENT, {k: 1}, {k: 0}))
        ranked = rank_keyphrases(g, {"k1": 0.4, "k2": 0.4, "k3": 0.2},
                                 RankParams(top_n=2))
        assert [r.key for r in ranked] == ["k1", "k2"]

    def test_present_surface_most_frequent_then_earliest(self):
        g = SemMultiGraph()
        g.add_node("network", node(Origin.PRESENT,
                                   {"networks": 2, "network": 1},
                                   {"networks": 5, "network": 2}))
        ranked = rank_keyphrases(g, {"network": 1.0}, RankParams())
        assert ranked[0].surface == "networks"
        g2 = SemMultiGraph()
        g2.add_node("network", node(Origin.PRESENT,
                                    {"networks": 1, "network": 1},
                                    {"networks": 5, "network": 2}))
        ranked2 = rank_keyphrases(g2, {"network": 1.0}, RankParams())
        assert ranked2[0].surface == "network"

    def test_absent_surface_tie_breaks_lexicographically(self):
        g = SemMultiGraph()
        g.add_node("rank", node(Origin.ABSENT, {"ranking": 1, "ranked": 1},
                                sources=("n1", "n2")))
        ranked = rank_keyphrases(g, {"rank": 1.0}, RankParams())
        assert ranked[0].surface == "ranked"
        assert ranked[0].sources == ["n1", "n2"]


def ranking_as_json(ranked):
    return json.dumps([{"key": r.key, "surface": r.surface, "score": r.score,
                        "origin": r.origin.value, "sources": r.sources}
                       for r in ranked], sort_keys=True)


class TestExtractPipeline:
    def test_disabled_enrichment_equals_single_document_baseline(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", "Graph ranking of documents. Quality matters."),
            ("b", "Neural models", "Neural models translate text. Deep layers."),
            ("c", "Graph models", "Graph models rank documents with quality."),
        ], stopwords)
        cfg = Config(k_neighbors=0, absent_quota=0, lambda_domain=0.0).validate()
        for doc_id in ("a", "b", "c"):
            piped = extract_pipeline(doc_id, corpus, cfg)
            cands = corpus.candidates_for(doc_id, cfg.max_len)
            g = build_document_graph(corpus[doc_id], cands, cfg.window)
            baseline = rank_keyphrases(g, pagerank(g, cfg.rank_params()),
                                       cfg.rank_params())
            assert ranking_as_json(piped) == ranking_as_json(baseline)

    def test_neighbor_contributes_absent_key(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0, top_n=15).validate()
        ranked = extract_pipeline("a", two_doc_corpus, cfg)
        by_key = {r.key: r for r in ranked}
        assert "semant index" in by_key
        assert by_key["semant index"].origin is Origin.ABSENT
        assert by_key["semant index"].surface == "semantic index"
        assert by_key["semant index"].sources == ["b"]

    def test_two_runs_byte_identical(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        first = ranking_as_json(extract_pipeline("a", two_doc_corpus, cfg))
        second = ranking_as_json(extract_pipeline("a", two_doc_corpus, cfg))
        assert first == second

    def test_empty_document_yields_empty_ranking(self, stopwords):
        corpus = make_corpus([("a", "", ""), ("b", "Graphs", "Graph text.")],
                             stopwords)
        cfg = Config(k_neighbors=0).validate()
        assert extract_pipeline("a", corpus, cfg) == []

    def test_gamma_monotonicity_for_absent_positions(self, two_doc_corpus):
        def present_above_each_absent(gamma):
            cfg = Config(k_neighbors=1, min_sim=0.0, top_n=100,
                         gamma_absent=gamma).validate()
            ranked = extract_pipeline("a", two_doc_corpus, cfg)
            out = {}
            for pos, r in enumerate(ranked):
                if r.origin is Origin.ABSENT:
                    out[r.key] = sum(1 for s in ranked[:pos]
                                     if s.origin is Origin.PRESENT)
            return out

        previous = None
        for gamma in (0.2, 0.5, 0.8, 1.0):
            current = present_above_each_absent(gamma)
            if previous is not None:
                for key, above in current.items():
                    if key in previous:
                        assert above <= previous[key]
            previous = current
