import random
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from kpindex import (Candidate, Document, Layer, NodeInfo, Origin,
                     SemMultiGraph, bridge_components, build_document_graph,
                     expand_graph, extract_candidates, to_dot,
                     weakly_connected_components)
from kpindex.graph import window_pairs
from kpindex.similarity import NeighborSet

from conftest import make_corpus


def unigram(key, starts):
    cand = Candidate(key=key, length=1)
    for s in starts:
        cand.add(s, key)
    return cand


def graph_of(nodes, edges):
    g = SemMultiGraph()
    for key in nodes:
        g.add_node(key, NodeInfo(origin=Origin.PRESENT, source_docs={"d"},
                                 surfaces=Counter({key: 1}),
                                 first_offset={key: 0}))
    for u, v, layer, w in edges:
        g.add_edge(u, v, layer, w)
    return g


def edge_snapshot(g):
    return [tuple(e) for e in g.edges()]


def count_window_pairs(starts_a, starts_b, window):
    """Pairwise count that window_pairs replaced; kept as its oracle."""
    return sum(1 for a in starts_a for b in starts_b if abs(a - b) <= window)


DOC = Document.build("d", "", "")


class TestBuildDocumentGraph:
    def test_single_candidate(self):
        g = build_document_graph(DOC, {"x": unigram("x", [0])}, window=10)
        assert g.node_count() == 1
        assert g.edge_count() == 0

    def test_pair_within_window(self):
        cands = {"a": unigram("a", [0]), "b": unigram("b", [5])}
        g = build_document_graph(DOC, cands, window=10)
        edge = g.edge("a", "b", Layer.DOCUMENT)
        assert edge is not None and edge.weight == 1.0

    def test_multiple_occurrence_pairs(self):
        cands = {"a": unigram("a", [0, 3]), "b": unigram("b", [5])}
        g = build_document_graph(DOC, cands, window=10)
        assert g.edge("a", "b", Layer.DOCUMENT).weight == 2.0

    def test_pair_outside_window_gets_no_edge(self):
        cands = {"a": unigram("a", [0]), "b": unigram("b", [30])}
        g = build_document_graph(DOC, cands, window=10)
        assert g.edge("a", "b", Layer.DOCUMENT) is None

    def test_empty_candidates(self):
        g = build_document_graph(DOC, {}, window=10)
        assert g.node_count() == 0


class TestWindowPairs:
    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e f"]),
                           st.sets(st.integers(0, 12), min_size=1)),
           st.integers(0, 4))
    @example({"a": {0}, "b": {0}}, 1)  # distinct keys sharing a start
    @example({"a": {0, 3}, "b": {3, 6}}, 3)  # pairs exactly window apart
    def test_matches_pairwise_oracle(self, starts, window):
        cands = {key: unigram(key, sorted(s)) for key, s in starts.items()}
        keys = sorted(cands)
        expected = {}
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                c = count_window_pairs(starts[a], starts[b], window)
                if c > 0:
                    expected[a, b] = c
        assert window_pairs(cands, window) == expected


def neighbor_pairs(abstract, window):
    doc = Document.build("n", "", abstract)
    return window_pairs(extract_candidates(doc, 3), window)


class TestCooccurrenceIn:
    def test_key_absent(self):
        pairs = neighbor_pairs("graph ranking helps.", window=10)
        assert not any("quantum" in pair for pair in pairs)
        assert ("graph", "help") in pairs

    def test_within_window(self):
        # offsets: graph=1, rank=4 (leading field break at 0)
        pairs = neighbor_pairs("graph methods improve ranking.", window=10)
        assert pairs["graph", "rank"] == 1
        # the window edge: starts exactly `window` apart still count
        pairs = neighbor_pairs("graph methods improve ranking.", window=3)
        assert pairs["graph", "rank"] == 1

    def test_window_too_small(self):
        pairs = neighbor_pairs("graph methods improve ranking.", window=2)
        assert ("graph", "rank") not in pairs


def present_graph_for(corpus, doc_id, window=10):
    cands = corpus.candidates_for(doc_id, 3)
    return build_document_graph(corpus[doc_id], cands, window)


class TestExpandGraph:
    def fixture(self, stopwords):
        return make_corpus([
            ("a", "Graph ranking", ""),
            ("b", "", "graph ranking improves. graph ranking helps."),
        ], stopwords)

    def test_empty_neighbor_set_is_identity(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a")
        before = edge_snapshot(g)
        nbrs = NeighborSet("a", [], k=0, min_sim=0.1)
        expand_graph(g, corpus["a"], nbrs, corpus)
        assert edge_snapshot(g) == before

    def test_lambda_zero_is_identity(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a")
        before = edge_snapshot(g)
        nbrs = NeighborSet("a", [("b", 0.9)], k=1, min_sim=0.0)
        expand_graph(g, corpus["a"], nbrs, corpus, lambda_domain=0.0)
        assert edge_snapshot(g) == before

    def test_domain_edge_weight_is_lambda_sim_count(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a", window=2)
        nbrs = NeighborSet("a", [("b", 0.5)], k=1, min_sim=0.0)
        # in b, graph/rank occurrence pairs within window 2: (1,2) and (5,6)
        expand_graph(g, corpus["a"], nbrs, corpus, window=2,
                     lambda_domain=1.0, absent_quota=0)
        domain = g.edge("graph", "rank", Layer.DOMAIN)
        assert domain.weight == pytest.approx(1.0, abs=1e-12)
        assert g.edge("graph", "rank", Layer.DOCUMENT).weight == 1.0

    def test_absent_quota_admits_exactly_one_connected_node(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", ""),
            ("b", "", "semantic index semantic index improves graph ranking."),
        ], stopwords)
        g = present_graph_for(corpus, "a")
        present_before = set(g.nodes)
        nbrs = NeighborSet("a", [("b", 0.8)], k=1, min_sim=0.0)
        expand_graph(g, corpus["a"], nbrs, corpus, absent_quota=1)
        absent = g.keys_with_origin(Origin.ABSENT)
        assert len(absent) == 1
        key = absent[0]
        assert key not in present_before
        domain_edges = [e for e in g.edges(Layer.DOMAIN)
                        if key in (e.u, e.v)]
        assert len(domain_edges) >= 1
        assert g.nodes[key].source_docs == {"b"}

    def test_never_deletes_and_never_touches_document_layer(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a")
        nodes_before = set(g.nodes)
        doc_edges_before = [(e.u, e.v, e.weight) for e in g.edges(Layer.DOCUMENT)]
        nbrs = NeighborSet("a", [("b", 0.7)], k=1, min_sim=0.0)
        expand_graph(g, corpus["a"], nbrs, corpus, absent_quota=5)
        assert nodes_before <= set(g.nodes)
        assert [(e.u, e.v, e.weight)
                for e in g.edges(Layer.DOCUMENT)] == doc_edges_before

    def test_domain_weights_monotone_in_similarity(self, stopwords):
        corpus = self.fixture(stopwords)
        weights = {}
        for sim in (0.3, 0.6, 0.9):
            g = present_graph_for(corpus, "a")
            nbrs = NeighborSet("a", [("b", sim)], k=1, min_sim=0.0)
            expand_graph(g, corpus["a"], nbrs, corpus, absent_quota=0)
            weights[sim] = {(e.u, e.v): e.weight for e in g.edges(Layer.DOMAIN)}
        assert weights[0.3].keys() == weights[0.9].keys()
        for pair in weights[0.3]:
            assert weights[0.3][pair] <= weights[0.6][pair] <= weights[0.9][pair]

    def test_component_count_never_increases(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", "Cluster methods. Spectral partitioning."),
            ("b", "", "graph ranking uses spectral partitioning of clusters."),
        ], stopwords)
        g = present_graph_for(corpus, "a")
        before = len(weakly_connected_components(g))
        nbrs = NeighborSet("a", [("b", 0.9)], k=1, min_sim=0.0)
        expand_graph(g, corpus["a"], nbrs, corpus, absent_quota=3)
        mid = len(weakly_connected_components(g))
        bridge_components(g, beta=2.0)
        after = len(weakly_connected_components(g))
        assert mid <= before
        assert after == mid


def expand_graph_oracle(g, nbrs, corpus, window, lambda_domain, absent_quota,
                        max_len=3):
    """expand_graph as it was before absent admission read partner views:
    every admission candidate looks up its pair with each PRESENT and
    previously admitted key. Kept as the oracle of the fast path."""
    if lambda_domain == 0 or not nbrs.neighbors:
        return g
    present = g.keys_with_origin(Origin.PRESENT)
    present_set = set(present)
    active = [(nid, sim) for nid, sim in nbrs.neighbors if sim > 0]
    neighbor_cands = {nid: corpus.candidates_for(nid, max_len)
                      for nid, _ in active}
    neighbor_pairs = {nid: window_pairs(cands, window)
                      for nid, cands in neighbor_cands.items()}
    for nid, sim in active:
        for (a, b), c in neighbor_pairs[nid].items():
            if a in present_set and b in present_set:
                g.add_edge(a, b, Layer.DOMAIN, lambda_domain * sim * c)
    if absent_quota == 0:
        return g
    scores = defaultdict(float)
    contributors = defaultdict(set)
    for nid, sim in active:
        for key, cand in neighbor_cands[nid].items():
            if key in present_set:
                continue
            scores[key] += sim * cand.frequency
            contributors[key].add(nid)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    admitted = []
    for key, score in ranked:
        if len(admitted) >= absent_quota or score <= 0:
            break
        links = {}
        for nid, sim in active:
            if nid not in contributors[key]:
                continue
            pairs = neighbor_pairs[nid]
            for other in present + admitted:
                c = pairs.get((min(key, other), max(key, other)), 0)
                if c > 0:
                    links[other] = links.get(other, 0.0) + lambda_domain * sim * c
        if not links:
            continue
        surfaces = Counter()
        for nid in sorted(contributors[key]):
            cand = neighbor_cands[nid].get(key)
            if cand is not None:
                surfaces.update(cand.surfaces)
        g.add_node(key, NodeInfo(origin=Origin.ABSENT,
                                 source_docs=set(contributors[key]),
                                 surfaces=surfaces))
        for other in sorted(links):
            g.add_edge(key, other, Layer.DOMAIN, links[other])
        admitted.append(key)
    return g


WORDS = ["graph", "ranking", "semantic", "index", "neural", "model",
         "query", "text", "search", "cluster", "the", "of"]
abstracts = st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
                     min_size=1, max_size=4).map(
    lambda sentences: " ".join(" ".join(s) + "." for s in sentences))


class TestExpandGraphOracle:
    @given(st.lists(abstracts, min_size=2, max_size=4),
           st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
                    min_size=3, max_size=3),
           st.integers(1, 6), st.sampled_from([0.5, 1.0, 2.5]),
           st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_partner_free_admission(self, stopwords, texts, sims,
                                            window, lambda_domain, quota):
        corpus = make_corpus([(f"d{i}", "", text)
                              for i, text in enumerate(texts)], stopwords)
        nbrs = NeighborSet("d0", [(f"d{i}", sim) for i, sim in
                                  zip(range(1, len(texts)), sims)],
                           k=3, min_sim=0.0)
        got = expand_graph(present_graph_for(corpus, "d0", window), corpus["d0"],
                           nbrs, corpus, window=window,
                           lambda_domain=lambda_domain, absent_quota=quota)
        want = expand_graph_oracle(present_graph_for(corpus, "d0", window),
                                   nbrs, corpus, window, lambda_domain, quota)
        assert got.nodes.keys() == want.nodes.keys()
        for key, info in want.nodes.items():
            assert got.nodes[key] == info
        assert got.weights == want.weights


def oracle_components(keys, pairs):
    """Transitive closure by saturation, independent of the BFS code."""
    reach = {k: {k} for k in keys}
    for u, v in pairs:
        reach[u].add(v)
        reach[v].add(u)
    changed = True
    while changed:
        changed = False
        for k in keys:
            expanded = set()
            for other in reach[k]:
                expanded |= reach[other]
            if expanded != reach[k]:
                reach[k] = expanded
                changed = True
    return sorted({frozenset(v) for v in reach.values()}, key=min)


class TestWeaklyConnectedComponents:
    def test_two_pairs(self):
        g = graph_of("abcd", [("a", "b", Layer.DOCUMENT, 1.0),
                              ("c", "d", Layer.DOCUMENT, 1.0)])
        assert weakly_connected_components(g) == [{"a", "b"}, {"c", "d"}]

    def test_empty_graph(self):
        assert weakly_connected_components(SemMultiGraph()) == []

    def test_transitivity(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOMAIN, 1.0)])
        assert weakly_connected_components(g) == [{"a", "b", "c"}]

    def test_isolated_nodes_are_singletons(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0)])
        assert weakly_connected_components(g) == [{"a", "b"}, {"c"}]

    def test_matches_transitive_closure_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 20)
            keys = [f"n{i:02d}" for i in range(n)]
            pairs = set()
            if n >= 2:
                for _ in range(rng.randint(0, 2 * n)):
                    u, v = rng.sample(keys, 2)
                    pairs.add((min(u, v), max(u, v)))
            edges = [(u, v, rng.choice([Layer.DOCUMENT, Layer.DOMAIN]),
                      rng.uniform(0.1, 3.0)) for u, v in sorted(pairs)]
            g = graph_of(keys, edges)
            got = [frozenset(c) for c in weakly_connected_components(g)]
            assert got == oracle_components(keys, sorted(pairs))


class TestBridgeComponents:
    def test_fully_connected_document_layer_unchanged(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOCUMENT, 1.0),
                             ("a", "c", Layer.DOMAIN, 0.4)])
        bridge_components(g, beta=2.0)
        assert g.edge("a", "c", Layer.DOMAIN).weight == 0.4

    def test_cross_component_domain_edge_boosted(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOMAIN, 0.5)])
        bridge_components(g, beta=2.0)
        assert g.edge("b", "c", Layer.DOMAIN).weight == 1.0
        assert g.edge("a", "b", Layer.DOCUMENT).weight == 1.0

    def test_beta_one_is_identity(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOMAIN, 0.5)])
        before = edge_snapshot(g)
        bridge_components(g, beta=1.0)
        assert edge_snapshot(g) == before


class TestGraphStructure:
    def test_self_loops_rejected(self):
        g = graph_of("ab", [])
        with pytest.raises(ValueError):
            g.add_edge("a", "a", Layer.DOCUMENT, 1.0)

    def test_parallel_layers_allowed_but_accumulated_within_layer(self):
        g = graph_of("ab", [])
        g.add_edge("a", "b", Layer.DOCUMENT, 1.0)
        g.add_edge("a", "b", Layer.DOMAIN, 0.5)
        g.add_edge("a", "b", Layer.DOMAIN, 0.25)
        assert g.edge_count() == 2
        assert g.edge("a", "b", Layer.DOMAIN).weight == 0.75

    def test_positive_weights_enforced(self):
        g = graph_of("ab", [])
        with pytest.raises(ValueError):
            g.add_edge("a", "b", Layer.DOCUMENT, 0.0)

    def test_dot_dump_mentions_layers_and_origins(self):
        g = graph_of("ab", [("a", "b", Layer.DOCUMENT, 2.0)])
        dot = to_dot(g, name="t")
        assert "document:2" in dot
        assert "(present)" in dot
