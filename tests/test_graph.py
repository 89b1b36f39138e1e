import random
from collections import Counter, defaultdict
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from kpindex import Config, ConfigError
from kpindex.corpus import (Document, extract_candidates, load_corpus,
                            preferred_surface, surface_counts)
from kpindex.graph import (Layer, NodeInfo, Origin, SemMultiGraph,
                           bridge_components, build_document_graph,
                           expand_graph, to_dot, window_pairs)
from kpindex.similarity import TfidfSimilarity

from conftest import make_corpus


def add_weight(g, u, v, layer, w):
    """Accumulate w onto the sorted pair's weight in one layer."""
    weights = g.weights[layer]
    pair = (u, v) if u < v else (v, u)
    weights[pair] = weights.get(pair, 0.0) + w


def graph_of(nodes, edges):
    g = SemMultiGraph()
    for key in nodes:
        g.nodes[key] = NodeInfo(Origin.PRESENT, ("d",))
    for u, v, layer, w in edges:
        add_weight(g, u, v, layer, w)
    return g


def edge_snapshot(g, layer=None):
    """(u, v, layer, weight) per edge, by pair, DOCUMENT before DOMAIN."""
    layers = list(Layer) if layer is None else [layer]
    return sorted(((u, v, lay, w) for lay in layers
                   for (u, v), w in g.weights[lay].items()),
                  key=lambda e: (e[0], e[1], e[2].value))


def count_window_pairs(starts_a, starts_b, window):
    """Pairwise count that window_pairs replaced; kept as its oracle."""
    return sum(1 for a in starts_a for b in starts_b if abs(a - b) <= window)


# a token at every start offset the tests below use
DOC = Document.build("d", "", " ".join(["word"] * 31))


class TestBuildDocumentGraph:
    def test_single_candidate(self):
        g = build_document_graph(DOC, {"x": [0]}, Config(window=10))
        assert len(g.nodes) == 1
        assert g.edge_count(Layer.DOCUMENT) == g.edge_count(Layer.DOMAIN) == 0

    def test_pair_within_window(self):
        cands = {"a": [0], "b": [5]}
        g = build_document_graph(DOC, cands, Config(window=10))
        assert g.weights[Layer.DOCUMENT].get(("a", "b")) == 1.0

    def test_multiple_occurrence_pairs(self):
        cands = {"a": [0, 3], "b": [5]}
        g = build_document_graph(DOC, cands, Config(window=10))
        assert g.weights[Layer.DOCUMENT][("a", "b")] == 2.0

    def test_pair_outside_window_gets_no_edge(self):
        cands = {"a": [0], "b": [30]}
        g = build_document_graph(DOC, cands, Config(window=10))
        assert ("a", "b") not in g.weights[Layer.DOCUMENT]

    def test_empty_candidates(self):
        g = build_document_graph(DOC, {}, Config(window=10))
        assert len(g.nodes) == 0


class TestWindowPairs:
    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e f"]),
                           st.sets(st.integers(0, 12), min_size=1)),
           st.integers(0, 4))
    @example({"a": {0}, "b": {0}}, 1)  # distinct keys sharing a start
    @example({"a": {0, 3}, "b": {3, 6}}, 3)  # pairs exactly window apart
    def test_matches_pairwise_oracle(self, starts, window):
        cands = {key: sorted(s) for key, s in starts.items()}
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
    return window_pairs(extract_candidates(doc, 3, frozenset()), window)


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


def present_graph_for(corpus, doc_id, window=10, max_len=3):
    cands = corpus.candidates_for(doc_id, max_len)
    return build_document_graph(corpus[doc_id], cands,
                                Config(window=window, max_len=max_len))


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
        nbrs = []
        expand_graph(g, nbrs, corpus)
        assert edge_snapshot(g) == before

    def test_lambda_zero_is_identity(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a")
        before = edge_snapshot(g)
        nbrs = [("b", 0.9)]
        expand_graph(g, nbrs, corpus, Config(lambda_domain=0.0))
        assert edge_snapshot(g) == before

    @pytest.mark.parametrize("target, quota", [("Graph ranking", 0),
                                               ("Graph", 3)])
    def test_weight_underflow_is_config_error(self, stopwords, target, quota):
        """A PRESENT pair (quota 0) or an ABSENT admission (a lone PRESENT
        key) whose weight rounds to 0 names lambda_domain."""
        corpus = make_corpus([("a", target, ""),
                              ("b", "", "graph ranking model.")], stopwords)
        nbrs = [("b", 0.5)]
        with pytest.raises(ConfigError, match="lambda_domain"):
            expand_graph(present_graph_for(corpus, "a"), nbrs, corpus,
                         Config(lambda_domain=5e-324, absent_quota=quota))

    def test_tiny_scale_is_checked_per_neighbor_with_a_pair(self, stopwords):
        """The underflow check reads lambda_domain * sim once per neighbor:
        a neighbor with no pair between graph nodes raises nothing, and a
        scale that stays above 0 gives every count a weight above 0."""
        corpus = make_corpus([("a", "Graph ranking", ""),
                              ("b", "", "semantic index model."),
                              ("c", "", "graph ranking model.")], stopwords)
        cfg = Config(lambda_domain=5e-324, absent_quota=0)
        g = expand_graph(present_graph_for(corpus, "a"), [("b", 0.5)],
                         corpus, cfg)
        assert g.weights[Layer.DOMAIN] == {}
        g = expand_graph(present_graph_for(corpus, "a"), [("c", 1.0)],
                         corpus, cfg)
        assert g.weights[Layer.DOMAIN] == {("graph", "graph rank"): 5e-324,
                                           ("graph", "rank"): 5e-324,
                                           ("graph rank", "rank"): 5e-324}

    def test_domain_edge_weight_is_lambda_sim_count(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a", window=2)
        nbrs = [("b", 0.5)]
        # in b, graph/rank occurrence pairs within window 2: (1,2) and (5,6)
        expand_graph(g, nbrs, corpus,
                     Config(window=2, lambda_domain=1.0, absent_quota=0))
        domain = g.weights[Layer.DOMAIN][("graph", "rank")]
        assert domain == pytest.approx(1.0, abs=1e-12)
        assert g.weights[Layer.DOCUMENT][("graph", "rank")] == 1.0

    def test_absent_quota_admits_exactly_one_connected_node(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", ""),
            ("b", "", "semantic index semantic index improves graph ranking."),
        ], stopwords)
        g = present_graph_for(corpus, "a")
        present_before = set(g.nodes)
        nbrs = [("b", 0.8)]
        expand_graph(g, nbrs, corpus, Config(absent_quota=1))
        absent = g.keys_with_origin(Origin.ABSENT)
        assert len(absent) == 1
        key = absent[0]
        assert key not in present_before
        domain_edges = [pair for pair in g.weights[Layer.DOMAIN]
                        if key in pair]
        assert len(domain_edges) >= 1
        assert g.nodes[key].sources == ("b",)

    def test_candidate_without_linkable_partner_is_skipped(self, stopwords):
        # in b, "neural"/"model" start at 1 and 2, "graph" at 4: with
        # window 1 no absent key co-occurs with a present one
        corpus = make_corpus([
            ("a", "Graph ranking", ""),
            ("b", "", "neural model. graph ranking."),
        ], stopwords)
        g = present_graph_for(corpus, "a", window=1)
        nbrs = [("b", 0.8)]
        expand_graph(g, nbrs, corpus, Config(window=1, absent_quota=3))
        assert g.keys_with_origin(Origin.ABSENT) == []
        # with window 2, "model" links to "graph" and the others to "model"
        g = present_graph_for(corpus, "a", window=2)
        expand_graph(g, nbrs, corpus, Config(window=2, absent_quota=3))
        assert g.keys_with_origin(Origin.ABSENT) == [
            "model", "neural", "neural model"]

    def test_never_deletes_and_never_touches_document_layer(self, stopwords):
        corpus = self.fixture(stopwords)
        g = present_graph_for(corpus, "a")
        nodes_before = set(g.nodes)
        doc_edges_before = edge_snapshot(g, Layer.DOCUMENT)
        nbrs = [("b", 0.7)]
        expand_graph(g, nbrs, corpus, Config(absent_quota=5))
        assert nodes_before <= set(g.nodes)
        assert edge_snapshot(g, Layer.DOCUMENT) == doc_edges_before

    def test_domain_weights_monotone_in_similarity(self, stopwords):
        corpus = self.fixture(stopwords)
        weights = {}
        for sim in (0.3, 0.6, 0.9):
            g = present_graph_for(corpus, "a")
            nbrs = [("b", sim)]
            expand_graph(g, nbrs, corpus, Config(absent_quota=0))
            weights[sim] = dict(g.weights[Layer.DOMAIN])
        assert weights[0.3].keys() == weights[0.9].keys()
        for pair in weights[0.3]:
            assert weights[0.3][pair] <= weights[0.6][pair] <= weights[0.9][pair]

    def test_component_count_never_increases(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", "Cluster methods. Spectral partitioning."),
            ("b", "", "graph ranking uses spectral partitioning of clusters."),
        ], stopwords)
        g = present_graph_for(corpus, "a")
        before = len(all_layer_components(g))
        nbrs = [("b", 0.9)]
        expand_graph(g, nbrs, corpus, Config(absent_quota=3))
        mid = len(all_layer_components(g))
        bridge_components(g, Config(beta=2.0))
        after = len(all_layer_components(g))
        assert mid <= before
        assert after == mid


def expand_graph_oracle(g, nbrs, corpus, window, lambda_domain, absent_quota,
                        max_len=3, surfaces=None):
    """Reference expand_graph: full window pairs over each neighbor's
    candidates, and every admission candidate looks up its pair with each
    PRESENT and previously admitted key. Kept as the oracle of the fast
    path. Given a dict `surfaces`, it also records a surface for each key
    as it is admitted: the most frequent surface summed over the key's
    sources, ties lexicographic."""
    if lambda_domain == 0 or not nbrs:
        return g
    present = g.keys_with_origin(Origin.PRESENT)
    present_set = set(present)
    active = [(nid, sim) for nid, sim in nbrs if sim > 0]
    neighbor_cands = {nid: corpus.candidates_for(nid, max_len)
                      for nid, _ in active}
    neighbor_pairs = {nid: window_pairs(cands, window)
                      for nid, cands in neighbor_cands.items()}
    for nid, sim in active:
        for (a, b), c in neighbor_pairs[nid].items():
            if a in present_set and b in present_set:
                add_weight(g, a, b, Layer.DOMAIN, lambda_domain * sim * c)
    if absent_quota == 0:
        return g
    scores = defaultdict(float)
    contributors = defaultdict(set)
    for nid, sim in active:
        for key, starts in neighbor_cands[nid].items():
            if key in present_set:
                continue
            scores[key] += sim * len(starts)
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
        if surfaces is not None:
            counts = Counter()
            for nid in sorted(contributors[key]):
                starts = neighbor_cands[nid].get(key)
                if starts is not None:
                    counts.update(surface_counts(corpus[nid], key, starts))
            surfaces[key] = preferred_surface(counts)
        g.nodes[key] = NodeInfo(Origin.ABSENT, tuple(sorted(contributors[key])))
        for other in sorted(links):
            add_weight(g, key, other, Layer.DOMAIN, links[other])
        admitted.append(key)
    return g


WORDS = ["graph", "ranking", "semantic", "index", "neural", "model",
         "query", "text", "search", "cluster", "the", "of"]
abstracts = st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
                     min_size=1, max_size=4).map(
    lambda sentences: " ".join(" ".join(s) + "." for s in sentences))


class TestExpandGraphOracle:
    @given(st.lists(abstracts, min_size=2, max_size=4),
           st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
                    min_size=3, max_size=3),
           st.integers(1, 12), st.sampled_from([0.5, 1.0, 2.5]),
           st.integers(0, 12), st.integers(1, 3))
    # "neural" has no linkable key within the window: admission skips it
    @example(texts=["graph.", "neural. the of the graph."],
             sims=[0.7, 0.0, 0.0], window=1, lambda_domain=1.0, quota=2,
             max_len=3)
    # quota 1 would admit "graph neural": quota 0 admits nothing
    @example(texts=["graph.", "graph neural."], sims=[0.7, 0.0, 0.0],
             window=1, lambda_domain=1.0, quota=0, max_len=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_partner_free_admission(self, stopwords, texts, sims,
                                            window, lambda_domain, quota,
                                            max_len):
        corpus = make_corpus([(f"d{i}", "", text)
                              for i, text in enumerate(texts)], stopwords)
        nbrs = [(f"d{i}", sim) for i, sim in zip(range(1, len(texts)), sims)]
        config = Config(window=window, lambda_domain=lambda_domain,
                        absent_quota=quota, max_len=max_len)
        got = expand_graph(present_graph_for(corpus, "d0", window, max_len),
                           nbrs, corpus, config)
        want = expand_graph_oracle(
            present_graph_for(corpus, "d0", window, max_len), nbrs, corpus,
            window, lambda_domain, quota, max_len)
        assert got.nodes == want.nodes
        assert got.weights == want.weights

    @pytest.mark.parametrize("quota, window", [(10, 10), (40, 4)])
    def test_matches_oracle_on_sample100(self, quota, window):
        corpus = load_corpus(str(resources.files("kpindex").joinpath(
            "data/sample100.jsonl")))
        provider = TfidfSimilarity(corpus)
        config = Config(absent_quota=quota, window=window)
        admitted = 0
        for doc in list(corpus)[:30]:
            nbrs = provider.neighbors(doc.id, k=5, min_sim=0.0).neighbors
            got = expand_graph(present_graph_for(corpus, doc.id, window),
                               nbrs, corpus, config)
            want = expand_graph_oracle(present_graph_for(corpus, doc.id, window),
                                       nbrs, corpus, window,
                                       config.lambda_domain, quota)
            assert got.nodes == want.nodes
            assert got.weights == want.weights
            admitted += len(got.keys_with_origin(Origin.ABSENT))
        assert admitted > 0

    def test_window_beyond_every_document_changes_nothing(self, tmp_path):
        # 10**4 tokens is longer than any sample100 document, so a larger
        # window reaches no further; admission must not walk the difference.
        lines = resources.files("kpindex").joinpath(
            "data/sample100.jsonl").read_text("utf-8").splitlines()[:10]
        path = tmp_path / "first10.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(str(path))
        provider = TfidfSimilarity(corpus)
        admitted = 0
        for doc in corpus:
            nbrs = provider.neighbors(doc.id, k=5, min_sim=0.0).neighbors
            wide, widest = (
                expand_graph(present_graph_for(corpus, doc.id, window),
                             nbrs, corpus, Config(window=window))
                for window in (10**4, 10**9))
            assert widest.nodes == wide.nodes
            assert widest.weights == wide.weights
            admitted += len(wide.keys_with_origin(Origin.ABSENT))
        assert admitted > 0


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


def all_layer_components(g):
    """Components of the graph with both layers' edges taken as undirected."""
    pairs = sorted(set(g.weights[Layer.DOCUMENT]) | set(g.weights[Layer.DOMAIN]))
    return oracle_components(list(g.nodes), pairs)


def random_layered_graph(rng, max_nodes, max_weight):
    """Random pairs over up to max_nodes keys, each on a random layer; about
    a fifth of the keys are ABSENT and so get DOMAIN edges only."""
    n = rng.randint(1, max_nodes)
    keys = [f"n{i:02d}" for i in range(n)]
    absent = {key for key in keys if rng.random() < 0.2}
    pairs = set()
    if n >= 2:
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(keys, 2)
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, Layer.DOMAIN if {u, v} & absent
              else rng.choice([Layer.DOCUMENT, Layer.DOMAIN]),
              rng.uniform(0.1, max_weight)) for u, v in sorted(pairs)]
    g = graph_of(keys, edges)
    for key in absent:
        g.nodes[key] = NodeInfo(Origin.ABSENT, ("x",))
    return g


def assert_bridged_like_oracle(g, beta):
    """bridge_components multiplies by beta exactly the DOMAIN edges whose
    endpoints lie in different oracle_components of the DOCUMENT pairs,
    and changes nothing else."""
    components = oracle_components(list(g.nodes), sorted(g.weights[Layer.DOCUMENT]))
    component_of = {key: comp for comp in components for key in comp}
    want = {(u, v): w * beta if component_of[u] != component_of[v] else w
            for (u, v), w in g.weights[Layer.DOMAIN].items()}
    document = dict(g.weights[Layer.DOCUMENT])
    nodes = dict(g.nodes)
    assert bridge_components(g, Config(beta=beta)) is g
    assert g.weights[Layer.DOMAIN] == want
    assert g.weights[Layer.DOCUMENT] == document
    assert g.nodes == nodes


class TestBridgeComponents:
    def test_fully_connected_document_layer_unchanged(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOCUMENT, 1.0),
                             ("a", "c", Layer.DOMAIN, 0.4)])
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN][("a", "c")] == 0.4

    def test_cross_component_domain_edge_boosted(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOMAIN, 0.5)])
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN][("b", "c")] == 1.0
        assert g.weights[Layer.DOCUMENT][("a", "b")] == 1.0

    def test_beta_one_is_identity(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOMAIN, 0.5)])
        before = edge_snapshot(g)
        bridge_components(g, Config(beta=1.0))
        assert edge_snapshot(g) == before

    def test_two_pairs(self):
        g = graph_of("abcd", [("a", "b", Layer.DOCUMENT, 1.0),
                              ("c", "d", Layer.DOCUMENT, 1.0),
                              ("a", "b", Layer.DOMAIN, 0.5),
                              ("b", "c", Layer.DOMAIN, 0.5),
                              ("a", "d", Layer.DOMAIN, 0.5)])
        bridge_components(g, Config(beta=3.0))
        assert g.weights[Layer.DOMAIN] == {
            ("a", "b"): 0.5, ("b", "c"): 1.5, ("a", "d"): 1.5}

    def test_domain_path_does_not_merge_components(self):
        g = graph_of("abc", [("a", "b", Layer.DOMAIN, 0.5),
                             ("b", "c", Layer.DOMAIN, 0.25)])
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN] == {("a", "b"): 1.0, ("b", "c"): 0.5}

    def test_transitivity(self):
        # a-b-c is one DOCUMENT chain, so the a-c DOMAIN edge bridges nothing
        g = graph_of("abcd", [("a", "b", Layer.DOCUMENT, 1.0),
                              ("b", "c", Layer.DOCUMENT, 1.0),
                              ("a", "c", Layer.DOMAIN, 0.5),
                              ("c", "d", Layer.DOMAIN, 0.5)])
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN] == {("a", "c"): 0.5, ("c", "d"): 1.0}

    def test_absent_node_is_its_own_component(self):
        g = graph_of("ab", [("a", "b", Layer.DOCUMENT, 1.0),
                            ("a", "x", Layer.DOMAIN, 0.5),
                            ("b", "x", Layer.DOMAIN, 0.25),
                            ("x", "y", Layer.DOMAIN, 1.0)])
        for key in "xy":
            g.nodes[key] = NodeInfo(Origin.ABSENT, ("b",))
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN] == {
            ("a", "x"): 1.0, ("b", "x"): 0.5, ("x", "y"): 2.0}

    def test_isolated_nodes_are_singletons(self):
        # c is PRESENT but on no DOCUMENT edge
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("a", "b", Layer.DOMAIN, 0.5),
                             ("b", "c", Layer.DOMAIN, 0.5)])
        bridge_components(g, Config(beta=2.0))
        assert g.weights[Layer.DOMAIN] == {("a", "b"): 0.5, ("b", "c"): 1.0}

    def test_empty_graph(self):
        g = bridge_components(SemMultiGraph(), Config(beta=2.0))
        assert g.nodes == {}
        assert g.weights == {Layer.DOCUMENT: {}, Layer.DOMAIN: {}}

    def test_matches_transitive_closure_oracle(self):
        rng = random.Random(42)
        for _ in range(100):
            assert_bridged_like_oracle(random_layered_graph(rng, 20, 3.0),
                                       rng.choice([1.0, 1.5, 2.0, 7.0]))


class TestGraphStructure:
    def test_dot_dump_mentions_layers_and_origins(self):
        g = graph_of("ab", [("a", "b", Layer.DOCUMENT, 2.0)])
        dot = to_dot(g, name="t")
        assert "document:2" in dot
        assert "(present)" in dot

    @pytest.mark.parametrize("name, header", [
        ('x"y', 'graph "x\\"y" {'),
        ("x\\", 'graph "x\\\\" {'),
        ('a\\"b', 'graph "a\\\\\\"b" {'),
    ])
    def test_dot_dump_escapes_graph_name(self, name, header):
        assert to_dot(graph_of("a", []), name=name).splitlines()[0] == header
