import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kpindex import (Config, ConfigError, TfidfSimilarity, extract_pipeline,
                     load_corpus)
from kpindex.corpus import most_frequent_surface
from kpindex.graph import (Layer, NodeInfo, Origin, SemMultiGraph,
                           bridge_components, build_document_graph,
                           expand_graph, to_dot)
from kpindex.ranking import (_power_iteration, extract_document, pagerank,
                             rank_keyphrases)

from conftest import make_corpus
from synth import build_synthetic_records
from test_cli import EXTREME_LAMBDA_DOMAIN, SAMPLE100
from test_graph import edge_snapshot, expand_graph_oracle, graph_of
from test_similarity import small_corpora


def linear_solve_scores(g, damping):
    """Independent oracle: solve (I - dM) S = (1-d)/n directly, normalize."""
    keys = sorted(g.nodes)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}
    weights = {}
    for u, v, _, w in edge_snapshot(g):
        pair = (idx[u], idx[v])
        weights[pair] = weights.get(pair, 0.0) + w
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
    for u, v, _, w in edge_snapshot(g):
        pair = (u, v)
        summed[pair] = summed.get(pair, 0.0) + w
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
    scaled.nodes.update(g.nodes)
    for layer, weights in g.weights.items():
        scaled.weights[layer] = {pair: w * factor for pair, w in weights.items()}
    return scaled


class TestPagerank:
    def test_empty_graph(self):
        assert pagerank(SemMultiGraph()) == ({}, True)

    def test_converged_reports_the_last_delta(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 2.0),
                             ("b", "c", Layer.DOCUMENT, 1.0)])
        deltas = [d for _, d in _power_iteration(g, Config())]
        assert deltas[-1] <= Config().tol < deltas[0]
        assert pagerank(g)[1] is True
        assert pagerank(g, Config(max_iter=1))[1] is False
        assert pagerank(g, Config(max_iter=len(deltas)))[1] is True
        assert pagerank(g, Config(max_iter=len(deltas) - 1))[1] is False

    def test_out_of_range_config_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="damping"):
            Config(damping=1.5)

    def test_infinite_weight_total_is_config_error(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1e308),
                             ("a", "c", Layer.DOMAIN, 1e308)])
        with pytest.raises(ConfigError, match="lambda_domain or beta"):
            pagerank(g)

    def test_single_node(self):
        scores, _ = pagerank(graph_of("a", []))
        assert scores["a"] == pytest.approx(1.0, abs=1e-12)

    def test_two_nodes_one_edge(self):
        scores, _ = pagerank(graph_of("ab", [("a", "b", Layer.DOCUMENT, 3.0)]))
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_triangle_equal_weights(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0),
                             ("b", "c", Layer.DOCUMENT, 1.0),
                             ("a", "c", Layer.DOCUMENT, 1.0)])
        scores, _ = pagerank(g)
        for v in scores.values():
            assert v == pytest.approx(1 / 3, abs=1e-9)

    def test_weighted_path_ordering(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 2.0),
                             ("b", "c", Layer.DOCUMENT, 1.0)])
        scores, _ = pagerank(g)
        assert scores["b"] > scores["a"] > scores["c"]
        oracle = linear_solve_scores(g, 0.85)
        for k in scores:
            assert scores[k] == pytest.approx(oracle[k], abs=1e-5)

    def test_isolated_node_keeps_teleport_share_only(self):
        g = graph_of("abc", [("a", "b", Layer.DOCUMENT, 1.0)])
        scores, _ = pagerank(g)
        assert scores["a"] == pytest.approx(scores["b"], abs=1e-12)
        assert scores["c"] < scores["a"]
        base, connected = 0.05, 0.05 / 0.15
        total = 2 * connected + base
        assert scores["c"] == pytest.approx(base / total, abs=1e-6)

    def test_scores_sum_to_one(self):
        rng = random.Random(5)
        for _ in range(30):
            scores, _ = pagerank(random_graph(rng))
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(v >= 0 for v in scores.values())

    def test_matches_linear_solve_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng)
            scores, _ = pagerank(g)
            oracle = linear_solve_scores(g, 0.85)
            for k in scores:
                assert scores[k] == pytest.approx(oracle[k], abs=1e-5)

    def test_uniform_weight_scaling_invariance(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng)
            base, _ = pagerank(g)
            for factor in (0.5, 3.0, 10.0):
                scaled, _ = pagerank(scale_edges(g, factor))
                for k in base:
                    assert scaled[k] == pytest.approx(base[k], abs=1e-9)

    def test_l1_residual_non_increasing(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng)
            deltas = [d for _, d in
                      _power_iteration(g, Config(tol=1e-12, max_iter=60))]
            for earlier, later in zip(deltas, deltas[1:]):
                assert later <= earlier + 1e-15

    def test_insertion_order_invariance(self):
        edges = [("a", "b", Layer.DOCUMENT, 1.0),
                 ("b", "c", Layer.DOMAIN, 0.5),
                 ("a", "c", Layer.DOCUMENT, 2.0)]
        forward = graph_of("abc", edges)
        backward = graph_of("cba", list(reversed(edges)))
        assert pagerank(forward) == pagerank(backward)
        # no reader uses node order: ranked rows and the dot dump agree too
        corpus = corpus_of([("d", "", "a b c.")])
        assert (rank_keyphrases(forward, pagerank(forward)[0], corpus)
                == rank_keyphrases(backward, pagerank(backward)[0], corpus))
        assert to_dot(forward) == to_dot(backward)


class TestPowerIterationOracle:
    @given(graphs, st.sampled_from([Config(),
                                    Config(tol=1e-12, max_iter=60),
                                    Config(damping=0.5, max_iter=3)]))
    @example((["n0"], []), Config())  # single node
    @example((["n0", "n1", "n2"], [(0, 1, Layer.DOCUMENT, 2.0)]),
             Config())  # isolated node
    @example((["n0", "n1", "n2"], [(0, 1, Layer.DOCUMENT, 0.3),
                                   (1, 0, Layer.DOMAIN, 0.1),
                                   (1, 2, Layer.DOMAIN, 0.7)]),
             Config())  # both layers on one pair
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
        assert pagerank(g, params) == (
            {k: s / norm for k, s in zip(keys, last)}, want[-1][1] <= params.tol)


def node(origin, sources=("d",)):
    return NodeInfo(origin, tuple(sources))


def corpus_of(rows):
    """A corpus without stopwords, so that one-letter words are candidates."""
    return make_corpus(rows, frozenset())


class TestRankKeyphrases:
    def build(self):
        g = SemMultiGraph()
        g.nodes["p"] = node(Origin.PRESENT)
        g.nodes["q"] = node(Origin.ABSENT, sources=("n1",))
        return g, corpus_of([("d", "", "p."), ("n1", "", "q.")])

    def test_gamma_zero_drops_absent(self):
        g, corpus = self.build()
        ranked = rank_keyphrases(g, {"p": 0.5, "q": 0.5}, corpus,
                                 Config(gamma_absent=0.0))
        assert [r.key for r in ranked] == ["p"]

    def test_no_absent_nodes_preserves_raw_order(self):
        g = graph_of("abc", [])
        scores = {"a": 0.2, "b": 0.5, "c": 0.3}
        ranked = rank_keyphrases(g, scores, corpus_of([("d", "", "a b c.")]),
                                 Config(gamma_absent=0.0))
        assert [r.key for r in ranked] == ["b", "c", "a"]
        assert [r.score for r in ranked] == [0.5, 0.3, 0.2]

    def test_interleaving_arithmetic(self):
        g, corpus = self.build()
        ranked = rank_keyphrases(g, {"p": 0.10, "q": 0.15}, corpus,
                                 Config(gamma_absent=0.8))
        assert [r.key for r in ranked] == ["q", "p"]
        assert ranked[0].score == pytest.approx(0.12, abs=1e-12)

    def test_truncation_and_tie_break(self):
        g = graph_of(["k1", "k2", "k3"], [])
        ranked = rank_keyphrases(g, {"k1": 0.4, "k2": 0.4, "k3": 0.2},
                                 corpus_of([("d", "", "k1 k2 k3.")]),
                                 Config(top_n=2))
        assert [r.key for r in ranked] == ["k1", "k2"]

    def test_reads_surfaces_only_for_reported_rows(self):
        # "k3" is no candidate of d: reading its surface would fail
        g = graph_of(["k1", "k2", "k3"], [])
        ranked = rank_keyphrases(g, {"k1": 0.4, "k2": 0.4, "k3": 0.2},
                                 corpus_of([("d", "K1", "k2.")]),
                                 Config(top_n=2))
        assert [(r.key, r.surface) for r in ranked] == [("k1", "k1"),
                                                        ("k2", "k2")]

    def test_present_surface_most_frequent_then_earliest(self):
        def surface_of(abstract):
            corpus = corpus_of([("d", "", abstract)])
            g = build_document_graph(corpus["d"], corpus.candidates_for("d", 3))
            return rank_keyphrases(g, {"network": 1.0}, corpus,
                                   Config())[0].surface

        assert surface_of("network. networks. networks.") == "networks"
        assert surface_of("network. networks.") == "network"
        # earliest, not lexicographically least
        assert surface_of("networks. network.") == "networks"

    def test_absent_surface_tie_breaks_lexicographically(self, stopwords):
        corpus = make_corpus([("a", "Graph", ""),
                              ("n1", "", "graph ranking."),
                              ("n2", "", "graph ranked.")], stopwords)
        g = build_document_graph(corpus["a"], corpus.candidates_for("a", 3))
        expand_graph(g, [("n1", 0.5), ("n2", 0.5)], corpus,
                     Config(absent_quota=5))
        assert g.nodes["rank"].origin is Origin.ABSENT
        ranked = rank_keyphrases(g, {"rank": 1.0}, corpus, Config())
        assert ranked[0].surface == "ranked"
        assert ranked[0].sources == ["n1", "n2"]


def rank_every_node_oracle(doc_id, corpus, provider, config):
    """The every-node surface path that ranking replaced: a surface for each
    node as the graph is built (PRESENT: most frequent in the document, ties
    to the earliest occurrence; ABSENT: expand_graph_oracle's), then
    PageRank, the origin factor, the sort and the truncation. Rows are
    (key, surface, score, origin, sources)."""
    cands = corpus.candidates_for(doc_id, config.max_len)
    g = build_document_graph(corpus[doc_id], cands, config)
    surfaces = {key: most_frequent_surface(corpus[doc_id], key, starts)
                for key, starts in cands.items()}
    nbrs = provider.neighbors(doc_id, config.k_neighbors,
                              config.min_sim).neighbors
    expand_graph_oracle(g, nbrs, corpus, config.window, config.lambda_domain,
                        config.absent_quota, config.max_len, surfaces)
    bridge_components(g, config)
    scores, _ = pagerank(g, config)
    rows = []
    for key in sorted(scores):
        info = g.nodes[key]
        factor = config.gamma_absent if info.origin is Origin.ABSENT else 1.0
        if scores[key] * factor > 0:
            rows.append((key, surfaces[key], scores[key] * factor,
                         info.origin, list(info.sources)))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:config.top_n]


def inflected_synthetic_corpus(docs_per_topic, clique_size, seed, stopwords):
    """tests/synth.py's corpus with a plural "s" added to about a third of
    its longer words, so that a key has several surfaces whose counts tie
    or differ."""
    rng = random.Random(seed)
    records, _ = build_synthetic_records(docs_per_topic, clique_size)

    def inflect(text):
        return re.sub(r"[a-z]{4,}",
                      lambda m: m[0] + "s" if rng.random() < 0.3 else m[0], text)
    return make_corpus([(r["id"], inflect(r["title"]), inflect(r["abstract"]))
                        for r in records], stopwords)


class TestSurfacesOnlyForReportedRows:
    @given(st.sampled_from([(4, 2), (4, 4), (8, 4)]), st.integers(0, 2**16),
           st.integers(0, 15), st.sampled_from([1, 3, 1000]),
           st.sampled_from([0.0, 0.8]), st.sampled_from([0, 3, 10]),
           st.sampled_from([2, 10]))
    @settings(max_examples=60, deadline=None)
    def test_matches_every_node_oracle(self, stopwords, shape, seed, pick,
                                       top_n, gamma_absent, absent_quota,
                                       window):
        corpus = inflected_synthetic_corpus(*shape, seed, stopwords)
        doc_id = sorted(corpus.ids())[pick % len(corpus)]
        config = Config(min_sim=0.0, top_n=top_n, gamma_absent=gamma_absent,
                        absent_quota=absent_quota, window=window)
        provider = TfidfSimilarity(corpus)
        got = [(r.key, r.surface, r.score, r.origin, r.sources)
               for r in extract_pipeline(doc_id, corpus, config, provider)]
        assert got == rank_every_node_oracle(doc_id, corpus, provider, config)

    def test_every_row_of_the_synthetic_corpus(self, stopwords):
        corpus = inflected_synthetic_corpus(20, 4, 7, stopwords)
        config = Config(top_n=1000)
        provider = TfidfSimilarity(corpus)
        absent = 0
        for doc_id in sorted(corpus.ids()):
            want = rank_every_node_oracle(doc_id, corpus, provider, config)
            got = [(r.key, r.surface, r.score, r.origin, r.sources)
                   for r in extract_pipeline(doc_id, corpus, config, provider)]
            assert got == want
            absent += sum(row[3] is Origin.ABSENT for row in want)
        assert absent > 0


def ranking_as_json(ranked):
    return json.dumps([{"key": r.key, "surface": r.surface, "score": r.score,
                        "origin": r.origin.value, "sources": r.sources}
                       for r in ranked], sort_keys=True)


def bit_pattern(g):
    """Nodes and every edge weight as float.hex, layer by layer."""
    return g.nodes, {layer: {pair: w.hex() for pair, w in weights.items()}
                     for layer, weights in g.weights.items()}


class TestEnrichedGraphAtKZero:
    @given(small_corpora(), st.integers(1, 3), st.integers(1, 12),
           st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0, 10]),
           st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([1.0, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_is_the_bridged_document_graph(self, stopwords, texts, max_len,
                                           window, min_sim, absent_quota,
                                           lambda_domain, beta):
        """With k_neighbors == 0 no neighbor reaches expand_graph, whatever
        the other expansion knobs say; read off the record that
        extract_document, the path every caller takes, returns."""
        corpus = make_corpus([(f"d{i}", "", text)
                              for i, text in enumerate(texts)], stopwords)
        provider = TfidfSimilarity(corpus)
        config = Config(k_neighbors=0, max_len=max_len, window=window,
                        min_sim=min_sim, absent_quota=absent_quota,
                        lambda_domain=lambda_domain, beta=beta)
        for doc_id in corpus.ids():
            want = bridge_components(build_document_graph(
                corpus[doc_id], corpus.candidates_for(doc_id, max_len),
                config), config)
            got = extract_document(doc_id, corpus, config, provider).graph
            assert bit_pattern(got) == bit_pattern(want)


class TestExtractPipeline:
    @pytest.mark.parametrize("value", sorted(EXTREME_LAMBDA_DOMAIN))
    def test_extreme_lambda_domain_on_sample100_is_config_error(self, value):
        """The library raises what `kpindex extract --lambda-domain` reports
        (test_cli.py): some sample100 document meets the limit."""
        corpus = load_corpus(SAMPLE100)
        provider = TfidfSimilarity(corpus)
        cfg = Config(lambda_domain=float(value))
        with pytest.raises(ConfigError, match=(
                f"^{re.escape(EXTREME_LAMBDA_DOMAIN[value])}$")):
            for doc_id in corpus.ids():
                extract_pipeline(doc_id, corpus, cfg, provider)

    def test_disabled_enrichment_equals_single_document_baseline(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", "Graph ranking of documents. Quality matters."),
            ("b", "Neural models", "Neural models translate text. Deep layers."),
            ("c", "Graph models", "Graph models rank documents with quality."),
        ], stopwords)
        cfg = Config(k_neighbors=0, absent_quota=0, lambda_domain=0.0).validate()
        provider = TfidfSimilarity(corpus)
        for doc_id in ("a", "b", "c"):
            piped = extract_pipeline(doc_id, corpus, cfg, provider)
            cands = corpus.candidates_for(doc_id, cfg.max_len)
            g = build_document_graph(corpus[doc_id], cands, cfg)
            scores, _ = pagerank(g, cfg)
            baseline = rank_keyphrases(g, scores, corpus, cfg)
            assert ranking_as_json(piped) == ranking_as_json(baseline)

    def test_neighbor_contributes_absent_key(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0, top_n=15).validate()
        ranked = extract_pipeline("a", two_doc_corpus, cfg,
                                  TfidfSimilarity(two_doc_corpus))
        by_key = {r.key: r for r in ranked}
        assert "semant index" in by_key
        assert by_key["semant index"].origin is Origin.ABSENT
        assert by_key["semant index"].surface == "semantic index"
        assert by_key["semant index"].sources == ["b"]

    def test_two_runs_byte_identical(self, two_doc_corpus):
        cfg = Config(k_neighbors=1, min_sim=0.0).validate()
        first = ranking_as_json(extract_pipeline(
            "a", two_doc_corpus, cfg, TfidfSimilarity(two_doc_corpus)))
        second = ranking_as_json(extract_pipeline(
            "a", two_doc_corpus, cfg, TfidfSimilarity(two_doc_corpus)))
        assert first == second

    def test_empty_document_yields_empty_ranking(self, stopwords):
        corpus = make_corpus([("a", "", ""), ("b", "Graphs", "Graph text.")],
                             stopwords)
        cfg = Config(k_neighbors=0).validate()
        assert extract_pipeline("a", corpus, cfg, TfidfSimilarity(corpus)) == []

    def test_gamma_monotonicity_for_absent_positions(self, two_doc_corpus):
        provider = TfidfSimilarity(two_doc_corpus)

        def present_above_each_absent(gamma):
            cfg = Config(k_neighbors=1, min_sim=0.0, top_n=100,
                         gamma_absent=gamma).validate()
            ranked = extract_pipeline("a", two_doc_corpus, cfg, provider)
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
