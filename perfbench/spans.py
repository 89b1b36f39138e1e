"""In-memory span tracer that instruments kpindex from outside.

``instrument`` swaps coarse public functions of the package for wrappers
that record a span (name, start, end, parent) or bump a counter, and
restores the originals on exit. Only per-document or per-query calls are
wrapped, never per-edge ones such as ``SemMultiGraph.add_edge``, so the
tracing cost stays a small share of each operation; ``cosine`` is the one
per-pair call and only gets a counter.

A span's self time is its duration minus the durations of its direct
children. Span names are ``<layer>.<step>``; the layer is the kpindex
module the wrapped call belongs to. Spans named ``trace.*`` time the
tracer's own bookkeeping.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_seconds(self, scale) -> dict[str, float]:
        """Self time per span name, in seconds, each span multiplied by
        ``scale``: one factor, or one per root span in the order they began
        (a child span takes the factor of its root)."""
        child_ns = defaultdict(int)
        root_of: list[int] = []
        roots = 0
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root_of.append(root_of[parent])
            else:
                root_of.append(roots)
                roots += 1
        factors = [scale] * roots if isinstance(scale, float) else scale
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[i]) / 1e9 * factors[root_of[i]]
        return dict(out)


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager entry."""

    @contextmanager
    def span(self, name: str):
        yield


def _graph_counts(tracer: Tracer, g) -> None:
    from kpindex.graph import Layer, Origin
    with tracer.span("trace.count"):
        c = tracer.counts
        c["graph.graphs"] += 1
        c["graph.nodes_present"] += len(g.keys_with_origin(Origin.PRESENT))
        c["graph.nodes_absent"] += len(g.keys_with_origin(Origin.ABSENT))
        c["graph.edges_document"] += g.edge_count(Layer.DOCUMENT)
        c["graph.edges_domain"] += g.edge_count(Layer.DOMAIN)


@contextmanager
def instrument(tracer: Tracer):
    """Patch the package's per-document entry points to report to tracer."""
    import kpindex
    import kpindex.corpus as corpus
    import kpindex.ranking as ranking
    import kpindex.similarity as similarity

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    counts = tracer.counts

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    candidates_for = tracer.wrap("corpus.candidates", corpus.Corpus.candidates_for)
    patch(corpus.Corpus, "candidates_for",
          counted("corpus.candidates_for_calls", candidates_for))
    patch(corpus, "extract_candidates",
          counted("corpus.extract_candidates_calls", corpus.extract_candidates))

    patch(similarity, "cosine",
          counted("similarity.cosine_calls", similarity.cosine))
    neighbors = tracer.wrap("similarity.neighbors",
                            similarity.TfidfSimilarity.neighbors)

    def traced_neighbors(self, doc_id, k, min_sim):
        result = neighbors(self, doc_id, k, min_sim)
        counts["similarity.neighbors_calls"] += 1
        counts["similarity.neighbors_returned"] += len(result.neighbors)
        counts["similarity.zero_neighbor_calls"] += not result.neighbors
        return result
    patch(similarity.TfidfSimilarity, "neighbors", traced_neighbors)

    for attr, name in (("build_document_graph", "graph.document"),
                       ("expand_graph", "graph.expand"),
                       ("bridge_components", "graph.bridge"),
                       ("pagerank", "ranking.pagerank"),
                       ("rank_keyphrases", "ranking.rank")):
        patch(ranking, attr, tracer.wrap(name, getattr(ranking, attr)))

    patch(kpindex, "search", tracer.wrap("index.search", kpindex.search))

    enrich = ranking.build_enriched_graph

    def traced_enrich(*args, **kwargs):
        g = enrich(*args, **kwargs)
        _graph_counts(tracer, g)
        return g
    patch(ranking, "build_enriched_graph", traced_enrich)

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
