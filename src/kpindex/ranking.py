"""Weighted PageRank over the multigraph and the final interleaved ranking.

Both edge layers feed a single random-walk score; absent-origin nodes are
then damped by a single multiplicative factor (gamma_absent), which is the
one knob controlling how present and absent keyphrases interleave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus, preferred_surface
from .graph import (Origin, SemMultiGraph, bridge_components,
                    build_document_graph, expand_graph)
from .similarity import NeighborSet, SimilarityProvider, TfidfSimilarity


@dataclass
class RankParams:
    damping: float = 0.85
    tol: float = 1e-6
    max_iter: int = 100
    gamma_absent: float = 0.8
    top_n: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.gamma_absent < 0:
            raise ValueError("gamma_absent must be >= 0")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass
class RankedKeyphrase:
    key: str
    surface: str
    score: float
    origin: Origin
    sources: list[str] = field(default_factory=list)


def _power_iteration(g: SemMultiGraph, p: RankParams):
    """Yield (scores, l1_delta) per iteration of the damped random walk.

    S(u) <- (1-d)/|V| + d * sum_v w(u,v)/W(v) * S(v), where W(v) is the
    total weight incident to v across both layers. Isolated nodes keep
    the teleport share only.
    """
    keys = sorted(g.nodes)
    n = len(keys)
    adjacency: dict[str, list[tuple[str, float]]] = {k: [] for k in keys}
    for pair_u, pair_v, weight in _pair_weights(g):
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


def pagerank(g: SemMultiGraph, p: RankParams = RankParams()) -> dict[str, float]:
    """Node scores of the damped random walk, normalized to sum to 1.

    Iteration stops when the L1 change drops to tol or max_iter is
    reached. The final normalization makes the unit sum hold even when
    the graph has isolated nodes, whose teleport-only mass would
    otherwise leak.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    scores = None
    for scores, _ in _power_iteration(g, p):
        pass
    norm = sum(scores[k] for k in sorted(scores))
    return {k: scores[k] / norm for k in sorted(scores)}


def _pair_weights(g: SemMultiGraph) -> list[tuple[str, str, float]]:
    summed: dict[tuple[str, str], float] = {}
    for edge in g.edges():
        pair = (edge.u, edge.v)
        summed[pair] = summed.get(pair, 0.0) + edge.weight
    return [(u, v, w) for (u, v), w in sorted(summed.items())]


def _best_surface(info) -> str:
    if info.origin is Origin.PRESENT:
        # most frequent surface; ties go to the earliest occurrence
        return preferred_surface(info.surfaces, info.first_offset)
    # absent: most frequent across source documents, ties lexicographic
    return preferred_surface(info.surfaces)


def rank_keyphrases(g: SemMultiGraph, scores: dict[str, float],
                    p: RankParams = RankParams()) -> list[RankedKeyphrase]:
    """Apply the origin factor, sort, truncate to top_n, attach surfaces.

    Zero-scored entries (gamma_absent == 0) are dropped, so origin factors
    can be used to exclude absent keyphrases entirely.
    """
    rows = []
    for key in sorted(scores):
        info = g.nodes[key]
        factor = p.gamma_absent if info.origin is Origin.ABSENT else 1.0
        final = scores[key] * factor
        if final <= 0:
            continue
        rows.append(RankedKeyphrase(
            key=key,
            surface=_best_surface(info) or key,
            score=final,
            origin=info.origin,
            sources=sorted(info.source_docs),
        ))
    rows.sort(key=lambda r: (-r.score, r.key))
    return rows[:p.top_n]


def build_enriched_graph(doc_id: str, corpus: Corpus, config,
                         provider: SimilarityProvider | None = None) -> SemMultiGraph:
    """Document graph -> neighbor expansion -> component bridging."""
    doc = corpus[doc_id]
    candidates = corpus.candidates_for(doc_id, config.max_len)
    g = build_document_graph(doc, candidates, config.window)
    if config.k_neighbors > 0:
        if provider is None:
            provider = TfidfSimilarity(corpus)
        nbrs = provider.neighbors(doc_id, config.k_neighbors, config.min_sim)
    else:
        nbrs = NeighborSet(source=doc_id, neighbors=[], k=0,
                           min_sim=config.min_sim)
    expand_graph(g, doc, nbrs, corpus, window=config.window,
                 lambda_domain=config.lambda_domain,
                 absent_quota=config.absent_quota, max_len=config.max_len)
    bridge_components(g, config.beta)
    return g


def extract_pipeline(doc_id: str, corpus: Corpus, config,
                     provider: SimilarityProvider | None = None) -> list[RankedKeyphrase]:
    """Full per-document pipeline; deterministic for fixed (corpus, config).

    Pass a shared provider when processing many documents so tf-idf
    vectors are built once.
    """
    return rank_graph(build_enriched_graph(doc_id, corpus, config, provider),
                      config)


def rank_graph(g: SemMultiGraph, config) -> list[RankedKeyphrase]:
    """PageRank and final ranking of one enriched graph; [] when it is empty."""
    if not g.nodes:
        return []
    params = config.rank_params()
    return rank_keyphrases(g, pagerank(g, params), params)
