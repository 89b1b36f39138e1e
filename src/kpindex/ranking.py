"""Weighted PageRank over the multigraph and the final interleaved ranking.

Both edge layers feed a single random-walk score; absent-origin nodes are
then damped by a single multiplicative factor (gamma_absent), which is the
one knob controlling how present and absent keyphrases interleave.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .config import Config
from .corpus import (Corpus, collector_paused, most_frequent_surface,
                     preferred_surface, surface_counts)
from .errors import ConfigError
from .graph import (Layer, Origin, SemMultiGraph, bridge_components,
                    build_document_graph, expand_graph)
from .similarity import TfidfSimilarity


@dataclass
class RankedKeyphrase:
    key: str
    surface: str
    score: float
    origin: Origin
    sources: list[str] = field(default_factory=list)


def _sum_in_order(values) -> float:
    """Left-to-right float sum. The built-in sum() compensates its float
    adds since Python 3.12, which would make the bytes depend on the
    interpreter version."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _power_iteration(g: SemMultiGraph, config: Config):
    """Yield (scores, l1_delta) per iteration of the damped random walk;
    scores is a list in sorted(g.nodes) order.

    S(u) <- (1-d)/|V| + d * sum_v w(u,v)/W(v) * S(v), where w(u,v) sums
    the pair's DOCUMENT and DOMAIN weights and W(v) is the total weight
    incident to v. Isolated nodes keep the teleport share only.

    Nodes are integer rows: each row holds (neighbor index, w(u,v)/W(v))
    in ascending index order, the order in which W(v) is summed, with the
    quotient computed once. Every float sum keeps its order, so the
    scores do not depend on this layout.
    """
    keys = sorted(g.nodes)
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    summed = dict(g.weights[Layer.DOCUMENT])
    for pair, w in g.weights[Layer.DOMAIN].items():
        summed[pair] = summed.get(pair, 0.0) + w
    adjacency: list[list[tuple[int, float]]] = [[] for _ in keys]
    for (u, v), w in summed.items():
        i, j = index[u], index[v]
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    for row in adjacency:
        row.sort()
    total_weight = [_sum_in_order(w for _, w in row) for row in adjacency]
    if not all(map(math.isfinite, total_weight)):
        raise ConfigError("lambda_domain or beta is too large: a weight total is inf")
    rows = [[(j, w / total_weight[j]) for j, w in row] for row in adjacency]

    damping = config.damping
    base = (1.0 - damping) / n
    scores = [1.0 / n] * n
    for _ in range(config.max_iter):
        nxt = []
        for row in rows:
            acc = 0.0
            for j, q in row:
                acc += q * scores[j]
            nxt.append(base + damping * acc)
        delta = _sum_in_order(abs(a - b) for a, b in zip(nxt, scores))
        scores = nxt
        yield scores, delta
        if delta <= config.tol:
            return


def pagerank(g: SemMultiGraph,
             config: Config = Config()) -> tuple[dict[str, float], bool]:
    """Node scores of the damped random walk, normalized to sum to 1, and
    whether it converged: its last L1 change was at most tol.

    Iteration stops when the L1 change drops to tol or max_iter is
    reached. The final normalization makes the unit sum hold even when
    the graph has isolated nodes, whose teleport-only mass would
    otherwise leak. A graph with no nodes has no scores.
    """
    if not g.nodes:
        return {}, True
    for scores, delta in _power_iteration(g, config):
        pass
    norm = _sum_in_order(scores)
    return {k: s / norm for k, s in zip(sorted(g.nodes), scores)}, delta <= config.tol


def rank_keyphrases(g: SemMultiGraph, scores: dict[str, float], corpus: Corpus,
                    config: Config = Config()) -> list[RankedKeyphrase]:
    """Apply the origin factor, sort by (-score, key) and truncate to top_n;
    only then read each row's surface from the tokens: most_frequent_surface
    for a PRESENT row, preferred_surface over all its sources for an ABSENT one.

    Zero-scored entries (gamma_absent == 0) are dropped, so origin factors
    can be used to exclude absent keyphrases entirely.
    """
    factor = {Origin.PRESENT: 1.0, Origin.ABSENT: config.gamma_absent}
    final = {key: score * factor[g.nodes[key].origin]
             for key, score in scores.items()}
    ranked = sorted((key for key in final if final[key] > 0),
                    key=lambda key: (-final[key], key))
    rows = []
    for key in ranked[:config.top_n]:
        info = g.nodes[key]
        if info.origin is Origin.PRESENT:
            doc_id, = info.sources
            surface = most_frequent_surface(
                corpus[doc_id], key, corpus.candidates_for(doc_id, config.max_len)[key])
        else:
            surfaces = Counter()
            for src in info.sources:
                surfaces.update(surface_counts(
                    corpus[src], key, corpus.candidates_for(src, config.max_len)[key]))
            surface = preferred_surface(surfaces)
        rows.append(RankedKeyphrase(key, surface, final[key], info.origin,
                                    list(info.sources)))
    return rows


def build_enriched_graph(doc_id: str, corpus: Corpus, config: Config,
                         neighbors: list[tuple[str, float]]) -> SemMultiGraph:
    """Document graph -> expansion by the ranked (id, similarity) list ->
    component bridging; the empty list of k_neighbors == 0 adds nothing."""
    g = build_document_graph(
        corpus[doc_id], corpus.candidates_for(doc_id, config.max_len), config)
    expand_graph(g, neighbors, corpus, config)
    return bridge_components(g, config)


class ExtractedDocument(NamedTuple):
    graph: SemMultiGraph  # the enriched graph, as --dot-dump renders it
    converged: bool  # PageRank's last L1 change was at most tol
    rows: list[RankedKeyphrase]


@collector_paused
def extract_document(doc_id: str, corpus: Corpus, config: Config,
                     provider: TfidfSimilarity) -> ExtractedDocument:
    """The one sequence of a document's stages: neighbors, enriched graph,
    PageRank, ranking; deterministic for fixed (corpus, config).

    The provider holds the corpus's tf-idf vectors: build one
    TfidfSimilarity(corpus) and pass it for every document. It runs with
    the cyclic garbage collector paused (corpus.collector_paused).
    """
    nbrs = provider.neighbors(doc_id, config.k_neighbors, config.min_sim)
    g = build_enriched_graph(doc_id, corpus, config, nbrs.neighbors)
    scores, converged = pagerank(g, config)
    return ExtractedDocument(g, converged, rank_keyphrases(g, scores, corpus, config))


def extract_pipeline(doc_id: str, corpus: Corpus, config: Config,
                     provider: TfidfSimilarity) -> list[RankedKeyphrase]:
    """The ranked rows of extract_document."""
    return extract_document(doc_id, corpus, config, provider).rows
