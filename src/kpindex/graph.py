"""Candidate co-occurrence multigraph with document and domain edge layers.

Each target document gets one undirected multigraph. PRESENT nodes are the
document's own candidates, linked by DOCUMENT edges (within-window
co-occurrence counts). Neighbor documents contribute a second, parallel
DOMAIN layer: similarity-scaled co-occurrence evidence between present
candidates, plus new ABSENT nodes for candidates that only the neighbors
contain. A pair of nodes can carry at most one edge per layer.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .corpus import Corpus, Candidate, Document
from .similarity import NeighborSet


class Layer(Enum):
    DOCUMENT = "document"
    DOMAIN = "domain"


class Origin(Enum):
    PRESENT = "present"
    ABSENT = "absent"


@dataclass
class NodeInfo:
    origin: Origin
    source_docs: set[str] = field(default_factory=set)
    surfaces: Counter = field(default_factory=Counter)
    first_offset: dict[str, int] = field(default_factory=dict)


class Edge(NamedTuple):
    u: str
    v: str
    layer: Layer
    weight: float


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _layers(layer: Layer | None) -> tuple[Layer, ...]:
    return tuple(Layer) if layer is None else (layer,)


class SemMultiGraph:
    """Undirected multigraph over candidate keys, two weighted edge layers.

    Each layer is one map from a sorted key pair to its accumulated weight.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, NodeInfo] = {}
        self.weights: dict[Layer, dict[tuple[str, str], float]] = {
            Layer.DOCUMENT: {}, Layer.DOMAIN: {}}

    def add_node(self, key: str, info: NodeInfo) -> None:
        self.nodes[key] = info

    def add_edge(self, u: str, v: str, layer: Layer, weight: float) -> None:
        """Accumulate weight onto the (pair, layer) edge; self-loops rejected."""
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        if u not in self.nodes or v not in self.nodes:
            raise KeyError("both endpoints must be nodes")
        weights = self.weights[layer]
        pair = _pair(u, v)
        weights[pair] = weights.get(pair, 0.0) + weight

    def edge(self, u: str, v: str, layer: Layer) -> Edge | None:
        pair = _pair(u, v)
        weight = self.weights[layer].get(pair)
        return None if weight is None else Edge(*pair, layer, weight)

    def edges(self, layer: Layer | None = None) -> list[Edge]:
        """All edges in canonical (endpoint, layer) order."""
        edges = [Edge(u, v, lay, w) for lay in _layers(layer)
                 for (u, v), w in self.weights[lay].items()]
        edges.sort(key=itemgetter(0, 1))  # stable: DOCUMENT before DOMAIN
        return edges

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self, layer: Layer | None = None) -> int:
        return sum(len(self.weights[lay]) for lay in _layers(layer))

    def keys_with_origin(self, origin: Origin) -> list[str]:
        return sorted(k for k, info in self.nodes.items() if info.origin is origin)


def window_pairs(candidates: dict[str, Candidate],
                 window: int) -> dict[tuple[str, str], int]:
    """Occurrence pairs of distinct keys whose start offsets differ by at
    most `window`, counted per sorted key pair.

    One pass over all occurrences sorted by (start, key): each occurrence
    is paired only with the later ones still inside its window; the
    window's end index only moves forward.
    """
    occurrences = sorted((start, key) for key, cand in candidates.items()
                         for start, _ in cand.occurrences)
    starts = [start for start, _ in occurrences]
    keys = [key for _, key in occurrences]
    counts: dict[tuple[str, str], int] = {}
    n = len(keys)
    end = 0
    for i, a in enumerate(keys):
        limit = starts[i] + window
        while end < n and starts[end] <= limit:
            end += 1
        for b in keys[i + 1:end]:
            if a != b:
                pair = (a, b) if a < b else (b, a)
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def build_document_graph(doc: Document, candidates: dict[str, Candidate],
                         window: int = 10) -> SemMultiGraph:
    """One PRESENT node per candidate; DOCUMENT edges weighted by the number
    of occurrence pairs whose start offsets differ by at most `window`.

    Sentence breaks limit candidate spans, not co-occurrence.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    g = SemMultiGraph()
    for key in sorted(candidates):
        cand = candidates[key]
        g.add_node(key, NodeInfo(
            origin=Origin.PRESENT,
            source_docs={doc.id},
            surfaces=Counter(cand.surfaces),
            first_offset=dict(cand.first_offset),
        ))
    g.weights[Layer.DOCUMENT] = {
        pair: float(c) for pair, c in window_pairs(candidates, window).items()}
    return g


def expand_graph(g: SemMultiGraph, doc: Document, nbrs: NeighborSet,
                 corpus: Corpus, window: int = 10, lambda_domain: float = 1.0,
                 absent_quota: int = 10, max_len: int = 3) -> SemMultiGraph:
    """Enrich the document graph in place with neighbor evidence.

    (a) For every pair of PRESENT keys co-occurring in a neighbor with
        similarity s, accumulate a DOMAIN edge of lambda_domain * s * count.
    (b) Score candidates that occur only in neighbors by sum(s_i * freq_i),
        admit up to absent_quota of them as ABSENT nodes (best score first,
        ties by key), wiring each to PRESENT and previously admitted ABSENT
        nodes with the same DOMAIN weight rule. A candidate that would end
        up with no positive-weight edge is skipped, since every ABSENT node
        must stay connected to the rest of the graph.

    Weights accumulate neighbor by neighbor in neighbor order, so float
    sums are reproducible. The DOCUMENT layer is never touched. With
    lambda_domain == 0 or no neighbors the graph is returned unchanged.
    """
    if lambda_domain < 0:
        raise ValueError("lambda_domain must be >= 0")
    if absent_quota < 0:
        raise ValueError("absent_quota must be >= 0")
    if lambda_domain == 0 or not nbrs.neighbors:
        return g

    present = g.keys_with_origin(Origin.PRESENT)
    present_set = set(present)
    active = [(nid, sim) for nid, sim in nbrs.neighbors if sim > 0]
    neighbor_cands = {nid: corpus.candidates_for(nid, max_len)
                      for nid, _ in active}

    # (a) domain evidence between present candidates; (b) needs, per
    # neighbor, the partners of every non-present key: {key: {other: count}}
    domain = g.weights[Layer.DOMAIN]
    partners: dict[str, dict[str, dict[str, int]]] = {}
    for nid, sim in active:
        scale = lambda_domain * sim
        view: dict[str, dict[str, int]] = defaultdict(dict)
        for pair, c in window_pairs(neighbor_cands[nid], window).items():
            a, b = pair
            a_present = a in present_set
            b_present = b in present_set
            if a_present and b_present:
                weight = scale * c
                if weight <= 0:
                    raise ValueError("edge weight must be positive")
                domain[pair] = domain.get(pair, 0.0) + weight
                continue
            if not a_present:
                view[a][b] = c
            if not b_present:
                view[b][a] = c
        partners[nid] = view

    # (b) absent-candidate admission
    if absent_quota == 0:
        return g
    scores: dict[str, float] = defaultdict(float)
    contributors: dict[str, set[str]] = defaultdict(set)
    for nid, sim in active:
        for key, cand in neighbor_cands[nid].items():
            if key in present_set:
                continue
            scores[key] += sim * cand.frequency
            contributors[key].add(nid)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))

    linkable = set(present)  # PRESENT plus the ABSENT keys admitted so far
    admitted = 0
    for key, score in ranked:
        if admitted >= absent_quota:
            break
        if score <= 0:
            break
        links: dict[str, float] = {}
        for nid, sim in active:
            for other, c in partners[nid].get(key, {}).items():
                if other in linkable:
                    links[other] = links.get(other, 0.0) + lambda_domain * sim * c
        if not links:
            continue
        surfaces: Counter = Counter()
        for nid in sorted(contributors[key]):
            cand = neighbor_cands[nid].get(key)
            if cand is not None:
                surfaces.update(cand.surfaces)
        g.add_node(key, NodeInfo(origin=Origin.ABSENT,
                                 source_docs=set(contributors[key]),
                                 surfaces=surfaces))
        for other in sorted(links):
            g.add_edge(key, other, Layer.DOMAIN, links[other])
        linkable.add(key)
        admitted += 1
    return g


def weakly_connected_components(g: SemMultiGraph,
                                layer: Layer | None = None) -> list[set[str]]:
    """Connected components treating all (or one layer's) edges as undirected.

    Canonical order: components sorted by their smallest member key.
    """
    adjacency: dict[str, set[str]] = {k: set() for k in g.nodes}
    for lay in _layers(layer):
        for u, v in g.weights[lay]:
            adjacency[u].add(v)
            adjacency[v].add(u)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(g.nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        components.append(comp)
    return components


def bridge_components(g: SemMultiGraph, beta: float = 2.0) -> SemMultiGraph:
    """Boost DOMAIN edges that bridge distinct DOCUMENT-layer components.

    Every DOMAIN edge whose endpoints fall in different components of the
    DOCUMENT-layer-only graph has its weight multiplied by beta; all other
    weights are untouched. beta == 1 is the identity.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    component_of: dict[str, int] = {}
    for idx, comp in enumerate(weakly_connected_components(g, Layer.DOCUMENT)):
        for key in comp:
            component_of[key] = idx
    domain = g.weights[Layer.DOMAIN]
    for u, v in domain:
        if component_of[u] != component_of[v]:
            domain[u, v] *= beta
    return g


def to_dot(g: SemMultiGraph, name: str = "candidates") -> str:
    """DOT rendering for debugging: nodes tagged by origin, edges by layer:weight."""
    lines = [f'graph "{name}" {{']
    for key in sorted(g.nodes):
        info = g.nodes[key]
        lines.append(f'  "{key}" [label="{key}\\n({info.origin.value})"];')
    for edge in g.edges():
        lines.append(
            f'  "{edge.u}" -- "{edge.v}" '
            f'[label="{edge.layer.value}:{edge.weight:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
