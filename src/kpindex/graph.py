"""Candidate co-occurrence multigraph with document and domain edge layers.

Each target document gets one undirected multigraph: a node map plus one
weight map per edge layer. PRESENT nodes are the document's own
candidates, linked by DOCUMENT edges (within-window co-occurrence counts).
Neighbor documents contribute new ABSENT nodes for candidates that only
they contain, and a second, parallel DOMAIN layer: similarity-scaled
co-occurrence counts between the graph's nodes. A pair of nodes can carry
at most one edge per layer. Candidates arrive as start offsets only; a
node is its origin and its sorted source documents, and holds no surface.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

from .config import Config
from .corpus import Corpus, Document
from .errors import ConfigError


class Layer(Enum):
    DOCUMENT = "document"
    DOMAIN = "domain"


class Origin(Enum):
    PRESENT = "present"
    ABSENT = "absent"


@dataclass(frozen=True)
class NodeInfo:
    origin: Origin
    sources: tuple[str, ...]  # sorted source document ids


@dataclass(eq=False)
class SemMultiGraph:
    """Undirected multigraph over candidate keys, two weighted edge layers.

    Each layer is one map from a sorted key pair to its weight.
    """

    nodes: dict[str, NodeInfo] = field(default_factory=dict)
    weights: dict[Layer, dict[tuple[str, str], float]] = field(
        default_factory=lambda: {Layer.DOCUMENT: {}, Layer.DOMAIN: {}})

    def edge_count(self, layer: Layer) -> int:
        return len(self.weights[layer])

    def keys_with_origin(self, origin: Origin) -> list[str]:
        return sorted(k for k, info in self.nodes.items() if info.origin is origin)


def window_pairs(candidates: dict[str, list[int]],
                 window: int) -> dict[tuple[str, str], int]:
    """Occurrence pairs of distinct keys whose start offsets differ by at
    most `window`, counted per sorted key pair.

    One pass over all occurrences sorted by (start, key): each occurrence
    is paired only with the later ones still inside its window; the
    window's end index only moves forward.
    """
    occurrences = sorted((start, key) for key, starts in candidates.items()
                         for start in starts)
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


def build_document_graph(doc: Document, candidates: dict[str, list[int]],
                         config: Config = Config()) -> SemMultiGraph:
    """One PRESENT node per candidate; DOCUMENT edges weighted by the number
    of occurrence pairs whose start offsets differ by at most config.window.

    Sentence breaks limit candidate spans, not co-occurrence.
    """
    g = SemMultiGraph()
    g.nodes = dict.fromkeys(candidates, NodeInfo(Origin.PRESENT, (doc.id,)))
    g.weights[Layer.DOCUMENT] = {
        pair: float(c)
        for pair, c in window_pairs(candidates, config.window).items()}
    return g


def expand_graph(g: SemMultiGraph, neighbors: list[tuple[str, float]],
                 corpus: Corpus, config: Config = Config()) -> SemMultiGraph:
    """Enrich the document graph in place with neighbor evidence: the
    ranked (neighbor id, similarity) list, as in NeighborSet.neighbors.

    (1) Admission decides which nodes exist. Candidates that occur only
        in neighbors are scored by sum(s_i * freq_i) over the neighbors
        with similarity s_i > 0, and up to absent_quota of them become
        ABSENT nodes, best score first, ties by key. A candidate is
        admitted only if, in some neighbor that contains it, one of its
        occurrences starts within the window of an occurrence of a key
        already in the graph (PRESENT or admitted earlier), so every
        ABSENT node ends up on a DOMAIN edge. The offsets this yes/no
        test walks stay inside the neighbor's tokens, so a window longer
        than the neighbor costs no more than its length.
    (2) window_pairs then weighs every DOMAIN edge: for each neighbor, in
        neighbor order, it counts the occurrence pairs between the
        neighbor's candidates that are graph nodes, and each pair adds
        lambda_domain * s * count. A neighbor's other keys do not change
        a pair's count.

    Every weight sums in neighbor order, so float sums are reproducible;
    no reader depends on DOMAIN insertion order. The DOCUMENT layer is
    never touched. With lambda_domain == 0 or no neighbors the graph is
    returned unchanged.
    """
    window, lambda_domain = config.window, config.lambda_domain
    if lambda_domain == 0:
        return g

    active = [(nid, sim) for nid, sim in neighbors if sim > 0]
    neighbor_cands = {nid: corpus.candidates_for(nid, config.max_len)
                      for nid, _ in active}
    _admit_absent(g, active, neighbor_cands, corpus, config)

    domain = g.weights[Layer.DOMAIN]
    for nid, sim in active:
        scale = lambda_domain * sim
        nodes = {key: starts for key, starts in neighbor_cands[nid].items()
                 if key in g.nodes}
        pairs = window_pairs(nodes, window)
        # every count c is an int >= 1, so scale * c > 0 exactly when scale > 0
        if pairs and scale <= 0:
            raise ConfigError("lambda_domain is too small: a weight rounds to 0")
        for pair, c in pairs.items():
            domain[pair] = domain.get(pair, 0.0) + scale * c
    return g


def _admit_absent(g: SemMultiGraph, active: list[tuple[str, float]],
                  neighbor_cands: dict[str, dict[str, list[int]]],
                  corpus: Corpus, config: Config) -> None:
    """Add expand_graph's ABSENT nodes to g.nodes; no edge is written."""
    window = config.window
    scores: dict[str, float] = defaultdict(float)
    for nid, sim in active:
        for key, starts in neighbor_cands[nid].items():
            if key not in g.nodes:
                scores[key] += sim * len(starts)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))

    linked = {nid: {start for key, starts in cands.items() if key in g.nodes
                    for start in starts}
              for nid, cands in neighbor_cands.items()}  # graph keys' starts
    admitted = 0
    for key, _ in ranked:  # every score is positive: sim > 0, frequency >= 1
        if admitted >= config.absent_quota:
            break
        sources = [nid for nid, _ in active if key in neighbor_cands[nid]]
        if not any(at in linked[nid]
                   for nid in sources
                   for start in neighbor_cands[nid][key]
                   for at in range(max(start - window, 0),
                                   min(start + window + 1,
                                       len(corpus[nid].tokens)))):
            continue
        for nid in sources:
            linked[nid].update(neighbor_cands[nid][key])
        g.nodes[key] = NodeInfo(Origin.ABSENT, tuple(sorted(sources)))
        admitted += 1


def bridge_components(g: SemMultiGraph,
                      config: Config = Config()) -> SemMultiGraph:
    """Boost DOMAIN edges that bridge distinct DOCUMENT-layer components.

    Components come from the DOCUMENT weight map alone: a stack walk labels
    each key on a DOCUMENT edge with the first key reached in its
    component, and any other node (every ABSENT node, an isolated PRESENT
    one) labels itself, which no label can equal. Only label equality is
    read, so the map's order cannot reach the output. A DOMAIN edge whose
    endpoints have different labels is multiplied by beta; all other
    weights are untouched (beta == 1 is the identity).
    """
    adjacency: dict[str, list[str]] = defaultdict(list)
    for u, v in g.weights[Layer.DOCUMENT]:
        adjacency[u].append(v)
        adjacency[v].append(u)
    label: dict[str, str] = {}
    for root in adjacency:
        if root in label:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in label:
                    label[nxt] = root
                    stack.append(nxt)
    domain = g.weights[Layer.DOMAIN]
    for u, v in domain:
        if label.get(u, u) != label.get(v, v):
            domain[u, v] *= config.beta
    return g


def to_dot(g: SemMultiGraph, name: str = "candidates") -> str:
    """DOT rendering for debugging: nodes tagged by origin, edges by layer:weight."""
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{quoted}" {{']
    for key in sorted(g.nodes):
        info = g.nodes[key]
        lines.append(f'  "{key}" [label="{key}\\n({info.origin.value})"];')
    # "document" sorts before "domain": per pair, the DOCUMENT edge comes first
    edges = sorted((u, v, layer.value, w) for layer, weights in g.weights.items()
                   for (u, v), w in weights.items())
    for u, v, layer, w in edges:
        lines.append(f'  "{u}" -- "{v}" [label="{layer}:{w:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
