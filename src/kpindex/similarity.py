"""Sparse document vectors and semantically-similar-document detection.

The reference representation is stem-level tf-idf with cosine similarity.
The provider interface is the extension point for richer representations
(e.g. embedding centroids); everything downstream consumes NeighborSet
values and never touches vectors directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Document, index_stems
from .errors import CorpusError


@dataclass
class DocVector:
    """L2-normalized sparse stem -> weight map; empty documents get norm 0."""

    weights: dict[str, float]
    norm: float


@dataclass
class NeighborSet:
    """Ranked semantically similar documents for one source document."""

    source: str
    neighbors: list[tuple[str, float]]
    k: int
    min_sim: float

    def __len__(self) -> int:
        return len(self.neighbors)

    def ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.neighbors]


def compute_idf(corpus: Corpus) -> dict[str, float]:
    """idf(t) = ln(1 + N/df(t)) over indexable stems; stopword stems excluded."""
    if len(corpus) == 0:
        raise CorpusError("empty corpus")
    df: Counter = Counter()
    for doc in corpus:
        df.update(set(index_stems(doc, corpus.stopwords, corpus.stopword_stems)))
    n = len(corpus)
    return {t: math.log(1.0 + n / d) for t, d in df.items()}


def vectorize(doc: Document, idf: dict[str, float]) -> DocVector:
    """tf * idf weights, L2-normalized. Stems missing from idf are skipped."""
    counts = Counter(s for s in doc.stems if s in idf)
    if not counts:
        return DocVector({}, 0.0)
    weights = {t: c * idf[t] for t, c in sorted(counts.items())}
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    normalized = {t: w / norm for t, w in weights.items()}
    return DocVector(normalized, 1.0)


def cosine(a: DocVector, b: DocVector) -> float:
    """Cosine similarity in [0, 1]; 0 whenever either vector is empty.

    fsum is correctly rounded, so the order of the terms cannot change it.
    """
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    small, large = (a.weights, b.weights) if len(a.weights) <= len(b.weights) \
        else (b.weights, a.weights)
    dot = math.fsum(w * large[t] for t, w in small.items() if t in large)
    value = dot / (a.norm * b.norm)
    return min(1.0, max(0.0, value))


class SimilarityProvider:
    """Interface for neighbor detection; implementations own their representation."""

    def neighbors(self, doc_id: str, k: int, min_sim: float) -> NeighborSet:
        raise NotImplementedError

    def similarity(self, a: str, b: str) -> float:
        raise NotImplementedError


class TfidfSimilarity(SimilarityProvider):
    """Exhaustive cosine search over tf-idf vectors built once per corpus."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.idf = compute_idf(corpus)
        self.vectors = {doc.id: vectorize(doc, self.idf) for doc in corpus}

    def similarity(self, a: str, b: str) -> float:
        return cosine(self.vectors[a], self.vectors[b])

    def neighbors(self, doc_id: str, k: int, min_sim: float) -> NeighborSet:
        if doc_id not in self.vectors:
            raise KeyError(f"unknown document id {doc_id}")
        if k < 0:
            raise ValueError("k must be >= 0")
        if not 0.0 <= min_sim <= 1.0:
            raise ValueError("min_sim must lie in [0, 1]")
        source = self.vectors[doc_id]
        scored = []
        for other_id, vec in self.vectors.items():
            if other_id == doc_id:
                continue
            sim = cosine(source, vec)
            if sim >= min_sim:
                scored.append((other_id, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return NeighborSet(source=doc_id, neighbors=scored[:k], k=k, min_sim=min_sim)


def find_neighbors(doc_id: str, corpus: Corpus, k: int, min_sim: float,
                   provider: SimilarityProvider | None = None) -> NeighborSet:
    """Convenience wrapper; pass a shared provider when querying many documents."""
    if provider is None:
        provider = TfidfSimilarity(corpus)
    return provider.neighbors(doc_id, k, min_sim)
