"""Sparse document vectors and semantically-similar-document detection.

Documents are stem-level tf-idf vectors, plain L2-normalized
stem -> weight dicts, compared by cosine similarity.
Neighbor search is exact: a walk over stem postings finds the documents
that share a stem with the source, and only those are scored. Everything
downstream consumes NeighborSet values and never touches vectors directly.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .corpus import Corpus, Document, index_stems
from .errors import DataError


@dataclass
class NeighborSet:
    """Ranked semantically similar documents for one source document."""

    source: str
    neighbors: list[tuple[str, float]]
    k: int
    min_sim: float

    def __len__(self) -> int:
        return len(self.neighbors)


def compute_idf(corpus: Corpus) -> dict[str, float]:
    """idf(t) = ln(1 + N/df(t)) over indexable stems; stopword stems excluded."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    df: Counter = Counter()
    for doc in corpus:
        df.update(set(index_stems(doc, corpus.stopwords, corpus.stopword_stems)))
    n = len(corpus)
    return {t: math.log(1.0 + n / d) for t, d in df.items()}


def vectorize(doc: Document, idf: dict[str, float]) -> dict[str, float]:
    """tf * idf weights, L2-normalized; empty for a document with no stem
    in idf."""
    counts = Counter(s for s in doc.stems if s in idf)
    if not counts:
        return {}
    weights = {t: c * idf[t] for t, c in sorted(counts.items())}
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()}


def cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine similarity in [0, 1]; 0 whenever either vector is empty.

    fsum is correctly rounded, so the order of the terms cannot change it.
    """
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = math.fsum(w * large[t] for t, w in small.items() if t in large)
    return min(1.0, max(0.0, dot))


class TfidfSimilarity:
    """Exact k-nearest-neighbor search over tf-idf vectors built once per
    corpus, with a stem -> document-id postings map to find candidates."""

    def __init__(self, corpus: Corpus) -> None:
        idf = compute_idf(corpus)
        self.vectors = {doc.id: vectorize(doc, idf) for doc in corpus}
        postings: dict[str, list[str]] = defaultdict(list)
        for doc_id, vec in self.vectors.items():
            for t in vec:
                postings[t].append(doc_id)
        # ids only: a weight is read from self.vectors, which keeps memory low
        self.postings = {t: tuple(ids) for t, ids in postings.items()}

    def neighbors(self, doc_id: str, k: int, min_sim: float) -> NeighborSet:
        """The k documents most similar to doc_id with cosine >= min_sim,
        ranked by similarity, ties by id.

        Walking the postings of the source's stems sums each dot product
        term at a time with plain float adds, in an order that differs
        from cosine's. Every term is a product of weights in [0, 1] and the
        vectors have unit length, so that sum differs from the exact dot by
        at most about n * 2**-53 for n shared stems, far below the 1e-9
        margin: no document whose cosine reaches min_sim is dropped. The
        survivors are rescored with cosine, whose fsum is correctly rounded,
        so each similarity is the same float an exhaustive scan gives.
        """
        if doc_id not in self.vectors:
            raise KeyError(f"unknown document id {doc_id}")
        if k < 0:
            raise ValueError("k must be >= 0")
        if not 0.0 <= min_sim <= 1.0:
            raise ValueError("min_sim must lie in [0, 1]")
        vectors = self.vectors
        source = vectors[doc_id]
        approx: dict[str, float] = {}
        for t, w in source.items():
            for other_id in self.postings[t]:
                approx[other_id] = approx.get(other_id, 0.0) \
                    + w * vectors[other_id][t]
        approx.pop(doc_id, None)
        floor = min_sim - 1e-9
        scored = []
        for other_id, dot in approx.items():
            if dot >= floor:
                sim = cosine(source, vectors[other_id])
                if sim >= min_sim:
                    scored.append((other_id, sim))
        if min_sim == 0.0:
            # documents sharing no stem with the source have cosine 0.0
            scored.extend((other_id, 0.0) for other_id in vectors
                          if other_id not in approx and other_id != doc_id)
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return NeighborSet(source=doc_id, neighbors=scored[:k], k=k, min_sim=min_sim)
