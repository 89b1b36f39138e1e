"""Sparse document vectors and semantically-similar-document detection.

Documents are stem-level tf-idf vectors, plain L2-normalized
stem -> weight dicts, compared by cosine similarity.
Neighbor search is exact. Each stem's postings are a (rows, weights) pair
of lists, a row being a document's position in sorted id order. A query
walks the postings of the source's stems and sums approximate dot
products into a list with one row per document; only the documents whose
sum comes within 1e-9 of the floor are rescored with cosine, and a sum of
0.0, which means no shared stem, scores 0.0 without one. Downstream,
expand_graph reads only a NeighborSet's ranked (id, similarity) list.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .corpus import Corpus, Document, collector_paused, index_stems
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
        df.update(set(index_stems(doc, corpus.stopword_stems)))
    n = len(corpus)
    return {t: math.log(1.0 + n / d) for t, d in df.items()}


def vectorize(doc: Document, idf: dict[str, float]) -> dict[str, float]:
    """tf * idf weights, L2-normalized; empty for a document with no stem
    in idf, whose zero norm then divides no weight."""
    counts = Counter(s for s in doc.stems if s in idf)
    weights = {t: c * idf[t] for t, c in sorted(counts.items())}
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()}


def cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine similarity in [0, 1]; 0 whenever either vector is empty.

    fsum is correctly rounded, so the order of the terms cannot change it.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = math.fsum(w * large[t] for t, w in small.items() if t in large)
    return min(1.0, max(0.0, dot))


class TfidfSimilarity:
    """Exact k-nearest-neighbor search over tf-idf vectors built once per
    corpus.

    `ids` lists the documents in the vectors' sorted id order, and a
    document's row is its position there. `postings` maps each stem to a
    (rows, weights) pair of lists: the ascending rows of the documents
    holding the stem, and each one's weight for it. The weights are the
    float objects of `vectors`, so the postings copy no float. They are
    built with the cyclic garbage collector paused
    (corpus.collector_paused); neighbor queries are not paused.
    """

    @collector_paused
    def __init__(self, corpus: Corpus) -> None:
        idf = compute_idf(corpus)
        self.vectors = {doc.id: vectorize(doc, idf) for doc in corpus}
        self.ids = list(self.vectors)
        postings: dict[str, tuple[list[int], list[float]]] = \
            defaultdict(lambda: ([], []))
        for row, vec in enumerate(self.vectors.values()):
            for t, w in vec.items():
                rows, weights = postings[t]
                rows.append(row)
                weights.append(w)
        postings.default_factory = None  # a plain mapping from here on
        self.postings = postings

    def dot_sums(self, doc_id: str) -> list[float]:
        """Each document's approximate dot product with doc_id, by row.

        The walk over the postings of doc_id's stems adds each document's
        terms w * x into its row in the order of doc_id's stems, starting
        from 0.0. Every weight is > 0 and no product of two weights
        underflows, so a sum of 0.0 means the document shares no stem
        with doc_id. doc_id's own row holds its squared norm.
        """
        postings = self.postings
        acc = [0.0] * len(self.ids)
        for t, w in self.vectors[doc_id].items():
            rows, weights = postings[t]
            for row, x in zip(rows, weights):
                acc[row] += w * x
        return acc

    def neighbors(self, doc_id: str, k: int, min_sim: float) -> NeighborSet:
        """The k documents most similar to doc_id with cosine >= min_sim,
        ranked by similarity, ties by id.

        `dot_sums` sums each dot product term at a time with plain float
        adds, in an order that differs from cosine's. Every term is a
        product of weights in [0, 1] and the vectors have unit length, so
        that sum differs from the exact dot by at most about n * 2**-53
        for n shared stems, far below the 1e-9 margin: no document whose
        cosine reaches min_sim is dropped. The survivors are rescored with
        cosine, whose fsum is correctly rounded, so each similarity is the
        same float an exhaustive scan gives. A survivor whose sum is 0.0
        shares no stem with the source and scores 0.0 without a cosine
        call; it survives only when min_sim is within the margin of 0.

        The sums live in one list with a row per document, so a query
        allocates and scans N floats whatever it touches. The walk costs
        more: on the benchmark corpora and sample100 a query touches
        64-69% of all documents and reads 1.3-1.4 postings per document,
        and on `neighbors-wide` (N = 1000) the allocation takes about 2%
        and the scan about 25% of the walk's time. With k == 0 nothing is
        walked.
        """
        if doc_id not in self.vectors:
            raise KeyError(f"unknown document id {doc_id}")
        if k < 0:
            raise ValueError("k must be >= 0")
        if not 0.0 <= min_sim <= 1.0:
            raise ValueError("min_sim must lie in [0, 1]")
        if k == 0:
            return NeighborSet(source=doc_id, neighbors=[], k=k, min_sim=min_sim)
        acc = self.dot_sums(doc_id)
        vectors, ids = self.vectors, self.ids
        source = vectors[doc_id]
        floor = min_sim - 1e-9
        scored = []
        for row in [row for row, dot in enumerate(acc) if dot >= floor]:
            other_id = ids[row]
            if other_id == doc_id:
                continue
            sim = cosine(source, vectors[other_id]) if acc[row] else 0.0
            if sim >= min_sim:
                scored.append((other_id, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return NeighborSet(source=doc_id, neighbors=scored[:k], k=k, min_sim=min_sim)
