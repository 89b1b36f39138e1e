"""Inverted index over text stems and extracted keyphrase stems, with BM25.

Every document contributes TEXT postings for its indexable stems;
extracted keyphrases add postings in a KP_PRESENT or KP_ABSENT field
according to their origin. Indexing the absent field is what lets a query
match a document that never contains the query terms in its text.

On disk the index is a single binary file: 4-byte magic, 1-byte format
version, 8-byte big-endian payload length, then a self-describing UTF-8
JSON payload. JSON floats round-trip exactly, so save -> load is bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import uuid
from collections import Counter, defaultdict

from .corpus import Corpus, SENTENCE_BREAK, index_stems, tokenize
from .errors import ConfigError, IndexFileError
from .graph import Origin
from .porter import stem as stem_token
from .ranking import RankedKeyphrase

FIELD_TEXT = "text"
FIELD_KP_PRESENT = "kp_present"
FIELD_KP_ABSENT = "kp_absent"
FIELDS = (FIELD_TEXT, FIELD_KP_PRESENT, FIELD_KP_ABSENT)

DEFAULT_FIELD_WEIGHTS = {FIELD_TEXT: 1.0, FIELD_KP_PRESENT: 1.5,
                         FIELD_KP_ABSENT: 1.5}

_MAGIC = b"KPIX"
_VERSION = 1


class InvertedIndex:
    """stem -> sorted (doc id, field, weight) postings plus document stats."""

    def __init__(self, config: dict | None = None) -> None:
        self.postings: dict[str, list[tuple[str, str, float]]] = {}
        self.doc_lengths: dict[str, dict[str, float]] = {}
        self.config: dict = config or {}

    def add_document(self, doc_id: str) -> None:
        self.doc_lengths.setdefault(doc_id, {f: 0.0 for f in FIELDS})

    def add_postings(self, doc_id: str, field: str, counts: Counter) -> None:
        if field not in FIELDS:
            raise ValueError(f"unknown field {field!r}")
        self.add_document(doc_id)
        for term, count in counts.items():
            if count <= 0:
                continue
            self.postings.setdefault(term, []).append((doc_id, field, float(count)))
            self.doc_lengths[doc_id][field] += count

    def finalize(self) -> "InvertedIndex":
        """Sort postings into canonical (doc id, field) order."""
        for term in self.postings:
            self.postings[term].sort(key=lambda p: (p[0], p[1]))
        return self

    def num_documents(self) -> int:
        return len(self.doc_lengths)

    def weighted_length(self, doc_id: str,
                        field_weights: dict[str, float]) -> float:
        lengths = self.doc_lengths[doc_id]
        return math.fsum(field_weights[f] * lengths[f] for f in FIELDS)

    def average_length(self, field_weights: dict[str, float]) -> float:
        if not self.doc_lengths:
            return 0.0
        total = math.fsum(self.weighted_length(d, field_weights)
                          for d in sorted(self.doc_lengths))
        return total / len(self.doc_lengths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return (self.postings == other.postings
                and self.doc_lengths == other.doc_lengths
                and self.config == other.config)


def build_index(corpus: Corpus,
                keyphrases: dict[str, list[RankedKeyphrase]],
                config: dict | None = None) -> InvertedIndex:
    """Index TEXT stems for every document plus extracted keyphrase stems.

    `keyphrases` maps document ids to their ranked extraction output; a
    missing id simply gets no keyphrase postings.
    """
    index = InvertedIndex(config)
    for doc_id in sorted(corpus.ids()):
        doc = corpus[doc_id]
        index.add_document(doc_id)
        text_counts = Counter(index_stems(doc, corpus.stopwords,
                                          corpus.stopword_stems))
        index.add_postings(doc_id, FIELD_TEXT, text_counts)
        kp_counts = {FIELD_KP_PRESENT: Counter(), FIELD_KP_ABSENT: Counter()}
        for rk in keyphrases.get(doc_id, []):
            field = (FIELD_KP_PRESENT if rk.origin is Origin.PRESENT
                     else FIELD_KP_ABSENT)
            for term in rk.key.split(" "):
                kp_counts[field][term] += 1
        for field, counts in kp_counts.items():
            if counts:
                index.add_postings(doc_id, field, counts)
    return index.finalize()


def save_index(index: InvertedIndex, path: str) -> None:
    payload = {
        "format": "kpindex-inverted-index",
        "fields": list(FIELDS),
        "config": index.config,
        "doc_lengths": index.doc_lengths,
        "postings": {term: [list(p) for p in plist]
                     for term, plist in sorted(index.postings.items())},
    }
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    # write a temporary file next to the target, then rename it over the
    # target, so a failed write leaves the previous index intact
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(bytes([_VERSION]))
            fh.write(len(body).to_bytes(8, "big"))
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_index(path: str) -> InvertedIndex:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IndexFileError(f"cannot read index file {path}: {exc.strerror}") from None
    if len(blob) < 13 or blob[:4] != _MAGIC:
        raise IndexFileError(f"{path}: not an index file (bad magic)")
    version = blob[4]
    if version != _VERSION:
        raise IndexFileError(f"{path}: unsupported index format version {version}")
    length = int.from_bytes(blob[5:13], "big")
    body = blob[13:]
    if len(body) != length:
        raise IndexFileError(f"{path}: truncated index file")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise IndexFileError(f"{path}: corrupt index payload") from None
    if not isinstance(payload, dict):
        raise IndexFileError(f"{path}: corrupt index payload")
    index = InvertedIndex(payload.get("config", {}))
    try:
        field = "doc_lengths"
        index.doc_lengths = {doc_id: {f: float(lengths[f]) for f in FIELDS}
                             for doc_id, lengths in payload[field].items()}
        field = "postings"
        index.postings = {term: [(p[0], p[1], float(p[2])) for p in plist]
                          for term, plist in payload[field].items()}
        for plist in index.postings.values():
            for doc_id, posting_field, _ in plist:
                if doc_id not in index.doc_lengths or posting_field not in FIELDS:
                    raise ValueError("posting names an unknown document or field")
    except (KeyError, TypeError, ValueError, AttributeError, IndexError):
        raise IndexFileError(f"{path}: index payload field {field!r} is "
                             f"missing or malformed") from None
    return index.finalize()


def query_terms(query: str) -> list[str]:
    return [stem_token(t) for t in tokenize(query) if t != SENTENCE_BREAK]


def search(index: InvertedIndex, query: str, top_n: int = 10,
           k1: float = 1.2, b: float = 0.75,
           field_weights: dict[str, float] | None = None) -> list[tuple[str, float]]:
    """BM25 over all fields; keyphrase fields count 1.5x in term frequency.

    Only documents matching at least one query term are returned, ranked
    by score with ties broken by doc id. Query terms with no postings
    (including stopwords, which are never indexed) contribute nothing.
    Raises ConfigError when top_n is below 1.
    """
    if top_n < 1:
        raise ConfigError("top_n (search --top) must be >= 1")
    if field_weights is None:
        field_weights = DEFAULT_FIELD_WEIGHTS
    terms = query_terms(query)
    if not terms:
        return []
    n = index.num_documents()
    if n == 0:
        return []
    avgdl = index.average_length(field_weights)
    scores: dict[str, float] = defaultdict(float)
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        tf_weighted: dict[str, float] = defaultdict(float)
        for doc_id, field, weight in plist:
            tf_weighted[doc_id] += field_weights[field] * weight
        df = len(tf_weighted)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id in sorted(tf_weighted):
            tf = tf_weighted[doc_id]
            dl = index.weighted_length(doc_id, field_weights)
            denom = tf + k1 * (1.0 - b + b * (dl / avgdl if avgdl > 0 else 0.0))
            scores[doc_id] += idf * tf * (k1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_n]
