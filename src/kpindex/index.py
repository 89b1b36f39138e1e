"""Inverted index over text stems and extracted keyphrase stems, with BM25.

Every document contributes TEXT postings for its indexable stems;
extracted keyphrases add postings in a KP_PRESENT or KP_ABSENT field
according to their origin. Indexing the absent field is what lets a query
match a document that never contains the query terms in its text.

Search is BM25 with fixed parameters K1, B and FIELD_WEIGHTS (keyphrase
fields count 1.5x in term frequency and in document length). An index is
complete once constructed: the constructor sorts the postings and derives
the average weighted length and each document's length norm, whether the
index was built or loaded. The first query that meets a term scores its
postings into one BM25 contribution per document and caches them on the
index, so that query costs time in proportion to the term's postings and
every later one costs one addition per matching document; no query costs
time in proportion to the number of documents. To pick the top n results,
selection makes one float-only pass for the floor, the n-th largest score,
and sorts only the documents scoring at or above it.

On disk the index is a single binary file: 4-byte magic, 1-byte format
version, 8-byte big-endian payload length, then a self-describing UTF-8
JSON payload. JSON floats round-trip exactly, so save -> load is bit-exact.
The length norms and the contribution cache are derived data: they are not
written to the file. Save encodes the postings as they are, with no copy.
Load pauses the cyclic garbage collector and then restores it: decoding
makes one small list per posting and no reference cycle, so collector
passes over them only cost time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import heapq
import json
import math
import operator
import os
import uuid
from collections import Counter, defaultdict

from .corpus import Corpus, index_stems, phrase_stems
from .errors import ConfigError, DataError
from .graph import Origin
from .ranking import RankedKeyphrase

FIELD_TEXT = "text"
FIELD_KP_PRESENT = "kp_present"
FIELD_KP_ABSENT = "kp_absent"
FIELDS = (FIELD_TEXT, FIELD_KP_PRESENT, FIELD_KP_ABSENT)

K1 = 1.2
B = 0.75
FIELD_WEIGHTS = {FIELD_TEXT: 1.0, FIELD_KP_PRESENT: 1.5, FIELD_KP_ABSENT: 1.5}

_NUMBER = (int, float)  # what JSON numbers parse to; bool is excluded
_MAGIC = b"KPIX"
_VERSION = 1
_DOC_FIELD = operator.itemgetter(0, 1)  # a posting's (doc id, field)


@dataclasses.dataclass
class InvertedIndex:
    """stem -> (doc id, field, weight) postings plus each document's field
    lengths.

    The constructor sorts every postings list in place into (doc id, field)
    order and sets `norms`, each document's BM25 length norm
    K1 * (1 - B + B * dl / avgdl). It raises DataError when a document's
    weighted length dl, or the sum of all of them, is not finite. Nothing
    changes an index afterwards but one derived cache: `contributions`
    maps each term that `search` has met and that has postings to its
    (doc id, BM25 contribution) pairs. It is not compared and not saved,
    and filling it is idempotent, so threads may share an index under the
    GIL: two that fill one term at once store equal lists.
    """

    postings: dict[str, list[tuple[str, str, float]]]
    doc_lengths: dict[str, dict[str, float]]
    config: dict = dataclasses.field(default_factory=dict)
    norms: dict[str, float] = dataclasses.field(init=False, compare=False)
    contributions: dict[str, list[tuple[str, float]]] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for plist in self.postings.values():
            plist.sort(key=_DOC_FIELD)
        weighted = {doc_id: _weighted_length(doc_id, lengths)
                    for doc_id, lengths in sorted(self.doc_lengths.items())}
        try:
            avgdl = (math.fsum(weighted.values()) / len(weighted)
                     if weighted else 0.0)
        except OverflowError:
            raise DataError("the documents' weighted lengths sum past the "
                            "float range") from None
        self.norms = {doc_id: K1 * (1.0 - B + B * (dl / avgdl if avgdl > 0
                                                   else 0.0))
                      for doc_id, dl in weighted.items()}


def _scaled_sum(lengths: dict[str, float], fields: tuple[str, ...]) -> float:
    """fsum of the FIELD_WEIGHTS-scaled lengths of fields; inf when finite
    terms sum past the float range."""
    try:
        return math.fsum(FIELD_WEIGHTS[f] * lengths[f] for f in fields)
    except OverflowError:
        return math.inf


def _weighted_length(doc_id: str, lengths: dict[str, float]) -> float:
    """A document's weighted length, the fsum of its FIELD_WEIGHTS-scaled
    field lengths. A length norm from an infinite one would be NaN, and so
    would every BM25 score of the document: DataError names the document
    and the first field whose length makes the sum not finite."""
    dl = _scaled_sum(lengths, FIELDS)
    if not math.isfinite(dl):
        field = next(f for end, f in enumerate(FIELDS, 1)
                     if not math.isfinite(_scaled_sum(lengths, FIELDS[:end])))
        raise DataError(f"document {doc_id!r}: field {field!r} makes its "
                        f"weighted length not finite")
    return dl


def build_index(corpus: Corpus,
                keyphrases: dict[str, list[RankedKeyphrase]],
                config: dict | None = None) -> InvertedIndex:
    """Index TEXT stems for every document plus extracted keyphrase stems.

    `keyphrases` maps document ids to their ranked extraction output; a
    missing id simply gets no keyphrase postings.
    """
    postings: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
    doc_lengths: dict[str, dict[str, float]] = {}
    for doc_id in corpus.ids():
        counts = {field: Counter() for field in FIELDS}
        counts[FIELD_TEXT].update(index_stems(corpus[doc_id], corpus.stopwords,
                                              corpus.stopword_stems))
        for rk in keyphrases.get(doc_id, []):
            field = (FIELD_KP_PRESENT if rk.origin is Origin.PRESENT
                     else FIELD_KP_ABSENT)
            counts[field].update(rk.key.split(" "))
        for field, field_counts in counts.items():
            for term, count in field_counts.items():
                postings[term].append((doc_id, field, float(count)))
        doc_lengths[doc_id] = {field: float(sum(field_counts.values()))
                               for field, field_counts in counts.items()}
    return InvertedIndex(dict(postings), doc_lengths, config or {})


def save_index(index: InvertedIndex, path: str) -> None:
    """Write `index` to `path` atomically. The payload bytes are the UTF-8
    of `json.dumps(payload, sort_keys=True, ensure_ascii=False)`, which
    writes each posting tuple as an array."""
    payload = {
        "format": "kpindex-inverted-index",
        "fields": list(FIELDS),
        "config": index.config,
        "doc_lengths": index.doc_lengths,
        "postings": index.postings,
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


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, process-wide, for the block; on
    exit re-enable it only if it was enabled on entry, also on an error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_index(path: str) -> InvertedIndex:
    """Read an index file; DataError names the payload field at fault.

    Every length and weight must be a finite JSON number, each length map
    must name exactly FIELDS, and each field length must equal the fsum of
    that document's posting weights in the field, as build_index writes it.
    InvertedIndex then rejects a weighted length that is not finite, naming
    the document and the field. The payload is decoded, checked and made
    an InvertedIndex with the cyclic garbage collector paused
    process-wide.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read index file {path}: {exc.strerror}") from None
    if len(blob) < 13 or blob[:4] != _MAGIC:
        raise DataError(f"{path}: not an index file (bad magic)")
    version = blob[4]
    if version != _VERSION:
        raise DataError(f"{path}: unsupported index format version {version}")
    length = int.from_bytes(blob[5:13], "big")
    body = blob[13:]
    if len(body) != length:
        raise DataError(f"{path}: truncated index file")
    with _collector_paused():
        return _decode_payload(path, body)


def _decode_payload(path: str, body: bytes) -> InvertedIndex:
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:
        # invalid UTF-8, invalid JSON, or an integer past Python's
        # int-string digit limit (a plain ValueError)
        raise DataError(f"{path}: corrupt index payload") from None
    except RecursionError:
        raise DataError(f"{path}: index payload nested too deeply") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: corrupt index payload")
    try:
        field = "config"
        config = payload.get(field, {})
        if not isinstance(config, dict):
            raise TypeError("config is not an object")
        field = "doc_lengths"
        doc_lengths = {}
        for doc_id, lengths in payload[field].items():
            if lengths.keys() != set(FIELDS):
                raise ValueError("a length map does not name exactly FIELDS")
            if not all(type(v) in _NUMBER and 0.0 <= v < math.inf
                       for v in lengths.values()):
                raise ValueError("a field length is not a finite number >= 0")
            # OverflowError for an integer beyond the float range
            doc_lengths[doc_id] = {f: float(lengths[f]) for f in FIELDS}
        field = "postings"
        postings = {}
        # each document's posting weights per field, for the length check
        weights = {doc_id: {f: [] for f in FIELDS} for doc_id in doc_lengths}
        for term, rows in payload[field].items():
            plist = postings[term] = []
            for doc_id, posting_field, weight in rows:
                if type(weight) not in _NUMBER or not 0.0 < weight < math.inf:
                    raise ValueError("a posting weight is not a finite number > 0")
                # KeyError for an unknown document or field
                weights[doc_id][posting_field].append(weight)
                plist.append((doc_id, posting_field, float(weight)))
            if len({(p[0], p[1]) for p in plist}) < len(plist):
                raise ValueError("a term lists a (doc id, field) twice")
        field = "doc_lengths"
        for doc_id, by_field in weights.items():
            for f, values in by_field.items():
                if math.fsum(values) != doc_lengths[doc_id][f]:
                    raise ValueError("a field length is not the sum of its "
                                     "posting weights")
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError):
        raise DataError(f"{path}: index payload field {field!r} is "
                             f"missing or malformed") from None
    return InvertedIndex(postings, doc_lengths, config)


#: A query is normalized exactly as evaluation normalizes a phrase.
query_terms = phrase_stems


def search(index: InvertedIndex, query: str,
           top_n: int = 10) -> list[tuple[str, float]]:
    """BM25 over all fields with K1, B and FIELD_WEIGHTS.

    Only documents matching at least one query term are returned, ranked
    by score with ties broken by doc id. Query terms with no postings
    (including stopwords, which are never indexed) contribute nothing; a
    repeated term contributes once per occurrence, and each document's
    contributions are added in query-term order.

    When more than top_n documents match, one pass over the bare float
    scores finds the floor, the top_n-th largest score; only the documents
    scoring at or above it are sorted. Every member of the true top n
    scores at least the floor, and every document tied at it is kept for
    the tie-break, so the result equals a full sort cut to top_n.
    Raises ConfigError when top_n is below 1.
    """
    if top_n < 1:
        raise ConfigError("top_n (search --top) must be >= 1")
    cache = index.contributions
    scores: dict[str, float] = {}
    for term in query_terms(query):
        pairs = cache.get(term)
        if pairs is None:
            plist = index.postings.get(term)
            if not plist:
                continue
            pairs = cache[term] = _contributions(index, plist)
        if not scores:
            # every contribution is > 0, so 0.0 + c == c
            scores = dict(pairs)
            continue
        get = scores.get
        for doc_id, contribution in pairs:
            scores[doc_id] = get(doc_id, 0.0) + contribution
    items = scores.items()
    if len(scores) > top_n:
        floor = heapq.nlargest(top_n, scores.values())[-1]
        items = [item for item in items if item[1] >= floor]
    return sorted(items, key=lambda item: (-item[1], item[0]))[:top_n]


def _contributions(index: InvertedIndex,
                   plist: list[tuple[str, str, float]]) -> list[tuple[str, float]]:
    """Each document's BM25 score for one term, from the term's postings,
    in posting order."""
    tf_weighted: dict[str, float] = defaultdict(float)
    for doc_id, field, weight in plist:
        tf_weighted[doc_id] += FIELD_WEIGHTS[field] * weight
    n = len(index.doc_lengths)
    df = len(tf_weighted)
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    norms = index.norms
    return [(doc_id, idf * tf * (K1 + 1.0) / (tf + norms[doc_id]))
            for doc_id, tf in tf_weighted.items()]
