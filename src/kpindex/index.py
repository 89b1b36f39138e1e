"""Inverted index over text stems and extracted keyphrase stems, with BM25.

Every document contributes TEXT postings for its indexable stems;
extracted keyphrases add postings in a KP_PRESENT or KP_ABSENT field
according to their origin. Indexing the absent field is what lets a query
match a document that never contains the query terms in its text.

Search is BM25 with fixed parameters K1, B and FIELD_WEIGHTS (keyphrase
fields count 1.5x in term frequency and in document length). The
InvertedIndex docstring states the one rule of a valid index, built,
loaded or made by hand, which its constructor checks. The rule's
MAX_COUNT cap keeps every BM25 contribution finite and >= 0: for n
documents the idf lies in (0, log(2n + 2)), the weighted term frequency
tf is finite (at most 4.5 * 2**53 with one posting per field), every
norm is at least K1 * (1 - B), so idf * tf * (K1 + 1) / (tf + norm) is
below 2.2 * idf, and a query's summed bounds cannot overflow.

The first query that meets a term scores its postings into one BM25
contribution per document and caches them on the index with their
largest, the term's bound. Search skips the documents that only
low-bound terms reach (MaxScore), so a query costs time in proportion to
the postings of its new terms plus the documents its high-bound terms
reach, never to the number of documents.

On disk the index is a single binary file: 4-byte magic, 1-byte format
version, 8-byte big-endian payload length, then a self-describing UTF-8
JSON payload. JSON floats round-trip exactly, so save -> load is bit-exact.
The length norms and the contribution cache are derived data: they are not
written to the file. Save encodes the postings as they are, with no copy;
load never holds the decoded payload and the loaded index both whole
(see load_index).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import heapq
import itertools
import json
import math
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

_NUMBER = (int, float)  # a length's or weight's types; bool is excluded
_MAGIC = b"KPIX"
_VERSION = 1
_MARGIN = 1.0 + 1e-9  # search's stopping margin over float rounding
MAX_COUNT = float(2**53)  # the largest length or weight an index holds


@dataclasses.dataclass
class InvertedIndex:
    """stem -> (doc id, field, weight) postings plus each document's field
    lengths.

    The constructor states the one rule of a valid index, for built,
    loaded and hand-built indexes alike: `config` is a dict; each
    document's lengths are a dict naming exactly FIELDS, each an int or
    float (not a bool) in [0, MAX_COUNT], all checked before any posting;
    every posting names a document of `doc_lengths` and a field of
    FIELDS, with an int or float weight in (0, MAX_COUNT]; each term's
    postings strictly increase in (doc id, field). MAX_COUNT = 2**53 is
    the largest count a float holds exactly; lengths and weights count
    tokens, so no corpus reaches it. A breach is a DataError naming the
    part at fault ('config', 'doc_lengths' or 'postings') and, where they
    apply, the document, the field and the term. The constructor neither
    sorts nor changes its arguments; it sets `norms`, each document's
    BM25 length norm K1 * (1 - B + B * dl / avgdl). Nothing changes an
    index afterwards but one derived cache: `contributions` maps each
    term that `search` has met and that has postings to a ({doc id: BM25
    contribution} in posting order, bound) pair, the bound being the
    largest contribution. It is not compared and not saved, and filling
    it is idempotent, so threads may share an index under the GIL: two
    that fill one term at once store equal entries.
    """

    postings: dict[str, list[tuple[str, str, float]]]
    doc_lengths: dict[str, dict[str, float]]
    config: dict = dataclasses.field(default_factory=dict)
    norms: dict[str, float] = dataclasses.field(init=False, compare=False)
    contributions: dict[str, tuple[dict[str, float], float]] = (
        dataclasses.field(default_factory=dict, init=False, compare=False,
                          repr=False))

    def __post_init__(self) -> None:
        if not isinstance(self.config, dict):
            raise DataError("'config': not a dict")
        weighted = {}
        for doc_id, lengths in sorted(self.doc_lengths.items()):
            if not isinstance(lengths, dict) or lengths.keys() != FIELD_WEIGHTS.keys():
                raise DataError(f"'doc_lengths': document {doc_id!r}: the "
                                f"length map does not name exactly {FIELDS}")
            for f in FIELDS:
                length = lengths[f]
                if type(length) not in _NUMBER or not 0.0 <= length <= MAX_COUNT:
                    raise DataError(f"'doc_lengths': document {doc_id!r}: field "
                                    f"{f!r}: length {_shown(length)} not in [0, 2**53]")
            weighted[doc_id] = math.fsum(FIELD_WEIGHTS[f] * lengths[f]
                                         for f in FIELDS)
        for term, plist in self.postings.items():
            last = ()  # sorts before every (doc id, field)
            for doc_id, field, weight in plist:
                pair = (doc_id, field)
                if doc_id not in weighted:
                    problem = "document not in doc_lengths"
                elif field not in FIELD_WEIGHTS:
                    problem = "field not in FIELDS"
                elif type(weight) not in _NUMBER or not 0.0 < weight <= MAX_COUNT:
                    problem = f"weight {_shown(weight)} not in (0, 2**53]"
                elif pair <= last:
                    problem = "not after the previous posting's (doc id, field)"
                else:
                    last = pair
                    continue
                raise DataError(f"'postings': term {term!r}: document "
                                f"{doc_id!r}: field {field!r}: {problem}")
        avgdl = (math.fsum(weighted.values()) / len(weighted)
                 if weighted else 0.0)
        self.norms = {doc_id: K1 * (1.0 - B + B * (dl / avgdl if avgdl > 0
                                                   else 0.0))
                      for doc_id, dl in weighted.items()}


def _shown(value) -> str:
    """A number's repr; any other value's type, however deep it nests."""
    return repr(value) if type(value) in _NUMBER else f"of type {type(value).__name__}"


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
        counts[FIELD_TEXT].update(index_stems(corpus[doc_id], corpus.stopword_stems))
        for rk in keyphrases.get(doc_id, []):
            field = (FIELD_KP_PRESENT if rk.origin is Origin.PRESENT
                     else FIELD_KP_ABSENT)
            counts[field].update(rk.key.split(" "))
        # ids come sorted, so sorted fields give the order InvertedIndex takes
        for field, field_counts in sorted(counts.items()):
            for term, count in field_counts.items():
                postings[term].append((doc_id, field, float(count)))
        doc_lengths[doc_id] = {field: float(sum(field_counts.values()))
                               for field, field_counts in counts.items()}
    return InvertedIndex(dict(postings), doc_lengths, config or {})


def save_index(index: InvertedIndex, path: str) -> None:
    """Write `index` to `path` atomically. The payload bytes are the UTF-8
    of `json.dumps(payload, sort_keys=True, ensure_ascii=False)`, which
    writes each posting tuple as an array; DataError when a string holds
    a lone surrogate, which UTF-8 cannot encode."""
    payload = {
        "format": "kpindex-inverted-index",
        "fields": list(FIELDS),
        "config": index.config,
        "doc_lengths": index.doc_lengths,
        "postings": index.postings,
    }
    try:
        body = json.dumps(payload, sort_keys=True,
                          ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as in a file name
        raise DataError(f"index text is not valid UTF-8 "
                        f"({exc.reason})") from None
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
    """Read an index file; every DataError names the file and the payload
    field at fault.

    Load checks what JSON can get wrong: `doc_lengths` and `postings`
    are objects, and each posting is a [doc id, field, weight] row naming
    a document of `doc_lengths` and a field of FIELDS. The InvertedIndex
    constructor checks the rest of the rule of a valid index; then each
    field length must equal the math.fsum of that document's weights in
    the field, as build_index writes it (a rule for files only). The
    payload is decoded from the file buffer with no copy, and the index
    made with the cyclic garbage collector paused process-wide: the
    decoded rows form no reference cycle, so collector passes over them
    only cost time. Each term's rows are freed once its postings are
    made, and each posting shares its doc id string with the
    `doc_lengths` key and its field with FIELDS.
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
    if len(blob) - 13 != int.from_bytes(blob[5:13], "big"):
        raise DataError(f"{path}: truncated index file")
    try:
        text = str(memoryview(blob)[13:], "utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: corrupt index payload") from None
    del blob
    enabled = gc.isenabled()  # re-enabled only if it was, also on an error
    gc.disable()
    try:
        return _decode_payload(path, text)
    finally:
        if enabled:
            gc.enable()


def _decode_payload(path: str, text: str) -> InvertedIndex:
    try:
        payload = json.loads(text)
    except ValueError:
        # invalid JSON, or an integer past Python's int-string digit
        # limit (a plain ValueError)
        raise DataError(f"{path}: corrupt index payload") from None
    except RecursionError:
        raise DataError(f"{path}: index payload nested too deeply") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: corrupt index payload")
    try:
        part = "doc_lengths"
        doc_lengths = payload[part]
        # one cell per (doc id, field): [doc_lengths key, FIELDS constant,
        # posting weights...]; postings share its strings, its weights feed
        # the sum rule, and .keys() refuses a doc_lengths that is no object
        cells = {doc_id: {f: [doc_id, f] for f in FIELDS}
                 for doc_id in doc_lengths.keys()}
        part = "postings"
        postings = {}
        for term, rows in payload[part].items():
            plist = postings[term] = []
            for doc_id, field, weight in rows:
                # KeyError for an unknown document or field
                cell = cells[doc_id][field]
                cell.append(weight)
                plist.append((cell[0], cell[1], weight))
            rows.clear()  # free the decoded rows as the index grows
    except (KeyError, TypeError, ValueError, AttributeError):
        raise DataError(f"{path}: index payload field {part!r} is "
                        f"missing or malformed") from None
    try:
        index = InvertedIndex(postings, doc_lengths, payload.get("config", {}))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    for doc_id, by_field in cells.items():
        for f, cell in by_field.items():
            if math.fsum(cell[2:]) != doc_lengths[doc_id][f]:
                raise DataError(f"{path}: 'doc_lengths': document {doc_id!r}: "
                                f"field {f!r}: not the fsum of its weights")
    return index


#: A query is normalized exactly as evaluation normalizes a phrase.
query_terms = phrase_stems


def search(index: InvertedIndex, query: str,
           top_n: int = 10) -> list[tuple[str, float]]:
    """BM25 over all fields with K1, B and FIELD_WEIGHTS.

    Only documents matching at least one query term are returned, ranked
    by score with ties broken by doc id. Query terms with no postings
    (including stopwords, which are never indexed) contribute nothing; a
    repeated term contributes once per occurrence. A document's score is
    `acc += c` from 0.0 over its contributions in query-term order: the
    same floats, added in the same order, as a scan of every posting (a
    term that misses the document would add 0.0, which changes nothing).

    Search skips the documents that only low-bound terms reach (MaxScore;
    Turtle & Flood, IPM 1995). A term's bound is its multiplicity in the
    query times its largest contribution, and terms are taken by
    descending bound. Each document that the current term reaches and
    that has no score yet is scored exactly, over the query terms not yet
    taken (a term already taken reaches no new document). Once top_n
    documents are scored, let theta be the top_n-th largest score: search
    stops when the sum of the remaining terms' bounds, times (1 + 1e-9),
    is below theta, since a document that only those terms reach scores
    at most that sum. The index's MAX_COUNT cap makes every contribution
    finite and >= 0, so that sum is finite, and a float sum of k such
    values is within a factor (1 + k * 2**-53) of its exact value, as is
    the sum of the bounds; the margin covers both for any query of fewer
    than about four million terms. So a skipped document scores below
    theta: it is neither in the top n nor tied at the floor.

    The top_n largest scores so far give theta and, in the end, the floor,
    the top_n-th largest score; only the documents scoring at or above it
    are sorted. Every member of the true top n scores at least the floor,
    and every document tied at it is kept for the tie-break, so the result
    equals a full sort cut to top_n. Raises ConfigError when top_n is
    below 1.
    """
    if top_n < 1:
        raise ConfigError("top_n (search --top) must be >= 1")
    cache = index.contributions
    maps = []  # each query term's contributions, in query order
    multiplicity: dict[str, int] = {}
    for term in query_terms(query):
        entry = cache.get(term)
        if entry is None:
            plist = index.postings.get(term)
            if not plist:
                continue
            entry = cache[term] = _contributions(index, plist)
        maps.append(entry[0])
        multiplicity[term] = multiplicity.get(term, 0) + 1
    terms = sorted(((cache[term][0], count * cache[term][1])
                    for term, count in multiplicity.items()),
                   key=lambda term: -term[1])
    # the margined bound of terms[i:], for each i
    stops = [remaining * _MARGIN for remaining in
             itertools.accumulate(bound for _, bound in reversed(terms))][::-1]
    scores: dict[str, float] = {}
    top: list[float] = []  # the top_n largest scores, largest first
    for stop, (contributions, _) in zip(stops, terms):
        if len(top) == top_n and stop < top[-1]:
            break
        gets = [m.get for m in maps]
        maps = [m for m in maps if m is not contributions]
        new = []
        for doc_id in contributions:
            if doc_id not in scores:
                acc = 0.0
                for get in gets:
                    acc += get(doc_id, 0.0)
                scores[doc_id] = acc
                new.append(acc)
        top = heapq.nlargest(top_n, top + new)
    items = scores.items()
    if len(scores) > top_n:
        items = [item for item in items if item[1] >= top[-1]]
    return sorted(items, key=lambda item: (-item[1], item[0]))[:top_n]


def _contributions(index: InvertedIndex, plist: list[tuple[str, str, float]]
                   ) -> tuple[dict[str, float], float]:
    """Each document's BM25 score for one term, from the term's postings,
    in posting order, and the term's bound, the largest score. The
    constructor's checks make every score finite and >= 0."""
    tf_weighted: dict[str, float] = defaultdict(float)
    for doc_id, field, weight in plist:
        tf_weighted[doc_id] += FIELD_WEIGHTS[field] * weight
    n = len(index.doc_lengths)
    df = len(tf_weighted)
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    norms = index.norms
    contributions = {doc_id: idf * tf * (K1 + 1.0) / (tf + norms[doc_id])
                     for doc_id, tf in tf_weighted.items()}
    return contributions, max(contributions.values())
