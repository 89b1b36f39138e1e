"""Inverted index over text stems and extracted keyphrase stems, with BM25.

Every document contributes TEXT postings for its indexable stems;
extracted keyphrases add postings in a KP_PRESENT or KP_ABSENT field
according to their origin. Indexing the absent field is what lets a query
match a document that never contains the query terms in its text.

Each term's postings are three columns (a Postings record): document
rows, field codes and weights. A document's row is its place in
sorted(doc_lengths) and a field's code its place in sorted(FIELDS)
(kp_absent, kp_present, text), so (row, code) order is (doc id, field)
order. Plain posting arrays are the usual inverted-file layout (Zobel &
Moffat, ACM Computing Surveys 2006). On the `index-search` benchmark's
seed-1 corpus (186,198 postings, 9,443 terms) tracemalloc puts a built
index at 5.9 MB and a loaded one at 6.7 MB, 32 and 36 bytes a posting,
where a (doc id, field, weight) tuple per posting kept 20.1 and 20.8 MB.

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
version, 8-byte big-endian payload length, then a UTF-8 JSON payload:
json.dumps(sort_keys=True) of the five members _MEMBERS, each posting
written as a [doc id, field, weight] row. Load accepts exactly that form.
JSON floats round-trip exactly, so save -> load is bit-exact. The length
norms and the contribution cache are derived data: they are not written
to the file. Save expands one term's rows at a time and load turns one
term's rows into columns at a time, so neither holds every posting as
rows (see save_index and load_index).
"""

from __future__ import annotations

import codecs
import contextlib
import dataclasses
import heapq
import itertools
import json
import math
import os
import uuid
from array import array
from collections import Counter, defaultdict

from .corpus import Corpus, collector_paused, index_stems, phrase_stems
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

_CODE_FIELDS = tuple(sorted(FIELDS))  # a field's code is its place here
_FIELD_CODES = {f: code for code, f in enumerate(_CODE_FIELDS)}
_CODE_WEIGHTS = tuple(FIELD_WEIGHTS[f] for f in _CODE_FIELDS)
_NUMBER = (int, float)  # a length's types; bool is excluded
_JSON_SCALARS = (str, int, float, type(None))  # bool is an int
_MAGIC = b"KPIX"
_VERSION = 1
_FORMAT = "kpindex-inverted-index"  # the payload's `format` member
# the payload's members, in the order json.dumps(sort_keys=True) writes them
_MEMBERS = ("config", "doc_lengths", "fields", "format", "postings")
_BLOCK = 1 << 16  # load decodes the payload this many bytes at a time
_MARGIN = 1.0 + 1e-9  # search's stopping margin over float rounding
MAX_COUNT = float(2**53)  # the largest length or weight an index holds
# json.loads's own C scanner and whitespace: load walks the payload with them
_scan_once = json.JSONDecoder().scan_once
_scanstring = json.decoder.scanstring
_skip = json.decoder.WHITESPACE.match


@dataclasses.dataclass(slots=True)
class Postings:
    """One term's postings as three columns of one length: `rows`, an
    array('i') of document rows; `codes`, a bytes of field codes; and
    `weights`, an array('d'). Its len() is the number of postings."""

    rows: array
    codes: bytes
    weights: array

    def __len__(self) -> int:
        return len(self.rows)


@dataclasses.dataclass
class InvertedIndex:
    """stem -> Postings columns plus each document's field lengths.

    The constructor states the one rule of a valid index, for built,
    loaded and hand-built indexes alike: `config` is a dict that JSON
    gives back equal (str keys; dict, list, str, int, finite float, bool
    and None values); every doc id and term is a str; each document's
    lengths are a dict naming exactly FIELDS, each an int or float (not a
    bool) in [0, MAX_COUNT], all checked before any posting; each term's
    postings are a Postings of array('i') rows, bytes codes and
    array('d') weights, of one length; every row is below the number of
    documents, every code below 3, every weight in (0, MAX_COUNT]; each
    term's postings strictly increase in (row, code), which is (doc id,
    field) order; and each field length equals the math.fsum of that
    document's weights in the field, as build_index writes it, checked
    last. MAX_COUNT = 2**53 is the largest count a float holds exactly;
    lengths and weights count tokens, so no corpus reaches it. A breach
    is a DataError naming the part at fault ('config', 'doc_lengths' or
    'postings') and, where they apply, the term, the document and the
    field (a row or code out of range is named by its number; of the
    lengths that are no fsum, the first in doc id and then FIELDS
    order). A file that save_index writes of an accepted index loads
    back equal. The constructor neither sorts nor changes its
    arguments. It sets `doc_ids`, sorted(doc_lengths), which maps a row
    to its doc id, and `norms`, each row's BM25 length norm
    K1 * (1 - B + B * dl / avgdl). Nothing changes an index afterwards
    but one derived cache: `contributions` maps each term that `search`
    has met and that has postings to a ({doc id: BM25 contribution} in
    posting order, bound) pair, the bound being the largest
    contribution. It is not compared and not saved, and filling it is
    idempotent, so threads may share an index under the GIL: two that
    fill one term at once store equal entries.
    """

    postings: dict[str, Postings]
    doc_lengths: dict[str, dict[str, float]]
    config: dict = dataclasses.field(default_factory=dict)
    doc_ids: list[str] = dataclasses.field(init=False, compare=False,
                                           repr=False)
    norms: list[float] = dataclasses.field(init=False, compare=False)
    contributions: dict[str, tuple[dict[str, float], float]] = (
        dataclasses.field(default_factory=dict, init=False, compare=False,
                          repr=False))

    def __post_init__(self) -> None:
        if not isinstance(self.config, dict):
            raise DataError("'config': not a dict")
        _check_json(self.config)
        for doc_id in self.doc_lengths:
            if type(doc_id) is not str:
                raise DataError(f"'doc_lengths': document id {_shown(doc_id)} "
                                f"is not a str")
        self.doc_ids = sorted(self.doc_lengths)
        weighted = []
        for doc_id in self.doc_ids:
            lengths = self.doc_lengths[doc_id]
            if not isinstance(lengths, dict) or lengths.keys() != FIELD_WEIGHTS.keys():
                raise DataError(f"'doc_lengths': document {doc_id!r}: the "
                                f"length map does not name exactly {FIELDS}")
            for f in FIELDS:
                length = lengths[f]
                if type(length) not in _NUMBER or not 0.0 <= length <= MAX_COUNT:
                    raise DataError(f"'doc_lengths': document {doc_id!r}: field "
                                    f"{f!r}: length {_shown(length)} not in [0, 2**53]")
            weighted.append(math.fsum(FIELD_WEIGHTS[f] * lengths[f]
                                      for f in FIELDS))
        sums = [0.0] * (3 * len(self.doc_ids))  # a cell's, at 3 * row + code
        for term, plist in self.postings.items():
            if type(term) is not str:
                raise DataError(f"'postings': term {_shown(term)} is not a str")
            _check_postings(term, plist, self.doc_ids, sums)
        # while every weight is an integer and every sum stays below 2**53,
        # each float addition is exact, so the plain sums are the fsums;
        # otherwise each cell's weights are gathered (in any order) for fsum
        if not (all(total < MAX_COUNT for total in sums)
                and all(all(map(float.is_integer, plist.weights))
                        for plist in self.postings.values())):
            cells = [[] for _ in sums]
            for plist in self.postings.values():
                for row, code, weight in zip(plist.rows, plist.codes,
                                             plist.weights):
                    cells[3 * row + code].append(weight)
            sums = [math.fsum(cell) for cell in cells]
        for row, doc_id in enumerate(self.doc_ids):
            lengths = self.doc_lengths[doc_id]
            for f in FIELDS:
                if sums[3 * row + _FIELD_CODES[f]] != lengths[f]:
                    raise DataError(f"'doc_lengths': document {doc_id!r}: "
                                    f"field {f!r}: not the fsum of its weights")
        avgdl = math.fsum(weighted) / len(weighted) if weighted else 0.0
        self.norms = [K1 * (1.0 - B + B * (dl / avgdl if avgdl > 0 else 0.0))
                      for dl in weighted]


def _check_postings(term: str, plist, doc_ids: list[str],
                    sums: list[float]) -> None:
    """Refuse a term's postings that break the rule, naming the first
    posting at fault; add each weight to its cell's sum, at 3 * row +
    code."""
    if not (type(plist) is Postings
            and type(plist.rows) is array and plist.rows.typecode == "i"
            and type(plist.codes) is bytes
            and type(plist.weights) is array and plist.weights.typecode == "d"
            and len(plist.rows) == len(plist.codes) == len(plist.weights)):
        raise DataError(f"'postings': term {term!r}: not a Postings of "
                        f"array('i') rows, bytes codes and array('d') "
                        f"weights of one length")
    n = len(doc_ids)
    last = -1  # below every 3 * row + code
    for row, code, weight in zip(plist.rows, plist.codes, plist.weights):
        if not 0 <= row < n:
            problem = "document not in doc_lengths"
        elif code > 2:
            problem = "field not in FIELDS"
        elif not 0.0 < weight <= MAX_COUNT:
            problem = f"weight {weight!r} not in (0, 2**53]"
        elif (key := 3 * row + code) <= last:
            problem = "not after the previous posting's (doc id, field)"
        else:
            last = key
            sums[key] += weight
            continue
        doc = repr(doc_ids[row]) if 0 <= row < n else f"row {row}"
        field = repr(_CODE_FIELDS[code]) if code < 3 else f"code {code}"
        raise DataError(f"'postings': term {term!r}: document {doc}: "
                        f"field {field}: {problem}")


def _check_json(config: dict) -> None:
    """Refuse a config that JSON would not give back equal. Each dict and
    list is walked once, so a cycle ends here; save_index refuses it."""
    seen = set()
    stack = [config]
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list)):
            if id(value) in seen:
                continue
            seen.add(id(value))
            if isinstance(value, list):
                stack.extend(value)
                continue
            for key in value:
                if not isinstance(key, str):
                    raise DataError(f"'config': key {_shown(key)} is not a str")
            stack.extend(value.values())
        elif not isinstance(value, _JSON_SCALARS):
            raise DataError(f"'config': value {_shown(value)} is not a JSON "
                            f"value")
        elif isinstance(value, float) and not math.isfinite(value):
            raise DataError(f"'config': value {value!r} is not finite")


def _shown(value) -> str:
    """A number's repr; any other value's type, however deep it nests."""
    return repr(value) if type(value) in _NUMBER else f"of type {type(value).__name__}"


@collector_paused
def build_index(corpus: Corpus,
                keyphrases: dict[str, list[RankedKeyphrase]],
                config: dict | None = None) -> InvertedIndex:
    """Index TEXT stems for every document plus extracted keyphrase stems.

    `keyphrases` maps document ids to their ranked extraction output; a
    missing id simply gets no keyphrase postings.
    """
    flat: dict[str, list[int]] = defaultdict(list)  # row, code, count, ...
    doc_lengths: dict[str, dict[str, float]] = {}
    # ids come sorted, so a document's place is its row, and codes follow
    # the sorted fields: postings come in the (row, code) order the
    # constructor takes
    for row, doc_id in enumerate(corpus.ids()):
        counts = {field: Counter() for field in FIELDS}
        counts[FIELD_TEXT].update(index_stems(corpus[doc_id], corpus.stopword_stems))
        for rk in keyphrases.get(doc_id, []):
            field = (FIELD_KP_PRESENT if rk.origin is Origin.PRESENT
                     else FIELD_KP_ABSENT)
            counts[field].update(rk.key.split(" "))
        for code, field in enumerate(_CODE_FIELDS):
            for term, count in counts[field].items():
                flat[term].extend((row, code, count))
        doc_lengths[doc_id] = {field: float(sum(field_counts.values()))
                               for field, field_counts in counts.items()}
    postings = {term: Postings(array("i", values[::3]), bytes(values[1::3]),
                               array("d", values[2::3]))
                for term, values in flat.items()}
    del flat  # freed before the constructor's checks
    return InvertedIndex(postings, doc_lengths, config or {})


def save_index(index: InvertedIndex, path: str) -> None:
    """Write `index` to `path` atomically. The payload bytes are the UTF-8
    of `json.dumps(payload, sort_keys=True, ensure_ascii=False,
    allow_nan=False)`, the payload writing each posting as a [doc id,
    field, weight] row. json.dumps asks for one term's rows at a time and
    drops them once written, so save never holds every posting as rows.
    DataError when a string holds a lone surrogate, which UTF-8 cannot
    encode, or when the config cannot be written (a cycle, or nested past
    the recursion limit)."""
    payload = dict(zip(_MEMBERS, (index.config, index.doc_lengths,
                                  list(FIELDS), _FORMAT, index.postings)))
    doc_id, field = index.doc_ids.__getitem__, _CODE_FIELDS.__getitem__

    def rows(plist):
        """A term's rows, as (doc id, field, weight) tuples: JSON writes a
        tuple as an array."""
        if type(plist) is not Postings:
            raise TypeError(f"Object of type {type(plist).__name__} is not "
                            f"JSON serializable")
        return list(zip(map(doc_id, plist.rows), map(field, plist.codes),
                        plist.weights))

    try:
        body = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                          allow_nan=False, default=rows).encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as in a file name
        raise DataError(f"index text is not valid UTF-8 "
                        f"({exc.reason})") from None
    except (TypeError, ValueError, RecursionError) as exc:
        # the constructor checks every value but a config's cycle or depth
        raise DataError(f"'config': not a JSON value ({exc})") from None
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


@collector_paused
def load_index(path: str) -> InvertedIndex:
    """Read an index file as save_index writes it; every DataError names
    the file and the payload member at fault.

    The payload must be one JSON object holding the members _MEMBERS in
    that order, each once: `format` is _FORMAT, `fields` list(FIELDS),
    `doc_lengths` an object and `postings` an object of strictly
    increasing terms, each a list of [doc id, field, float weight] rows
    naming a document of `doc_lengths` and a field of FIELDS. The
    InvertedIndex constructor checks the rest of the rule of a valid
    index, its values and the sum rule, and load returns the index it
    makes. Load stops at the first fault it meets, so a fault of shape
    hides a later syntax error.

    The payload text is decoded from the file buffer 64 KiB at a time.
    This only matters for a payload holding non-ASCII text, which decoded
    whole peaks at twice its size; an ASCII one, like every benchmark
    file, peaks the same either way. The text is then walked
    with json.loads's own C scanner: every member but `postings` is
    decoded whole, and `postings` one term at a time, each term's rows
    decoded, made into columns and dropped before the next term is read.
    So load holds the text, the index and one term's rows, never the
    whole decoded payload: on the `index-search` benchmark's 5.19 MB
    file, tracemalloc puts load's peak at 12.7 MB and the index it keeps
    at 6.7 MB (29.2 and 20.8 MB with a tuple per posting). Like the
    package's other bulk work, load runs with the cyclic garbage
    collector paused (corpus.collector_paused): the decoded rows form no
    reference cycle.
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
    decoder = codecs.getincrementaldecoder("utf-8")()
    with memoryview(blob) as view:
        try:
            pieces = [decoder.decode(view[i:i + _BLOCK])
                      for i in range(13, len(blob), _BLOCK)]
            pieces.append(decoder.decode(b"", True))
        except UnicodeDecodeError:
            raise DataError(f"{path}: corrupt index payload") from None
    del blob
    text = "".join(pieces)
    del pieces
    return _decode_payload(path, text)


def _decode_payload(path: str, text: str) -> InvertedIndex:
    values = {}  # each member's value, in _MEMBERS order

    def member(key, at):
        n = len(values)
        if n == len(_MEMBERS) or key != _MEMBERS[n]:
            expected = repr(_MEMBERS[n]) if n < len(_MEMBERS) else "the end"
            raise DataError(f"{path}: index payload field {key!r} where "
                            f"{expected} belongs")
        if key == "postings":
            values[key], end = _walk_postings(path, text, at,
                                              values["doc_lengths"])
            return end
        values[key], end = _value(text, at)
        if (key == "doc_lengths" and not isinstance(values[key], dict)
                or key == "fields" and values[key] != list(FIELDS)
                or key == "format" and values[key] != _FORMAT):
            raise _malformed(path, key)
        return end

    try:
        start = _skip(text, 0).end()
        if not text.startswith("{", start):
            _value(text, start)  # json.loads tells a too deep value apart
            raise ValueError("not an object")
        end = _walk_object(text, start, member)
        if _skip(text, end).end() != len(text):
            raise ValueError("extra data")
    except ValueError:
        # invalid JSON, no object, or an integer past Python's int-string
        # digit limit (a plain ValueError)
        raise DataError(f"{path}: corrupt index payload") from None
    except RecursionError:
        raise DataError(f"{path}: index payload nested too deeply") from None
    if len(values) < len(_MEMBERS):
        raise _malformed(path, _MEMBERS[len(values)])
    try:
        return InvertedIndex(values["postings"], values["doc_lengths"],
                             values["config"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _malformed(path: str, part: str) -> DataError:
    return DataError(f"{path}: index payload field {part!r} is missing or "
                     f"malformed")


def _walk_postings(path: str, text: str, at: int, doc_lengths: dict):
    """Read the postings member whose value is at text[at] against
    `doc_lengths`, one term at a time: check that the term follows the
    previous one, decode its rows, make its columns, drop the rows.
    Returns the postings and the index after the member."""
    if not text.startswith("{", at):
        _value(text, at)  # a syntax error there is a corrupt payload
        raise _malformed(path, "postings")
    row_of = {doc_id: row for row, doc_id in enumerate(sorted(doc_lengths))}
    postings = {}
    last = None

    def read_term(term, i):
        nonlocal last
        if last is not None and term <= last:
            raise DataError(f"{path}: index payload field 'postings': term "
                            f"{term!r} is not after {last!r}")
        rows, end = _value(text, i)
        plist = _columns(rows, row_of)
        if plist is None:
            raise _malformed(path, "postings")
        postings[term] = plist
        last = term
        return end

    return postings, _walk_object(text, at, read_term)


def _columns(rows, row_of: dict[str, int]) -> Postings | None:
    """A term's decoded rows as columns, or None when they are not a list
    of [doc id, field, weight] rows naming documents of row_of and fields
    of FIELDS, with float weights."""
    if type(rows) is not list:
        return None
    if not rows:
        return Postings(array("i"), b"", array("d"))
    try:
        if set(map(len, rows)) != {3}:
            return None
        ids, fields, weights = zip(*rows)
        if set(map(type, weights)) != {float}:
            return None
        return Postings(array("i", list(map(row_of.__getitem__, ids))),
                        bytes(map(_FIELD_CODES.__getitem__, fields)),
                        array("d", weights))
    except (KeyError, TypeError):
        return None


def _walk_object(text: str, at: int, member) -> int:
    """Walk the JSON object that opens at text[at], with the syntax
    json.loads takes: for each member in order, call member(key, i), i
    being the index of its value, which member reads and returns the
    index after. Returns the index after the object; a syntax error is a
    ValueError."""
    end = _skip(text, at + 1).end()
    if text.startswith("}", end):
        return end + 1
    while True:
        if not text.startswith('"', end):
            raise ValueError("expecting a member name")
        key, end = _scanstring(text, end + 1)
        end = _skip(text, end).end()
        if not text.startswith(":", end):
            raise ValueError("expecting ':'")
        end = _skip(text, member(key, _skip(text, end + 1).end())).end()
        if text.startswith("}", end):
            return end + 1
        if not text.startswith(",", end):
            raise ValueError("expecting ',' or '}'")
        end = _skip(text, end + 1).end()


def _value(text: str, at: int):
    """The JSON value at text[at], decoded whole, and the index after it;
    a ValueError where no value starts."""
    try:
        return _scan_once(text, at)
    except StopIteration:
        raise ValueError("expecting a value") from None


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


def _contributions(index: InvertedIndex, plist: Postings
                   ) -> tuple[dict[str, float], float]:
    """Each document's BM25 score for one term, from the term's postings,
    in posting order, and the term's bound, the largest score. The
    constructor's checks make every score finite and >= 0."""
    tf_weighted: dict[int, float] = defaultdict(float)
    for row, code, weight in zip(plist.rows, plist.codes, plist.weights):
        tf_weighted[row] += _CODE_WEIGHTS[code] * weight
    n = len(index.doc_ids)
    df = len(tf_weighted)
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    doc_ids, norms = index.doc_ids, index.norms
    # keyed by the doc id strings that doc_ids shares with doc_lengths
    contributions = {doc_ids[row]: idf * tf * (K1 + 1.0) / (tf + norms[row])
                     for row, tf in tf_weighted.items()}
    return contributions, max(contributions.values())
