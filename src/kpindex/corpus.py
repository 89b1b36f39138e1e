"""Corpus loading, text normalization and keyphrase candidate extraction.

A document is indexed on its title and abstract only. Both fields are
tokenized into a single stream with a sentence-break marker between the
fields and after sentence-final punctuation; stems align 1:1 with tokens.
Candidates are stopword-free n-grams (n <= max_len) that never cross a
sentence break, grouped under their stem-sequence key. A candidate is just
the list of token offsets where its key starts; its surface forms are read
back from the tokens (surface_counts) only for the rows ranking reports.

Tokens repeat: each distinct regex run is normalized once through a
bounded memo, as each distinct token is stemmed once, so a corpus holds
each distinct token once, one str shared by all its occurrences. The
per-token work runs in C: one regex with a single character class finds
the runs, map and filter pass them through the memo, and Document.build
maps the stemmer over every token, sentence breaks included, which the
stemmer leaves as they are.

The module also holds collector_paused, the package's one policy on
CPython's cyclic garbage collector: it sits here because every other
module imports this one.
"""

from __future__ import annotations

import functools
import gc
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

from .errors import DataError
from .porter import stem

#: Marker separating sentences (and the title from the abstract) in the
#: token stream. It can never collide with a real token: "<" and ">" are
#: token separators.
SENTENCE_BREAK = "<s>"


def collector_paused(fn):
    """fn, run with the cyclic garbage collector paused process-wide; the
    collector's previous state comes back when fn returns or raises.

    The package's bulk work (loading a corpus, building its tf-idf
    vectors, extracting a document, building and loading an index, and
    every CLI command) keeps many container objects but makes no
    reference cycle, so a collector pass during it finds nothing to free
    and only costs time: 6-10% of an extract pass. With the collector
    paused, reference counting still frees every object as soon as it is
    dropped; nothing is deferred. Work that keeps few of the objects it
    makes triggers few passes, so save_index and the queries (search,
    neighbors) are not paused: none of them ran measurably faster.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


_SURROGATE = re.compile("[\ud800-\udfff]")  # not encodable as UTF-8

#: A run of word characters and hyphens, or a sentence-final mark, matched
#: in text where tokenize has mapped "_" to U+0000. sre's `\w` is
#: `str.isalnum` plus "_", and U+0000, like "_", is neither a word
#: character nor whitespace, so on the mapped text `[\w-]` is exactly
#: `str.isalnum` or "-", and `\s` is exactly `str.isspace` on either text.
#: One character class lets sre scan a run in one loop, where
#: `(?:[^\W_]|-)+` ran a repeated group with a branch at every character.
_TOKEN = re.compile(r"[\w-]+|[.!?](?=\s|\Z)")


@lru_cache(maxsize=1 << 16)
def _normalize(run: str) -> str:
    """One regex run as its token: a sentence-break marker for a
    sentence-final mark, "" for a run of hyphens, otherwise the run
    lowercased with its outer hyphens stripped.

    A pure function, memoized as porter.stem is and with the same bound.
    The token is interned, so runs that differ only in case give one str
    too, and a corpus holds each distinct token once. A run that is
    already its own token is that token: lowercasing builds a new str
    even then, which the memo would otherwise hold beside its equal key.
    """
    if run in ".!?":
        return SENTENCE_BREAK
    if run.isascii():
        tok = run.lower().strip("-")
    else:
        tok = "".join([c.lower() for c in run.replace("\u0130", "i")]).strip("-")
    return sys.intern(run if tok == run else tok)


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase tokens plus sentence-break markers.

    Tokens are maximal runs of alphanumeric characters and internal
    hyphens; anything else separates tokens. A marker is emitted for
    ".", "!" or "?" followed by whitespace or end of text. Only an empty
    token, a run of hyphens, is dropped: any other run holds an
    alphanumeric character, and lowercasing keeps it alphanumeric.

    A token is lowercased one character at a time, so no character's
    lowercase depends on its neighbors ("ΟΣ" gives "οσ", not "ος"). "İ"
    (U+0130) lowercases to a plain "i": its Unicode lowercase adds a
    combining dot, which is no token character, so tokenizing the joined
    tokens again would split the word.

    The text's "_" characters are mapped to U+0000 before the regex runs:
    sre's `\\w` is `str.isalnum` plus "_", and U+0000 is no more a word
    character or whitespace than "_" is, so `[\\w-]+` then matches the runs
    of alphanumeric characters and hyphens. That single character class
    finds the runs 2.4-2.6 times as fast as `(?:[^\\W_]|-)+`, and
    str.replace copies no text that holds no "_".

    Each distinct run is normalized once, through a memo bounded at
    65,536 entries like the stemmer's, and equal tokens are one shared
    (interned) str; a run that is already its token is kept as that
    token. On CPython 3.11, load_corpus of the seed-1 index-search
    benchmark corpus (202,745 runs, 7,161 distinct) keeps 7.9 MB of
    tracemalloc bytes, both memos included, and takes 0.11 s of CPU with
    warm memos (0.18 s with the alternation regex and a comprehension).
    """
    return list(filter(None, map(_normalize,
                                 _TOKEN.findall(text.replace("_", "\0")))))


def phrase_stems(text: str) -> list[str]:
    """The stems of a phrase or query: tokenize, drop sentence breaks, stem."""
    return [stem(t) for t in tokenize(text) if t != SENTENCE_BREAK]


@dataclass
class Document:
    id: str
    gold: list[str] | None = None
    tokens: list[str] = field(default_factory=list)
    stems: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, id: str, title: str, abstract: str,
              gold: list[str] | None = None) -> "Document":
        """Construct a document from its title and abstract, which it keeps
        only as the token and stem views the pipeline reads."""
        tokens = tokenize(title) + [SENTENCE_BREAK] + tokenize(abstract)
        stems = list(map(stem, tokens))  # stem(SENTENCE_BREAK) is itself
        return cls(id=id, gold=gold, tokens=tokens, stems=stems)


def surface_counts(doc: Document, key: str, starts: list[int]) -> Counter:
    """The surface forms of one candidate of `doc`, read from its tokens at
    the key's starts, counted in order of first occurrence."""
    n = key.count(" ") + 1
    return Counter(" ".join(doc.tokens[s:s + n]) for s in starts)


def most_frequent_surface(doc: Document, key: str, starts: list[int]) -> str:
    """The key's most frequent surface in doc; ties go to the earliest
    occurrence, which most_common keeps first."""
    return surface_counts(doc, key, starts).most_common(1)[0][0]


def preferred_surface(surfaces: Counter) -> str:
    """Most frequent surface form; ties go to the lexicographically least."""
    return min(surfaces, key=lambda s: (-surfaces[s], s))


def _blocked(token: str, stopwords: frozenset[str]) -> bool:
    return token == SENTENCE_BREAK or token in stopwords


def extract_candidates(doc: Document, max_len: int,
                       stopwords: frozenset[str]) -> dict[str, list[int]]:
    """All stopword-free n-grams of length 1..max_len: each stem-sequence
    key maps to the ascending token offsets where it starts.

    No occurrence crosses a sentence break. Deterministic for a fixed
    (document, max_len, stopwords) input.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    cands: dict[str, list[int]] = {}
    toks, stems = doc.tokens, doc.stems
    for i in range(len(toks)):
        if _blocked(toks[i], stopwords):
            continue
        for n in range(1, max_len + 1):
            j = i + n
            if j > len(toks) or _blocked(toks[j - 1], stopwords):
                break
            cands.setdefault(" ".join(stems[i:j]), []).append(i)
    return cands


def index_stems(doc: Document, stopword_stems: frozenset[str]) -> Iterator[str]:
    """Stems of a document that participate in indexing and weighting.

    Skips sentence breaks, which Document.build keeps as their own stem,
    and the stems of stopwords (Corpus.stopword_stems): every token is
    stemmed, so a stopword token's stem is always among them.
    """
    for st in doc.stems:
        if st == SENTENCE_BREAK or st in stopword_stems:
            continue
        yield st


class Corpus:
    """An id-indexed document collection with a fixed stopword set.

    It keeps its documents in sorted id order, whatever their input order,
    so ids() and iteration give every caller the same order."""

    def __init__(self, documents: Iterable[Document],
                 stopwords: Iterable[str]) -> None:
        docs: dict[str, Document] = {}
        for doc in documents:  # input order, so the first duplicate is named
            if doc.id in docs:
                raise DataError(f"duplicate id {doc.id}")
            docs[doc.id] = doc
        self._docs = {doc_id: docs[doc_id] for doc_id in sorted(docs)}
        self.stopwords = frozenset(stopwords)
        self.stopword_stems = frozenset(stem(w) for w in self.stopwords)
        self._candidate_cache: dict[tuple[str, int], dict[str, list[int]]] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __getitem__(self, doc_id: str) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise KeyError(f"unknown document id {doc_id}") from None

    def ids(self) -> list[str]:
        """The document ids in sorted order."""
        return list(self._docs)

    def candidates_for(self, doc_id: str, max_len: int) -> dict[str, list[int]]:
        """extract_candidates memoized per (document, max_len): each key maps
        to its start offsets only, and surfaces are read from the document's
        tokens for the rows ranking reports. Treat as read-only."""
        cache_key = (doc_id, max_len)
        got = self._candidate_cache.get(cache_key)
        if got is None:
            got = extract_candidates(self[doc_id], max_len, self.stopwords)
            self._candidate_cache[cache_key] = got
        return got


def load_stopwords(path: str | None) -> frozenset[str]:
    """Stopwords from a file of one entry per line, or the bundled English
    list when path is None. Each entry is normalized as tokenize normalizes
    a token; one that is not exactly one token could never match, so it is
    a DataError naming its file and line."""
    file = (resources.files("kpindex").joinpath("data/stopwords.txt")
            if path is None else path)
    stopwords: set[str] = set()
    try:
        with (file.open(encoding="utf-8") if path is None
              else open(file, encoding="utf-8")) as fh:
            for lineno, line in enumerate(fh, start=1):
                words = tokenize(line)
                if line.strip() and (len(words) != 1
                                     or words == [SENTENCE_BREAK]):
                    raise DataError(f"{file}:{lineno}: stopword entry "
                                    f"{line.strip()!r} is not one token")
                stopwords.update(words)
    except UnicodeDecodeError:
        raise DataError(f"stopwords file {file} is not valid UTF-8") from None
    return frozenset(stopwords)


@collector_paused
def load_corpus(path: str, stopwords: Iterable[str] | None = None) -> Corpus:
    """Load a JSON Lines corpus: one object per line with id, title, abstract
    and an optional keyphrases array.

    Raises DataError naming the offending line for malformed records (an
    id holding a lone surrogate could not be written as UTF-8), naming the
    id for duplicates and naming the path when the file holds no record.
    """
    docs: list[Document] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"line {lineno}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer past the int-string digit limit
                raise DataError(f"line {lineno}: invalid JSON ({exc})") from None
            except RecursionError:
                raise DataError(f"line {lineno}: invalid JSON (nested too deeply)") from None
            if not isinstance(record, dict):
                raise DataError(f"line {lineno}: record is not an object")
            for fld in ("id", "title", "abstract"):
                if fld not in record:
                    raise DataError(f"line {lineno}: missing field {fld!r}")
                if not isinstance(record[fld], str):
                    raise DataError(f"line {lineno}: field {fld!r} is not a string")
            surrogate = _SURROGATE.search(record["id"])
            if surrogate:
                raise DataError(f"line {lineno}: field 'id' holds the lone "
                                f"surrogate U+{ord(surrogate[0]):04X}")
            gold = record.get("keyphrases")
            if gold is not None and (
                    not isinstance(gold, list)
                    or any(not isinstance(k, str) for k in gold)):
                raise DataError(f"line {lineno}: keyphrases must be an array of strings")
            docs.append(Document.build(record["id"], record["title"],
                                       record["abstract"], gold))
    if not docs:
        raise DataError(f"empty corpus: {path} holds no record")
    if stopwords is None:
        stopwords = load_stopwords(None)
    return Corpus(docs, stopwords)
