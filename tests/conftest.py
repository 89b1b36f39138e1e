import json
import tracemalloc

import pytest

from kpindex.corpus import Corpus, Document, load_stopwords


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords(None)


def make_corpus(rows, stopwords):
    """rows: iterable of (id, title, abstract) or (id, title, abstract, gold)."""
    docs = [Document.build(*row) for row in rows]
    return Corpus(docs, stopwords)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


def kept_and_peak(make):
    """What make() returns, and the tracemalloc bytes it keeps and peaks at
    while it runs."""
    tracemalloc.start()
    try:
        made = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, kept, peak


def index_file_bytes(body):
    """An index file: a valid header around the payload bytes `body`."""
    return b"KPIX" + bytes([1]) + len(body).to_bytes(8, "big") + body


def nested_json(depth=100_000):
    """A JSON array nested `depth` levels deep, by default far past any
    recursion limit."""
    return "[" * depth + "]" * depth


def write_payload(path, payload):
    """An index file with a valid header around an arbitrary JSON payload."""
    path.write_bytes(index_file_bytes(json.dumps(payload).encode("utf-8")))
    return str(path)


@pytest.fixture
def two_doc_corpus(stopwords):
    """Target 'a' plus one similar neighbor 'b' that keeps mentioning a
    phrase ('semantic index') the target never contains."""
    return make_corpus([
        ("a", "Graph ranking for document collections",
         "Graph ranking methods score candidate phrases. "
         "The ranking graph links related phrases across the document."),
        ("b", "Semantic index construction for graph ranking",
         "A semantic index improves graph ranking of documents. "
         "The semantic index links ranking graph phrases. "
         "Document collections gain from the semantic index and graph ranking."),
    ], stopwords)


@pytest.fixture(scope="session")
def toy_gold_corpus(stopwords):
    """Three hand-scored documents used by the evaluation arithmetic tests."""
    return make_corpus([
        ("e1", "Graph ranking",
         "Graph ranking methods for text. Ranking quality matters.",
         ["graph ranking", "text ranking", "keyphrase extraction", "ranking"]),
        ("e2", "Neural networks",
         "Deep neural networks learn representations. Networks generalize.",
         ["neural networks", "deep learning", "representation learning"]),
        ("e3", "Sorting algorithms",
         "Quicksort and merge sort are classic sorting algorithms.",
         ["sorting algorithms", "quicksort", "computational complexity"]),
    ], stopwords)
