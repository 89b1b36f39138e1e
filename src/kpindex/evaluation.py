"""Evaluation: stemmed matching, present/absent gold split, F1@k, baselines.

Predictions and gold keyphrases pass through the exact same normalization
(tokenize, stem, join), so matching is symmetric. A normalized gold key is
PRESENT when " key " occurs in the document's stems joined with spaces and
bounded by a space at each end, ABSENT otherwise: no stem holds a space, so
the match covers whole stems, and no key holds the sentence-break marker,
so it never crosses a break. Each document's scores are the only state
evaluation builds; the scope counts, exclusions, macro means and absent
gold fraction are all derived from them. A document with empty gold in a
scope is excluded from that scope's macro means rather than scored zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .config import Config
from .corpus import (Corpus, Document, index_stems, most_frequent_surface,
                     phrase_stems)
from .errors import DataError
from .ranking import _sum_in_order

SCOPES = ("all", "present", "absent")
K_VALUES = (5, 10)


def normalize_phrase(phrase: str) -> str:
    """Canonical key for a raw phrase: its stems joined with spaces."""
    return " ".join(phrase_stems(phrase))


def split_present_absent(gold: list[str], doc: Document) -> tuple[set[str], set[str]]:
    """Normalized gold keys split into (present, absent) for one document.

    Phrases that normalize to the empty string are dropped; duplicates
    collapse.
    """
    stems = f" {' '.join(doc.stems)} "
    keys = {key for key in map(normalize_phrase, gold) if key}
    present = {key for key in keys if f" {key} " in stems}
    return present, keys - present


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def f_at_k(predicted: list[str], gold: set[str], k: int) -> PRF:
    """Precision, recall and F1 over the top-k predictions.

    The precision denominator is min(k, number of predictions), so a model
    returning fewer than k phrases is not penalized for the shortfall.
    """
    if not predicted or not gold:
        return PRF(0.0, 0.0, 0.0)
    top = predicted[:k]
    hits = sum(1 for key in top if key in gold)
    precision = hits / min(k, len(predicted))
    recall = hits / len(gold)
    if precision + recall == 0:
        return PRF(0.0, 0.0, 0.0)
    return PRF(precision, recall, 2 * precision * recall / (precision + recall))


@dataclass
class DocumentScores:
    doc_id: str
    gold_present: list[str]
    gold_absent: list[str]
    metrics: dict[str, dict[int, PRF]] = field(default_factory=dict)

    def gold(self, scope: str) -> set[str]:
        """The document's gold keys in one scope."""
        return {"all": {*self.gold_present, *self.gold_absent},
                "present": set(self.gold_present),
                "absent": set(self.gold_absent)}[scope]


def _prf_table(by_scope: dict[str, dict[int, PRF]]) -> dict:
    """{scope: {k: PRF}} as JSON: {scope: {str(k): {"precision", "recall",
    "f1"}}}."""
    return {scope: {str(k): prf._asdict() for k, prf in by_k.items()}
            for scope, by_k in by_scope.items()}


def _mean(prfs: list[PRF]) -> PRF:
    """Componentwise mean, added left to right in list order; no PRF gives
    zeros."""
    if not prfs:
        return PRF(0.0, 0.0, 0.0)
    return PRF(*(_sum_in_order(column) / len(prfs) for column in zip(*prfs)))


@dataclass
class EvaluationReport:
    config: dict
    model: str
    num_documents: int
    num_gold_documents: int
    absent_gold_fraction: float
    scored: dict[str, int]
    excluded: dict[str, list[str]]
    macro: dict[str, dict[int, PRF]]
    per_document: list[DocumentScores]

    def to_dict(self) -> dict:
        return {**vars(self), "macro": _prf_table(self.macro),
                "per_document": [{"id": d.doc_id,
                                  "gold_present": d.gold_present,
                                  "gold_absent": d.gold_absent,
                                  "metrics": _prf_table(d.metrics)}
                                 for d in self.per_document]}

    def csv_rows(self) -> list[tuple]:
        return [("doc_id", "scope", "k", "precision", "recall", "f1"),
                *((d.doc_id, scope, k, *d.metrics[scope][k])
                  for d in self.per_document
                  for scope in SCOPES for k in K_VALUES)]


def dedupe_normalized(phrases: list[str]) -> list[str]:
    """Normalize a ranked phrase list, dropping empties and later duplicates."""
    return [key for key in dict.fromkeys(map(normalize_phrase, phrases)) if key]


def evaluate_corpus(corpus: Corpus, model: Callable[[Document], list[str]],
                    config=None, model_name: str = "") -> EvaluationReport:
    """Run a model over every gold-annotated document and macro-average.

    The model maps a document to a ranked list of phrases (raw or already
    normalized; both go through the same normalization here). Documents
    are scored in the order the Corpus iterates them, sorted by id, and
    each macro mean adds its scores in that order.
    """
    per_document: list[DocumentScores] = []
    for doc in (doc for doc in corpus if doc.gold):
        present, absent = split_present_absent(doc.gold, doc)
        predicted = dedupe_normalized(model(doc))
        scores = DocumentScores(doc.id, sorted(present), sorted(absent))
        scores.metrics = {scope: {k: f_at_k(predicted, scores.gold(scope), k)
                                  for k in K_VALUES} for scope in SCOPES}
        per_document.append(scores)
    if not per_document:
        raise DataError("no gold-annotated documents")

    included = {scope: [d for d in per_document if d.gold(scope)]
                for scope in SCOPES}
    total_absent = sum(len(d.gold_absent) for d in per_document)
    total_gold = total_absent + sum(len(d.gold_present) for d in per_document)
    return EvaluationReport(
        config=config.to_dict() if config is not None else {},
        model=model_name,
        num_documents=len(corpus),
        num_gold_documents=len(per_document),
        absent_gold_fraction=total_absent / total_gold if total_gold else 0.0,
        scored={scope: len(docs) for scope, docs in included.items()},
        excluded={scope: [d.doc_id for d in per_document if not d.gold(scope)]
                  for scope in SCOPES},
        macro={scope: {k: _mean([d.metrics[scope][k] for d in docs])
                       for k in K_VALUES}
               for scope, docs in included.items()},
        per_document=per_document,
    )


def tfidf_baseline(doc: Document, corpus: Corpus, config: Config,
                   idf: dict[str, float]) -> list[str]:
    """Candidates ranked by the summed tf*idf of their stems; ties by key.

    Returns surface forms so downstream normalization stems each phrase
    exactly once, same as gold. A key's surface is chosen as for a
    PRESENT row. idf is the corpus's compute_idf, built once per run.
    """
    tf = Counter(index_stems(doc, corpus.stopword_stems))
    candidates = corpus.candidates_for(doc.id, config.max_len)
    scored = []
    for key in candidates:
        score = math.fsum(tf[s] * idf.get(s, 0.0) for s in key.split(" "))
        scored.append((key, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [most_frequent_surface(doc, key, candidates[key])
            for key, _ in scored[:config.top_n]]
