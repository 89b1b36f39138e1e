"""Evaluation: stemmed matching, present/absent gold split, F1@k, baselines.

Predictions and gold keyphrases pass through the exact same normalization
(tokenize, stem, join), so matching is symmetric. A normalized gold key is
PRESENT when its stem sequence occurs contiguously in the document's stem
stream without crossing a sentence break, ABSENT otherwise. Documents with
empty gold in a scope are excluded from that scope's macro averages rather
than scored zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .config import Config
from .corpus import (Corpus, Document, index_stems, most_frequent_surface,
                     phrase_stems)
from .errors import EvaluationError
from .similarity import compute_idf

SCOPES = ("all", "present", "absent")
K_VALUES = (5, 10)


def normalize_phrase(phrase: str) -> str:
    """Canonical key for a raw phrase: its stems joined with spaces."""
    return " ".join(phrase_stems(phrase))


def _occurs_contiguously(doc: Document, key: str) -> bool:
    seq = key.split(" ")
    n = len(seq)
    for i in range(len(doc.stems) - n + 1):
        if doc.stems[i:i + n] == seq:
            return True
    return False


def split_present_absent(gold: list[str], doc: Document) -> tuple[set[str], set[str]]:
    """Normalized gold keys split into (present, absent) for one document.

    Sentence breaks block matches automatically: the break marker sits in
    the stem stream and never equals a real stem. Phrases that normalize
    to the empty string are dropped; duplicates collapse.
    """
    present: set[str] = set()
    absent: set[str] = set()
    for phrase in gold:
        key = normalize_phrase(phrase)
        if not key:
            continue
        (present if _occurs_contiguously(doc, key) else absent).add(key)
    return present, absent


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
        def prf_dict(prf: PRF) -> dict:
            return {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1}

        return {
            "config": self.config,
            "model": self.model,
            "num_documents": self.num_documents,
            "num_gold_documents": self.num_gold_documents,
            "absent_gold_fraction": self.absent_gold_fraction,
            "scored": self.scored,
            "excluded": self.excluded,
            "macro": {scope: {str(k): prf_dict(v) for k, v in by_k.items()}
                      for scope, by_k in self.macro.items()},
            "per_document": [
                {
                    "id": d.doc_id,
                    "gold_present": d.gold_present,
                    "gold_absent": d.gold_absent,
                    "metrics": {scope: {str(k): prf_dict(v)
                                        for k, v in by_k.items()}
                                for scope, by_k in d.metrics.items()},
                }
                for d in self.per_document
            ],
        }

    def csv_rows(self) -> list[tuple]:
        rows = [("doc_id", "scope", "k", "precision", "recall", "f1")]
        for d in self.per_document:
            for scope in SCOPES:
                for k in K_VALUES:
                    prf = d.metrics[scope][k]
                    rows.append((d.doc_id, scope, k, prf.precision,
                                 prf.recall, prf.f1))
        return rows


def dedupe_normalized(phrases: list[str]) -> list[str]:
    """Normalize a ranked phrase list, dropping empties and later duplicates."""
    seen = set()
    out = []
    for phrase in phrases:
        key = normalize_phrase(phrase)
        if key and key not in seen:
            seen.add(key)
            out.append(key)
    return out


def evaluate_corpus(corpus: Corpus, model: Callable[[Document], list[str]],
                    config=None, model_name: str = "") -> EvaluationReport:
    """Run a model over every gold-annotated document and macro-average.

    The model maps a document to a ranked list of phrases (raw or already
    normalized; both go through the same normalization here).
    """
    per_document: list[DocumentScores] = []
    excluded: dict[str, list[str]] = {scope: [] for scope in SCOPES}
    sums = {scope: {k: [0.0, 0.0, 0.0] for k in K_VALUES} for scope in SCOPES}
    counts = {scope: 0 for scope in SCOPES}
    total_present = 0
    total_absent = 0

    gold_doc_ids = [doc.id for doc in corpus if doc.gold]
    if not gold_doc_ids:
        raise EvaluationError("no gold-annotated documents")

    for doc_id in sorted(gold_doc_ids):
        doc = corpus[doc_id]
        present, absent = split_present_absent(doc.gold or [], doc)
        total_present += len(present)
        total_absent += len(absent)
        predicted = dedupe_normalized(model(doc))
        gold_by_scope = {"all": present | absent, "present": present,
                         "absent": absent}
        scores = DocumentScores(doc_id=doc_id,
                                gold_present=sorted(present),
                                gold_absent=sorted(absent))
        for scope in SCOPES:
            gold = gold_by_scope[scope]
            scores.metrics[scope] = {k: f_at_k(predicted, gold, k)
                                     for k in K_VALUES}
            if not gold:
                excluded[scope].append(doc_id)
                continue
            counts[scope] += 1
            for k in K_VALUES:
                prf = scores.metrics[scope][k]
                sums[scope][k][0] += prf.precision
                sums[scope][k][1] += prf.recall
                sums[scope][k][2] += prf.f1
        per_document.append(scores)

    macro = {}
    for scope in SCOPES:
        macro[scope] = {}
        for k in K_VALUES:
            if counts[scope]:
                p, r, f1 = (v / counts[scope] for v in sums[scope][k])
            else:
                p = r = f1 = 0.0
            macro[scope][k] = PRF(p, r, f1)

    total_gold = total_present + total_absent
    return EvaluationReport(
        config=config.to_dict() if config is not None else {},
        model=model_name,
        num_documents=len(corpus),
        num_gold_documents=len(gold_doc_ids),
        absent_gold_fraction=total_absent / total_gold if total_gold else 0.0,
        scored=dict(counts),
        excluded=excluded,
        macro=macro,
        per_document=per_document,
    )


def tfidf_baseline(doc: Document, corpus: Corpus, config: Config = Config(),
                   idf: dict[str, float] | None = None) -> list[str]:
    """Candidates ranked by the summed tf*idf of their stems; ties by key.

    Returns surface forms so downstream normalization stems each phrase
    exactly once, same as gold. A key's surface is chosen as for a
    PRESENT row.
    """
    if idf is None:
        idf = compute_idf(corpus)
    tf = Counter(index_stems(doc, corpus.stopwords, corpus.stopword_stems))
    candidates = corpus.candidates_for(doc.id, config.max_len)
    scored = []
    for key in sorted(candidates):
        score = math.fsum(tf[s] * idf.get(s, 0.0) for s in key.split(" "))
        scored.append((key, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [most_frequent_surface(doc, key, candidates[key])
            for key, _ in scored[:config.top_n]]
