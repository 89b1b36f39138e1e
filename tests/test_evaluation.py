import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from kpindex import Config, evaluate_corpus, normalize_phrase
from kpindex.corpus import Document
from kpindex.errors import DataError
from kpindex.evaluation import (K_VALUES, PRF, SCOPES, DocumentScores, f_at_k,
                                split_present_absent, tfidf_baseline)
from kpindex.graph import build_document_graph
from kpindex.ranking import rank_keyphrases
from kpindex.similarity import compute_idf

from conftest import make_corpus
from synth import build_synthetic_records


class TestNormalizePhrase:
    def test_inflection_and_case(self):
        assert normalize_phrase("Neural Networks") == "neural network"

    def test_already_normal(self):
        assert normalize_phrase("graph") == "graph"

    def test_no_tokens(self):
        assert normalize_phrase("  ,, ") == ""

    def test_sentence_punctuation_ignored(self):
        assert normalize_phrase("ranking. models!") == "rank model"


class TestSplitPresentAbsent:
    def test_stemmed_match_is_present(self):
        doc = Document.build("d", "Network", "The network grows.")
        present, absent = split_present_absent(["networks"], doc)
        assert present == {"network"} and absent == set()

    def test_missing_stem_is_absent(self):
        doc = Document.build("d", "Graphs", "Ranking graphs.")
        present, absent = split_present_absent(["quantum computing"], doc)
        assert present == set() and absent == {"quantum comput"}

    def test_sentence_break_blocks_match(self):
        doc = Document.build("d", "", "Methods for text. Ranking matters.")
        present, absent = split_present_absent(["text ranking"], doc)
        assert absent == {"text rank"}

    def test_key_inside_a_hyphenated_stem_is_absent(self):
        doc = Document.build("d", "Graph-ranking methods", "")
        assert doc.stems[0] == "graph-rank"
        present, absent = split_present_absent(["ranking"], doc)
        assert present == set() and absent == {"rank"}

    def test_key_across_the_title_break_is_absent(self):
        doc = Document.build("d", "Text", "Ranking matters.")
        present, absent = split_present_absent(["text ranking"], doc)
        assert present == set() and absent == {"text rank"}

    def test_keys_at_both_ends_of_the_stem_stream_are_present(self):
        doc = Document.build("d", "Graph methods", "for keyphrase ranking")
        assert doc.stems[0] == "graph" and doc.stems[-1] == "rank"
        present, absent = split_present_absent(
            ["graph", "graph methods", "keyphrase ranking", "ranking"], doc)
        assert present == {"graph", "graph method", "keyphras rank", "rank"}
        assert absent == set()

    def test_duplicates_collapse_and_empty_dropped(self):
        doc = Document.build("d", "Graph ranking", "")
        present, absent = split_present_absent(
            ["Graph Ranking", "graph rankings", " ,, "], doc)
        assert present == {"graph rank"}
        assert absent == set()


class TestFAtK:
    def test_perfect(self):
        prf = f_at_k(["a", "b"], {"a", "b"}, k=5)
        assert prf == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        prf = f_at_k(["a", "b"], {"c"}, k=5)
        assert prf == (0.0, 0.0, 0.0)

    def test_half(self):
        prf = f_at_k(["a", "b"], {"b", "c"}, k=2)
        assert prf == (0.5, 0.5, 0.5)

    def test_precision_denominator_is_min_k_predictions(self):
        prf = f_at_k(["a", "b", "c"], {"a", "b", "c"}, k=5)
        assert prf.precision == 1.0 and prf.recall == 1.0

    def test_empty_prediction_list(self):
        assert f_at_k([], {"a"}, k=5) == (0.0, 0.0, 0.0)

    def test_only_top_k_counts(self):
        prf = f_at_k(["x", "y", "a"], {"a"}, k=2)
        assert prf == (0.0, 0.0, 0.0)

    @given(st.integers(1, 6))
    @settings(max_examples=30)
    def test_monotone_in_hits(self, k):
        gold = {"g1", "g2", "g3"}
        fillers = ["f1", "f2", "f3"]
        previous = -1.0
        for hits in range(0, 4):
            predicted = (sorted(gold)[:hits] + fillers)[:max(k, 4)]
            f1 = f_at_k(predicted, gold, k).f1
            assert f1 >= previous
            previous = f1


# Hand-scored expectations for the three-document fixture. Predictions are
# fixed surface phrases; every P/R below was counted by hand and F1 is the
# harmonic mean of those counts.
PREDICTIONS = {
    "e1": ["graph ranking", "ranking quality", "semantic methods",
           "text ranking", "graph"],
    "e2": ["neural network", "deep learning", "networks"],
    "e3": [],
}


def fixed_model(doc):
    return PREDICTIONS[doc.id]


def f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


EXPECTED = {
    # doc: scope: (P@5, R@5, P@10, R@10)
    "e1": {"all": (2 / 5, 2 / 4, 2 / 5, 2 / 4),
           "present": (1 / 5, 1 / 2, 1 / 5, 1 / 2),
           "absent": (1 / 5, 1 / 2, 1 / 5, 1 / 2)},
    "e2": {"all": (2 / 3, 2 / 3, 2 / 3, 2 / 3),
           "present": (1 / 3, 1 / 1, 1 / 3, 1 / 1),
           "absent": (1 / 3, 1 / 2, 1 / 3, 1 / 2)},
    "e3": {"all": (0.0, 0.0, 0.0, 0.0),
           "present": (0.0, 0.0, 0.0, 0.0),
           "absent": (0.0, 0.0, 0.0, 0.0)},
}


class TestEvaluateCorpus:
    def test_hand_scored_fixture_exact(self, toy_gold_corpus):
        report = evaluate_corpus(toy_gold_corpus, fixed_model)
        assert report.num_gold_documents == 3
        assert report.absent_gold_fraction == pytest.approx(0.5, abs=1e-12)
        by_id = {d.doc_id: d for d in report.per_document}
        for doc_id, scopes in EXPECTED.items():
            for scope, (p5, r5, p10, r10) in scopes.items():
                got5 = by_id[doc_id].metrics[scope][5]
                got10 = by_id[doc_id].metrics[scope][10]
                assert got5.precision == pytest.approx(p5, abs=1e-12)
                assert got5.recall == pytest.approx(r5, abs=1e-12)
                assert got5.f1 == pytest.approx(f1(p5, r5), abs=1e-12)
                assert got10.precision == pytest.approx(p10, abs=1e-12)
                assert got10.recall == pytest.approx(r10, abs=1e-12)
                assert got10.f1 == pytest.approx(f1(p10, r10), abs=1e-12)
        # macro averages are arithmetic means over the scored documents
        for scope in ("all", "present", "absent"):
            expected_macro_f1 = sum(
                f1(EXPECTED[d][scope][0], EXPECTED[d][scope][1])
                for d in EXPECTED) / 3
            assert report.macro[scope][5].f1 == pytest.approx(
                expected_macro_f1, abs=1e-12)

    def test_gold_split_recorded(self, toy_gold_corpus):
        report = evaluate_corpus(toy_gold_corpus, fixed_model)
        by_id = {d.doc_id: d for d in report.per_document}
        assert by_id["e1"].gold_present == ["graph rank", "rank"]
        assert by_id["e1"].gold_absent == ["keyphras extract", "text rank"]
        assert by_id["e2"].gold_present == ["neural network"]

    def test_scopes_partition_gold(self, toy_gold_corpus):
        for doc in toy_gold_corpus:
            present, absent = split_present_absent(doc.gold, doc)
            assert present & absent == set()

    def test_oracle_model_scores_one_in_all_scope(self, toy_gold_corpus):
        report = evaluate_corpus(toy_gold_corpus, lambda doc: list(doc.gold))
        for doc in report.per_document:
            assert doc.metrics["all"][5].f1 == pytest.approx(1.0, abs=1e-12)

    def test_empty_model_scores_zero(self, toy_gold_corpus):
        report = evaluate_corpus(toy_gold_corpus, lambda doc: [])
        for scope in ("all", "present", "absent"):
            assert report.macro[scope][10] == (0.0, 0.0, 0.0)

    def test_no_gold_is_an_error(self, stopwords):
        corpus = make_corpus([("a", "T", "Text.")], stopwords)
        with pytest.raises(DataError, match="no gold-annotated documents"):
            evaluate_corpus(corpus, lambda doc: [])

    def test_empty_scope_excluded_not_zero_scored(self, stopwords):
        corpus = make_corpus([
            ("a", "Graph ranking", "Graph ranking text.", ["graph ranking"]),
            ("b", "Neural nets", "Neural networks.", ["quantum computing"]),
        ], stopwords)
        report = evaluate_corpus(corpus, lambda doc: list(doc.gold))
        assert report.excluded["absent"] == ["a"]
        assert report.excluded["present"] == ["b"]
        assert report.scored["absent"] == 1
        # doc b predicts its own absent gold, so the absent macro is 1.0
        assert report.macro["absent"][5].f1 == pytest.approx(1.0, abs=1e-12)

    def test_report_determinism(self, toy_gold_corpus):
        a = evaluate_corpus(toy_gold_corpus, fixed_model).to_dict()
        b = evaluate_corpus(toy_gold_corpus, fixed_model).to_dict()
        assert a == b

    def test_own_surface_with_dotted_capital_i_matches_its_gold(self, stopwords):
        """A surface read from the tokens normalizes to the gold's key even
        when the text holds "İ" (U+0130)."""
        corpus = make_corpus([("a", "İstanbul networks",
                               "Traffic in İstanbul networks.",
                               ["İstanbul networks"])], stopwords)
        g = build_document_graph(corpus["a"], corpus.candidates_for("a", 3))
        key = normalize_phrase("İstanbul networks")
        surface = rank_keyphrases(g, {key: 1.0}, corpus)[0].surface
        report = evaluate_corpus(corpus, lambda doc: [surface])
        assert report.macro["all"][5].f1 == 1.0

    def test_csv_rows_cover_every_scope_and_k(self, toy_gold_corpus):
        report = evaluate_corpus(toy_gold_corpus, fixed_model)
        rows = report.csv_rows()
        assert rows[0] == ("doc_id", "scope", "k", "precision", "recall", "f1")
        assert len(rows) == 1 + 3 * 3 * 2


class TestTfidfBaseline:
    def test_single_candidate_doc(self, stopwords):
        corpus = make_corpus([("a", "", "graph."), ("b", "", "other text.")],
                             stopwords)
        ranked = tfidf_baseline(corpus["a"], corpus, Config(top_n=5),
                                compute_idf(corpus))
        assert ranked == ["graph"]

    def test_rare_stems_outrank_ubiquitous_at_equal_tf(self, stopwords):
        corpus = make_corpus([
            ("d1", "", "zeta graph."),
            ("d2", "", "graph text."),
            ("d3", "", "graph model."),
        ], stopwords)
        ranked = tfidf_baseline(corpus["d1"], corpus, Config(top_n=5),
                                compute_idf(corpus))
        assert ranked.index("zeta") < ranked.index("graph")

    def test_surface_is_the_present_node_surface(self, stopwords):
        """Most frequent surface, as rank_keyphrases gives a PRESENT row."""
        corpus = make_corpus([("a", "Networks", "Networks grow. Network.")],
                             stopwords)
        config = Config(max_len=1)
        ranked = tfidf_baseline(corpus["a"], corpus, config, compute_idf(corpus))
        g = build_document_graph(corpus["a"], corpus.candidates_for("a", 1))
        assert ranked == ["networks", "grow"]
        assert ranked[0] == rank_keyphrases(g, {"network": 1.0}, corpus,
                                            config)[0].surface

    def test_deterministic_under_corpus_reordering(self, stopwords):
        rows = [("d1", "Graph ranking", "Graph ranking text."),
                ("d2", "Neural nets", "Neural networks learn."),
                ("d3", "Sorting", "Sorting algorithms run.")]
        forward = make_corpus(rows, stopwords)
        backward = make_corpus(list(reversed(rows)), stopwords)
        assert tfidf_baseline(forward["d2"], forward, Config(),
                              compute_idf(forward)) == \
            tfidf_baseline(backward["d2"], backward, Config(),
                           compute_idf(backward))


# The evaluation as it was written with hand-kept accumulators: a sliding
# window over the stem list for PRESENT, one running sum per scope, k and
# measure, and every report field restated on output. Kept as the reference
# the derived-aggregate evaluation must equal bit for bit.

def _occurs_contiguously_oracle(doc, key):
    seq = key.split(" ")
    n = len(seq)
    for i in range(len(doc.stems) - n + 1):
        if doc.stems[i:i + n] == seq:
            return True
    return False


def split_present_absent_oracle(gold, doc):
    present, absent = set(), set()
    for phrase in gold:
        key = normalize_phrase(phrase)
        if not key:
            continue
        (present if _occurs_contiguously_oracle(doc, key) else absent).add(key)
    return present, absent


def dedupe_normalized_oracle(phrases):
    seen = set()
    out = []
    for phrase in phrases:
        key = normalize_phrase(phrase)
        if key and key not in seen:
            seen.add(key)
            out.append(key)
    return out


@dataclass
class OracleReport:
    config: dict
    model: str
    num_documents: int
    num_gold_documents: int
    absent_gold_fraction: float
    scored: dict
    excluded: dict
    macro: dict
    per_document: list

    def to_dict(self):
        def prf_dict(prf):
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

    def csv_rows(self):
        rows = [("doc_id", "scope", "k", "precision", "recall", "f1")]
        for d in self.per_document:
            for scope in SCOPES:
                for k in K_VALUES:
                    prf = d.metrics[scope][k]
                    rows.append((d.doc_id, scope, k, prf.precision,
                                 prf.recall, prf.f1))
        return rows


def evaluate_corpus_oracle(corpus, model, config=None, model_name=""):
    per_document = []
    excluded = {scope: [] for scope in SCOPES}
    sums = {scope: {k: [0.0, 0.0, 0.0] for k in K_VALUES} for scope in SCOPES}
    counts = {scope: 0 for scope in SCOPES}
    total_present = 0
    total_absent = 0

    gold_doc_ids = [doc.id for doc in corpus if doc.gold]
    if not gold_doc_ids:
        raise DataError("no gold-annotated documents")

    for doc_id in sorted(gold_doc_ids):
        doc = corpus[doc_id]
        present, absent = split_present_absent_oracle(doc.gold or [], doc)
        total_present += len(present)
        total_absent += len(absent)
        predicted = dedupe_normalized_oracle(model(doc))
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
    return OracleReport(
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


#: Phrases no synthetic document holds in this form: unknown words,
#: phrases that normalize to nothing, case and inflection variants, a
#: hyphenated compound and the sentence-break marker's spelling.
STRAY_PHRASES = ["quantum computing", "zzyzx", " ,, ", ".", "", "Graph Ranking",
                 "rankings", "graph-ranking", "<s>", "edge. laplacian"]


def phrase_pool(record):
    """Gold and prediction material for one synthetic record: its own gold,
    every word and adjacent word pair of its text (pairs across a sentence
    break included), and the stray phrases."""
    words = (record["title"] + " " + record["abstract"]).split()
    pairs = [" ".join(words[i:i + 2]) for i in range(len(words) - 1)]
    return record["keyphrases"] + words + pairs + STRAY_PHRASES


@st.composite
def evaluation_cases(draw):
    """A synthetic corpus whose gold is the generator's, drawn from the
    phrase pool, or missing, per document; with `all_present`, every gold
    phrase whose key is ABSENT is dropped. Plus a model that ranks drawn
    phrases, duplicates included, per document."""
    records, _ = build_synthetic_records(*draw(
        st.sampled_from([(4, 2), (4, 4), (8, 4)])))
    all_present = draw(st.booleans())
    rows, predictions = [], {}
    for record in records:
        pool = phrase_pool(record)
        gold = draw(st.one_of(st.just(record["keyphrases"]), st.none(),
                              st.lists(st.sampled_from(pool), max_size=6)))
        doc = Document.build(record["id"], record["title"], record["abstract"])
        if all_present and gold is not None:
            present, _ = split_present_absent_oracle(gold, doc)
            gold = [g for g in gold if normalize_phrase(g) in present]
        rows.append((record["id"], record["title"], record["abstract"], gold))
        predictions[record["id"]] = draw(
            st.lists(st.sampled_from(pool), max_size=14))
    config = draw(st.sampled_from([None, Config(top_n=5)]))
    return rows, predictions, config, all_present


class TestDerivedAggregatesOracle:
    @given(evaluation_cases())
    @settings(max_examples=80, deadline=None)
    def test_report_equals_accumulator_oracle(self, stopwords, case):
        rows, predictions, config, all_present = case
        corpus = make_corpus(rows, stopwords)

        def model(doc):
            return predictions[doc.id]

        if not any(row[3] for row in rows):
            for evaluate in (evaluate_corpus, evaluate_corpus_oracle):
                with pytest.raises(DataError):
                    evaluate(corpus, model, config, "drawn")
            return
        got = evaluate_corpus(corpus, model, config, "drawn")
        want = evaluate_corpus_oracle(corpus, model, config, "drawn")
        assert got.to_dict() == want.to_dict()
        assert json.dumps(got.to_dict(), sort_keys=True) == \
            json.dumps(want.to_dict(), sort_keys=True)
        assert got.csv_rows() == want.csv_rows()
        assert [",".join(map(str, row)) for row in got.csv_rows()] == \
            [",".join(map(str, row)) for row in want.csv_rows()]
        if all_present:
            assert got.scored["absent"] == 0
            assert all(got.macro["absent"][k] == PRF(0.0, 0.0, 0.0)
                       for k in K_VALUES)
