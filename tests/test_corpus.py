import random
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from kpindex.corpus import (Corpus, Document, SENTENCE_BREAK, _normalize,
                            extract_candidates, load_corpus, load_stopwords,
                            surface_counts, tokenize)
from kpindex.errors import DataError
from kpindex.porter import stem

from conftest import kept_and_peak, write_jsonl
from tokenize_oracle import SEPARATORS, differing_blocks, tokenize_oracle


# Separators (among them U+0000, which tokenize maps "_" to), sentence
# marks, Unicode whitespace, letters whose lowercase differs by context or
# is longer than one character, a superscript digit and combining marks.
TRICKY = st.text(alphabet=list(
    "aZ9-_\x00.!?,' \t\n\x0b\x1c\x85\xa0\u2028\u3000"
    "\u03a3\u03c3\u03c2\u039f\u0130\u0131\xdf\u1e9e\xb2\u0663\u2167\u212a"
    "\u0301\u0307\u20dd"), max_size=60)


class TestTokenizeOracle:
    @given(st.one_of(st.text(max_size=200), TRICKY))
    @settings(max_examples=400)
    def test_equals_character_loop(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    def test_lowercases_per_character(self):
        assert tokenize("ΟΣ") == tokenize_oracle("ΟΣ") == ["οσ"]

    def test_dotted_capital_i_lowercases_to_plain_i(self):
        assert tokenize("İstanbul") == tokenize_oracle("İstanbul") == ["istanbul"]

    @given(TRICKY)
    @settings(max_examples=400)
    def test_joined_words_tokenize_to_themselves(self, text):
        """A surface is words joined by spaces; normalizing it again must
        give back the same words."""
        words = [t for t in tokenize(text) if t != SENTENCE_BREAK]
        assert tokenize(" ".join(words)) == words

    @pytest.mark.parametrize("text, tokens", [
        ("end._ next", ["end", "next"]),
        ("a_. b", ["a", SENTENCE_BREAK, "b"]),
        ("x-_-y", ["x", "y"]),
        ("snake_case. Next", ["snake", "case", SENTENCE_BREAK, "next"]),
        ("\x00. a", [SENTENCE_BREAK, "a"]),
    ])
    def test_underscore_and_nul_separate(self, text, tokens):
        """tokenize maps "_" to U+0000: both separate tokens, and neither
        is the whitespace that makes a sentence mark a break."""
        assert tokenize(text) == tokenize_oracle(text) == tokens

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_every_code_point(self, sep):
        assert differing_blocks(sep) == []


def repeated_word_records(n_docs=200, n_words=300, seed=7):
    """Records over a few hundred invented words, each used about a hundred
    times across documents, some capitalized as at a sentence start."""
    rng = random.Random(seed)
    vocab = ["".join(rng.choice("bcdfglmnprstvaeiou") for _ in range(
        rng.randint(5, 10))) for _ in range(n_words)]

    def sentence():
        words = rng.choices(vocab, k=10)
        return " ".join([words[0].capitalize()] + words[1:]) + "."
    return [{"id": f"d{i:04d}", "title": " ".join(rng.choices(vocab, k=6)),
             "abstract": " ".join(sentence() for _ in range(12))}
            for i in range(n_docs)]


class TestTokenMemo:
    @given(st.one_of(st.text(max_size=200), TRICKY))
    @settings(max_examples=300)
    def test_cold_and_warm_equal_oracle(self, text):
        _normalize.cache_clear()
        assert tokenize(text) == tokenize_oracle(text)  # a cold memo
        assert tokenize(text) == tokenize_oracle(text)  # a warm one

    def test_memo_is_bounded(self):
        assert _normalize.cache_info().maxsize == 1 << 16

    @pytest.mark.parametrize("parts", [("memo", "kept", "once"),
                                       ("caf\xe9", "memo", "kept")])
    def test_run_that_is_its_own_token_is_kept_once(self, parts):
        """The memo holds such a run as its key and its token, one str,
        not the run and an equal lowercased copy."""
        _normalize.cache_clear()
        run = "".join(parts)  # a new str, interned nowhere else
        assert _normalize(run) is run

    def test_loaded_corpus_shares_equal_tokens(self, tmp_path):
        """Corpora hold each distinct token once, also where runs differ in
        case. On this corpus (27,800 tokens, 301 distinct) a load keeps
        about 19 tracemalloc bytes a token once the memos are warm, and 26
        with both memos cold; with one str per token a load kept about 71
        and 72. The warm load is the one bounded: no memo or interned-string
        table grows during it, so no table resize lands in the count."""
        path = write_jsonl(tmp_path / "c.jsonl", repeated_word_records())
        first = load_corpus(path)
        corpus, kept, _ = kept_and_peak(lambda: load_corpus(path))
        shared = {}
        for doc in (*first, *corpus):
            for tok in doc.tokens:
                assert shared.setdefault(tok, tok) is tok
        n_tokens = sum(len(doc.tokens) for doc in corpus)
        assert n_tokens >= 25_000 and len(shared) < 400
        assert kept / n_tokens < 40


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_sentence_breaks_and_hyphens(self):
        assert tokenize("Graph-based ranking. Models!") == [
            "graph-based", "ranking", SENTENCE_BREAK, "models", SENTENCE_BREAK]

    def test_punctuation_only_token_dropped(self):
        assert tokenize("a  ,  b") == ["a", "b"]

    def test_period_without_following_space_is_not_a_break(self):
        assert tokenize("a 3.5 gain") == ["a", "3", "5", "gain"]

    def test_question_and_exclamation(self):
        assert tokenize("Why? Because!") == [
            "why", SENTENCE_BREAK, "because", SENTENCE_BREAK]

    def test_lowercasing(self):
        assert tokenize("TF-IDF Weighting") == ["tf-idf", "weighting"]

    def test_edge_hyphens_stripped(self):
        assert tokenize("-based pre-") == ["based", "pre"]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_tokens_lowercase_and_alnum(self, text):
        for tok in tokenize(text):
            if tok == SENTENCE_BREAK:
                continue
            assert tok == tok.lower()
            assert any(c.isalnum() for c in tok)


def stems_oracle(tokens):
    """The comprehension Document.build used before it stemmed every token,
    sentence breaks included; kept as its oracle."""
    return [t if t == SENTENCE_BREAK else stem(t) for t in tokens]


class TestDocument:
    def test_sentence_break_stems_to_itself(self):
        """So Document.build can stem every token, markers included."""
        assert stem(SENTENCE_BREAK) == SENTENCE_BREAK

    @given(st.one_of(st.text(max_size=100), TRICKY),
           st.one_of(st.text(max_size=200), TRICKY))
    @settings(max_examples=200)
    def test_stems_equal_oracle(self, title, abstract):
        doc = Document.build("d", title, abstract)
        assert doc.stems == stems_oracle(doc.tokens)

    def test_field_break_and_alignment(self):
        doc = Document.build("d", "Neural ranking", "Graphs help. A lot.")
        assert doc.tokens == ["neural", "ranking", SENTENCE_BREAK, "graphs",
                              "help", SENTENCE_BREAK, "a", "lot",
                              SENTENCE_BREAK]
        assert len(doc.tokens) == len(doc.stems)
        assert doc.stems[0] == "neural"
        assert doc.stems[3] == "graph"
        assert doc.stems[2] == SENTENCE_BREAK


class TestLoadCorpus:
    def test_two_records(self, tmp_path, stopwords):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "T", "abstract": "A."},
            {"id": "b", "title": "U", "abstract": "B."},
        ])
        corpus = load_corpus(path, stopwords=stopwords)
        assert len(corpus) == 2
        assert corpus["a"].tokens == ["t", "<s>", "a", "<s>"]

    def test_duplicate_id(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "T", "abstract": "A."},
            {"id": "a", "title": "U", "abstract": "B."},
        ])
        with pytest.raises(DataError, match="duplicate id a"):
            load_corpus(path)

    def test_first_duplicate_in_input_order_is_named(self, stopwords):
        docs = [Document.build(i, "T", "A.") for i in ["b", "z", "a", "z", "b"]]
        with pytest.raises(DataError, match="^duplicate id z$"):
            Corpus(docs, stopwords)

    def test_documents_are_kept_in_id_order(self, stopwords):
        ids = [f"d{i:02d}" for i in range(20)]
        shuffled = ids[:]
        random.Random(7).shuffle(shuffled)
        corpus = Corpus([Document.build(i, "T", "A.") for i in shuffled],
                        stopwords)
        assert corpus.ids() == ids
        assert [doc.id for doc in corpus] == ids

    def test_missing_field_names_line(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "T", "abstract": "A."},
            {"id": "b", "title": "U"},
        ])
        with pytest.raises(DataError, match="line 2.*abstract"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "title": "T", "abstract": "A."}\n{oops\n')
        with pytest.raises(DataError, match="line 2"):
            load_corpus(str(path))

    def test_keyphrases_loaded(self, tmp_path, stopwords):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "T", "abstract": "A.",
             "keyphrases": ["graph ranking"]},
        ])
        corpus = load_corpus(path, stopwords=stopwords)
        assert corpus["a"].gold == ["graph ranking"]

    def test_unknown_doc_id(self, stopwords):
        corpus = Corpus([Document.build("a", "T", "A.")], stopwords)
        with pytest.raises(KeyError, match="unknown document id"):
            corpus["zzz"]

    def test_membership_is_by_id(self, stopwords):
        corpus = Corpus([Document.build("a", "T", "A.")], stopwords)
        assert "a" in corpus
        assert "zzz" not in corpus


def doc_from_tokens(tokens, doc_id="d"):
    """Build a document whose token stream is exactly `tokens`."""
    doc = Document.build(doc_id, "", "")
    doc.tokens = list(tokens)
    doc.stems = stems_oracle(tokens)
    return doc


class TestExtractCandidates:
    def test_ngram_enumeration(self):
        doc = doc_from_tokens(["the", "neural", "network"])
        cands = extract_candidates(doc, max_len=2, stopwords=frozenset({"the"}))
        assert set(cands) == {"neural", "network", "neural network"}

    def test_all_stopwords(self):
        doc = doc_from_tokens(["the", "of"])
        assert extract_candidates(doc, 3, frozenset({"the", "of"})) == {}

    def test_max_len_below_one_is_value_error(self):
        doc = doc_from_tokens(["neural", "network"])
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            extract_candidates(doc, 0, frozenset())

    def test_inflections_merge_under_one_key(self):
        doc = Document.build("d", "Networks", "The network grows.")
        cands = extract_candidates(doc, 3, frozenset({"the"}))
        starts = cands["network"]
        assert starts == [0, 3]
        assert sorted(surface_counts(doc, "network", starts)) == [
            "network", "networks"]

    def test_no_candidate_crosses_sentence_break(self):
        doc = Document.build("d", "", "Graphs rank. Phrases score.")
        cands = extract_candidates(doc, 3, frozenset())
        assert "rank phrase" not in cands
        assert "graph rank" in cands

    def test_unigram_keys_equal_nonstop_stems(self, stopwords):
        doc = Document.build("d", "Ranking graphs",
                             "The ranked graphs of documents. Results matter!")
        cands = extract_candidates(doc, 3, stopwords)
        unigrams = {k for k in cands if len(k.split(" ")) == 1}
        expected = {s for t, s in zip(doc.tokens, doc.stems)
                    if t != SENTENCE_BREAK and t not in stopwords}
        assert unigrams == expected

    def test_occurrences_sorted_and_in_bounds(self, stopwords):
        doc = Document.build("d", "Graph ranking",
                             "Graph ranking ranks graphs. Graph models rank.")
        for key, starts in extract_candidates(doc, 3, stopwords).items():
            assert starts == sorted(set(starts))
            length = len(key.split(" "))
            for start in starts:
                assert 0 <= start and start + length <= len(doc.tokens)
                assert " ".join(doc.stems[start:start + length]) == key
                span = doc.tokens[start:start + length]
                assert SENTENCE_BREAK not in span

    def test_restemming_surfaces_reproduces_key(self, stopwords):
        doc = Document.build("d", "Ranking networks",
                             "Ranked networks. A network ranks linked graphs.")
        for key, starts in extract_candidates(doc, 3, stopwords).items():
            for surface in surface_counts(doc, key, starts):
                assert " ".join(stem(t) for t in surface.split(" ")) == key

    def test_surfaces_counted_in_order_of_first_occurrence(self):
        doc = Document.build("d", "Ranking networks",
                             "Ranked network. Ranking networks rank networks.")
        cands = extract_candidates(doc, 3, frozenset())
        counts = surface_counts(doc, "rank network", cands["rank network"])
        assert list(counts.items()) == [("ranking networks", 2),
                                        ("ranked network", 1),
                                        ("rank networks", 1)]
        assert sum(surface_counts(doc, "rank", cands["rank"]).values()) == 4

    @given(st.lists(st.sampled_from(
        ["graph", "rank", "the", "of", "network", "model", "deep", "index"]),
        max_size=12))
    @settings(max_examples=100)
    def test_deterministic(self, words):
        doc = doc_from_tokens(words)
        stop = frozenset({"the", "of"})
        first = extract_candidates(doc, 3, stop)
        second = extract_candidates(doc, 3, stop)
        assert list(first.items()) == list(second.items())


def valid_span_starts(doc, key, stopwords):
    """Independent span matcher: starts where the key's stem sequence occurs
    with no stopword token and no sentence break inside the span."""
    seq = key.split(" ")
    n = len(seq)
    return [i for i in range(len(doc.stems) - n + 1)
            if doc.stems[i:i + n] == seq
            and not any(t == SENTENCE_BREAK or t in stopwords
                        for t in doc.tokens[i:i + n])]


class TestKeyOccurrences:
    def test_matches_candidate_occurrences(self, stopwords):
        doc = Document.build("d", "Graph ranking models",
                             "Graph ranking helps. Ranking graphs scores rank.")
        cands = extract_candidates(doc, 3, stopwords)
        for key, starts in cands.items():
            assert valid_span_starts(doc, key, stopwords) == starts

    def test_stopword_positions_do_not_match(self):
        doc = doc_from_tokens(["the", "graph"])
        cands = extract_candidates(doc, 3, frozenset({"the"}))
        assert "the graph" not in cands
        assert cands["graph"] == [1]


class TestLoadStopwords:
    def test_entries_are_normalized_as_tokens(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\n  OF \n\nİn\n-and-\n", encoding="utf-8")
        assert load_stopwords(str(path)) == {"the", "of", "in", "and"}

    @pytest.mark.parametrize("entry", ["state of", "e.g.", ".", "-", "#"])
    def test_entry_that_is_not_one_token_names_its_line(self, tmp_path, entry):
        path = tmp_path / "stop.txt"
        path.write_text(f"the\n\n{entry}\nof\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}:3: stopword entry "):
            load_stopwords(str(path))

    def test_bundled_entries_are_single_lowercase_tokens(self):
        """So normalizing them changes no output byte."""
        text = resources.files("kpindex").joinpath(
            "data/stopwords.txt").read_text("utf-8")
        entries = [line.strip() for line in text.splitlines() if line.strip()]
        assert len(entries) == 158
        assert all(tokenize(entry) == [entry] for entry in entries)
        assert load_stopwords(None) == set(entries)
