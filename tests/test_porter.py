"""Stemmer checks against the suffix-stripping algorithm's published examples,
each verified by hand-tracing the rules."""

import hashlib
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from kpindex.corpus import SENTENCE_BREAK, load_stopwords, tokenize
from kpindex.porter import stem

SAMPLE100 = str(resources.files("kpindex").joinpath("data/sample100.jsonl"))

# (word, expected stem) after the full rule cascade
REFERENCE = [
    # plural handling
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("networks", "network"),
    # -eed / -ed / -ing
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"), ("ranking", "rank"),
    # y -> i
    ("happy", "happi"), ("sky", "sky"),
    # double-suffix reduction
    ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
    ("digitizer", "digit"), ("conformabli", "conform"),
    ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
    ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"),
    ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"),
    ("formaliti", "formal"), ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # -icate / -ative / -alize / ...
    ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
    # residual suffixes
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"),
    ("irritant", "irrit"), ("replacement", "replac"),
    ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("homologou", "homolog"),
    ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"),
    # final -e and -ll
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
    # digits and non-ASCII letters are consonants
    ("ba2ation", "ba2at"), ("ta2ness", "ta2"), ("é2ying", "é2y"),
]


@pytest.mark.parametrize("word,expected", REFERENCE)
def test_reference_vocabulary(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word,expected", [
    ("a", "a"), ("is", "is"), ("an", "an"),
])
def test_short_words_unchanged(word, expected):
    assert stem(word) == expected


def test_hyphenated_tokens_stem_per_part():
    assert stem("graph-based") == "graph-base"
    assert stem("co-occurrence") == "co-occurr"
    assert stem("graph--based") == "graph--base"  # an empty part stays empty


# The cascade is not idempotent on every English word (e.g. "agreed" ->
# "agre" -> "agr": each pass fires at most one rule per step). Matching
# stems every phrase exactly once on each side, so idempotence only has to
# hold for the vocabulary the hand-scored evaluation fixtures are built on.
EVALUATION_VOCABULARY = [
    "graph", "ranking", "networks", "network", "neural", "semantic",
    "index", "extraction", "document", "documents", "phrase",
    "retrieval", "learning", "classification", "clustering", "quantum",
    "computing", "algorithm", "algorithms", "optimization", "translation",
    "sorting", "complexity", "quicksort", "quality", "matrix",
]


def test_idempotent_on_evaluation_vocabulary():
    for word in EVALUATION_VOCABULARY:
        once = stem(word)
        assert stem(once) == once, f"{word} -> {once} -> {stem(once)}"


def test_deterministic():
    words = [w for w, _ in REFERENCE]
    assert [stem(w) for w in words] == [stem(w) for w in words]


WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14)


@given(st.one_of(WORDS, st.lists(WORDS, min_size=2, max_size=4).map("-".join)))
@settings(max_examples=300)
def test_memoized_stem_equals_uncached(word):
    first = stem(word)
    assert first == stem.__wrapped__(word)
    assert stem(word) == first  # a cache hit answers the same


def test_memo_is_bounded():
    assert stem.cache_info().maxsize == 1 << 16


# Every suffix of the rule tables, plus the suffixes steps 1b, 1c, 5a and
# 5b test for, so that stacked suffixes reach every step's branches.
SUFFIXES = (
    "sses", "ies", "ss", "s",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    "eed", "ed", "ing", "y", "e", "ll",
)

# a-z, digits, non-ASCII letters, and extra y's so that runs of y occur
STEM_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789éüßøñıyyyy"


def sample100_tokens():
    """Every distinct token of sample100's titles, abstracts and gold."""
    with open(SAMPLE100, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {tok for r in records
            for text in (r["title"], r["abstract"], *r.get("keyphrases", []))
            for tok in tokenize(text) if tok != SENTENCE_BREAK}


def seeded_words(n=100_000):
    """Words of 1-6 random characters, each followed by 0-3 random
    suffixes; both counts cycle, so every pairing of them occurs."""
    rng = random.Random(0)
    return ["".join(rng.choices(STEM_ALPHABET, k=1 + i % 6))
            + "".join(rng.choices(SUFFIXES, k=i // 6 % 4))
            for i in range(n)]


STEM_DIGESTS = {
    "sample100": (sample100_tokens,
                  "75c05914b507a6b7362382b9baf2e816633424f55b18eba639621b65287c4a1e"),
    "stopwords": (lambda: load_stopwords(None),
                  "d879ff840c5dda1c3ad4305f41ed88c784b022fa35ff35bbab223f8b581b0b02"),
    "seeded": (seeded_words,
               "0b554cd29f65aa1c95c83b7f7b1d6cf1b4d32615f23883bcd2b0985fe1e4193b"),
}


@pytest.mark.parametrize("name", STEM_DIGESTS)
def test_stems_are_pinned(name):
    """Every stem of three word sets, hashed as `word\\tstem` lines."""
    words, sha256 = STEM_DIGESTS[name]
    blob = "".join(f"{w}\t{stem.__wrapped__(w)}\n" for w in sorted(words()))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == sha256
