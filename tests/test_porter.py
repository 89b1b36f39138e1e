"""Stemmer checks against the suffix-stripping algorithm's published examples,
each verified by hand-tracing the rules."""

import pytest
from hypothesis import given, settings, strategies as st

from kpindex.porter import stem

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
