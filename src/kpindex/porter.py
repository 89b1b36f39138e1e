"""Porter stemmer, implemented from the original 1980 suffix-stripping rules.

Stem keys are the identity of every candidate, every index entry and every
gold match in this package, so the stemmer is implemented here rather than
pulled in as a dependency: output must be deterministic and reproducible
bit-for-bit across environments.

Words of length <= 2 are returned unchanged. Hyphenated tokens are stemmed
part by part ("graph-based" -> "graph-base"), since the tokenizer keeps
internal hyphens.

``stem`` is a pure function, so it is memoized: a corpus has far fewer
distinct tokens than tokens, and each distinct one is stemmed once. The
cache is bounded so that a long-lived process stays a few MB.
"""

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel when preceded by a consonant, a consonant otherwise
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions ([C](VC)^m[V] form)."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, final consonant not w, x or y
    if len(word) < 3:
        return False
    if word[-1] in "wxy":
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    )


def _apply(word: str, rules) -> str:
    """Apply the one rule whose suffix is the longest match.

    If that rule's condition fails the word is left unchanged; no shorter
    suffix is tried (this is what keeps "feed" from becoming "fe").
    """
    best = None
    for suffix, repl, cond in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl, cond)
    if best is None:
        return word
    suffix, repl, cond = best
    stem = word[: len(word) - len(suffix)]
    if cond is None or cond(stem):
        return stem + repl
    return word


def _m_gt_0(stem: str) -> bool:
    return _measure(stem) > 0


def _m_gt_1(stem: str) -> bool:
    return _measure(stem) > 1


_STEP1A = [
    ("sses", "ss", None),
    ("ies", "i", None),
    ("ss", "ss", None),
    ("s", "", None),
]

_STEP2 = [
    ("ational", "ate", _m_gt_0),
    ("tional", "tion", _m_gt_0),
    ("enci", "ence", _m_gt_0),
    ("anci", "ance", _m_gt_0),
    ("izer", "ize", _m_gt_0),
    ("abli", "able", _m_gt_0),
    ("alli", "al", _m_gt_0),
    ("entli", "ent", _m_gt_0),
    ("eli", "e", _m_gt_0),
    ("ousli", "ous", _m_gt_0),
    ("ization", "ize", _m_gt_0),
    ("ation", "ate", _m_gt_0),
    ("ator", "ate", _m_gt_0),
    ("alism", "al", _m_gt_0),
    ("iveness", "ive", _m_gt_0),
    ("fulness", "ful", _m_gt_0),
    ("ousness", "ous", _m_gt_0),
    ("aliti", "al", _m_gt_0),
    ("iviti", "ive", _m_gt_0),
    ("biliti", "ble", _m_gt_0),
]

_STEP3 = [
    ("icate", "ic", _m_gt_0),
    ("ative", "", _m_gt_0),
    ("alize", "al", _m_gt_0),
    ("iciti", "ic", _m_gt_0),
    ("ical", "ic", _m_gt_0),
    ("ful", "", _m_gt_0),
    ("ness", "", _m_gt_0),
]

_STEP4 = [
    ("al", "", _m_gt_1),
    ("ance", "", _m_gt_1),
    ("ence", "", _m_gt_1),
    ("er", "", _m_gt_1),
    ("ic", "", _m_gt_1),
    ("able", "", _m_gt_1),
    ("ible", "", _m_gt_1),
    ("ant", "", _m_gt_1),
    ("ement", "", _m_gt_1),
    ("ment", "", _m_gt_1),
    ("ent", "", _m_gt_1),
    ("ion", "", lambda s: _m_gt_1(s) and s.endswith(("s", "t"))),
    ("ou", "", _m_gt_1),
    ("ism", "", _m_gt_1),
    ("ate", "", _m_gt_1),
    ("iti", "", _m_gt_1),
    ("ous", "", _m_gt_1),
    ("ive", "", _m_gt_1),
    ("ize", "", _m_gt_1),
]


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    for suffix in ("ing", "ed"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_consonant(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _m_gt_1(word) and _ends_double_consonant(word) and word[-1] == "l":
        return word[:-1]
    return word


def _stem_word(word: str) -> str:
    if len(word) <= 2:
        return word
    word = _apply(word, _STEP1A)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply(word, _STEP2)
    word = _apply(word, _STEP3)
    word = _apply(word, _STEP4)
    word = _step5a(word)
    word = _step5b(word)
    return word


@lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Stem a lowercase token; hyphen-separated parts are stemmed independently."""
    if "-" in token:
        return "-".join(_stem_word(p) for p in token.split("-"))
    return _stem_word(token)
