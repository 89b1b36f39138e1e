"""Porter stemmer, implemented from the original 1980 suffix-stripping rules.

Stem keys are the identity of every candidate, every index entry and every
gold match in this package, so the stemmer is implemented here rather than
pulled in as a dependency: output must be deterministic and reproducible
bit-for-bit across environments.

Every test the rules make reads one consonant/vowel pattern of the word,
one letter per character: "v" for a, e, i, o, u and for a y that follows a
consonant, "c" for every other character. Digits and non-ASCII letters are
consonants, and no Unicode database is read, so a stem does not depend on
the interpreter. A y's class depends only on what comes before it, so a
stem's pattern is a prefix of its word's pattern. The measure m of a stem
([C](VC)^m[V]) is the number of "vc" in its pattern.

Steps 1a, 2, 3 and 4 are each one suffix -> replacement map: the longest
suffix of the word that is in the map is replaced when the remaining stem's
measure exceeds the step's minimum. If it does not, the word is left
unchanged and no shorter suffix is tried (this keeps "feed" from becoming
"fe").

Words of length <= 2 are returned unchanged. Hyphenated tokens are stemmed
part by part ("graph-based" -> "graph-base"), since the tokenizer keeps
internal hyphens.

``stem`` is a pure function, so it is memoized: a corpus has far fewer
distinct tokens than tokens, and each distinct one is stemmed once. The
tokenizer memoizes its normalization of a run the same way, and both caches
are bounded at 65,536 entries so that a long-lived process keeps a few MB
in them.
"""

from functools import lru_cache


class _Classes(dict):
    """A str.translate table: a character it does not list is a consonant."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _Classes({ord("y"): "y", **dict.fromkeys(map(ord, "aeiou"), "v")})


def _cv(word: str) -> str:
    """The word's consonant/vowel pattern, each y resolved left to right."""
    cv = word.translate(_CLASSES)
    while "y" in cv:
        i = cv.index("y")
        cv = cv[:i] + ("v" if i and cv[i - 1] == "c" else "c") + cv[i + 1:]
    return cv


_STEP1A = {
    "sses": "ss",
    "ies": "i",
    "ss": "ss",
    "s": "",
}

_STEP2 = {
    "ational": "ate",
    "tional": "tion",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "abli": "able",
    "alli": "al",
    "entli": "ent",
    "eli": "e",
    "ousli": "ous",
    "ization": "ize",
    "ation": "ate",
    "ator": "ate",
    "alism": "al",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "aliti": "al",
    "iviti": "ive",
    "biliti": "ble",
}

_STEP3 = {
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ful": "",
    "ness": "",
}

_STEP4 = {
    "al": "",
    "ance": "",
    "ence": "",
    "er": "",
    "ic": "",
    "able": "",
    "ible": "",
    "ant": "",
    "ement": "",
    "ment": "",
    "ent": "",
    "ion": "",
    "ou": "",
    "ism": "",
    "ate": "",
    "iti": "",
    "ous": "",
    "ive": "",
    "ize": "",
}

_LONGEST = max(map(len, {**_STEP1A, **_STEP2, **_STEP3, **_STEP4}))


def _apply(word: str, rules: dict[str, str], min_m: int) -> str:
    """Replace the longest suffix in rules if the stem's measure is > min_m."""
    for i in range(max(0, len(word) - _LONGEST), len(word)):
        suffix = word[i:]
        if suffix in rules:
            stem = word[:i]
            # step 4's "ion" also needs an s or t before it
            if (_cv(stem).count("vc") > min_m
                    and (suffix != "ion" or stem.endswith(("s", "t")))):
                return stem + rules[suffix]
            return word
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _cv(word[:-3]).count("vc") > 0 else word
    if word.endswith("ed"):
        stem = word[:-2]
    elif word.endswith("ing"):
        stem = word[:-3]
    else:
        return word
    cv = _cv(stem)
    if "v" not in cv:
        return word
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if (len(stem) > 1 and stem[-1] == stem[-2] and cv[-1] == "c"
            and stem[-1] not in "lsz"):
        return stem[:-1]
    if cv.count("vc") == 1 and cv.endswith("cvc") and stem[-1] not in "wxy":
        return stem + "e"
    return stem


def _stem_word(word: str) -> str:
    if len(word) <= 2:
        return word
    word = _apply(word, _STEP1A, -1)
    word = _step1b(word)
    if word.endswith("y") and "v" in _cv(word[:-1]):  # step 1c
        word = word[:-1] + "i"
    word = _apply(word, _STEP2, 0)
    word = _apply(word, _STEP3, 0)
    word = _apply(word, _STEP4, 1)
    cv = _cv(word)
    if word.endswith("e"):  # step 5a
        stem, stem_cv = word[:-1], cv[:-1]
        m = stem_cv.count("vc")
        if m > 1 or m == 1 and not (stem_cv.endswith("cvc")
                                    and stem[-1] not in "wxy"):
            word, cv = stem, stem_cv
    if word.endswith("ll") and cv.count("vc") > 1:  # step 5b
        word = word[:-1]
    return word


@lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Stem a lowercase token; hyphen-separated parts are stemmed independently."""
    if "-" in token:
        return "-".join(_stem_word(p) for p in token.split("-"))
    return _stem_word(token)
