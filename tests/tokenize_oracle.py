"""The oracle of corpus.tokenize, in the standard library only, so that
every supported interpreter can run it without the test dependencies.

tokenize rests on the interpreter's regex engine: sre's `\\w` must be
exactly `str.isalnum` plus "_", and `\\s` exactly `str.isspace`. Run as a
script, this module checks that over every code point against the
character loop that tokenize replaced, and exits 1 naming each block of
code points that tokenizes differently:

    PYTHONPATH=src python3.12 tests/tokenize_oracle.py
"""

import sys

from kpindex.corpus import SENTENCE_BREAK, tokenize

#: What joins the code points of a block: nothing, so one long run;
#: whitespace; a sentence mark before whitespace; and "_", which tokenize
#: maps to U+0000, alone and after a sentence mark.
SEPARATORS = ("", " ", ". ", "_", "._")

BLOCK = 4096


def tokenize_oracle(text):
    """The character loop that the one-regex tokenize replaced; kept as its
    oracle. "İ" (U+0130) lowercases to a plain "i", as in tokenize."""
    tokens = []
    buf = []

    def flush():
        if buf:
            tok = "".join(buf).strip("-")
            if any(c.isalnum() for c in tok):
                tokens.append(tok)
            buf.clear()

    n = len(text)
    for i, ch in enumerate(text):
        if ch.isalnum() or ch == "-":
            buf.append("i" if ch == "\u0130" else ch.lower())
            continue
        flush()
        if ch in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            tokens.append(SENTENCE_BREAK)
    flush()
    return tokens


def differing_blocks(sep):
    """The first code point of each block of BLOCK code points whose text,
    the block's code points joined by sep, tokenize and the oracle split
    differently."""
    bad = []
    for block in range(0, 0x110000, BLOCK):
        text = sep.join(map(chr, range(block, block + BLOCK)))
        if tokenize(text) != tokenize_oracle(text):
            bad.append(block)
    return bad


def main():
    failed = False
    for sep in SEPARATORS:
        for block in differing_blocks(sep):
            failed = True
            print(f"separator {sep!r}: block U+{block:04X} tokenizes "
                  "differently from the oracle", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
