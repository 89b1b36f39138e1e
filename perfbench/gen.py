"""Seeded input generators for the three benchmark workloads.

Every corpus is derived from the bundled ``sample100.jsonl``; nothing is
downloaded. The same (workload, seed, size) always yields the same records,
because every random choice comes from one ``random.Random`` seeded with a
string that names the workload and the seed.
"""

from __future__ import annotations

import json
import random
import re

# Invented words are drawn uniformly from this many. Fewer make documents
# share more invented words and so more neighbors: at 1000 documents with
# 40% of words replaced, 5000 gives about three neighbors above min_sim 0.1
# per document and leaves roughly a tenth with none.
VOCAB = 5000
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")

# Syllables for invented words. None contains "q", so the absent-only
# query terms below (which all contain a "q" not followed by "u") can never
# collide with an invented word or with English text.
_SYLLABLES = ["ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu",
              "ra", "se", "ti", "vo", "wu", "za", "bre", "cli", "dro", "fla",
              "gri", "plo", "sta", "tro", "ven", "mor", "lin", "tes"]


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_END.split(text.strip()) if s]


def _invented_vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _replace_words(rng: random.Random, text: str, share: float, pick) -> str:
    out = []
    for word in text.split(" "):
        if rng.random() < share:
            tail = word[-1] if word and word[-1] in ".,;:!?" else ""
            word = pick() + tail
        out.append(word)
    return " ".join(out)


def extract_dense(records: list[dict], seed: int, n: int,
                  cluster_size: int = 6) -> list[dict]:
    """Clusters of near-variants of sample100 records, gold kept.

    Each variant reorders the source's sentences, swaps some adjacent
    words and replaces a few words with words of other records, so every
    document has ``cluster_size - 1`` close but not identical neighbors.
    Records are used in a seeded order, each once before any is reused.
    """
    rng = random.Random(f"extract-dense:{seed}")
    clusters = -(-n // cluster_size)
    order = list(range(len(records)))
    sources = []
    while len(sources) < clusters:
        rng.shuffle(order)
        sources.extend(order)
    words_pool = [w for r in records for w in r["abstract"].split(" ")
                  if w.isalpha()]
    out = []
    for c in range(clusters):
        src = records[sources[c]]
        for v in range(cluster_size):
            if len(out) == n:
                break
            sents = _sentences(src["abstract"])
            rng.shuffle(sents)
            words = " ".join(sents).split(" ")
            for i in range(len(words) - 1):
                if rng.random() < 0.1:
                    words[i], words[i + 1] = words[i + 1], words[i]
            for i, word in enumerate(words):
                if word.isalpha() and rng.random() < 0.15:
                    words[i] = rng.choice(words_pool)
            out.append({"id": f"x{c:04d}-{v}", "title": src["title"],
                        "abstract": " ".join(words),
                        "keyphrases": list(src["keyphrases"])})
    return out


def mixed(records: list[dict], seed: int, n: int, replace_share: float,
          tag: str) -> list[dict]:
    """Documents that mix sentences across records, with a share of their
    words replaced by invented words, so neighbors are sparse and uneven."""
    rng = random.Random(f"{tag}:{seed}")
    pool = [s for r in records for s in _sentences(r["abstract"])]
    vocab = _invented_vocabulary(rng, VOCAB)

    def pick() -> str:
        return rng.choice(vocab)

    out = []
    for i in range(n):
        src = rng.choice(records)
        sents = [rng.choice(pool) for _ in range(rng.randint(3, 5))]
        out.append({
            "id": f"m{i:05d}",
            "title": _replace_words(rng, src["title"], replace_share, pick),
            "abstract": _replace_words(rng, " ".join(sents), replace_share,
                                       pick),
            "keyphrases": list(src["keyphrases"]),
        })
    return out


def absent_term(i: int) -> str:
    """A word unique to document i that never occurs in any text."""
    letters = "bcdfghjklmnprstvwxz"
    digits = []
    while True:
        i, r = divmod(i, len(letters))
        digits.append(letters[r])
        if i == 0:
            break
    return "zq" + "".join(digits) + "qo"


def search_inputs(records: list[dict], seed: int, n: int, n_queries: int):
    """Corpus, per-document keyphrases and a query mix for index-search.

    Keyphrases are generated rather than extracted, so extraction cost
    stays out of the workload: up to three title bigrams (present), gold
    phrases absent from the text plus one unique invented term (absent).
    Queries are titles, gold phrases and absent-only terms, 40/40/20.
    """
    docs = mixed(records, seed, n, 0.2, "index-search")
    rng = random.Random(f"index-search-kp:{seed}")
    keyphrases = {}
    for i, doc in enumerate(docs):
        title = [w for w in doc["title"].lower().split(" ") if w.isalpha()]
        present = [" ".join(title[j:j + 2]) for j in range(0, len(title) - 1, 2)][:3]
        text = (doc["title"] + " " + doc["abstract"]).lower()
        absent = [k for k in doc["keyphrases"] if k.lower() not in text][:3]
        keyphrases[doc["id"]] = {"present": present,
                                 "absent": absent + [absent_term(i)]}
    queries = []
    for _ in range(n_queries):
        i = rng.randrange(n)
        roll = rng.random()
        if roll < 0.4:
            queries.append(("title", docs[i]["title"], None))
        elif roll < 0.8:
            queries.append(("gold", rng.choice(docs[i]["keyphrases"]), None))
        else:
            queries.append(("absent", absent_term(i), docs[i]["id"]))
    return docs, keyphrases, queries


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
