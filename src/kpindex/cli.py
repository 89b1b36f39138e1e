"""Command-line interface: extract | index | search | neighbors | evaluate.

Exit codes: 0 success, 1 usage/config error, 2 data error, 141 stdout
closed by its reader (as for a tool killed by SIGPIPE). Every command
is deterministic for a fixed (input, config) pair: documents are processed
one at a time in the Corpus's sorted id order by pure per-document work.
Each run_* computes all of its output lines before any output is opened,
so a data error leaves no partial --output file, and `main` is the one
writer: it encodes all the lines as UTF-8, whatever the locale, before it
opens --output (or stdout) once and writes them. JSON Lines outputs start
with one {"config": ...} record echoing the effective configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import FIELD_KINDS, Config, load_config
from .corpus import Corpus, load_corpus, load_stopwords
from .errors import ConfigError, DataError
from .evaluation import evaluate_corpus, tfidf_baseline
from .graph import to_dot
from .index import build_index, load_index, save_index, search
from .ranking import build_enriched_graph, pagerank, rank_keyphrases
from .similarity import TfidfSimilarity, compute_idf

MODELS = ("full", "no-expansion", "tfidf")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_knobs(cmd):
    """--config PATH, then one flag per Config field: --max-len for max_len,
    --stopwords PATH."""
    cmd.add_argument("--config", metavar="PATH", help="key = value config file")
    for f in fields(Config):
        if f.name == "stopwords_path":
            cmd.add_argument("--stopwords", dest=f.name, metavar="PATH")
        else:
            cmd.add_argument("--" + f.name.replace("_", "-"),
                             type=FIELD_KINDS[f.type][1])


def build_parser() -> _Parser:
    parser = _Parser(prog="kpindex",
                     description="Keyphrase indexing for scientific abstracts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="rank keyphrases per document")
    p.set_defaults(run=run_extract)
    p.add_argument("corpus", help="JSON Lines corpus file")
    p.add_argument("--dot-dump", metavar="DIR",
                   help="write one DOT graph per document for debugging")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    _add_knobs(p)

    p = sub.add_parser("index", help="build and persist the inverted index")
    p.set_defaults(run=run_index)
    p.add_argument("corpus")
    p.add_argument("index_path", help="output index file")
    _add_knobs(p)

    p = sub.add_parser("search", help="BM25 search over a persisted index")
    p.set_defaults(run=run_search)
    p.add_argument("index_path")
    p.add_argument("query")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")

    p = sub.add_parser("neighbors", help="emit each document's similar documents")
    p.set_defaults(run=run_neighbors)
    p.add_argument("corpus")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    _add_knobs(p)

    p = sub.add_parser("evaluate", help="score a model against gold keyphrases")
    p.set_defaults(run=run_evaluate)
    p.add_argument("corpus")
    p.add_argument("--model", choices=MODELS, default="full")
    p.add_argument("--csv", action="store_true",
                   help="per-document CSV instead of the JSON report")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    _add_knobs(p)

    return parser


def _effective_config(args) -> Config:
    """The config file's values, then each flag that was given."""
    cfg = load_config(args.config)
    return cfg.replace(**{name: value for name in cfg.to_dict()
                          if (value := getattr(args, name, None)) is not None})


def _load(args) -> tuple[Config, Corpus]:
    cfg = _effective_config(args)
    stopwords = load_stopwords(cfg.stopwords_path)
    return cfg, load_corpus(args.corpus, stopwords=stopwords)


def _jsonl(record) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def _extract_all(corpus: Corpus, cfg: Config,
                 dot_dir: str | None = None) -> dict:
    provider = TfidfSimilarity(corpus)
    if dot_dir is not None:
        # each id names a file in dot_dir, so it must not leave dot_dir
        for doc_id in corpus.ids():
            if "/" in doc_id or "\0" in doc_id or doc_id in (".", ".."):
                raise DataError(f"document id {doc_id!r} is not a plain file "
                                f"name, so --dot-dump cannot use it")
        Path(dot_dir).mkdir(parents=True, exist_ok=True)
    extracted, unconverged = {}, 0
    for doc_id in corpus.ids():
        g = build_enriched_graph(doc_id, corpus, cfg, provider)
        if dot_dir is not None:
            Path(dot_dir).joinpath(f"{doc_id}.dot").write_text(
                to_dot(g, name=doc_id), encoding="utf-8")
        scores, converged = pagerank(g, cfg)
        unconverged += not converged
        extracted[doc_id] = rank_keyphrases(g, scores, corpus, cfg)
    if unconverged:  # one line on stderr; stdout and the exit code stay as they are
        print(f"warning: PageRank did not converge within max_iter={cfg.max_iter} "
              f"on {unconverged} of {len(extracted)} documents", file=sys.stderr)
    return extracted


def run_extract(args) -> list[str]:
    cfg, corpus = _load(args)
    extracted = _extract_all(corpus, cfg, args.dot_dump)
    return [_jsonl({"config": cfg.to_dict()}), *(
        _jsonl({"id": doc_id, "keyphrases": [
            {"phrase": rk.surface, "score": rk.score, "origin": rk.origin.value}
            for rk in ranked]})
        for doc_id, ranked in extracted.items())]


def run_index(args) -> list[str]:
    cfg, corpus = _load(args)
    index = build_index(corpus, _extract_all(corpus, cfg), cfg.to_dict())
    try:
        save_index(index, args.index_path)
    except OSError as exc:
        raise DataError(f"cannot write index to {args.index_path}: "
                        f"{exc.strerror}") from None
    return []


def run_search(args) -> list[str]:
    index = load_index(args.index_path)
    results = search(index, args.query, top_n=args.top)
    return [_jsonl({"config": index.config}), *(
        _jsonl({"rank": rank, "id": doc_id, "score": score})
        for rank, (doc_id, score) in enumerate(results, start=1))]


def run_neighbors(args) -> list[str]:
    cfg, corpus = _load(args)
    provider = TfidfSimilarity(corpus)
    return [_jsonl({"config": cfg.to_dict()}), *(
        _jsonl({"id": doc_id, "neighbors": [
            {"id": nid, "sim": sim} for nid, sim in provider.neighbors(
                doc_id, cfg.k_neighbors, cfg.min_sim).neighbors]})
        for doc_id in corpus.ids())]


def run_evaluate(args) -> list[str]:
    cfg, corpus = _load(args)
    if args.model == "no-expansion":  # the report echoes the config it ran
        cfg = cfg.replace(k_neighbors=0)
    if args.model == "tfidf":
        idf = compute_idf(corpus)
        model = lambda doc: tfidf_baseline(doc, corpus, cfg, idf)
    else:  # precomputed, so evaluation stays a pure lookup
        extracted = _extract_all(corpus, cfg)
        model = lambda doc: [rk.surface for rk in extracted[doc.id]]
    report = evaluate_corpus(corpus, model, cfg, model_name=args.model)
    if args.csv:
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows(report.csv_rows())
        return [f"# config: {_jsonl(cfg.to_dict())}",
                rows.getvalue().removesuffix("\n")]
    return [json.dumps(report.to_dict(), sort_keys=True, indent=2)]


def _write_all(out, blob: bytes) -> None:
    """Write blob to a binary stream. A pipe whose reader has gone takes
    one large write in part without an error, so the rest is written
    again until it is taken or the write raises BrokenPipeError."""
    view = memoryview(blob)
    while view:
        view = view[out.write(view):]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines = args.run(args)
        try:
            blob = "".join(line + "\n" for line in lines).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"output text is not valid UTF-8 "
                            f"({exc.reason})") from None
        path = getattr(args, "output", None)  # index has no --output
        if path:
            with open(path, "wb") as out:
                _write_all(out, blob)
        else:
            sys.stdout.flush()
            _write_all(sys.stdout.buffer, blob)
            sys.stdout.buffer.flush()
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: no data error.
        # stdout now points at devnull, so the interpreter's final flush of
        # what is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
