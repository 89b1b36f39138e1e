import builtins
import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import kpindex
from kpindex import Config, cli
from kpindex.cli import main

from conftest import index_file_bytes, nested_json, write_jsonl, write_payload

TWO_DOC_RECORDS = [
    {"id": "a", "title": "Graph ranking for document collections",
     "abstract": "Graph ranking methods score candidate phrases. "
                 "The ranking graph links related phrases across the document."},
    {"id": "b", "title": "Semantic index construction for graph ranking",
     "abstract": "A semantic index improves graph ranking of documents. "
                 "The semantic index links ranking graph phrases. "
                 "Document collections gain from the semantic index and graph ranking."},
]

GOLD_RECORDS = [
    {"id": "e1", "title": "Graph ranking",
     "abstract": "Graph ranking methods for text. Ranking quality matters.",
     "keyphrases": ["graph ranking", "text ranking", "ranking"]},
    {"id": "e2", "title": "Neural networks",
     "abstract": "Deep neural networks learn representations.",
     "keyphrases": ["neural networks", "deep learning"]},
]


SAMPLE100 = str(resources.files("kpindex").joinpath("data/sample100.jsonl"))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    assert "config" in lines[0]
    return lines[0]["config"], lines[1:]


class TestExtract:
    def test_stream_shape_and_config_echo(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, _ = run(["extract", path, "--k-neighbors", "1",
                            "--min-sim", "0.0", "--top-n", "15"], capsys)
        assert code == 0
        config, records = parse_jsonl(out)
        assert config["k_neighbors"] == 1
        assert [r["id"] for r in records] == ["a", "b"]
        origins = {kp["origin"] for r in records for kp in r["keyphrases"]}
        assert origins == {"present", "absent"}
        phrases_a = {kp["phrase"] for kp in records[0]["keyphrases"]}
        assert "semantic index" in phrases_a

    def test_empty_abstract_gives_empty_list(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "empty", "title": "", "abstract": ""},
            {"id": "full", "title": "Graph ranking", "abstract": "Graphs."},
        ])
        code, out, _ = run(["extract", path], capsys)
        assert code == 0
        _, records = parse_jsonl(out)
        by_id = {r["id"]: r for r in records}
        assert by_id["empty"]["keyphrases"] == []
        assert by_id["full"]["keyphrases"]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        _, first, _ = run(["extract", path], capsys)
        _, second, _ = run(["extract", path], capsys)
        assert first == second

    def test_output_file(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        out_path = tmp_path / "out.jsonl"
        code, out, _ = run(["extract", path, "--output", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert out_path.read_text().count("\n") == 3

    def test_dot_dump(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        dot_dir = tmp_path / "dots"
        code, _, _ = run(["extract", path, "--dot-dump", str(dot_dir)], capsys)
        assert code == 0
        assert sorted(p.name for p in dot_dir.iterdir()) == ["a.dot", "b.dot"]
        assert "document:" in (dot_dir / "a.dot").read_text()

    @pytest.mark.parametrize("command", ["extract", "index", "evaluate"])
    def test_every_ranking_command_reports_non_convergence(self, tmp_path,
                                                           capsys, command):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        argv = [command, path] + ([str(tmp_path / "c.kpix")]
                                  if command == "index" else [])
        code, _, err = run(argv, capsys)
        assert code == 0 and err == ""
        code, _, err = run(argv + ["--max-iter", "1"], capsys)
        assert code == 0
        assert err == ("warning: PageRank did not converge within max_iter=1 "
                       "on 2 of 2 documents\n")

    @pytest.mark.parametrize("doc_id", ["../escape/x", "sub/x", "a\0b",
                                        ".", ".."])
    def test_dot_dump_rejects_id_that_is_not_a_file_name(self, tmp_path,
                                                          capsys, doc_id):
        records = TWO_DOC_RECORDS + [{"id": doc_id, "title": "Graph ranking",
                                      "abstract": "Graph ranking."}]
        path = write_jsonl(tmp_path / "c.jsonl", records)
        dot_dir = tmp_path / "dots"
        code, out, err = run(["extract", path, "--dot-dump", str(dot_dir)],
                             capsys)
        assert code == 2
        assert out == "" and repr(doc_id) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]
        code, out, _ = run(["extract", path], capsys)
        assert code == 0
        assert json.dumps(doc_id) in out


def cli_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(kpindex.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def any_text(max_size):
    """Text over every code point, lone surrogates included."""
    return st.text(st.characters(exclude_categories=()), max_size=max_size)


class TestExitCodes:
    def test_stdout_closed_by_its_reader_is_141_and_quiet(self):
        """`extract … | head -1`: the 569 KB of output outgrow any pipe
        buffer, so the writer meets the closed pipe; that is no data error."""
        with subprocess.Popen(
                [sys.executable, "-m", "kpindex.cli", "extract", SAMPLE100,
                 "--top-n", "1000"],
                env=cli_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b'{"config": ')
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == 141
        assert err == b""

    @pytest.mark.parametrize("locale_env", [
        {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": None},
        {"PYTHONIOENCODING": "latin-1"},
    ], ids=["c-locale", "latin-1"])
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, locale_env):
        """stdout gets the same bytes as --output, also for text that the
        locale's encoding cannot write."""
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "Café graph ranking",
             "abstract": "Café ranking of graphs. Naïve graph ranking works."},
            {"id": "b", "title": "Naïve graph index",
             "abstract": "Naïve index of the café graph. Ranking graphs."},
        ])
        out = tmp_path / "out.jsonl"
        assert main(["extract", path, "--output", str(out)]) == 0
        env = cli_env()
        for name, value in locale_env.items():
            env.pop(name, None)
            if value is not None:
                env[name] = value
        proc = subprocess.run(
            [sys.executable, "-m", "kpindex.cli", "extract", path],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()
        assert "café".encode("utf-8") in proc.stdout

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract"])  # missing corpus argument
        assert exc.value.code == 1

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", path, "--model", "bogus"])
        assert exc.value.code == 1
        assert "full" in capsys.readouterr().err

    def test_workers_flag_is_usage_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        with pytest.raises(SystemExit) as exc:
            main(["extract", path, "--workers", "2"])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err

    def test_index_output_flag_is_usage_error(self, tmp_path, capsys):
        """index writes only its index file, so it takes no --output."""
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        out_path = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["index", path, str(tmp_path / "c.kpix"),
                  "--output", str(out_path)])
        assert exc.value.code == 1
        assert "--output" in capsys.readouterr().err
        assert not out_path.exists() and not (tmp_path / "c.kpix").exists()

    def test_output_in_missing_directory_is_data_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        out_path = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(["extract", path, "--output", str(out_path)],
                             capsys)
        assert code == 2
        assert out == "" and "missing" in err

    def test_duplicate_id_is_data_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "T", "abstract": "X."},
            {"id": "a", "title": "U", "abstract": "Y."},
        ])
        code, _, err = run(["extract", path], capsys)
        assert code == 2
        assert "duplicate id a" in err

    def test_missing_corpus_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(["extract", str(tmp_path / "missing.jsonl")], capsys)
        assert code == 2

    @pytest.mark.parametrize("k_neighbors", [[], ["--k-neighbors", "0"]])
    @pytest.mark.parametrize("text", ["", "\n  \n"])
    @pytest.mark.parametrize("command", ["extract", "index", "neighbors",
                                         "evaluate"])
    def test_corpus_without_records_is_data_error(self, tmp_path, capsys,
                                                  command, text, k_neighbors):
        path = tmp_path / "c.jsonl"
        path.write_text(text)
        extra = [str(tmp_path / "c.kpix")] if command == "index" else []
        code, out, err = run([command, str(path), *extra, *k_neighbors],
                             capsys)
        assert code == 2
        assert out == "" and not (tmp_path / "c.kpix").exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "empty corpus" in err and str(path) in err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_neighbors = 3\nbogus_knob = 7\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, _, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus_knob" in err

    @pytest.mark.parametrize("text, line, message", [
        ("window = 4\n# later\nwindow: 12\n", 3, "expected key = value"),
        ("# run settings\nwindow = abc\n", 2,
         "config key 'window': cannot parse 'abc'"),
        ('window = "\n', 1, """config key 'window': cannot parse '"'"""),
        ('window = ""\n', 1, "config key 'window': cannot parse ''")])
    def test_malformed_config_line_is_config_error(self, tmp_path, capsys,
                                                   text, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and err == f"error: {cfg}:{line}: {message}\n"

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and f"cannot read config file {cfg}:" in err

    def test_repeated_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = 4\n# later\nwindow = 12\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and f"{cfg}:3" in err and "'window'" in err

    @pytest.mark.parametrize("top", ["-1", "0"])
    def test_search_top_below_one_is_config_error(self, tmp_path, capsys, top):
        corpus_path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        index_path = str(tmp_path / "c.kpix")
        assert main(["index", corpus_path, index_path]) == 0
        code, out, err = run(["search", index_path, "graph ranking",
                              f"--top={top}"], capsys)
        assert code == 1
        assert out == "" and "--top" in err

    def test_out_of_range_value_is_config_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, _, err = run(["extract", path, "--damping", "1.5"], capsys)
        assert code == 1
        assert "damping" in err

    @pytest.mark.parametrize("flag", ["--beta", "--lambda-domain",
                                      "--gamma-absent"])
    def test_infinite_weight_is_config_error(self, tmp_path, capsys, flag):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, flag, "inf"], capsys)
        assert code == 1
        assert out == "" and flag[2:].replace("-", "_") in err

    def test_infinite_weight_in_config_file_is_config_error(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = inf\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and "beta must be finite" in err

    @pytest.mark.parametrize("record, message", [
        ([{"id": "c", "title": "T", "abstract": "X."}],
         "record is not an object"),
        ({"id": "c", "title": ["T"], "abstract": "X."},
         "field 'title' is not a string"),
        ({"id": "c", "title": "T", "abstract": "X.", "keyphrases": "graph"},
         "keyphrases must be an array of strings"),
        ({"id": "c", "title": "T", "abstract": "X.", "keyphrases": ["graph", 3]},
         "keyphrases must be an array of strings")])
    def test_malformed_record_is_data_error(self, tmp_path, capsys, record,
                                            message):
        path = write_jsonl(tmp_path / "c.jsonl", [*TWO_DOC_RECORDS, record])
        code, out, err = run(["extract", path], capsys)
        assert code == 2
        assert out == "" and err == f"error: line 3: {message}\n"

    def test_index_in_missing_directory_names_the_index(self, tmp_path,
                                                       capsys):
        """Not the temporary file that the atomic write opens first."""
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        index_path = str(tmp_path / "missing" / "c.kpix")
        code, out, err = run(["index", path, index_path], capsys)
        assert code == 2
        assert out == "" and err == (f"error: cannot write index to "
                                     f"{index_path}: No such file or directory\n")

    def test_corpus_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, TWO_DOC_RECORDS)
        path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
        code, out, err = run(["extract", str(path)], capsys)
        assert code == 2
        assert out == "" and "line 3" in err and "UTF-8" in err

    def test_corpus_number_past_digit_limit_is_data_error(self, tmp_path,
                                                          capsys):
        """json.loads raises a plain ValueError, not JSONDecodeError, for
        an integer longer than Python's int-string limit (4300 digits)."""
        path = tmp_path / "c.jsonl"
        write_jsonl(path, TWO_DOC_RECORDS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "title": "T", "abstract": "X.", "n": 1'
                     + "0" * 5000 + "}\n")
        code, out, err = run(["extract", str(path)], capsys)
        assert code == 2
        assert out == "" and "line 3" in err and "invalid JSON" in err

    def test_corpus_nested_too_deeply_is_data_error(self, tmp_path, capsys):
        """json.loads raises RecursionError, neither a ValueError nor a
        JSONDecodeError, for a value nested past the recursion limit."""
        path = tmp_path / "c.jsonl"
        write_jsonl(path, TWO_DOC_RECORDS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "title": "T", "abstract": "X.", "n": '
                     + nested_json() + "}\n")
        code, out, err = run(["extract", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "line 3" in err and "nested too deeply" in err

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"beta = 2.0\n# caf\xe9\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert out == "" and str(cfg) in err and "UTF-8" in err

    @pytest.mark.parametrize("value", ["5e-324", "1e308"])
    def test_extreme_lambda_domain_is_config_error(self, capsys, value):
        """5e-324 rounds a DOMAIN weight to 0; 1e308 overflows a node's
        total edge weight to inf, which would write NaN scores."""
        code, out, err = run(["extract", SAMPLE100, "--lambda-domain", value],
                             capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "lambda_domain" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_stopwords_file_not_utf8_is_data_error(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\n\xc3\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--stopwords", str(stop)],
                             capsys)
        assert code == 2
        assert out == "" and str(stop) in err and "UTF-8" in err


    def test_stopword_entries_match_whatever_their_case(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        records = {}
        for name, text in (("upper", "The\nOf\nAnd\n"),
                           ("lower", "the\nof\nand\n")):
            stop = tmp_path / f"{name}.txt"
            stop.write_text(text, encoding="utf-8")
            code, out, _ = run(["extract", path, "--stopwords", str(stop),
                                "--top-n", "1000"], capsys)
            assert code == 0
            records[name] = parse_jsonl(out)[1]
        assert records["upper"] == records["lower"]
        phrases = {kp["phrase"] for record in records["upper"]
                   for kp in record["keyphrases"]}
        assert "graph ranking" in phrases
        assert not any("the" in phrase.split() for phrase in phrases)

    def test_stopword_entry_of_two_tokens_is_data_error(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nstate of the art\n", encoding="utf-8")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, err = run(["extract", path, "--stopwords", str(stop)],
                             capsys)
        assert code == 2
        assert out == "" and f"{stop}:2:" in err and "one token" in err

    @pytest.mark.parametrize("argv", [
        ["extract", "{corpus}", "--output", "{out}"],
        ["extract", "{corpus}"],
        ["index", "{corpus}", "{out}"],
    ], ids=["extract-output", "extract-stdout", "index"])
    def test_lone_surrogate_in_id_is_data_error(self, tmp_path, capsys, argv):
        """JSON accepts the escape "\\ud800", but no UTF-8 output can
        write it: the loader refuses the record and nothing is written."""
        corpus = write_jsonl(tmp_path / "c.jsonl", [
            dict(TWO_DOC_RECORDS[0], id="a\ud800"), TWO_DOC_RECORDS[1]])
        out = tmp_path / "out"
        code, stdout, err = run(
            [arg.format(corpus=corpus, out=out) for arg in argv], capsys)
        assert code == 2 and stdout == ""
        assert err == ("error: line 1: field 'id' holds the lone surrogate "
                       "U+D800\n")
        assert os.listdir(tmp_path) == ["c.jsonl"]

    def test_lone_surrogate_in_title_is_no_token(self, tmp_path, capsys):
        plain = write_jsonl(tmp_path / "plain.jsonl", TWO_DOC_RECORDS)
        odd = write_jsonl(tmp_path / "odd.jsonl", [
            dict(TWO_DOC_RECORDS[0],
                 title="Graph ranking \udc00 for document collections"),
            TWO_DOC_RECORDS[1]])
        assert run(["extract", odd], capsys)[:2] == (
            0, run(["extract", plain], capsys)[1])

    @given(st.lists(st.fixed_dictionaries(
        {"id": any_text(max_size=4), "title": any_text(max_size=30),
         "abstract": any_text(max_size=60)},
        optional={"keyphrases": st.lists(any_text(max_size=12),
                                         max_size=3)}),
        min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_any_record_text_is_written_or_a_data_error(self, records):
        """Arbitrary text in every field, lone surrogates included: exit 0
        with UTF-8 output, or exit 2 with no output file."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus = write_jsonl(Path(tmp) / "c.jsonl", records)
            for argv, out in ((["extract", corpus, "--output"], "o.jsonl"),
                              (["index", corpus], "c.kpix")):
                path = Path(tmp) / out
                code = main(argv + [str(path)])
                event(f"{argv[0]} exit {code}")
                assert code in (0, 2)
                if code == 2:
                    assert not path.exists()
                elif out == "o.jsonl":
                    path.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("command, text", [
        (["extract", "{corpus}", "--output", "{out}"], "output text"),
        (["index", "{corpus}", "{out}"], "index text")])
    def test_text_not_utf8_is_data_error(self, tmp_path, capsys, command,
                                         text):
        """A file name that is not UTF-8 reaches the config echo as lone
        surrogates: one stderr line and no output file."""
        stop = tmp_path / os.fsdecode(b"stop\xff.txt")
        stop.write_text("the\n", encoding="utf-8")
        corpus = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        out = tmp_path / "out"
        code, stdout, err = run(
            [arg.format(corpus=corpus, out=out) for arg in command]
            + ["--stopwords", str(stop)], capsys)
        assert code == 2 and stdout == ""
        assert sorted(os.listdir(tmp_path)) == sorted(["c.jsonl", stop.name])
        assert err.startswith(f"error: {text} is not valid UTF-8")
        assert len(err.splitlines()) == 1


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run settings\ntop_n = 5\nwindow = 4\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, _ = run(["extract", path, "--config", str(cfg),
                            "--top-n", "3"], capsys)
        assert code == 0
        config, records = parse_jsonl(out)
        assert config["top_n"] == 3      # flag wins
        assert config["window"] == 4     # file beats default
        assert all(len(r["keyphrases"]) <= 3 for r in records)

    @pytest.mark.parametrize("value", ['"4"', "'4'"])
    def test_quoted_config_value_is_read_without_its_quotes(self, tmp_path,
                                                            capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"window = {value}\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, out, _ = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 0
        assert parse_jsonl(out)[0]["window"] == 4


class TestNeighborsCommand:
    def test_singleton_corpus(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl",
                           [{"id": "only", "title": "T", "abstract": "Graphs."}])
        code, out, _ = run(["neighbors", path], capsys)
        assert code == 0
        _, records = parse_jsonl(out)
        assert records == [{"id": "only", "neighbors": []}]

    def test_duplicate_documents_have_unit_similarity(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "title": "Graph ranking", "abstract": "Graphs rank."},
            {"id": "b", "title": "Graph ranking", "abstract": "Graphs rank."},
        ])
        code, out, _ = run(["neighbors", path, "--min-sim", "0.0"], capsys)
        assert code == 0
        _, records = parse_jsonl(out)
        by_id = {r["id"]: r["neighbors"] for r in records}
        assert by_id["a"][0]["id"] == "b"
        assert by_id["a"][0]["sim"] == pytest.approx(1.0, abs=1e-12)


class TestIndexAndSearch:
    def test_end_to_end(self, tmp_path, capsys):
        corpus_path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        index_path = str(tmp_path / "c.kpix")
        code, _, _ = run(["index", corpus_path, index_path, "--k-neighbors",
                          "1", "--min-sim", "0.0", "--top-n", "15"], capsys)
        assert code == 0
        code, out, _ = run(["search", index_path, "semantic index"], capsys)
        assert code == 0
        config, records = parse_jsonl(out)
        assert config["top_n"] == 15
        assert {r["id"] for r in records} >= {"a", "b"}

    def test_corrupt_index_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kpix"
        bad.write_bytes(b"garbage")
        code, _, err = run(["search", str(bad), "graph"], capsys)
        assert code == 2
        assert "magic" in err

    def test_payload_without_doc_lengths_is_data_error(self, tmp_path, capsys):
        bad = write_payload(tmp_path / "bad.kpix", {"postings": {}})
        code, _, err = run(["search", bad, "graph"], capsys)
        assert code == 2
        assert "'doc_lengths'" in err

    def test_index_with_infinite_weighted_length_is_data_error(self, tmp_path,
                                                                capsys):
        """A kp_present length and weight of 1.7e308, whose 1.5x is inf,
        lie past the 2**53 cap: the index loads no more, instead of
        scoring its document NaN."""
        lengths = {"text": 0.0, "kp_present": 1.7e308, "kp_absent": 0.0}
        bad = write_payload(tmp_path / "bad.kpix", {
            "doc_lengths": {"a": lengths,
                            "b": {"text": 1.0, "kp_present": 0.0,
                                  "kp_absent": 0.0}},
            "postings": {"graph": [["a", "kp_present", 1.7e308],
                                   ["b", "text", 1.0]]}})
        code, out, err = run(["search", bad, "graph", "--top", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "document 'a': field 'kp_present'" in err

    def test_number_past_digit_limit_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kpix"
        bad.write_bytes(index_file_bytes(
            b'{"config": {"n": 1' + b"0" * 5000
            + b'}, "doc_lengths": {}, "postings": {}}'))
        code, out, err = run(["search", str(bad), "graph"], capsys)
        assert code == 2
        assert out == "" and "corrupt index payload" in err

    def test_config_nested_too_deeply_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kpix"
        bad.write_bytes(index_file_bytes(
            b'{"config": {"n": ' + nested_json().encode()
            + b'}, "doc_lengths": {}, "postings": {}}'))
        code, out, err = run(["search", str(bad), "graph"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "nested too deeply" in err

    def test_programming_error_is_not_data_error(self, tmp_path, monkeypatch):
        def broken(path):
            raise KeyError("bug")
        monkeypatch.setattr(cli, "load_index", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["search", str(tmp_path / "any.kpix"), "graph"])


class TestEvaluateCommand:
    def test_json_report(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        code, out, _ = run(["evaluate", path, "--model", "tfidf"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["model"] == "tfidf"
        assert set(report["macro"]) == {"all", "present", "absent"}
        assert report["config"]["top_n"] == 10

    def test_no_expansion_equals_full_with_knobs_zeroed(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        _, noexp, _ = run(["evaluate", path, "--model", "no-expansion"], capsys)
        _, zeroed, _ = run(["evaluate", path, "--model", "full",
                            "--k-neighbors", "0", "--absent-quota", "0",
                            "--lambda-domain", "0"], capsys)
        a, b = json.loads(noexp), json.loads(zeroed)
        assert a["per_document"] == b["per_document"]
        assert a["macro"] == b["macro"]

    @pytest.mark.parametrize("csv", [False, True])
    def test_no_expansion_reports_the_config_it_ran(self, tmp_path, capsys,
                                                    csv):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        code, out, _ = run(["evaluate", path, "--model", "no-expansion",
                            *(["--csv"] if csv else [])], capsys)
        assert code == 0
        config = (json.loads(out.splitlines()[0].removeprefix("# config: "))
                  if csv else json.loads(out)["config"])
        assert config == Config(k_neighbors=0).to_dict()

    @pytest.mark.parametrize("command, built", [
        ("extract", 1), ("extract --k-neighbors 0", 1), ("index", 1),
        ("evaluate --model full", 1), ("evaluate --model no-expansion", 1),
        ("evaluate --model tfidf", 0)])
    def test_one_neighbor_source_per_run(self, tmp_path, capsys, monkeypatch,
                                         command, built):
        """tf-idf is built once for the whole corpus, never per document."""
        corpora = []
        real = cli.TfidfSimilarity

        def counting(corpus):
            corpora.append(corpus)
            return real(corpus)
        monkeypatch.setattr(cli, "TfidfSimilarity", counting)
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        name, *flags = command.split()
        positional = [path, *([str(tmp_path / "c.kpix")] if name == "index"
                               else [])]
        code, _, _ = run([name, *positional, *flags], capsys)
        assert code == 0
        assert len(corpora) == built

    def test_missing_gold_is_data_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, _, err = run(["evaluate", path], capsys)
        assert code == 2
        assert "no gold-annotated documents" in err

    def test_csv_output(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", GOLD_RECORDS)
        code, out, _ = run(["evaluate", path, "--model", "tfidf", "--csv"],
                           capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "doc_id,scope,k,precision,recall,f1"
        assert len(lines) == 2 + 2 * 3 * 2

    def test_csv_fields_are_quoted(self, tmp_path, capsys):
        """An id holding a comma and a quote stays one field."""
        doc_id = 'a,"b'
        path = write_jsonl(tmp_path / "c.jsonl",
                           [dict(GOLD_RECORDS[0], id=doc_id), GOLD_RECORDS[1]])
        code, out, _ = run(["evaluate", path, "--model", "tfidf", "--csv"],
                           capsys)
        assert code == 0
        rows = list(csv.reader(out.splitlines()[1:]))
        assert len(rows) == 1 + 2 * 3 * 2
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows].count(doc_id) == 3 * 2


def compensated_sum(iterable, start=0):
    """sum() that, like the built-in since Python 3.12, does not add floats
    left to right: math.fsum, correctly rounded. Integer sums stay ints."""
    items = [start, *iterable]
    if any(isinstance(x, float) for x in items):
        return math.fsum(items)
    return builtins.sum(items)


def use_compensated_sum(monkeypatch):
    """Make every kpindex module's sum() the compensated one."""
    for info in pkgutil.iter_modules(kpindex.__path__):
        module = importlib.import_module(f"kpindex.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


GOLDEN_BYTES = [
    ("extract",
     "21b757b1d71916c0cbd8f258bff71eafa0e9e077c3c6039f2e624fb163af4706"),
    ("evaluate",
     "a8bb3d604b1a951856b8b1134719fc0a5c9ef22cb3e27dffa0972775c9de4821"),
    ("evaluate --model tfidf",
     "118f9ef133f67afc435b383a4329396884cc5c283717adf839bf2007b83e8993"),
    ("evaluate --csv",
     "ce4098221eaf2cdec27d08cc1085ecc5b843732904ed084a9eb7a78635fadad5"),
    ("evaluate --model tfidf --csv",
     "808e7a7208fcab8708d277fca82378b8d96da684bf21d1f0513c1cce906d131b"),
    ("evaluate --model no-expansion",
     "7ded36a0d9591d0a1ac5e5178f58679f3fb18b574db3a15fb085d23868794108"),
    ("neighbors",
     "b6a5a5831d1e688e8df9c44a83e4bd97ecc8cba52742cfeadbfa18a28efc298e"),
    # every pair passes the floor: documents sharing no stem score 0.0
    ("neighbors --min-sim 0",
     "883ea4cd05a9183fbaaf7c3dba56aa4a0586584ba54e31a1982d5d178f82df7d"),
    ("neighbors --min-sim 0 --k-neighbors 100",
     "0cbc0ff06b7d9b6ef17a75ec21feb89370e3b681f8b80b8969fc299a60f329b6"),
    ("neighbors --k-neighbors 0",
     "5545d2e475546d32f5b2a4002a7b996046a517fcd7e300cff0898b34ac595b6e"),
    ("extract --k-neighbors 0",
     "1855e4fdc9cc46c91895f040d142730130cb137842e884540ed2d278b0e82572"),
    # admits many ABSENT nodes; the default config admits few
    ("extract --min-sim 0 --absent-quota 40 --window 4",
     "802c56f4c0f8c7effef402a2127f7aa0fba881895ffd451f32f9d09b8849fd59"),
    # reports every node: 10,333 rows, 4,000 of them ABSENT, so each
    # node's surface is pinned, not only the top 10's
    ("extract --min-sim 0 --absent-quota 40 --window 4 --top-n 1000",
     "bddcb7692214f7559abaf8c3dccfa3034bcf511775fae8da2b25c4e78b6ecec8"),
    # neighbors' candidates are unigrams too, so expansion reads max_len
    ("extract --max-len 1 --min-sim 0",
     "3660aebbd5a8d4c7981e3a82f0a23883bd5c45fdb613d09cef752adc8b87bc7c"),
]


SAMPLE100_INDEX_SHA256 = (
    "e5254d982094a4c32e374b7c97c635dcaba8baa912c9da093cb5fd7723d9dd9e")

GOLDEN_SEARCH_BYTES = [
    ("probabilistic term weighting",
     "29330501c0a59e4f03a35ef1489d2b44fe44b8a97e3d28eb25d9b3eb0eb58cbc"),
    ("neural machine translation",
     "7a25395c3bc6de34f6fa4bb9733c87c6916df53c0281386f8cb7c40ae539e747"),
    ("graph ranking of the unknown zyxwv",
     "2ddeb9dd3ab1ec48c57b7894364486ccbbb370a70cc19aee739134769015d140"),
]

# search --top at 1 and above every query's match count (at most 14)
GOLDEN_SEARCH_TOP_BYTES = [
    ("probabilistic term weighting", 1,
     "7febc5f649f229b7ef32408bd052ee12ccca318606ccdc6dd37026ca9fbc6200"),
    ("neural machine translation", 1,
     "c87745c6cfb458cb51c8607a85515d2c0c1d4df5ea57af5ae7303d21b41e78c5"),
    ("graph ranking of the unknown zyxwv", 1,
     "2547823b5dcafad557800d786cc400bbdc194d712c8b1d682e556c1922888350"),
    ("probabilistic term weighting", 1000,
     "29330501c0a59e4f03a35ef1489d2b44fe44b8a97e3d28eb25d9b3eb0eb58cbc"),
    ("neural machine translation", 1000,
     "7a25395c3bc6de34f6fa4bb9733c87c6916df53c0281386f8cb7c40ae539e747"),
    ("graph ranking of the unknown zyxwv", 1000,
     "7185a0e557ee930cac476498ef4b95bcf5bd301059018c0907bf31b24ba6bf4b"),
]


def other_interpreters():
    """Each python3.10 to python3.13 on PATH, other than the running
    version, that starts; a shim for a version it cannot run exits non-zero."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or (3, minor) == sys.version_info[:2]:
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == str((3, minor)):
            found.append(exe)
    return found


def assert_golden_bytes(tmp_path, corpus, command, sha256):
    """command is an argv prefix; the corpus and --output follow it."""
    out = tmp_path / "out"
    assert main(command.split() + [corpus, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestGoldenOutput:
    """Output bytes on the bundled sample100 corpus with the default config."""

    @pytest.mark.parametrize("command, sha256", GOLDEN_BYTES)
    def test_sample100_bytes(self, tmp_path, command, sha256):
        assert_golden_bytes(tmp_path, SAMPLE100, command, sha256)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("command, sha256", GOLDEN_BYTES)
    def test_sample100_bytes_do_not_depend_on_line_order(self, tmp_path,
                                                         command, sha256, seed):
        with open(SAMPLE100, "rb") as fh:
            lines = fh.readlines()
        random.Random(seed).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_bytes(b"".join(lines))
        assert_golden_bytes(tmp_path, str(shuffled), command, sha256)

    def test_sample100_dot_dump_bytes(self, tmp_path):
        dots = tmp_path / "dots"
        assert main(["extract", SAMPLE100, "--output", str(tmp_path / "out"),
                     "--dot-dump", str(dots)]) == 0
        names = sorted(p.name for p in dots.iterdir())
        assert len(names) == 100
        blob = b"".join((dots / name).read_bytes() for name in names)
        assert hashlib.sha256(blob).hexdigest() == (
            "7d70a465e9f7aeae79f9180230a8dc25faa1c103fbe840e09a34a0ceb6c7705f")

    def test_sample100_non_convergence_is_one_stderr_line(self, capsys):
        """No document converges in one iteration; the run says so on
        stderr and keeps its exit code and stdout bytes."""
        code, out, err = run(["extract", SAMPLE100, "--max-iter", "1"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "45990425888fb940f5d0e78c5fd81b45cb35e5765ad3014f2d27a1e78435ff56")
        assert err.count("\n") == 1
        assert "max_iter=1 on 100 of 100 documents" in err
        code, out, err = run(["extract", SAMPLE100], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_BYTES[0][1]
        assert err == ""

    @pytest.mark.parametrize("command, sha256", GOLDEN_BYTES)
    def test_sample100_bytes_under_compensated_sum(self, tmp_path, monkeypatch,
                                                   command, sha256):
        """The bytes do not depend on how sum() adds floats, so Python 3.12+
        gives the golden bytes too."""
        use_compensated_sum(monkeypatch)
        self.test_sample100_bytes(tmp_path, command, sha256)

    def test_sample100_dot_dump_bytes_under_compensated_sum(self, tmp_path,
                                                            monkeypatch):
        use_compensated_sum(monkeypatch)
        self.test_sample100_dot_dump_bytes(tmp_path)

    def test_sample100_index_and_search_bytes(self, tmp_path):
        path = tmp_path / "c.kpix"
        assert main(["index", SAMPLE100, str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            SAMPLE100_INDEX_SHA256)
        out = tmp_path / "out"
        for query, sha256 in GOLDEN_SEARCH_BYTES:
            assert main(["search", str(path), query, "--output", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        for query, top, sha256 in GOLDEN_SEARCH_TOP_BYTES:
            assert main(["search", str(path), query, "--top", str(top),
                         "--output", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_sample100_search_bytes_on_a_warm_index(self, tmp_path):
        """Each CLI search is a cold process; here one loaded index answers
        every golden query twice, so the second round only reads cached
        BM25 contributions."""
        path = tmp_path / "c.kpix"
        assert main(["index", SAMPLE100, str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            SAMPLE100_INDEX_SHA256)
        index = kpindex.load_index(str(path))
        for _ in range(2):
            for query, sha256 in GOLDEN_SEARCH_BYTES:
                lines = [cli._jsonl({"config": index.config})] + [
                    cli._jsonl({"rank": rank, "id": doc_id, "score": score})
                    for rank, (doc_id, score)
                    in enumerate(kpindex.search(index, query), start=1)]
                blob = "".join(line + "\n" for line in lines).encode("utf-8")
                assert hashlib.sha256(blob).hexdigest() == sha256
        assert index.contributions

    @pytest.mark.parametrize("python", other_interpreters(),
                             ids=os.path.basename)
    def test_sample100_bytes_under_other_interpreters(self, tmp_path, python):
        """The CLI run by another Python version writes the golden bytes."""
        src = str(Path(kpindex.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out, path = tmp_path / "out", tmp_path / "c.kpix"

        def digest(written, *argv):
            subprocess.run([python, "-m", "kpindex.cli", *argv], env=env,
                           check=True, timeout=600)
            return hashlib.sha256(written.read_bytes()).hexdigest()

        golden = dict(GOLDEN_BYTES)
        for command in ("extract", "evaluate", "neighbors"):
            assert digest(out, command, SAMPLE100,
                          "--output", str(out)) == golden[command]
        assert digest(path, "index", SAMPLE100, str(path)) == (
            SAMPLE100_INDEX_SHA256)
        query, sha256 = GOLDEN_SEARCH_BYTES[2]  # graph ranking
        assert digest(out, "search", str(path), query,
                      "--output", str(out)) == sha256

    @pytest.mark.parametrize("python", other_interpreters(),
                             ids=os.path.basename)
    def test_tokenizer_equals_oracle_under_other_interpreters(self, python):
        """tokenize rests on each interpreter's regex `\\w` and `\\s`; under
        another Python version it splits every code point as the character
        loop does, with each separator of tests/tokenize_oracle.py."""
        src = str(Path(kpindex.__file__).resolve().parent.parent)
        oracle = Path(__file__).resolve().parent / "tokenize_oracle.py"
        proc = subprocess.run([python, str(oracle)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

    def test_sample100_index_and_search_bytes_under_compensated_sum(
            self, tmp_path, monkeypatch):
        use_compensated_sum(monkeypatch)
        self.test_sample100_index_and_search_bytes(tmp_path)
