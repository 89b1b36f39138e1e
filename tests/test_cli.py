import hashlib
import json
from importlib import resources

import pytest

from kpindex import cli
from kpindex.cli import main

from conftest import write_jsonl, write_payload

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

    def test_workers_do_not_change_output(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        _, one, _ = run(["extract", path, "--workers", "1"], capsys)
        _, four, _ = run(["extract", path, "--workers", "4"], capsys)
        assert one == four

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


class TestExitCodes:
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

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_neighbors = 3\nbogus_knob = 7\n")
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, _, err = run(["extract", path, "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus_knob" in err

    def test_out_of_range_value_is_config_error(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "c.jsonl", TWO_DOC_RECORDS)
        code, _, err = run(["extract", path, "--damping", "1.5"], capsys)
        assert code == 1
        assert "damping" in err


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


class TestGoldenOutput:
    """Output bytes on the bundled sample100 corpus with the default config."""

    SAMPLE = str(resources.files("kpindex").joinpath("data/sample100.jsonl"))

    @pytest.mark.parametrize("command, sha256", [
        ("extract",
         "21b757b1d71916c0cbd8f258bff71eafa0e9e077c3c6039f2e624fb163af4706"),
        ("evaluate",
         "a8bb3d604b1a951856b8b1134719fc0a5c9ef22cb3e27dffa0972775c9de4821"),
    ])
    def test_sample100_bytes(self, tmp_path, command, sha256):
        out = tmp_path / "out"
        assert main([command, self.SAMPLE, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_sample100_dot_dump_bytes(self, tmp_path):
        dots = tmp_path / "dots"
        assert main(["extract", self.SAMPLE, "--output", str(tmp_path / "out"),
                     "--dot-dump", str(dots)]) == 0
        names = sorted(p.name for p in dots.iterdir())
        assert len(names) == 100
        blob = b"".join((dots / name).read_bytes() for name in names)
        assert hashlib.sha256(blob).hexdigest() == (
            "7d70a465e9f7aeae79f9180230a8dc25faa1c103fbe840e09a34a0ceb6c7705f")
