import argparse
import ast
import dataclasses
import inspect
import math
import sys
from importlib import resources

import pytest

import kpindex
from kpindex import (Config, ConfigError, cli, errors, evaluation, graph,
                     ranking, similarity)
from kpindex import corpus as corpus_module
from kpindex.corpus import Corpus, Document, load_stopwords
from kpindex.index import InvertedIndex

CONFIG_FIELDS = [f.name for f in dataclasses.fields(Config)]

STAGES = [graph.build_document_graph, graph.expand_graph,
          graph.bridge_components, ranking.build_enriched_graph,
          ranking.extract_document, ranking.extract_pipeline,
          ranking.pagerank, ranking.rank_keyphrases,
          evaluation.tfidf_baseline]

COMMAND_ARGS = {"extract": ["c.jsonl"], "index": ["c.jsonl", "c.kpix"],
                "neighbors": ["c.jsonl"], "evaluate": ["c.jsonl"]}


def test_all_names_resolve():
    missing = [name for name in kpindex.__all__ if not hasattr(kpindex, name)]
    assert missing == []


def test_all_is_the_documented_api():
    assert sorted(kpindex.__all__) == [
        "Config", "ConfigError", "Corpus", "DataError", "KpIndexError",
        "TfidfSimilarity", "build_index", "evaluate_corpus",
        "extract_pipeline", "load_corpus", "load_index", "normalize_phrase",
        "save_index", "search"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   10**400, -10**400])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Config)
                                  if f.type == "float"])
def test_float_field_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        Config(**{name: value})


WRONG_TYPES = {"int": [2.0, True, "3", None], "float": [True, "0.5", None],
               "str | None": [3, b"stopwords.txt"]}


@pytest.mark.parametrize("name,value", [
    (f.name, value) for f in dataclasses.fields(Config)
    for value in WRONG_TYPES[f.type]], ids=repr)
def test_field_of_the_wrong_type_is_a_config_error(name, value):
    """An int field takes exactly int (no bool), a float field int or float,
    stopwords_path str or None; anything else names the field."""
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        Config(**{name: value})


def test_float_field_admits_an_int():
    assert Config(min_sim=0, beta=3, tol=1).beta == 3


def test_config_is_frozen():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.window = 0
    assert cfg.window == 10


@pytest.mark.parametrize("stage", STAGES, ids=lambda fn: fn.__name__)
def test_stage_reads_parameters_from_config(stage):
    params = inspect.signature(stage).parameters
    assert "config" in params
    assert sorted(set(params) & set(CONFIG_FIELDS)) == []


def test_search_takes_no_bm25_parameters():
    params = inspect.signature(kpindex.search).parameters
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params.values()] == [
        ("index", empty), ("query", empty), ("top_n", 10)]


def changed_value(field: dataclasses.Field):
    """A valid value that differs from the field's default."""
    if field.name == "stopwords_path":
        return "stopwords.txt"
    if field.type == "int":
        return field.default + 1
    return field.default / 2


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_every_config_field_has_a_flag(command, name):
    field = next(f for f in dataclasses.fields(Config) if f.name == name)
    flag = ("--stopwords" if name == "stopwords_path"
            else "--" + name.replace("_", "-"))
    value = changed_value(field)
    args = cli.build_parser().parse_args(
        [command, *COMMAND_ARGS[command], flag, str(value)])
    cfg = cli._effective_config(args)
    assert getattr(cfg, name) == value
    assert cfg == Config().replace(**{name: value})


def test_replace_applies_none_like_any_value():
    """None is a value, not "keep": the flag filtering lives in the CLI."""
    with pytest.raises(ConfigError, match="^window must be int"):
        Config().replace(window=None)
    cfg = Config(stopwords_path="x.txt").replace(stopwords_path=None)
    assert cfg.stopwords_path is None
    assert cfg == Config()


def test_replace_of_an_unknown_key_is_a_config_error():
    """Named by the check, where the dataclass would raise a TypeError."""
    with pytest.raises(ConfigError, match="^unknown config key 'windw'$"):
        Config().replace(windw=3)


def test_flags_not_given_keep_the_config_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("window = 4\nstopwords_path = x.txt\n", encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["extract", "c.jsonl", "--config", str(path), "--top-n", "3"])
    assert cli._effective_config(args) == Config(
        window=4, stopwords_path="x.txt", top_n=3)


@pytest.mark.parametrize("fn, name", [
    (ranking.build_enriched_graph, "neighbors"),
    (ranking.extract_document, "provider"),
    (ranking.extract_pipeline, "provider"),
    (evaluation.tfidf_baseline, "idf"),
    (corpus_module.extract_candidates, "max_len"),
    (corpus_module.extract_candidates, "stopwords"),
    (Corpus.candidates_for, "max_len"),
    (Corpus, "stopwords")], ids=lambda v: getattr(v, "__qualname__", v))
def test_stage_inputs_have_no_default(fn, name):
    """Config names each default once, and no stage builds corpus-wide
    state in place of an input it was not given."""
    param = inspect.signature(fn).parameters[name]
    assert param.default is inspect.Parameter.empty


def imported_names(module):
    """Every module a kpindex module imports, and each name it imports
    from one as "module.name"."""
    source = resources.files("kpindex").joinpath(module).read_text("utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_graph_does_not_import_similarity():
    """expand_graph takes the ranked neighbor list, not a NeighborSet."""
    imported = imported_names("graph.py")
    assert imported and not [name for name in imported
                             if "similarity" in name.split(".")]


def test_cli_runs_no_stage_itself():
    """extract_document is the one sequence of a document's stages: the
    CLI takes nothing else from ranking."""
    assert [name for name in imported_names("cli.py")
            if name.startswith(".ranking")] == [".ranking",
                                                ".ranking.extract_document"]


def test_index_is_built_only_by_its_constructor():
    params = inspect.signature(InvertedIndex).parameters
    empty = inspect.Parameter.empty
    assert [(p.name, p.default is empty) for p in params.values()] == [
        ("postings", True), ("doc_lengths", True), ("config", False)]
    for name in ("add_document", "add_postings", "finalize"):
        assert not hasattr(InvertedIndex, name)


def test_vectors_are_plain_dicts():
    assert not hasattr(similarity, "DocVector")
    corpus = Corpus([Document.build("a", "Graph ranking", "Graph models."),
                     Document.build("b", "", "")], load_stopwords(None))
    vectors = similarity.TfidfSimilarity(corpus).vectors
    assert vectors.keys() == {"a", "b"}
    assert all(type(v) is dict for v in vectors.values())


def test_graph_node_records_only_what_ranking_reads():
    """Surfaces are read in ranking, for the reported rows only."""
    assert [f.name for f in dataclasses.fields(graph.NodeInfo)] == [
        "origin", "sources"]
    for name in ("surface_counts", "most_frequent_surface",
                 "preferred_surface"):
        assert not hasattr(graph, name)
    assert not hasattr(ranking, "rank_graph")
    for name in ("add_node", "add_edge", "edges"):
        assert not hasattr(graph.SemMultiGraph, name)
    for name in ("Edge", "_pair", "weakly_connected_components", "_layers"):
        assert not hasattr(graph, name)
    assert not hasattr(ranking, "_best_surface")
    layer = inspect.signature(graph.SemMultiGraph.edge_count).parameters["layer"]
    assert layer.default is inspect.Parameter.empty


def test_candidates_are_start_offsets():
    """A candidate is the list of offsets where its key starts; surfaces
    and lengths are read from the tokens, so no record type holds them."""
    assert not hasattr(corpus_module, "Candidate")
    corpus = Corpus([Document.build("a", "Graph ranking", "Graph models.")],
                    load_stopwords(None))
    cands = corpus.candidates_for("a", 3)
    assert type(cands) is dict
    assert cands["graph"] == [0, 3]
    assert all(type(starts) is list and all(type(s) is int for s in starts)
               for starts in cands.values())


def test_document_holds_only_what_the_pipeline_reads():
    """Title and abstract live on only as tokens and stems."""
    assert [f.name for f in dataclasses.fields(Document)] == [
        "id", "gold", "tokens", "stems"]


def test_evaluation_derives_its_aggregates():
    """PRESENT is a substring test on the joined stems, and the macro means
    add through ranking's one ordered float sum, not a second copy."""
    assert not hasattr(evaluation, "_occurs_contiguously")
    assert evaluation._sum_in_order is ranking._sum_in_order


def test_package_imports_only_the_standard_library():
    """pyproject.toml declares no dependencies; every import in the package
    is relative or a standard-library module."""
    outside = []
    for module in resources.files("kpindex").iterdir():
        if not module.name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(module.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_main_is_the_one_writer():
    """Each run_* returns its lines; only main opens the output."""
    for name in ("_open_output", "_add_common", "_RUNNERS"):
        assert not hasattr(cli, name)


def test_one_error_class_per_exit_code():
    defined = sorted(name for name, value in vars(errors).items()
                     if isinstance(value, type)
                     and issubclass(value, BaseException))
    assert defined == ["ConfigError", "DataError", "KpIndexError"]


CONFIG_FLAGS = ["--config", "--max-len", "--window", "--k-neighbors",
                "--min-sim", "--lambda-domain", "--beta", "--absent-quota",
                "--damping", "--tol", "--max-iter", "--gamma-absent",
                "--top-n", "--stopwords"]

COMMAND_FLAGS = {
    "extract": ["--dot-dump", "--output", *CONFIG_FLAGS],
    "index": CONFIG_FLAGS,
    "search": ["--top", "--output"],
    "neighbors": ["--output", *CONFIG_FLAGS],
    "evaluate": ["--model", "--csv", "--output", *CONFIG_FLAGS],
}


def test_each_command_has_exactly_its_flags():
    """Adding or dropping a flag shows up here as a table edit."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    got = {name: sorted(flag for action in sub._actions
                        for flag in action.option_strings
                        if flag not in ("-h", "--help"))
           for name, sub in commands.items()}
    assert got == {name: sorted(flags) for name, flags in COMMAND_FLAGS.items()}
