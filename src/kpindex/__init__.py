"""Keyphrase indexing for scientific abstracts.

Ranks a document's own (present) keyphrases on a co-occurrence graph
enriched with evidence from semantically similar documents, borrows
(absent) keyphrases from those neighbors through a two-layer multigraph,
and serves both through a searchable inverted index plus an evaluation
harness.

The package namespace holds the documented entry points and error
classes; stage functions and data types are imported from their
submodules (kpindex.graph, kpindex.ranking, ...).
"""

from .config import Config
from .corpus import Corpus, load_corpus
from .errors import ConfigError, DataError, KpIndexError
from .evaluation import evaluate_corpus, normalize_phrase
from .index import build_index, load_index, save_index, search
from .ranking import extract_pipeline
from .similarity import TfidfSimilarity

__version__ = "0.1.0"

__all__ = [
    "Config", "ConfigError", "Corpus", "DataError", "KpIndexError",
    "TfidfSimilarity", "build_index", "evaluate_corpus", "extract_pipeline",
    "load_corpus", "load_index", "normalize_phrase", "save_index", "search",
]
