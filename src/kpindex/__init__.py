"""Keyphrase indexing for scientific abstracts.

Ranks a document's own (present) keyphrases on a co-occurrence graph
enriched with evidence from semantically similar documents, borrows
(absent) keyphrases from those neighbors through a two-layer multigraph,
and serves both through a searchable inverted index plus an evaluation
harness.
"""

from .config import Config, load_config
from .corpus import (Candidate, Corpus, Document, SENTENCE_BREAK,
                     default_stopwords, extract_candidates, load_corpus,
                     load_stopwords, tokenize)
from .errors import (ConfigError, CorpusError, DataError, EvaluationError,
                     IndexFileError, KpIndexError)
from .evaluation import (EvaluationReport, evaluate_corpus, f_at_k,
                         normalize_phrase, split_present_absent,
                         tfidf_baseline)
from .graph import (Layer, NodeInfo, Origin, SemMultiGraph, bridge_components,
                    build_document_graph, expand_graph, to_dot,
                    weakly_connected_components)
from .index import (InvertedIndex, build_index, load_index, save_index,
                    search)
from .porter import stem
from .ranking import (RankedKeyphrase, build_enriched_graph, extract_pipeline,
                      pagerank, rank_keyphrases)
from .similarity import (NeighborSet, TfidfSimilarity, compute_idf, cosine,
                         vectorize)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "Config", "ConfigError", "Corpus", "CorpusError",
    "DataError", "Document", "EvaluationError",
    "EvaluationReport", "IndexFileError", "InvertedIndex", "KpIndexError",
    "Layer", "NeighborSet", "NodeInfo", "Origin",
    "RankedKeyphrase", "SENTENCE_BREAK", "SemMultiGraph",
    "TfidfSimilarity", "bridge_components",
    "build_document_graph", "build_enriched_graph", "build_index",
    "compute_idf", "cosine", "default_stopwords",
    "evaluate_corpus", "expand_graph", "extract_candidates",
    "extract_pipeline", "f_at_k",
    "load_config", "load_corpus", "load_index", "load_stopwords",
    "normalize_phrase", "pagerank", "rank_keyphrases", "save_index",
    "search", "split_present_absent", "stem", "tfidf_baseline", "to_dot",
    "tokenize", "vectorize", "weakly_connected_components",
]
