"""The paper's contribution: path q-grams, filter cascade, GSimJoin."""

from repro.core.estimate import JoinSizeEstimate, estimate_join_size
from repro.engine.count_filter import (
    common_qgram_count,
    count_lower_bound,
    passes_count_filter,
    passes_size_filter,
    size_lower_bound,
)
from repro.engine.inverted_index import InvertedIndex
from repro.core.join import GSimJoinOptions, gsim_join, gsim_join_rs
from repro.grams.labels import (
    connected_gram_components,
    gamma,
    global_label_lower_bound,
    local_label_lower_bound,
)
from repro.grams.minedit import min_edit_exact, min_edit_lower_bound, min_prefix_length
from repro.grams.mismatch import MismatchResult, compare_qgrams, mismatching_grams
from repro.engine.ordering import QGramOrdering, build_ordering
from repro.grams.vocab import QGramVocabulary, build_vocabulary
from repro.core.parallel import gsim_join_parallel
from repro.engine.prefix import PrefixInfo, basic_prefix, minedit_prefix
from repro.grams.qgrams import QGram, QGramProfile, extract_qgrams, qgram_key
from repro.engine.result import (
    BoundedPair,
    JoinResult,
    JoinStatistics,
    StageStatistics,
)
from repro.core.search import GSimIndex
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.engine.verify import VerifyOutcome, verify_pair

__all__ = [
    "gsim_join",
    "gsim_join_rs",
    "gsim_join_parallel",
    "gsim_join_sharded",
    "result_fingerprint",
    "GSimIndex",
    "GSimJoinOptions",
    "BoundedPair",
    "JoinResult",
    "JoinStatistics",
    "StageStatistics",
    "QGram",
    "QGramProfile",
    "extract_qgrams",
    "qgram_key",
    "common_qgram_count",
    "count_lower_bound",
    "passes_count_filter",
    "size_lower_bound",
    "passes_size_filter",
    "QGramOrdering",
    "build_ordering",
    "QGramVocabulary",
    "build_vocabulary",
    "PrefixInfo",
    "basic_prefix",
    "minedit_prefix",
    "min_edit_exact",
    "min_edit_lower_bound",
    "min_prefix_length",
    "MismatchResult",
    "compare_qgrams",
    "mismatching_grams",
    "gamma",
    "global_label_lower_bound",
    "local_label_lower_bound",
    "connected_gram_components",
    "InvertedIndex",
    "VerifyOutcome",
    "verify_pair",
    "estimate_join_size",
    "JoinSizeEstimate",
]
