"""Exact combinatorics of 132-avoiding permutations and unique longest
increasing subsequences: the rank-sequence bijection, the injections built
on it, exact censuses proving the one-half floor, and OEIS cross-checks."""

from .census import (
    CensusRow,
    DP_CAP,
    census_enumerative,
    census_rows_dp,
    ulis_count_all,
)
from .errors import ConstructionError, InputError, SequenceValidationError
from .oeis import BFileEntry, FetchFallbackWarning, fetch_bfile, fixture_text, parse_bfile
from .permutations import (
    ALL_PERMUTATION_CAP,
    AVOIDER_CAP,
    PATTERN_132,
    PatternVerdict,
    Permutation,
    contains_pattern,
    enumerate_avoiders,
    has_ulis,
    lis_stats,
    start_ranks,
)
from .ranks import (
    SEQUENCE_CAP,
    RankSequence,
    catalan,
    enumerate_rank_sequences,
    invert,
    rank_sequence,
)
from .ulis import uniquify_lis, uniquify_max
from .verify import SUITE_NAMES, RunReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ALL_PERMUTATION_CAP",
    "AVOIDER_CAP",
    "BFileEntry",
    "CensusRow",
    "ConstructionError",
    "DP_CAP",
    "FetchFallbackWarning",
    "InputError",
    "PATTERN_132",
    "PatternVerdict",
    "Permutation",
    "RankSequence",
    "RunReport",
    "SEQUENCE_CAP",
    "SUITE_NAMES",
    "SequenceValidationError",
    "catalan",
    "census_enumerative",
    "census_rows_dp",
    "contains_pattern",
    "enumerate_avoiders",
    "enumerate_rank_sequences",
    "fetch_bfile",
    "fixture_text",
    "has_ulis",
    "invert",
    "lis_stats",
    "parse_bfile",
    "rank_sequence",
    "run_suite",
    "start_ranks",
    "ulis_count_all",
    "uniquify_lis",
    "uniquify_max",
]
