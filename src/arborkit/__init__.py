"""Exact arboricity, forest decompositions, and edge-domination toolkit.

Everything is exact: densities are fractions, searches are exhaustive
behind explicit desk-scale gates, and every positive answer carries a
certificate that re-checks from the definitions.
"""

from .arboricity import (
    ArboricityResult,
    FracArbResult,
    PartitionResult,
    arboricity,
    fractional_arboricity,
    fractional_arboricity_at_most,
    partition_into_forests,
)
from .decompose import (
    Decomposition,
    decompose_forests_bounded,
    decompose_forests_matching,
    maximal_matchings,
    remainder_witness,
    verify_decomposition,
)
from .domination import DominationResult, dominates, edge_domination, two_path_domination
from .experiment import CellResult, ExperimentConfig, emit_report, run_experiment
from .generate import GenerationError, GenSpec, SplitMix64, derive_seed, generate
from .graphs import (
    Graph,
    GraphFormatError,
    GraphStats,
    graph_stats,
    line_graph,
    parse_graph,
    serialize_graph,
)
from .limits import ENV_MAX_EDGES, DeskScaleExceeded
from .matroid import (
    cycle_rank,
    matroid_partition,
    union_rank,
    union_rank_table,
)
from .prooftrace import FlatRecord, ProofTraceReport, run_prooftrace
from .rationals import INFINITE, Infinite, ceil_value, format_value, is_infinite, parse_fraction

__version__ = "0.1.0"
