"""tdlab: exact tree-depth laboratory for small graphs.

Bit-set graph values and family generators, feasible-labeling verification,
an exact certifying tree-depth solver with an independent brute-force
oracle, and minor-criticality / 1-uniqueness analysis, all behind a small
CLI with stable text formats.
"""

from .graphs import (
    Graph,
    HnLayout,
    MinorStep,
    apply_minor_step,
    cartesian_k2,
    complete,
    contract_edge,
    cycle,
    delete_edge,
    delete_vertex,
    hn,
    is_isomorphic,
    k_net,
    one_step_minor_steps,
    path,
    star_clique,
)
from .ranking import (
    Ranking,
    Violation,
    hn_minor_witness,
    verify_ranking,
    verify_ranking_by_paths,
    witness_hn,
    witness_kak2,
)
from .solver import (
    Bounds,
    BudgetExceededError,
    SolverConfig,
    SolverStats,
    TdCertificate,
    bounds,
    brute_force_td,
    derive,
    search_feasible_labeling,
    treedepth,
    treedepth_le,
)
from .formats import (
    FormatError,
    format_edge_list,
    format_graph6,
    format_graph_text,
    format_ranking,
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
    parse_ranking,
)

__version__ = "0.1.0"

# The report layer is imported on first use of one of its names, so that
# `import tdlab` does not pay for it (PEP 562).
_CRITICAL_NAMES = (
    "CriticalityReport",
    "FamilyRow",
    "UniquenessReport",
    "VertexUniqueness",
    "is_critical",
    "one_unique_direct",
    "one_unique_starclique",
    "reproduce",
    "uniqueness_report",
)


def __getattr__(name: str):
    if name in _CRITICAL_NAMES:
        from . import critical

        return getattr(critical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # graphs
    "Graph",
    "HnLayout",
    "MinorStep",
    "apply_minor_step",
    "cartesian_k2",
    "complete",
    "contract_edge",
    "cycle",
    "delete_edge",
    "delete_vertex",
    "hn",
    "is_isomorphic",
    "k_net",
    "one_step_minor_steps",
    "path",
    "star_clique",
    # ranking
    "Ranking",
    "Violation",
    "hn_minor_witness",
    "verify_ranking",
    "verify_ranking_by_paths",
    "witness_hn",
    "witness_kak2",
    # solver
    "Bounds",
    "BudgetExceededError",
    "SolverConfig",
    "SolverStats",
    "TdCertificate",
    "bounds",
    "brute_force_td",
    "derive",
    "search_feasible_labeling",
    "treedepth",
    "treedepth_le",
    # formats
    "FormatError",
    "format_edge_list",
    "format_graph6",
    "format_graph_text",
    "format_ranking",
    "parse_edge_list",
    "parse_graph6",
    "parse_graph_text",
    "parse_ranking",
    # critical
    *_CRITICAL_NAMES,
]
