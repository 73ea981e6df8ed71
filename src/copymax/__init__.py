"""copymax: which large host maximises copies of a small graph?

A quasi-star, a quasi-clique, or a strictly intermediate three-class host:
the answer depends on the edge density and on the pattern's fractional
independence structure.  This package computes the machinery exactly and
numerically, and cross-checks every closed form against brute-force counts
on explicit finite graphs.

numpy is imported inside the functions that vectorise (the q grid, the beta
grids, the pair-image table), never at module top, so the exact routes
(census, oracle counts, the Fraction simplex) start and run without it.
"""

from .graphs import (
    Graph,
    builtin_graph,
    canonical_form,
    clique_with_pendant_star,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_connected_graphs,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from .weightings import (
    WeightingSpectrum,
    fractional_independence_number,
    maximal_weighting,
    spectrum,
)
from .density import (
    CurveSample,
    DensityCurve,
    ProfilePoint,
    attribute_winner,
    best_t_density,
    clique_density,
    crossover_beta,
    crossover_bracket,
    curve_sample,
    density_curve,
    star_density,
    t_density,
    t_density_grid,
)
from .lp import (
    DualityMismatchError,
    DualityReport,
    duality_check,
    primal_optimum_formula,
)
from .hosts import (
    ConvergenceResult,
    CountBudgetExceeded,
    CountReport,
    automorphism_count,
    class_sizes,
    convergence_report,
    hom_count,
    hom_count_from_partitions,
    injective_count,
    injective_count_from_spectrum,
    three_class_graph,
)
from .classify import (
    QStarCurve,
    SweepRow,
    ThreeClassProbe,
    TypeClassification,
    classify_type,
    default_beta_grid,
    exhaustive_ex,
    q_star_curve,
    search_counterexamples,
    sweep_connected_graphs,
    sweep_to_csv,
    three_class_host_probe,
)

__version__ = "0.1.0"
