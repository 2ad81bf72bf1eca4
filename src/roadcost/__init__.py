"""roadcost: learn time-varying travel-cost weights for every road-network edge
from a sparse set of (trip, total cost) pairs."""

from .config import RunConfig
from .errors import ConvergenceError, GenerationError, LoadError
from .evaluation import (
    EvalReport,
    alr,
    alr_curve,
    edge_coverage,
    grid_search,
    run_comparison,
    speed_limit_baseline,
    ssl,
    training_size_sweep,
)
from .graph import (
    CostVector,
    DualGraph,
    RoadGraph,
    TagSchedule,
    build_dual,
    peak_offpeak_schedule,
)
from .pagerank import (
    PageRankVector,
    TransitionMatrix,
    degree_stats,
    dual_weights,
    pagerank,
    pagerank_stats,
    transition_matrices,
)
from .solver import (
    ObjectiveTerms,
    annotated_mask,
    build_a,
    build_b,
    build_q,
    laplacian,
    objective_terms,
    solve_weights,
)
from .synth import SyntheticSpec, generate_synthetic
from .trips import (
    LinkRecord,
    Trip,
    TripSet,
    partition_by_tag,
    split_trips,
    tag_weight,
    trip_cost,
)

__version__ = "0.1.0"
