"""quorumtune — tunable quorum consistency, end to end.

Exact consistency-level math for (r, w, n) quorum replication, an inverse
solver from a desired level to quorum parameters, online clustering that
learns application-indicator/level mappings, a tiny expression language for
declaring indicators, a Monte-Carlo replica simulator, and an RMSE sweep
harness with a CLI.
"""

from .clustering import (
    REL_ERR_FLOOR,
    Cluster,
    IncrementalClusterer,
    Sample,
    SequentialClusterer,
)
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    IndicatorError,
    ParseError,
    SolveError,
    UnlearnedError,
)
from .indicator import (
    BinOp,
    Bindings,
    Call,
    Expr,
    MAX_DEPTH,
    IndicatorProgram,
    Neg,
    Num,
    Var,
    evaluate,
    free_variables,
    parse,
    unparse,
)
from .quorum import (
    ConsistencyLevel,
    QuorumConfig,
    ReadWriteBias,
    SolveMode,
    SolveOptions,
    consistency_level,
    enumerate_levels,
    solve_quorum,
    staleness_probability,
)
from .simulate import (
    PHI_FLOOR,
    LoopConfig,
    LoopTraceEntry,
    SimConfig,
    empirical_staleness,
    run_adaptation_loop,
    trace_to_csv,
)
from .sweeps import (
    IncrementalRow,
    RelationFamily,
    RelationSpec,
    RmseReport,
    SequentialRow,
    chi_range,
    evaluate_incremental,
    evaluate_sequential,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "ConfigError",
    "SolveError",
    "UnlearnedError",
    "IndicatorError",
    "ParseError",
    "EvaluationError",
    # quorum math
    "QuorumConfig",
    "ConsistencyLevel",
    "SolveMode",
    "ReadWriteBias",
    "SolveOptions",
    "staleness_probability",
    "consistency_level",
    "enumerate_levels",
    "solve_quorum",
    # clustering
    "Sample",
    "Cluster",
    "SequentialClusterer",
    "IncrementalClusterer",
    "REL_ERR_FLOOR",
    # indicator language
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "IndicatorProgram",
    "Bindings",
    "MAX_DEPTH",
    "parse",
    "evaluate",
    "unparse",
    "free_variables",
    # simulation / loop
    "PHI_FLOOR",
    "SimConfig",
    "LoopConfig",
    "LoopTraceEntry",
    "empirical_staleness",
    "run_adaptation_loop",
    "trace_to_csv",
    # sweeps
    "RelationFamily",
    "RelationSpec",
    "SequentialRow",
    "IncrementalRow",
    "RmseReport",
    "chi_range",
    "evaluate_sequential",
    "evaluate_incremental",
]
