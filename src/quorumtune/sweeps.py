"""RMSE sweep harness over chi–phi relation families.

Four closed-form relation families describe how an application's indicator
chi depends on the consistency level phi: linear ``A*phi + C``, quadratic
``A*phi^2 + B*phi + C``, cubic ``A*phi^3 + B*phi^2 + C*phi + D`` and
logarithmic ``A*log10(phi) + C``.  For each point of a sweep the harness

1. draws ``bootstrap`` levels phi uniformly on (PHI_FLOOR, 1] and trains a
   fresh clusterer on the (chi, phi) pairs,
2. draws ``tests`` target indicator values uniformly over the achievable
   chi range of the relation on that interval,
3. looks each target up, re-evaluates the relation at the returned level,
   and reports the root-mean-square error between requested and achieved
   indicator values.

Sequential sweeps vary the cluster capacity; incremental sweeps vary the
admission threshold (also reporting the resulting cluster count).  Sweep
points are independent: point ``i`` of a sorted sweep uses a generator
seeded from ``(seed, i)``, so running points in any order — or one at a
time — reproduces the same numbers.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from .clustering import IncrementalClusterer, SequentialClusterer, _OnlineClusterer, _Row
# Sample is unused here but stays bound: perfbench/tracing.py wraps sweeps.Sample.
from .clustering import Sample  # noqa: F401
from .errors import (
    ConfigError, as_finite, check_count, check_seed, check_type, check_values, shown,
)
from .indicator import IndicatorProgram, _with_constants, evaluate, parse
from .simulate import PHI_FLOOR, _generator, _monitor

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RelationFamily",
    "RelationSpec",
    "SequentialRow",
    "IncrementalRow",
    "RmseReport",
    "chi_range",
    "evaluate_sequential",
    "evaluate_incremental",
]


class RelationFamily(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC = "cubic"
    LOGARITHMIC = "logarithmic"


_PROGRAMS: dict[RelationFamily, IndicatorProgram] = {
    RelationFamily.LINEAR: parse("A*phi + C"),
    RelationFamily.QUADRATIC: parse("A*phi^2 + B*phi + C"),
    RelationFamily.CUBIC: parse("A*phi^3 + B*phi^2 + C*phi + D"),
    RelationFamily.LOGARITHMIC: parse("A*log10(phi) + C"),
}


@dataclass(frozen=True)
class RelationSpec:
    """A relation family with concrete constants.

    The family determines which constants the expression reads: linear and
    logarithmic use A and C; quadratic uses A, B, C; cubic uses all four.
    """

    family: RelationFamily
    a: float = 1.0
    b: float = 1.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        check_type(self.family, RelationFamily, "family")
        for name in ("a", "b", "c", "d"):
            value = as_finite(getattr(self, name), f"constant {name.upper()}")
            object.__setattr__(self, name, value)

    @property
    def source(self) -> str:
        return self.program.source

    @property
    def program(self) -> IndicatorProgram:
        return _PROGRAMS[self.family]

    @property
    def constants(self) -> dict[str, float]:
        return {"A": self.a, "B": self.b, "C": self.c, "D": self.d}

    def chi(self, phi: float) -> float:
        """Evaluate the relation at one level."""
        bindings = self.constants
        bindings["phi"] = phi
        return evaluate(self.program, bindings)


def chi_range(relation: RelationSpec) -> tuple[float, float]:
    """The (min, max) of the relation over phi in [PHI_FLOOR, 1].

    The families are closed forms, so extrema sit at the interval's ends or
    at the roots of the derivative ``a*phi^2 + b*phi + c``, where ``(a, b,
    c)`` is ``(0, 2A, B)`` for the quadratic, ``(3A, 2B, C)`` for the cubic
    and all zeros for the monotone linear and logarithmic relations.  The
    roots are the two of the quadratic formula where ``a != 0`` and the
    discriminant is >= 0, or ``-c / b`` where only ``b != 0``.
    """
    family = relation.family
    if family is RelationFamily.QUADRATIC:
        a, b, c = 0.0, 2.0 * relation.a, relation.b
    elif family is RelationFamily.CUBIC:
        a, b, c = 3.0 * relation.a, 2.0 * relation.b, relation.c
    else:
        a = b = c = 0.0
    roots: list[float] = []
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            roots = [(-b + sign * math.sqrt(disc)) / (2.0 * a) for sign in (-1.0, 1.0)]
    elif b != 0.0:
        roots = [-c / b]
    candidates = [PHI_FLOOR, 1.0] + [root for root in roots if PHI_FLOOR < root < 1.0]
    values = [relation.chi(x) for x in candidates]
    return min(values), max(values)


@dataclass(frozen=True)
class SequentialRow(_Row):
    clusters: int
    rmse: float


@dataclass(frozen=True)
class IncrementalRow(_Row):
    threshold: float
    clusters: int
    rmse: float


# Each sweep algorithm's row type, whose fields are its CSV columns.
_ROW_TYPES = {"seq": SequentialRow, "incr": IncrementalRow}


@dataclass(frozen=True)
class RmseReport:
    """Sweep results plus the provenance needed to reproduce them."""

    relation: RelationSpec
    algorithm: str  # "seq" or "incr"
    seed: int
    bootstrap: int
    tests: int
    rows: tuple[SequentialRow | IncrementalRow, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or self.algorithm not in _ROW_TYPES:
            raise ConfigError(f"algorithm must be 'seq' or 'incr', got {shown(self.algorithm)}")
        kind = _ROW_TYPES[self.algorithm]
        check_values(self.rows, "rows")
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if not isinstance(row, kind):
                raise ConfigError(f"{self.algorithm} rows must be {kind.__name__}s, got {shown(row)}")
            # A row's own type checks leave only these ranges to check.
            if row.rmse < 0.0:
                raise ConfigError(f"rmse must be >= 0, got {shown(row)}")
            if kind is IncrementalRow and row.threshold <= 0.0:
                raise ConfigError(f"threshold must be finite and > 0, got {shown(row)}")
        check_type(self.relation, RelationSpec, "relation")
        check_seed(self.seed)
        check_count(self.bootstrap, "bootstrap")
        check_count(self.tests, "tests")

    def to_csv(self) -> str:
        spec = self.relation
        provenance = (
            f"# family={spec.family.value} algo={self.algorithm} seed={self.seed}"
            f" bootstrap={self.bootstrap} tests={self.tests}"
            f" A={spec.a!r} B={spec.b!r} C={spec.c!r} D={spec.d!r}"
        )
        return provenance + "\n" + _ROW_TYPES[self.algorithm]._csv(self.rows)


def _run_point(
    relation: RelationSpec,
    clusterer: _OnlineClusterer,
    rng: np.random.Generator,
    bootstrap: int,
    tests: int,
) -> float:
    # The bindings of relation.chi, built once, with the constants also
    # bound into the program; only phi changes.
    bindings = relation.constants
    program = _with_constants(relation.program, bindings)
    _monitor(program, bindings, clusterer, rng, bootstrap)
    lo, hi = chi_range(relation)
    targets = lo + rng.random(tests) * (hi - lo)
    squares = 0.0
    try:
        for target in targets.tolist():
            bindings["phi"] = clusterer.lookup(target).phi
            squares += (target - evaluate(program, bindings)) ** 2
    except OverflowError:  # a finite error too large to square
        squares = math.inf
    if squares == math.inf:
        raise ConfigError("squared errors overflow; the relation's constants are too large")
    return math.sqrt(squares / tests)


def _sweep(
    relation: RelationSpec,
    algorithm: str,
    name: str,
    values: Iterable[float],
    make: Callable[[float], _OnlineClusterer],
    key: Callable[[_OnlineClusterer], float],
    row: Callable[[_OnlineClusterer, float], SequentialRow | IncrementalRow],
    bootstrap: int,
    tests: int,
    seed: int,
) -> RmseReport:
    """The report of a sweep over the clusterers that ``make`` builds from
    the sweep ``values``, run in ascending ``key`` order; point ``i`` draws
    from a generator derived from ``(seed, i)`` and ``row`` makes its row.
    All checks come before any point runs: sizes and seed, the relation and
    the container of ``values`` (named ``name`` in its message), each value
    as it is built (before any comparison), emptiness, then seeding."""
    check_count(bootstrap, "bootstrap")
    check_count(tests, "tests")
    check_seed(seed)
    check_type(relation, RelationSpec, "relation")
    check_values(values, name)
    clusterers = sorted(map(make, values), key=key)
    if not clusterers:
        raise ConfigError("a sweep needs at least one cluster count or threshold")
    for clusterer in clusterers:
        clusterer._check_bootstrap(bootstrap)
    rows = tuple(
        row(clusterer, _run_point(relation, clusterer, _generator(seed, index), bootstrap, tests))
        for index, clusterer in enumerate(clusterers)
    )
    return RmseReport(relation, algorithm, seed, bootstrap, tests, rows)


def evaluate_sequential(
    relation: RelationSpec,
    cluster_counts: Iterable[int],
    bootstrap: int = 1000,
    tests: int = 100,
    seed: int = 0,
) -> RmseReport:
    """RMSE as a function of sequential cluster capacity.

    ``cluster_counts`` is sorted ascending before the sweep; each point gets
    its own generator derived from ``(seed, point index)``.
    """
    return _sweep(
        relation, "seq", "cluster_counts", cluster_counts,
        SequentialClusterer, attrgetter("capacity"),
        lambda clusterer, rmse: SequentialRow(clusterer.capacity, rmse),
        bootstrap, tests, seed,
    )


def evaluate_incremental(
    relation: RelationSpec,
    thresholds: Iterable[float],
    bootstrap: int = 1000,
    tests: int = 100,
    seed: int = 0,
) -> RmseReport:
    """RMSE and cluster count as a function of the incremental threshold.

    ``thresholds`` is sorted ascending before the sweep; each point gets its
    own generator derived from ``(seed, point index)``.
    """
    return _sweep(
        relation, "incr", "thresholds", thresholds,
        IncrementalClusterer, attrgetter("threshold"),
        lambda clusterer, rmse: IncrementalRow(clusterer.threshold, len(clusterer), rmse),
        bootstrap, tests, seed,
    )
