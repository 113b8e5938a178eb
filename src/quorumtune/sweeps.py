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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

# Sample is unused here but stays bound: perfbench/tracing.py wraps sweeps.Sample.
from .clustering import IncrementalClusterer, Sample, SequentialClusterer  # noqa: F401
from .errors import ConfigError, as_real, check_count, check_seed
from .indicator import IndicatorProgram, evaluate, parse
from .simulate import PHI_FLOOR, _monitor

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


_FAMILY_SOURCE: dict[RelationFamily, str] = {
    RelationFamily.LINEAR: "A*phi + C",
    RelationFamily.QUADRATIC: "A*phi^2 + B*phi + C",
    RelationFamily.CUBIC: "A*phi^3 + B*phi^2 + C*phi + D",
    RelationFamily.LOGARITHMIC: "A*log10(phi) + C",
}

_PROGRAMS: dict[RelationFamily, IndicatorProgram] = {
    family: parse(source) for family, source in _FAMILY_SOURCE.items()
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
        if not isinstance(self.family, RelationFamily):
            raise ConfigError(f"family must be a RelationFamily, got {self.family!r}")
        for name in ("a", "b", "c", "d"):
            value = as_real(getattr(self, name), f"constant {name.upper()}")
            if not math.isfinite(value):
                raise ConfigError(f"constant {name.upper()} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def source(self) -> str:
        return _FAMILY_SOURCE[self.family]

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


def chi_range(relation: RelationSpec, lo: float = PHI_FLOOR, hi: float = 1.0) -> tuple[float, float]:
    """The (min, max) of the relation over phi in [lo, hi].

    The families are closed forms, so extrema sit at interval endpoints or
    at the stationary points of the derivative: the vertex ``-B/(2A)`` for
    the quadratic, the roots of ``3A*phi^2 + 2B*phi + C`` for the cubic.
    Linear and logarithmic relations are monotone.
    """
    candidates = [lo, hi]
    if relation.family is RelationFamily.QUADRATIC and relation.a != 0.0:
        vertex = -relation.b / (2.0 * relation.a)
        if lo < vertex < hi:
            candidates.append(vertex)
    if relation.family is RelationFamily.CUBIC:
        a, b, c = 3.0 * relation.a, 2.0 * relation.b, relation.c
        if a != 0.0:
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                for sign in (-1.0, 1.0):
                    root = (-b + sign * math.sqrt(disc)) / (2.0 * a)
                    if lo < root < hi:
                        candidates.append(root)
        elif b != 0.0:
            root = -c / b
            if lo < root < hi:
                candidates.append(root)
    values = [relation.chi(x) for x in candidates]
    return min(values), max(values)


@dataclass(frozen=True)
class SequentialRow:
    clusters: int
    rmse: float


@dataclass(frozen=True)
class IncrementalRow:
    threshold: float
    clusters: int
    rmse: float


@dataclass(frozen=True)
class RmseReport:
    """Sweep results plus the provenance needed to reproduce them."""

    relation: RelationSpec
    algorithm: str  # "seq" or "incr"
    seed: int
    bootstrap: int
    tests: int
    rows: Union[tuple[SequentialRow, ...], tuple[IncrementalRow, ...]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.rmse < 0.0:
                raise ConfigError(f"rmse must be >= 0, got {row!r}")
            if row.clusters < 1:
                raise ConfigError(f"cluster count must be >= 1, got {row!r}")

    def to_csv(self) -> str:
        spec = self.relation
        header = (
            f"# family={spec.family.value} algo={self.algorithm} seed={self.seed}"
            f" bootstrap={self.bootstrap} tests={self.tests}"
            f" A={spec.a!r} B={spec.b!r} C={spec.c!r} D={spec.d!r}"
        )
        lines = [header]
        if self.algorithm == "seq":
            lines.append("clusters,rmse")
            for row in self.rows:
                lines.append(f"{row.clusters},{row.rmse!r}")
        else:
            lines.append("threshold,clusters,rmse")
            for row in self.rows:
                lines.append(f"{row.threshold!r},{row.clusters},{row.rmse!r}")
        return "\n".join(lines) + "\n"


def _sweep_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def _check_seed_and_sizes(bootstrap: int, tests: int, seed: int) -> None:
    check_count(bootstrap, "bootstrap")
    check_count(tests, "tests")
    check_seed(seed)


def _run_point(
    relation: RelationSpec,
    clusterer: Union[SequentialClusterer, IncrementalClusterer],
    rng: np.random.Generator,
    bootstrap: int,
    tests: int,
) -> float:
    # The bindings of relation.chi, built once; only phi changes.
    program, bindings = relation.program, relation.constants
    _monitor(program, bindings, clusterer, rng, bootstrap)
    lo, hi = chi_range(relation)
    targets = lo + rng.random(tests) * (hi - lo)
    squares = 0.0
    for target in targets.tolist():
        bindings["phi"] = clusterer.lookup(target).phi
        squares += (target - evaluate(program, bindings)) ** 2
    return math.sqrt(squares / tests)


def _sweep(
    relation: RelationSpec,
    clusterers: Sequence[Union[SequentialClusterer, IncrementalClusterer]],
    bootstrap: int,
    tests: int,
    seed: int,
) -> list[float]:
    """The RMSE of each point of a sorted sweep; point ``i`` draws from
    its own generator derived from ``(seed, i)``."""
    return [
        _run_point(relation, clusterer, _sweep_rng(seed, index), bootstrap, tests)
        for index, clusterer in enumerate(clusterers)
    ]


def evaluate_sequential(
    relation: RelationSpec,
    cluster_counts: Sequence[int],
    bootstrap: int = 1000,
    tests: int = 100,
    seed: int = 0,
) -> RmseReport:
    """RMSE as a function of sequential cluster capacity.

    ``cluster_counts`` is sorted ascending before the sweep; each point gets
    its own generator derived from ``(seed, point index)``.
    """
    _check_seed_and_sizes(bootstrap, tests, seed)
    clusterers = sorted(map(SequentialClusterer, cluster_counts), key=lambda c: c.capacity)
    if not clusterers:
        raise ConfigError("cluster_counts must be non-empty")
    if clusterers[-1].capacity > bootstrap:
        raise ConfigError(
            f"cluster count {clusterers[-1].capacity} exceeds the bootstrap size {bootstrap}"
        )
    rmses = _sweep(relation, clusterers, bootstrap, tests, seed)
    rows = tuple(
        SequentialRow(clusters=clusterer.capacity, rmse=rmse)
        for clusterer, rmse in zip(clusterers, rmses)
    )
    return RmseReport(
        relation=relation,
        algorithm="seq",
        seed=seed,
        bootstrap=bootstrap,
        tests=tests,
        rows=rows,
    )


def evaluate_incremental(
    relation: RelationSpec,
    thresholds: Sequence[float],
    bootstrap: int = 1000,
    tests: int = 100,
    seed: int = 0,
) -> RmseReport:
    """RMSE and cluster count as a function of the incremental threshold.

    ``thresholds`` is sorted ascending before the sweep; each point gets its
    own generator derived from ``(seed, point index)``.
    """
    _check_seed_and_sizes(bootstrap, tests, seed)
    clusterers = sorted(map(IncrementalClusterer, thresholds), key=lambda c: c.threshold)
    if not clusterers:
        raise ConfigError("thresholds must be non-empty")
    rmses = _sweep(relation, clusterers, bootstrap, tests, seed)
    rows = tuple(
        IncrementalRow(threshold=clusterer.threshold, clusters=len(clusterer), rmse=rmse)
        for clusterer, rmse in zip(clusterers, rmses)
    )
    return RmseReport(
        relation=relation,
        algorithm="incr",
        seed=seed,
        bootstrap=bootstrap,
        tests=tests,
        rows=rows,
    )
