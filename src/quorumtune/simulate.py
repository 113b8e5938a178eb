"""Monte-Carlo replica simulation and the closed adaptation loop.

:func:`empirical_staleness` estimates the staleness probability by counting
simulated reads.  A read is stale when its ``r`` replicas miss the ``w``
that took the last write.  Replicas are exchangeable, so the write quorum is
held fixed and only the read is drawn: the number of read replicas holding
the write is hypergeometric (``r`` drawn from ``w`` good and ``n - w`` bad),
and the read is stale when it is 0.  numpy's urn or HRUA sampler draws it
and shares no code with the integer ratio in :mod:`quorumtune.quorum`.
Cost: O(trials) time and O(``_CHUNK``) memory, independent of ``n``.

:func:`run_adaptation_loop` wires the whole toolkit together: monitor an
application's (chi, phi) samples, learn the mapping with a clusterer, then
for each requested indicator value look up a level, solve it to a quorum
configuration, and report the indicator value actually achieved.

All randomness comes from numpy's PCG64 generator seeded explicitly, so
every run is reproducible bit for bit on a given numpy version.  The
simulator's stream layout is part of that contract: trials are taken in
chunks of ``_CHUNK`` and each chunk is one ``Generator.hypergeometric(w,
n - w, r, size=rows)`` call, in chunk order.  numpy may change how its
samplers consume the stream between feature releases (NEP 19), so pinned
estimates hold for the numpy version in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .clustering import IncrementalClusterer, Sample, SequentialClusterer
from .errors import ConfigError, as_real, check_count, check_seed
from .indicator import IndicatorProgram, evaluate
from .quorum import (
    DEFAULT_SOLVE_OPTIONS,
    QuorumConfig,
    SolveOptions,
    consistency_level,
    solve_quorum,
)

__all__ = [
    "PHI_FLOOR",
    "SimConfig",
    "LoopConfig",
    "LoopTraceEntry",
    "empirical_staleness",
    "run_adaptation_loop",
    "trace_to_csv",
]

# Consistency levels are sampled on (PHI_FLOOR, 1] rather than (0, 1] so that
# logarithmic indicator relations stay inside their domain.
PHI_FLOOR = 1e-6

# Trials are simulated in fixed-size batches; the constant is part of the
# reproducibility contract (it determines how the random stream is consumed)
# and bounds the simulator's memory.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """A Monte-Carlo staleness experiment: ``trials`` reads against the
    ``config.n`` replicas of one item, drawn from the generator ``seed``."""

    config: QuorumConfig
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.config, QuorumConfig):
            raise ConfigError(f"config must be a QuorumConfig, got {self.config!r}")
        # numpy's hypergeometric sampler takes fewer than 10**9 items a side.
        if self.config.n >= 10**9:
            raise ConfigError(f"n must be < 10**9 to simulate, got n={self.config.n}")
        check_count(self.trials, "trials")
        check_seed(self.seed)


def empirical_staleness(sim: SimConfig) -> float:
    """Fraction of trials in which the read quorum misses the write quorum.

    Deterministic given ``sim.seed`` (and ``sim.trials``).
    """
    cfg = sim.config
    rng = np.random.Generator(np.random.PCG64(sim.seed))
    stale = 0
    remaining = sim.trials
    while remaining > 0:
        rows = min(remaining, _CHUNK)
        # Per trial, how many of the r read replicas hold the last write.
        overlap = rng.hypergeometric(cfg.w, cfg.n - cfg.w, cfg.r, size=rows)
        stale += rows - int(np.count_nonzero(overlap))
        del overlap  # so that one chunk is alive at a time
        remaining -= rows
    return stale / sim.trials


@dataclass(frozen=True)
class LoopConfig:
    """One closed adaptation-loop experiment.

    ``relation`` (with ``constants``) defines how the application's
    indicator chi is computed from phi.  The clusterer is trained in place
    on ``bootstrap_samples`` monitored pairs, then each target indicator
    value in ``targets`` is driven through lookup -> solve -> achieved-level
    evaluation against ``n`` replicas.
    """

    relation: IndicatorProgram
    clusterer: Union[SequentialClusterer, IncrementalClusterer]
    bootstrap_samples: int
    targets: Sequence[float]
    seed: int
    n: int
    constants: Mapping[str, float] = field(default_factory=dict)
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS

    def __post_init__(self) -> None:
        if not isinstance(self.relation, IndicatorProgram):
            raise ConfigError(f"relation must be an IndicatorProgram, got {self.relation!r}")
        if not isinstance(self.clusterer, (SequentialClusterer, IncrementalClusterer)):
            raise ConfigError(f"unsupported clusterer {self.clusterer!r}")
        check_count(self.bootstrap_samples, "bootstrap_samples")
        if isinstance(self.clusterer, SequentialClusterer):
            if self.bootstrap_samples < self.clusterer.capacity:
                raise ConfigError(
                    f"bootstrap_samples={self.bootstrap_samples} is below the sequential "
                    f"capacity {self.clusterer.capacity}; the clusterer would never leave "
                    "its seeding phase"
                )
        check_count(self.n, "n")
        check_seed(self.seed)
        object.__setattr__(self, "targets", tuple(as_real(t, "target") for t in self.targets))
        object.__setattr__(self, "constants", dict(self.constants))


@dataclass(frozen=True)
class LoopTraceEntry:
    """One loop round trip.

    ``phi_chosen`` is the raw looked-up level; ``r``/``w`` solve it to a
    quorum pair whose exact achievable level (recomputable from the pair)
    is what ``chi_achieved`` is evaluated at.
    """

    chi_target: float
    phi_chosen: float
    r: int
    w: int
    chi_achieved: float


def _monitor(
    relation: IndicatorProgram,
    bindings: dict[str, float],
    clusterer: Union[SequentialClusterer, IncrementalClusterer],
    rng: np.random.Generator,
    count: int,
) -> None:
    """Observe (chi, phi) at ``count`` uniformly random levels on
    (PHI_FLOOR, 1] and feed each pair to ``clusterer``.

    ``bindings`` holds the relation's constants; its ``phi`` entry is
    reassigned per draw.  The sweeps train their clusterers here too.
    """
    phis = 1.0 - rng.random(count) * (1.0 - PHI_FLOOR)
    for phi in phis.tolist():
        bindings["phi"] = phi
        clusterer.learn(Sample(evaluate(relation, bindings), phi))


def run_adaptation_loop(loop: LoopConfig) -> list[LoopTraceEntry]:
    """Run monitor -> learn -> request -> tune -> calc; returns the trace.

    The loop's clusterer is trained in place.  Deterministic given
    ``loop.seed``.
    """
    rng = np.random.Generator(np.random.PCG64(loop.seed))
    bindings = dict(loop.constants)
    _monitor(loop.relation, bindings, loop.clusterer, rng, loop.bootstrap_samples)

    entries: list[LoopTraceEntry] = []
    for chi_target in loop.targets:
        level = loop.clusterer.lookup(chi_target)
        cfg = solve_quorum(level.phi, loop.n, loop.options)
        achieved = consistency_level(cfg).phi
        bindings["phi"] = achieved
        entries.append(
            LoopTraceEntry(
                chi_target=chi_target,
                phi_chosen=level.phi,
                r=cfg.r,
                w=cfg.w,
                chi_achieved=evaluate(loop.relation, bindings),
            )
        )
    return entries


def trace_to_csv(entries: Sequence[LoopTraceEntry]) -> str:
    """Serialize a loop trace as CSV."""
    lines = ["chi_target,phi_chosen,r,w,chi_achieved"]
    for e in entries:
        lines.append(f"{e.chi_target!r},{e.phi_chosen!r},{e.r},{e.w},{e.chi_achieved!r}")
    return "\n".join(lines) + "\n"
