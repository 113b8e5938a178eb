"""Monte-Carlo replica simulation and the closed adaptation loop.

:func:`empirical_staleness` estimates the staleness probability by counting
simulated reads.  A read is stale when its ``r`` replicas miss the ``w``
that took the last write, which a strong pair (``r + w > n``) never does, so
it returns 0.0 without drawing.  Replicas are exchangeable, so a trial draws
only how many replicas the two quorums share.  That overlap has the same
hypergeometric law whichever quorum is the sample, so the smaller one is:
``min(r, w)`` drawn from ``max(r, w)`` good and ``n - max(r, w)`` bad
replicas, stale at 0, and (r, w) and (w, r) give the same estimate at the
same seed.  The smaller quorum is read ``step`` replicas at a time, and a
trial leaves at the first step that meets the larger quorum; by the chain
rule the stale count has the same law for any step.  Where
``2 * max(r, w) >= n`` or ``min(r, w) < 10`` (the *stepped region*), the
step is 1: the one replica read is uniform over the unread ones, so it is
an exact bounded integer draw, in the larger quorum when below
``max(r, w)``.  A trial takes at most ``min(r, w)`` steps, and where
``2 * max(r, w) >= n`` each replica meets the larger quorum with
probability at least 1/2, so a trial takes at most 2 steps in expectation
and a chunk about log2(``_CHUNK``) + O(1) numpy calls.  Elsewhere
(``min(r, w) >= 10`` and ``2 * max(r, w) < n``) one hypergeometric step
reads the whole quorum, which numpy serves by its ratio-of-uniforms method
(HRUA).  Below a sample of 10 numpy would walk an urn, one scalar draw per
replica, so the vectorised steps, which make no more draws, cost less.
The draws share no code with the integer ratio in
:mod:`quorumtune.quorum`.  Cost: O(trials) time and O(``_CHUNK``) memory,
independent of ``n``.

:func:`run_adaptation_loop` wires the whole toolkit together: monitor an
application's (chi, phi) samples, learn the mapping with a clusterer, then
for each requested indicator value look up a level, solve it to a quorum
configuration, and report the indicator value actually achieved.

All randomness comes from numpy's PCG64 generator seeded explicitly, so
every run is reproducible bit for bit on a given numpy version.  The
simulator's stream layout is part of that contract.  Outside the stepped
region each chunk of ``_CHUNK`` trials is one
``Generator.hypergeometric(max(r, w), n - max(r, w), min(r, w))`` call.
Inside it, each chunk takes step ``j`` as one ``Generator.integers(n - j)``
call over its trials still reading, until none is left or ``min(r, w)``
replicas are read.  The generator's state carries from one call to the
next, so outside the stepped region the chunk size changes no estimate;
inside it, it is part of the layout.  numpy may change how its samplers,
``integers`` included, consume the stream between feature releases (NEP
19), so pinned estimates hold for the numpy version in use.

Every generator, the sweeps' included, comes from :func:`_generator`.  It
and the simulator import numpy when called, not at module level, so the
package and the CLI commands that draw nothing start without paying for
its import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .clustering import Sample, _OnlineClusterer, _csv
from .errors import ConfigError, as_finite, check_count, check_seed, check_type, shown
from .indicator import IndicatorProgram, evaluate
from .quorum import (
    DEFAULT_SOLVE_OPTIONS,
    QuorumConfig,
    SolveOptions,
    consistency_level,
    solve_quorum,
)

if TYPE_CHECKING:
    import numpy as np

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

# Trials are simulated in fixed-size batches, which bounds the simulator's
# memory.  Consecutive draws continue one stream, so where one step reads
# the whole quorum (min(r, w) >= 10 and 2 * max(r, w) < n) the batch size
# changes no seeded result; in the stepped region it does.
_CHUNK = 1 << 16

# Monitored levels are drawn and learned this many at a time, which bounds
# the monitoring stage's memory.  Consecutive PCG64 ``random`` draws continue
# one stream, so the chunk size does not change any seeded result.
_LEVELS_PER_DRAW = 4096


def _generator(*entropy: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded from ``entropy``: the simulator and the
    loop pass their seed, and each sweep point ``(seed, index)``.  A single
    seed draws the same stream as ``PCG64(seed)``."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SimConfig:
    """A Monte-Carlo staleness experiment: ``trials`` reads against the
    ``config.n`` replicas of one item, drawn from the generator ``seed``."""

    config: QuorumConfig
    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_type(self.config, QuorumConfig, "config")
        # numpy's hypergeometric sampler, drawn only outside the stepped
        # region, takes fewer than 10**9 items a side; one bound holds for
        # every pair.
        if self.config.n >= 10**9:
            raise ConfigError(f"n must be < 10**9 to simulate, got n={shown(self.config.n)}")
        check_count(self.trials, "trials")
        check_seed(self.seed)


def empirical_staleness(sim: SimConfig) -> float:
    """Fraction of trials in which the read quorum misses the write quorum.

    Deterministic given ``sim.seed`` (and ``sim.trials``).
    """
    cfg = sim.config
    if cfg.is_strong:
        return 0.0
    import numpy as np

    small, large = sorted((cfg.r, cfg.w))
    bad = cfg.n - large
    # Below a sample of 10 numpy's hypergeometric sampler walks an urn, one
    # scalar draw per replica; the vectorised steps make no more draws.
    stepped = large >= bad or small < 10
    step = 1 if stepped else small
    rng = _generator(sim.seed)
    stale = 0
    remaining = sim.trials
    while remaining > 0:
        rows = alive = min(remaining, _CHUNK)
        # Read the smaller quorum `step` replicas at a time.  A trial leaves
        # once it has met the larger quorum; before step j it has read j of
        # the others, so its next replicas are drawn from `large` good and
        # `bad - j` bad ones (a weak pair has bad >= small > j).  The trials
        # left after `small` replicas are stale.
        for j in range(0, small, step):
            if alive == 0:
                break
            if stepped:
                # The one replica read is uniform over the n - j unread ones,
                # and the larger quorum holds `large` of them.
                met = np.count_nonzero(rng.integers(cfg.n - j, size=alive) < large)
            else:
                met = np.count_nonzero(rng.hypergeometric(large, bad, small, size=alive))
            alive -= int(met)
        stale += alive
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
    clusterer: _OnlineClusterer
    bootstrap_samples: int
    targets: Sequence[float]
    seed: int
    n: int
    constants: Mapping[str, float] = field(default_factory=dict)
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS

    def __post_init__(self) -> None:
        check_type(self.relation, IndicatorProgram, "relation")
        if not isinstance(self.clusterer, _OnlineClusterer):
            raise ConfigError(f"unsupported clusterer {shown(self.clusterer)}")
        check_count(self.bootstrap_samples, "bootstrap_samples")
        self.clusterer._check_bootstrap(self.bootstrap_samples)
        check_count(self.n, "n")
        check_seed(self.seed)
        object.__setattr__(self, "targets", tuple(as_finite(t, "target") for t in self.targets))
        object.__setattr__(self, "constants", dict(self.constants))
        check_type(self.options, SolveOptions, "options")


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
    clusterer: _OnlineClusterer,
    rng: np.random.Generator,
    count: int,
) -> None:
    """Observe (chi, phi) at ``count`` uniformly random levels on
    (PHI_FLOOR, 1] and feed each pair to ``clusterer``.

    ``bindings`` holds the relation's constants; its ``phi`` entry is
    reassigned per draw.  The sweeps train their clusterers here too.
    Memory stays O(``_LEVELS_PER_DRAW``) whatever ``count`` is.
    """
    for start in range(0, count, _LEVELS_PER_DRAW):
        rows = min(count - start, _LEVELS_PER_DRAW)
        for phi in (1.0 - rng.random(rows) * (1.0 - PHI_FLOOR)).tolist():
            bindings["phi"] = phi
            clusterer.learn(Sample(evaluate(relation, bindings), phi))


def run_adaptation_loop(loop: LoopConfig) -> list[LoopTraceEntry]:
    """Run monitor -> learn -> request -> tune -> calc; returns the trace.

    The loop's clusterer is trained in place.  Deterministic given
    ``loop.seed``.
    """
    rng = _generator(loop.seed)
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
    return _csv(LoopTraceEntry, entries)
