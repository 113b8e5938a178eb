"""Exact tunable-quorum consistency math.

A replicated item is held by ``n`` replicas; a write is acknowledged by ``w``
of them and a read collects answers from ``r``.  When ``r + w > n`` every
read quorum intersects every write quorum, so a read always observes the
latest write (strong consistency).  Otherwise the read may miss it entirely;
the probability of that miss — the *staleness probability* — has the closed
form ``C(n-w, r) / C(n, r)`` under uniformly random quorum membership.  The
*consistency level* is the complementary probability that a read returns the
most recent version.

Everything in this module is a pure function and keeps no cache.  The
inverse solver never enumerates the spectrum: the level rises strictly in
each quorum size on the weak region ``r + w <= n``, so it walks the
boundary where the level crosses the target, keeping at most two weak
candidates per row plus the one strong candidate ``(1, n)`` — O(n)
candidates in O(n) exact integer steps.  Candidates are compared with exact
integer arithmetic, so ties, symmetry and tie-breaking are fully
deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from math import comb, lcm
from typing import Iterator

from .errors import ConfigError, DomainError, SolveError, as_real, check_count, check_type, shown

__all__ = [
    "QuorumConfig",
    "ConsistencyLevel",
    "SolveMode",
    "ReadWriteBias",
    "SolveOptions",
    "staleness_probability",
    "consistency_level",
    "enumerate_levels",
    "iter_levels",
    "solve_quorum",
]


@dataclass(frozen=True)
class QuorumConfig:
    """A read/write quorum configuration over ``n`` replicas.

    Attributes:
        r: number of replicas that must answer a read (1 <= r <= n).
        w: number of replicas that must acknowledge a write (1 <= w <= n).
        n: total number of replicas of the data item.
    """

    r: int
    w: int
    n: int

    def __post_init__(self) -> None:
        check_count(self.n, "n")
        check_count(self.r, "r")
        check_count(self.w, "w")
        if self.r > self.n or self.w > self.n:
            name, size = ("r", self.r) if self.r > self.n else ("w", self.w)
            got = f"got {name}={shown(size)}, n={shown(self.n)}"
            raise ConfigError(f"{name} must satisfy 1 <= {name} <= n, {got}")

    @property
    def is_strong(self) -> bool:
        """True when read and write quorums are guaranteed to intersect."""
        return self.r + self.w > self.n


@dataclass(frozen=True)
class ConsistencyLevel:
    """The probability that a read returns the most recent version."""

    phi: float

    def __post_init__(self) -> None:
        phi = as_real(self.phi, "consistency level")
        if not 0.0 <= phi <= 1.0:
            raise DomainError(f"consistency level must lie in [0, 1], got {phi!r}")
        object.__setattr__(self, "phi", phi)


class SolveMode(Enum):
    """Search space used by :func:`solve_quorum`.

    ``FAITHFUL`` restricts the search to pairs with ``r + w <= n`` (the
    traditional loop ``i in [1, n)``, ``j in [i, n-i]``), which can never
    return a strong-consistency configuration.  ``EXTENDED`` (the default)
    searches every pair ``1 <= r <= w <= n``.
    """

    FAITHFUL = "faithful"
    EXTENDED = "extended"


class ReadWriteBias(Enum):
    """How the solved (small, large) quorum pair is oriented onto (r, w).

    Reads and writes contribute the same consistency level either way; the
    bias only decides which operation gets the smaller (cheaper, lower
    latency) quorum.  ``READS_DOMINATE`` assigns the smaller value to ``r``,
    ``WRITES_DOMINATE`` to ``w``, and ``BALANCED`` keeps the canonical
    ``r <= w`` orientation.
    """

    READS_DOMINATE = "reads_dominate"
    WRITES_DOMINATE = "writes_dominate"
    BALANCED = "balanced"


@dataclass(frozen=True)
class SolveOptions:
    """Options for :func:`solve_quorum`; defaults are extended + balanced."""

    mode: SolveMode = SolveMode.EXTENDED
    read_write_bias: ReadWriteBias = ReadWriteBias.BALANCED

    def __post_init__(self) -> None:
        check_type(self.mode, SolveMode, "mode")
        check_type(self.read_write_bias, ReadWriteBias, "read_write_bias")


DEFAULT_SOLVE_OPTIONS = SolveOptions()


def _staleness_ratio(r: int, w: int, n: int) -> tuple[int, int]:
    """C(n-w, r) / C(n, r) as an unreduced integer ratio ``(num, den)``.

    Exact integer binomials keep the result exact for any n (no factorial
    overflow).  When ``r + w > n`` the read quorum cannot avoid the write
    quorum, and ``C(n-w, r)`` is 0.  Callers divide the ratio once, so each
    float is correctly rounded and swapping r and w (an identical rational)
    yields a bit-identical result.
    """
    return comb(n - w, r), comb(n, r)


def staleness_probability(config: QuorumConfig) -> float:
    """Probability that a read quorum misses the most recent write.

    >>> staleness_probability(QuorumConfig(r=2, w=3, n=5))
    0.1
    """
    num, den = _staleness_ratio(config.r, config.w, config.n)
    return num / den


def consistency_level(config: QuorumConfig) -> ConsistencyLevel:
    """Probability that a read returns the most recent version.

    Exactly 1 when ``r + w > n``; otherwise the complement of
    :func:`staleness_probability`, rounded once from the exact rational.

    >>> consistency_level(QuorumConfig(r=2, w=3, n=5)).phi
    0.9
    """
    num, den = _staleness_ratio(config.r, config.w, config.n)
    return ConsistencyLevel((den - num) / den)


def _level_row(i: int, n: int, key: int) -> Iterator[tuple[int, int, int, int]]:
    """Row ``r = i`` of the spectrum as ``(key, i + j, i, j)``, from the
    row's first key, that of ``j = i``.

    ``key`` is ``-C(n-j, i) / C(n, i) * scale``, an exact integer whenever
    ``scale`` is a multiple of ``C(n, i)``, so the level is
    ``(scale + key) / scale``.  Along the row the staleness steps by one
    exact factor, ``(n-j-i)/(n-j)``, as in :func:`_bracketing_pairs`.  The
    level never falls as ``j`` grows (it reaches 1 once ``i + j > n``) and
    ``i + j`` rises, so the row is sorted.
    """
    for j in range(i, n + 1):
        yield key, i + j, i, j
        if key:
            key = key * (n - j - i) // (n - j)


def iter_levels(n: int) -> Iterator[tuple[QuorumConfig, ConsistencyLevel]]:
    """The achievable consistency spectrum at ``n`` replicas, streamed.

    Yields every canonical configuration ``1 <= r <= w <= n`` (the mirrored
    orientation yields the same level) paired with its level, sorted
    ascending by level, then by quorum sum ``r + w``, then by ``(r, w)``.
    ``n`` is checked at the call.  The n sorted rows are merged through a
    heap of one entry per row, so memory holds O(n) entries, not the
    n^2 / 2 of the output.  Every row's key shares one integer scale, the
    lcm of ``C(n, i)`` over the weak rows, so keys compare as integers and
    each level is one correctly rounded division, as in
    :func:`consistency_level`.  No binomial is computed: the scale is
    ``lcm(1, ..., n + 1) / (n + 1)`` (B. Farhi, Amer. Math. Monthly 116,
    2009), and each row's first key is the previous row's times the exact
    ratio ``(n-2i+2)(n-2i+1) / (n-i+1)^2``, starting from ``-scale`` at
    ``i = 0``; the ratio is 0 from the first strong row on.
    """
    check_count(n, "n")
    scale = lcm(*range(1, n + 2)) // (n + 1)
    rows, key = [], -scale
    for i in range(1, n + 1):
        key = key * (n - 2 * i + 2) * (n - 2 * i + 1) // (n - i + 1) ** 2
        rows.append(_level_row(i, n, key))
    merged = heapq.merge(*rows)
    return (
        (QuorumConfig(i, j, n), ConsistencyLevel((scale + key) / scale))
        for key, _sum, i, j in merged
    )


def enumerate_levels(n: int) -> list[tuple[QuorumConfig, ConsistencyLevel]]:
    """:func:`iter_levels` as a list."""
    return list(iter_levels(n))


def _bracketing_pairs(n: int, sp: int, q: int) -> Iterator[tuple[int, int, int, int]]:
    """Weak canonical pairs whose levels bracket a target, as ``(num, den, i, j)``.

    The target's staleness is ``sp / q`` and each pair's is ``num / den``
    (``C(n-j, i) / C(n, i)``, as in :func:`_staleness_ratio`).  For each row
    ``i`` in ``1..n//2`` this yields the last ``j`` in ``[i, n-i]`` whose
    level is below the target and the first whose level is at or above it.
    Staleness falls strictly in ``j`` and does not rise in ``i``, so that
    boundary only moves left as ``i`` grows: the walk updates the ratio by
    one exact factor per step, ``(n-j-i)/(n-j)`` along a row and
    ``(n-j-i)/(n-i)`` down a column.  Once the diagonal pair ``(i, i)``
    reaches the target every later row lies strictly farther from it, so
    the walk stops there.  At ``n = 1`` there is no weak pair to yield.
    """
    i, j = 1, n - 1
    num, den = 1, n
    while True:
        # Step left while (i, j) is at or above the target.
        while j >= i and num * q <= sp * den:
            num = num * (n - j + 1) // (n - j + 1 - i)
            j -= 1
        if j >= i:
            yield num, den, i, j
        if j < n - i:
            yield num * (n - j - i) // (n - j), den, i, j + 1
        if j < i or i == n // 2:
            return
        if j == n - i:  # (i + 1, j) would be strong
            num = num * (n - j + 1) // (n - j + 1 - i)
            j -= 1
        num = num * (n - j - i) // (i + 1)
        den = den * (n - i) // (i + 1)
        i += 1


def solve_quorum(
    phi_target: float,
    n: int,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
) -> QuorumConfig:
    """Find the quorum configuration whose level is nearest ``phi_target``.

    The search space depends on ``options.mode`` (see :class:`SolveMode`).
    Only O(n) candidates are examined: per row ``r`` of the weak region the
    two pairs whose levels bracket the target, found by a monotone walk
    (:func:`_bracketing_pairs`), and in extended mode the single strong
    pair ``(1, n)``.  A target of exactly 1 examines no candidate: the
    answer is ``(1, n)`` in extended mode and ``(n // 2, n - n // 2)`` in
    faithful mode.  A target just below 1 still walks all n/2 rows on
    integers of up to n bits.  Nothing is cached between calls, so memory
    stays bounded in ``n``.  Distances are compared exactly with integer
    arithmetic; ties are broken by smaller ``r + w``, then by
    lexicographically smaller (smaller-element, larger-element), exactly as
    an argmin over the whole spectrum would break them.  The winning pair
    is oriented per ``options.read_write_bias``.

    Raises:
        DomainError: if ``phi_target`` is outside [0, 1].
        ConfigError: if ``options`` is not a :class:`SolveOptions`.
        SolveError: in faithful mode with ``n < 2`` (empty search space).
    """
    check_count(n, "n")
    target_value = as_real(phi_target, "phi_target")
    if not 0.0 <= target_value <= 1.0:
        raise DomainError(f"phi_target must lie in [0, 1], got {shown(phi_target)}")
    check_type(options, SolveOptions, "options")
    if options.mode is SolveMode.FAITHFUL and n < 2:
        raise SolveError(
            f"faithful mode searches r in [1, n) and r + w <= n, which is empty for n={n}"
        )

    extended = options.mode is SolveMode.EXTENDED
    p, q = target_value.as_integer_ratio()
    sp = q - p  # the target's staleness is sp / q
    if sp == 0:
        # At a target of 1 the highest level wins outright.  Extended mode
        # reaches 1 itself with any strong pair, and (1, n) has the smallest
        # key among them.  In faithful mode it is the weak pair with the least
        # staleness: 1 / C(n, r) on the boundary r + w = n, least at the
        # middle row; inside the boundary a row's pairs are staler still.
        small, large = (1, n) if extended else (n // 2, n - n // 2)
    else:
        candidates = list(_bracketing_pairs(n, sp, q))
        if extended:
            # Every strong pair sits at level 1; (1, n) has the smallest key.
            candidates.append((0, 1, 1, n))
        # A candidate's distance |phi - target| is gap / (den * q), so two
        # distances compare by cross-multiplying gap and den.
        best = None
        for num, den, i, j in candidates:
            gap = abs(num * q - sp * den)
            if best is not None:
                best_gap, best_den, small, large = best
                order = gap * best_den - best_gap * den
                if order > 0 or (order == 0 and (i + j, i, j) > (small + large, small, large)):
                    continue
            best = gap, den, i, j
        _, _, small, large = best
    if options.read_write_bias is ReadWriteBias.WRITES_DOMINATE:
        return QuorumConfig(r=large, w=small, n=n)
    # BALANCED keeps the canonical r <= w order, which is also what
    # READS_DOMINATE wants: the smaller quorum goes to the read side.
    return QuorumConfig(r=small, w=large, n=n)
