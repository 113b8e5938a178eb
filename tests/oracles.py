"""Independent reference implementations used to check the package.

Nothing in this module imports from quorumtune: every helper recomputes the
expected behavior from first principles (exhaustive enumeration, plain-list
clustering, direct recursive evaluation) so that tests compare two unrelated
mechanisms rather than the package against itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# Quorum staleness by exhaustive enumeration


def enumeration_staleness(r: int, w: int, n: int) -> Fraction:
    """Fraction of (read quorum, write quorum) pairs that are disjoint.

    Checks every pair of an r-subset and a w-subset of {0..n-1}; suitable
    for small n only.
    """
    replicas = range(n)
    disjoint = 0
    total = 0
    for write_set in combinations(replicas, w):
        write = set(write_set)
        for read_set in combinations(replicas, r):
            total += 1
            if write.isdisjoint(read_set):
                disjoint += 1
    return Fraction(disjoint, total)


def bitmask_staleness_table(n: int) -> dict[tuple[int, int], Fraction]:
    """Enumeration staleness for every (r, w) with 1 <= r, w <= n.

    Same counting as :func:`enumeration_staleness` but with numpy bitmask
    arrays, fast enough for n up to ~12.
    """
    by_size: dict[int, np.ndarray] = {}
    for k in range(1, n + 1):
        masks = [sum(1 << i for i in subset) for subset in combinations(range(n), k)]
        by_size[k] = np.asarray(masks, dtype=np.uint32)
    table: dict[tuple[int, int], Fraction] = {}
    for r in range(1, n + 1):
        reads = by_size[r]
        for w in range(1, n + 1):
            writes = by_size[w]
            disjoint = int(np.count_nonzero((reads[:, None] & writes[None, :]) == 0))
            table[(r, w)] = Fraction(disjoint, reads.size * writes.size)
    return table


def _phi_fraction(r: int, w: int, n: int) -> Fraction:
    """The exact consistency level of (r, w, n): one minus the chance that a
    uniform r-subset misses a fixed w-subset, as C(n - w, r) / C(n, r)."""
    return 1 - Fraction(math.comb(n - w, r), math.comb(n, r))


def _spectrum(n: int) -> tuple[tuple[int, int, Fraction], ...]:
    """All canonical pairs (i, j, phi) with 1 <= i <= j <= n, phi exact.

    phi is one minus the chance that a uniform i-subset misses a fixed
    j-subset: C(n - j, i) of the C(n, i) read quorums do.
    """
    return tuple(
        (i, j, 1 - Fraction(math.comb(n - j, i), math.comb(n, i)))
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )


# ---------------------------------------------------------------------------
# Plain-list online clusterers


class RefSequential:
    """List-based sequential k-means; the classic running-mean update rule."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.chi: list[float] = []
        self.phi: list[float] = []
        self.count: list[int] = []

    def _nearest(self, x: float) -> int:
        best = 0
        best_distance = abs(x - self.chi[0])
        for i in range(1, len(self.chi)):
            distance = abs(x - self.chi[i])
            if distance < best_distance:
                best_distance = distance
                best = i
        return best

    def learn(self, x: float, p: float) -> int:
        if len(self.chi) < self.capacity:
            self.chi.append(x)
            self.phi.append(p)
            self.count.append(1)
            return len(self.chi) - 1
        k = self._nearest(x)
        c = self.count[k]
        self.chi[k] = (self.chi[k] * c + x) / (c + 1)
        self.phi[k] = (self.phi[k] * c + p) / (c + 1)
        self.count[k] = c + 1
        return k

    def lookup(self, x: float) -> float:
        return self.phi[self._nearest(x)]


class RefIncremental:
    """List-based incremental k-means with the relative-error admission test."""

    REL_FLOOR = 1e-9

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.chi: list[float] = []
        self.phi: list[float] = []
        self.count: list[int] = []

    _nearest = RefSequential._nearest
    lookup = RefSequential.lookup

    def learn(self, x: float, p: float) -> int:
        if not self.chi:
            self.chi.append(x)
            self.phi.append(p)
            self.count.append(1)
            return 0
        k = self._nearest(x)
        relative = abs(self.chi[k] - x) / max(abs(self.chi[k]), self.REL_FLOOR)
        if relative < self.threshold:
            c = self.count[k]
            self.chi[k] = (self.chi[k] * c + x) / (c + 1)
            self.phi[k] = (self.phi[k] * c + p) / (c + 1)
            self.count[k] = c + 1
            return k
        self.chi.append(x)
        self.phi.append(p)
        self.count.append(1)
        return len(self.chi) - 1


# ---------------------------------------------------------------------------
# Indicator-language reference: AST generation and direct recursive evaluation

_VARS = ("phi", "A", "B", "C", "D", "x_1")


def random_ast(rnd: random.Random, depth: int):
    """A random expression tree as nested tuples (op-tagged).

    Leaves are non-negative numeric literals or variable names; inner nodes
    are ("neg", child), ("call", func, child) or ("bin", op, left, right).
    """
    if depth <= 0 or rnd.random() < 0.3:
        if rnd.random() < 0.5:
            return ("num", round(rnd.uniform(0.0, 9.0), 3))
        return ("var", rnd.choice(_VARS))
    roll = rnd.random()
    if roll < 0.15:
        return ("neg", random_ast(rnd, depth - 1))
    if roll < 0.3:
        return ("call", rnd.choice(("log10", "abs")), random_ast(rnd, depth - 1))
    op = rnd.choice("+-*/^")
    return ("bin", op, random_ast(rnd, depth - 1), random_ast(rnd, depth - 1))


def tuple_eval(node, env: dict[str, float]) -> float:
    """Evaluate the tuple-form AST directly; raises ArithmeticError on any
    numeric domain problem (mirroring what a correct evaluator must reject)."""
    tag = node[0]
    if tag == "num":
        return float(node[1])
    if tag == "var":
        if node[1] not in env:
            raise ArithmeticError(f"unbound {node[1]}")
        return float(env[node[1]])
    if tag == "neg":
        return -tuple_eval(node[1], env)
    if tag == "call":
        value = tuple_eval(node[2], env)
        if node[1] == "log10":
            if value <= 0.0:
                raise ArithmeticError("log10 domain")
            return math.log10(value)
        return abs(value)
    _, op, left_node, right_node = node
    left = tuple_eval(left_node, env)
    right = tuple_eval(right_node, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0.0:
            raise ArithmeticError("division by zero")
        return left / right
    try:
        return math.pow(left, right)
    except (ValueError, OverflowError) as exc:
        raise ArithmeticError(str(exc)) from None


def tuple_to_source(node) -> str:
    """Serialize the tuple-form AST to expression source text."""
    tag = node[0]
    if tag == "num":
        return repr(float(node[1]))
    if tag == "var":
        return node[1]
    if tag == "neg":
        return f"(-{tuple_to_source(node[1])})"
    if tag == "call":
        return f"{node[1]}({tuple_to_source(node[2])})"
    _, op, left, right = node
    return f"({tuple_to_source(left)} {op} {tuple_to_source(right)})"


def tuple_free_variables(node) -> frozenset[str]:
    """The names of the ("var", name) leaves of the tuple-form AST."""
    tag = node[0]
    if tag == "num":
        return frozenset()
    if tag == "var":
        return frozenset((node[1],))
    if tag == "neg":
        return tuple_free_variables(node[1])
    if tag == "call":
        return tuple_free_variables(node[2])
    return tuple_free_variables(node[2]) | tuple_free_variables(node[3])
