"""Independent references that the benchmark checks quorumtune's outputs against.

Nothing here imports quorumtune.  Each checker recomputes the expected value
from the documented contract with a different mechanism:

* sweep points are replayed with plain-list clusterers whose nearest-centroid
  search bisects a sorted index instead of scanning an array;
* solver answers are compared with a brute-force argmin over the exact
  ``math.comb`` spectrum, using the documented tie-breaks and the
  faithful/bias rules;
* simulator estimates must sit within acceptance criterion 3's band
  (4 sigma + 1e-3) of the exact staleness, and the printed analytic value
  must equal that staleness correctly rounded.

Every checker returns ``None`` when the output is right and a one-line
description of the first discrepancy otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Constants of the documented contract, restated rather than imported.
PHI_FLOOR = 1e-6
REL_ERR_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# Sweep points


def family_chi(family: str, a: float, b: float, c: float, d: float, phi: float) -> float:
    """The relation families, associated exactly as the indicator parser
    associates their source text (left to right, ``^`` as ``math.pow``)."""
    if family == "linear":
        return a * phi + c
    if family == "quadratic":
        return a * math.pow(phi, 2.0) + b * phi + c
    if family == "cubic":
        return a * math.pow(phi, 3.0) + b * math.pow(phi, 2.0) + c * phi + d
    if family == "logarithmic":
        return a * math.log10(phi) + c
    raise ValueError(f"unknown family {family!r}")


def family_range(family: str, a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(min, max) of a family on [PHI_FLOOR, 1]: endpoints plus the interior
    stationary points of the closed form."""
    lo, hi = PHI_FLOOR, 1.0
    points = [lo, hi]
    if family == "quadratic" and a != 0.0:
        vertex = -b / (2.0 * a)
        if lo < vertex < hi:
            points.append(vertex)
    if family == "cubic":
        qa, qb, qc = 3.0 * a, 2.0 * b, c
        if qa != 0.0:
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                for sign in (-1.0, 1.0):
                    root = (-qb + sign * math.sqrt(disc)) / (2.0 * qa)
                    if lo < root < hi:
                        points.append(root)
        elif qb != 0.0:
            root = -qc / qb
            if lo < root < hi:
                points.append(root)
    values = [family_chi(family, a, b, c, d, x) for x in points]
    return min(values), max(values)


class RefClusterer:
    """Plain-list streaming k-means, sequential (``capacity``) or incremental
    (``threshold``).

    Centroids live in insertion-order lists; a list of ``(chi, id)`` pairs
    kept sorted answers nearest-centroid queries by bisection.  Float
    distance to ``x`` never increases while walking toward ``x`` from either
    side, so the nearest centroids are the neighbours of the insertion point
    plus any equal-distance run behind them; ties go to the smallest id,
    i.e. the earliest-inserted cluster.
    """

    def __init__(self, capacity: int | None = None, threshold: float | None = None):
        self.capacity = capacity
        self.threshold = threshold
        self.chi: list[float] = []
        self.phi: list[float] = []
        self.count: list[int] = []
        self._order: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self.chi)

    def nearest(self, x: float) -> int:
        order = self._order
        pos = bisect_left(order, (x, -1))
        best_distance = math.inf
        best = -1
        for i in range(pos - 1, -1, -1):
            distance = abs(order[i][0] - x)
            if distance > best_distance:
                break
            if distance < best_distance or order[i][1] < best:
                best_distance, best = distance, order[i][1]
        for i in range(pos, len(order)):
            distance = abs(order[i][0] - x)
            if distance > best_distance:
                break
            if distance < best_distance or order[i][1] < best:
                best_distance, best = distance, order[i][1]
        return best

    def _seed(self, x: float, p: float) -> None:
        insort(self._order, (x, len(self.chi)))
        self.chi.append(x)
        self.phi.append(p)
        self.count.append(1)

    def _absorb(self, k: int, x: float, p: float) -> None:
        del self._order[bisect_left(self._order, (self.chi[k], k))]
        c = self.count[k]
        self.chi[k] = (self.chi[k] * c + x) / (c + 1)
        self.phi[k] = (self.phi[k] * c + p) / (c + 1)
        self.count[k] = c + 1
        insort(self._order, (self.chi[k], k))

    def learn(self, x: float, p: float) -> None:
        if self.capacity is not None:
            if len(self.chi) < self.capacity:
                self._seed(x, p)
            else:
                self._absorb(self.nearest(x), x, p)
            return
        if not self.chi:
            self._seed(x, p)
            return
        k = self.nearest(x)
        if abs(self.chi[k] - x) / max(abs(self.chi[k]), REL_ERR_FLOOR) < self.threshold:
            self._absorb(k, x, p)
        else:
            self._seed(x, p)

    def lookup(self, x: float) -> float:
        return self.phi[self.nearest(x)]


def reference_point(
    family: str,
    constants: tuple[float, float, float, float],
    algo: str,
    size: float,
    bootstrap: int,
    tests: int,
    seed: int,
) -> tuple[int, float]:
    """(cluster count, RMSE) of one single-point sweep, recomputed.

    A single-point sweep is sweep index 0, so its draws come from PCG64
    seeded with ``SeedSequence([seed, 0])``: ``bootstrap`` training levels,
    then ``tests`` targets over the family's range.
    """
    a, b, c, d = constants
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    clusterer = RefClusterer(capacity=size) if algo == "seq" else RefClusterer(threshold=size)
    for draw in rng.random(bootstrap).tolist():
        phi = 1.0 - draw * (1.0 - PHI_FLOOR)
        clusterer.learn(family_chi(family, a, b, c, d, phi), phi)
    lo, hi = family_range(family, a, b, c, d)
    squares = 0.0
    for draw in rng.random(tests).tolist():
        target = lo + draw * (hi - lo)
        squares += (target - family_chi(family, a, b, c, d, clusterer.lookup(target))) ** 2
    return len(clusterer), math.sqrt(squares / tests)


def check_sweep_row(expected: tuple[int, float], clusters: int, rmse: float) -> str | None:
    want_clusters, want_rmse = expected
    if clusters != want_clusters:
        return f"cluster count {clusters} != reference {want_clusters}"
    if rmse.hex() != want_rmse.hex():
        return f"rmse {rmse!r} != reference {want_rmse!r}"
    return None


# ---------------------------------------------------------------------------
# Quorum solver


def exact_staleness(r: int, w: int, n: int) -> Fraction:
    """C(n-w, r) / C(n, r); zero when every read quorum meets every write."""
    return Fraction(math.comb(n - w, r), math.comb(n, r))


def exact_phi(r: int, w: int, n: int) -> Fraction:
    return 1 - exact_staleness(r, w, n)


@lru_cache(maxsize=None)
def _spectrum(n: int):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    exact = [exact_phi(i, j, n) for i, j in pairs]
    approx = np.array([float(phi) for phi in exact])
    weak = np.array([i + j <= n for i, j in pairs])
    return pairs, exact, approx, weak


def brute_force_solve(target: float, n: int, faithful: bool, writes_dominate: bool) -> tuple[int, int]:
    """The documented argmin over every canonical pair ``1 <= i <= j <= n``.

    Key: exact distance to the target, then ``i + j``, then ``(i, j)``;
    faithful mode keeps only ``i + j <= n``; write bias gives ``w`` the
    smaller quorum.  Float distances only shortlist the candidates: each is
    within 1e-15 of its exact value, so every pair that could win exactly
    is within 1e-9 of the float minimum.
    """
    pairs, exact, approx, weak = _spectrum(n)
    distance = np.abs(approx - target)
    if faithful:
        distance[~weak] = np.inf
    shortlist = np.flatnonzero(distance <= distance.min() + 1e-9)
    goal = Fraction(target)
    _, _, i, j = min(
        (abs(exact[k] - goal), pairs[k][0] + pairs[k][1], pairs[k][0], pairs[k][1])
        for k in shortlist.tolist()
    )
    return (j, i) if writes_dominate else (i, j)


def check_solve(
    target: float, n: int, faithful: bool, writes_dominate: bool, r: int, w: int
) -> str | None:
    want = brute_force_solve(target, n, faithful, writes_dominate)
    if (r, w) != want:
        return f"solve({target!r}, n={n}) gave (r, w) = ({r}, {w}), brute force says {want}"
    return None


# ---------------------------------------------------------------------------
# Monte-Carlo simulation


def check_simulate(r: int, w: int, n: int, trials: int, code: int, stdout: str) -> str | None:
    """Exit 0, ``empirical=<x> analytic=<y>`` on stdout, ``y`` the exact
    staleness correctly rounded, ``x`` within 4 sigma + 1e-3 of it."""
    if code != 0:
        return f"simulate r={r} w={w} n={n} exited {code}"
    try:
        fields = dict(part.split("=", 1) for part in stdout.split())
        empirical = float(fields["empirical"])
        analytic = float(fields["analytic"])
    except (KeyError, ValueError):
        return f"simulate r={r} w={w} n={n} printed {stdout!r}"
    exact = exact_staleness(r, w, n)
    if analytic != float(exact):
        return f"analytic {analytic!r} != exact staleness {float(exact)!r} (r={r} w={w} n={n})"
    sigma = math.sqrt(float(exact * (1 - exact)) / trials)
    if abs(empirical - float(exact)) > 4.0 * sigma + 1e-3:
        return (
            f"empirical {empirical!r} is more than 4 sigma + 1e-3 from {float(exact)!r}"
            f" (r={r} w={w} n={n}, sigma {sigma:.3g})"
        )
    return None
