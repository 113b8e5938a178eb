"""Online clustering of (chi, phi) samples for consistency adaptation.

An application reports pairs of a scalar performance indicator ``chi`` and
the consistency level ``phi`` under which it was measured.  Two streaming
k-means variants learn the mapping:

* :class:`SequentialClusterer` — a fixed budget of ``capacity`` clusters.
  The first ``capacity`` samples each seed a singleton cluster; every later
  sample is absorbed by the cluster with the nearest ``chi`` centroid via an
  exact running-mean update.
* :class:`IncrementalClusterer` — no fixed budget.  A sample joins the
  nearest cluster only if the relative error between the cluster's ``chi``
  centroid and the sample is below ``threshold``; otherwise it seeds a new
  cluster, so the cluster count adapts to the data.

``lookup`` answers the inverse question — given a desired indicator value,
return the ``phi`` centroid of the nearest cluster.  Distance is always
the rounded ``|delta chi|``; ties, including duplicate centroids and far
targets whose rounded distances to two centroids come out equal, break
toward the earliest-inserted cluster.

Both clusterers are deterministic (no internal randomness).  Centroids and
counts live in plain lists indexed by cluster id, next to a sorted 1-D index
of the ``chi`` centroids ordered by ``(chi, id)``.  The nearest cluster is
found by bisecting that index and walking outward only while the rounded
distance still equals the best so far: O(log K) plus one step per tied
key, where a scan of every centroid would cost O(K).  An absorbed centroid
moves toward the sample and in exact arithmetic cannot pass another
centroid, so its key is re-sorted only when a duplicate, a rounding tie or
an overflow puts it out of order.  Learning mutates state and must be
serialized by the caller; lookups are read-only.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import ConfigError, DomainError, UnlearnedError, as_real, check_count, shown
from .quorum import ConsistencyLevel

__all__ = [
    "Sample",
    "Cluster",
    "SequentialClusterer",
    "IncrementalClusterer",
    "REL_ERR_FLOOR",
]

# Floor for the denominator of the incremental relative-error test: a chi
# centroid at exactly 0 would otherwise divide by zero, so zero-centered
# indicators degrade to (near-)absolute distance instead.
REL_ERR_FLOOR = 1e-9

_INF = math.inf


@dataclass(frozen=True, init=False)
class Sample:
    """One monitored observation: indicator value ``chi`` at level ``phi``."""

    __slots__ = ("chi", "phi")
    chi: float
    phi: float

    def __init__(self, chi: float, phi: float) -> None:
        if type(chi) is not float or type(phi) is not float:
            try:
                chi, phi = float(chi), float(phi)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(
                    "sample values must be real numbers, "
                    f"got Sample(chi={shown(chi)}, phi={shown(phi)})"
                ) from None
        if not (-_INF < chi < _INF and 0.0 <= phi <= 1.0):
            if not math.isfinite(chi):
                raise DomainError(f"sample chi must be finite, got {chi!r}")
            raise DomainError(f"sample phi must lie in [0, 1], got {phi!r}")
        # The slot descriptors store past the frozen ``__setattr__``.
        _set_chi(self, chi)
        _set_phi(self, phi)

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, not the frozen setattr.
        return type(self), (self.chi, self.phi)


_set_chi = Sample.chi.__set__
_set_phi = Sample.phi.__set__


@dataclass(frozen=True)
class Cluster:
    """A read-only snapshot of one cluster: centroids plus sample count."""

    chi_centroid: float
    phi_centroid: float
    count: int


class _OnlineClusterer:
    """Shared list-backed state, its sorted chi index, and the
    nearest/seed/absorb/lookup primitives."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Discard all clusters; the capacity or threshold is retained."""
        # Per cluster id: centroids and sample count.
        self._chi: list[float] = []
        self._phi: list[float] = []
        self._count: list[int] = []
        # The chi centroids sorted by (chi, id), and the id at each position.
        self._keys: list[float] = []
        self._ids: list[int] = []

    def __len__(self) -> int:
        return len(self._chi)

    @property
    def total_seen(self) -> int:
        """Samples learned since creation or the last reset."""
        return sum(self._count)

    def _nearest(self, chi: float) -> tuple[int, int]:
        """(index position, cluster id) of the cluster nearest ``chi``.

        The rounded distance ``|key - chi|`` never decreases while walking
        away from the insertion point, so each walk stops at the first key
        farther than the best; keys at an equal distance are all visited so
        that the lowest id wins the tie.
        """
        keys = self._keys
        ids = self._ids
        size = len(keys)
        i = bisect_left(keys, chi)
        right = keys[i] - chi if i < size else _INF
        left = chi - keys[i - 1] if i else _INF
        best = left if left < right else right
        position = k = size
        if right == best:
            j = i
            while j < size and keys[j] - chi == best:
                if ids[j] < k:
                    position, k = j, ids[j]
                j += 1
        if left == best:
            j = i - 1
            while j >= 0 and chi - keys[j] == best:
                if ids[j] < k:
                    position, k = j, ids[j]
                j -= 1
        return position, k

    def _seed(self, sample: Sample) -> int:
        k = len(self._chi)
        chi = sample.chi
        self._chi.append(chi)
        self._phi.append(sample.phi)
        self._count.append(1)
        # The new id is the largest, so it goes after every equal key.
        i = bisect_right(self._keys, chi)
        self._keys.insert(i, chi)
        self._ids.insert(i, k)
        return k

    def _absorb(self, position: int, k: int, sample: Sample) -> None:
        c = self._count[k]
        chi = (self._chi[k] * c + sample.chi) / (c + 1)
        if not -_INF < chi < _INF:
            # centroid * count overflowed, though a mean of finite samples is
            # finite: step from the old centroid instead.  Any finite result
            # of the line above is kept, so those centroids do not change.
            old = self._chi[k]
            chi = old + (sample.chi / (c + 1) - old / (c + 1))
        self._chi[k] = chi
        self._phi[k] = (self._phi[k] * c + sample.phi) / (c + 1)
        self._count[k] = c + 1
        keys = self._keys
        keys[position] = chi
        if (position + 1 < len(keys) and keys[position + 1] <= chi) or (
            position and keys[position - 1] >= chi
        ):
            self._resort(position, k, chi)

    def _resort(self, position: int, k: int, chi: float) -> None:
        keys = self._keys
        ids = self._ids
        del keys[position], ids[position]
        i = bisect_left(keys, chi)
        while i < len(keys) and keys[i] == chi and ids[i] < k:
            i += 1
        keys.insert(i, chi)
        ids.insert(i, k)

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(map(Cluster, self._chi, self._phi, self._count))

    def lookup(self, chi_target: float) -> ConsistencyLevel:
        """The ``phi`` centroid of the cluster nearest ``chi_target``.

        Raises:
            UnlearnedError: if no samples have been learned yet.
        """
        if not self._chi:
            raise UnlearnedError("adaptation state is unlearned: no clusters to look up")
        chi_target = as_real(chi_target, "chi_target")
        if not math.isfinite(chi_target):
            raise DomainError(f"chi_target must be finite, got {chi_target!r}")
        return ConsistencyLevel(self._phi[self._nearest(chi_target)[1]])

    def csv_snapshot(self) -> str:
        """The cluster state as CSV (chi_centroid, phi_centroid, count)."""
        lines = ["chi_centroid,phi_centroid,count"]
        for cluster in self.clusters:
            lines.append(f"{cluster.chi_centroid!r},{cluster.phi_centroid!r},{cluster.count}")
        return "\n".join(lines) + "\n"


class SequentialClusterer(_OnlineClusterer):
    """Fixed-capacity streaming k-means over (chi, phi) samples."""

    def __init__(self, capacity: int):
        check_count(capacity, "capacity")
        super().__init__()
        self.capacity = capacity

    def learn(self, sample: Sample) -> int:
        """Fold one sample into the state; returns the assigned cluster index."""
        if len(self._chi) < self.capacity:
            return self._seed(sample)
        position, k = self._nearest(sample.chi)
        self._absorb(position, k, sample)
        return k


class IncrementalClusterer(_OnlineClusterer):
    """Threshold-driven streaming k-means over (chi, phi) samples.

    ``threshold`` is the relative-error admission bound tau: the nearest
    cluster absorbs a sample only when
    ``|chi_centroid - chi| / max(|chi_centroid|, REL_ERR_FLOOR) < tau``.
    """

    def __init__(self, threshold: float):
        threshold = as_real(threshold, "threshold")
        if not threshold > 0.0:
            raise ConfigError(f"threshold must be > 0, got {threshold!r}")
        super().__init__()
        self.threshold = threshold

    def learn(self, sample: Sample) -> int:
        """Fold one sample into the state; returns the assigned cluster index."""
        if not self._chi:
            return self._seed(sample)
        position, k = self._nearest(sample.chi)
        centroid = self._chi[k]
        relative_error = abs(centroid - sample.chi) / max(abs(centroid), REL_ERR_FLOOR)
        if relative_error < self.threshold:
            self._absorb(position, k, sample)
            return k
        return self._seed(sample)
