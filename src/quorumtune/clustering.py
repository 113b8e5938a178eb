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
counts live in plain lists indexed by cluster id.  The first nearest search
(a lookup, or the first sample past seeding) sorts the ``chi`` centroids once
into a 1-D index ordered by ``(chi, id)``; later seeds insert into it.  The
nearest cluster is found by bisecting that index and walking outward only
while the rounded distance still equals the best so far: O(log K) plus one
step per tied key.  An absorbed centroid moves toward the sample and in exact
arithmetic cannot pass another centroid, so its key is re-sorted only when a
duplicate, a rounding tie or an overflow puts it out of order.  Learning
mutates state and must be serialized by the caller, as must the first lookup
after seeding, which builds the index; later lookups are read-only.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields

from .errors import (
    ConfigError, DomainError, UnlearnedError, as_finite, as_real, check_count, shown,
)
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


def _csv(row_type: type, rows) -> str:
    """``rows`` as CSV: the field names of the dataclass ``row_type`` as the
    header line, then one line per row of each field's ``repr``.

    The field names are the CSV contract: renaming a field renames its
    column in every file written through here.
    """
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(repr(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


class _OnlineClusterer:
    """Shared list-backed state, its sorted chi index, ``learn``, ``lookup`` and
    the nearest walk; subclasses set ``capacity`` and ``threshold``."""

    # Samples that seed unconditionally (for the incremental clusterer, its first).
    capacity = 1
    # Relative-error admission bound; None absorbs every sample past capacity.
    threshold: float | None = None

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Discard all clusters; the capacity or threshold is retained."""
        # Per cluster id: centroids and sample count.
        self._chi: list[float] = []
        self._phi: list[float] = []
        self._count: list[int] = []
        # The chi centroids sorted by (chi, id), and the id at each position;
        # both stay empty until the first nearest search builds them.
        self._keys: list[float] = []
        self._ids: list[int] = []

    def __len__(self) -> int:
        return len(self._chi)

    @property
    def total_seen(self) -> int:
        """Samples learned since creation or the last reset."""
        return sum(self._count)

    def _check_bootstrap(self, count: int) -> None:
        """Raise ConfigError when ``count`` bootstrap samples would not fill the seeds."""
        if count < self.capacity:
            raise ConfigError(
                f"bootstrap size {shown(count)} is below the sequential capacity "
                f"{shown(self.capacity)}; the clusterer would never leave its seeding phase"
            )

    def learn(self, sample: Sample) -> int:
        """Fold one sample into the state; returns the assigned cluster index."""
        chis = self._chi
        chi = sample.chi
        if len(chis) >= self.capacity:
            position, k, distance = self._nearest(chi)
            old = chis[k]
            if self.threshold is None or distance / max(abs(old), REL_ERR_FLOOR) < self.threshold:
                c = self._count[k]
                n = c + 1
                new = (old * c + chi) / n
                if not -_INF < new < _INF:
                    # centroid * count overflowed, though a mean of finite samples is
                    # finite: step from the old centroid.  Finite results above are kept.
                    new = old + (chi / n - old / n)
                chis[k] = new
                self._phi[k] = (self._phi[k] * c + sample.phi) / n
                self._count[k] = n
                keys = self._keys
                keys[position] = new
                if (position + 1 < len(keys) and keys[position + 1] <= new) or (
                    position and keys[position - 1] >= new
                ):
                    del keys[position], self._ids[position]
                    self._insert(k, new)
                return k
        k = len(chis)
        chis.append(chi)
        self._phi.append(sample.phi)
        self._count.append(1)
        if self._keys:
            self._insert(k, chi)
        return k

    def _nearest(self, chi: float) -> tuple[int, int, float]:
        """(index position, cluster id, rounded |delta chi|) of the cluster
        nearest ``chi``, building the index first if it is empty.

        The rounded distance ``|key - chi|`` never decreases while walking
        away from the insertion point, so each walk stops at the first key
        farther than the best; keys at an equal distance are all visited so
        that the lowest id wins the tie.
        """
        keys = self._keys
        ids = self._ids
        if not keys:
            # A stable sort keeps equal keys in id order, as insertion would.
            ids[:] = sorted(range(len(self._chi)), key=self._chi.__getitem__)
            keys[:] = map(self._chi.__getitem__, ids)
        size = len(keys)
        i = bisect_left(keys, chi)
        right = keys[i] - chi if i < size else _INF
        left = chi - keys[i - 1] if i else _INF
        position = k = size
        if right <= left:
            j = i
            while j < size and keys[j] - chi == right:
                if ids[j] < k:
                    position, k = j, ids[j]
                j += 1
            if right < left:
                return position, k, right
        j = i - 1
        while j >= 0 and chi - keys[j] == left:
            if ids[j] < k:
                position, k = j, ids[j]
            j -= 1
        return position, k, left

    def _insert(self, k: int, chi: float) -> None:
        """Enter cluster ``k`` at ``chi`` into the (chi, id)-ordered index."""
        keys = self._keys
        ids = self._ids
        i = bisect_left(keys, chi)
        if i < len(keys) and keys[i] == chi:
            i = bisect_left(ids, k, i, bisect_right(keys, chi, i))
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
        chi_target = as_finite(chi_target, "chi_target")
        return ConsistencyLevel(self._phi[self._nearest(chi_target)[1]])

    def csv_snapshot(self) -> str:
        """The cluster state as CSV (chi_centroid, phi_centroid, count)."""
        return _csv(Cluster, self.clusters)


class SequentialClusterer(_OnlineClusterer):
    """Fixed-capacity streaming k-means over (chi, phi) samples."""

    def __init__(self, capacity: int):
        check_count(capacity, "capacity")
        super().__init__()
        self.capacity = capacity


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
