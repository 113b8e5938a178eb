"""Spans around quorumtune's layer boundaries, recorded from outside the package.

Each name is wrapped where its caller looks it up: the module globals that
``simulate``, ``sweeps`` and ``cli`` bound at import time, the clusterer
methods on their classes, and the package attributes through which the
benchmark itself calls the public entry points.  A span records its label,
start, end and parent; spans stay in memory until :func:`save` writes them.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span recorder.

    While the program runs, each wrapped call appends two events to a flat
    log, ``(label id, start ns)`` on entry and ``(-1, end ns)`` on exit, so
    the hot path is two clock reads and two appends.  The nesting of the
    events gives each span its parent; :attr:`table` rebuilds the spans
    once the traced phase is over.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._log = array("q")
        self._table = (0, np.zeros((0, 5), dtype=np.int64))  # (log length, table)
        self.work: dict[str, int] = {}
        self.peak_bytes: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def _label_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.labels)
            self.labels.append(name)
        return lid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, label, work=None, track_memory=False):
        """``fn`` recording one span per call.

        ``label`` is a string or a function of the call's arguments;
        ``work`` maps the arguments to units of work (e.g. trials) summed
        per label; ``track_memory`` records the tracemalloc peak per label.
        """
        log = self._log.extend
        fixed = self._label_id(label) if isinstance(label, str) else None

        if work is None and not track_memory:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                lid = fixed if fixed is not None else self._label_id(label(*args, **kwargs))
                log((lid, perf_counter_ns()))
                try:
                    return fn(*args, **kwargs)
                finally:
                    log((-1, perf_counter_ns()))

            return traced

        @functools.wraps(fn)
        def traced_with_work(*args, **kwargs):
            lid = fixed if fixed is not None else self._label_id(label(*args, **kwargs))
            if track_memory:
                tracemalloc.start()
            log((lid, perf_counter_ns()))
            try:
                return fn(*args, **kwargs)
            finally:
                log((-1, perf_counter_ns()))
                name = self.labels[lid]
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
                if work is not None:
                    self.work[name] = self.work.get(name, 0) + work(*args, **kwargs)

        return traced_with_work

    @property
    def table(self) -> np.ndarray:
        """The spans in opening order, as int64 rows of label id, parent
        row (-1 at the top), start ns, end ns and self ns."""
        if self._table[0] != len(self._log):
            self._table = (len(self._log), self._build_table())
        return self._table[1]

    def _build_table(self) -> np.ndarray:
        events = np.frombuffer(self._log, dtype=np.int64).reshape(-1, 2)
        kind, clock = events[:, 0], events[:, 1]
        opening = kind >= 0
        depth = np.cumsum(np.where(opening, 1, -1))
        if len(depth) and depth[-1] != 0:
            raise RuntimeError("spans are still open")
        # Nesting level of the span an event opens or closes.  Within one
        # level, opens and closes alternate in time, so they pair up in order.
        level = np.where(opening, depth, depth + 1)
        pairs = np.lexsort((np.arange(len(events)), level)).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0])]
        span_level = level[pairs[:, 0]]
        parent = np.full(len(pairs), -1, dtype=np.int64)
        for lvl in range(2, int(span_level.max(initial=1)) + 1):
            # A span's parent is the last span opened before it one level up.
            inner = np.flatnonzero(span_level == lvl)
            outer = np.flatnonzero(span_level == lvl - 1)
            parent[inner] = outer[np.searchsorted(pairs[outer, 0], pairs[inner, 0]) - 1]
        start, end = clock[pairs[:, 0]], clock[pairs[:, 1]]
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(pairs))
        own = duration - covered.astype(np.int64)
        return np.column_stack([kind[pairs[:, 0]], parent, start, end, own])

    @property
    def calls(self) -> dict[str, int]:
        """Calls per label, for the labels called at least once."""
        counts = np.bincount(self.table[:, 0], minlength=len(self.labels))
        return {name: int(c) for name, c in zip(self.labels, counts) if c}

    @property
    def self_ns(self) -> dict[str, int]:
        """Summed self time per label, for the labels called at least once."""
        table = self.table
        totals = np.bincount(table[:, 0], weights=table[:, 4], minlength=len(self.labels))
        return {name: int(totals[self._ids[name]]) for name in self.calls}

    def first_ns(self, name: str) -> int | None:
        """Duration of the first span labelled ``name``, if there was one."""
        if name not in self._ids:
            return None
        table = self.table
        rows = np.flatnonzero(table[:, 0] == self._ids[name])
        return int(table[rows[0], 3] - table[rows[0], 2]) if len(rows) else None

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer, the layer being a label's first component."""
        layers: dict[str, int] = {}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + ns
        return layers


def save(path: Path, tracers: dict[str, Tracer]) -> None:
    """Write every phase's spans to one compressed ``.npz``: per phase the
    label id, parent row, start and end columns of :attr:`Tracer.table` as
    ``<phase>_spans`` and the label names as a JSON list in ``<phase>_labels``."""
    arrays: dict[str, np.ndarray] = {}
    for phase, tracer in tracers.items():
        arrays[f"{phase}_spans"] = tracer.table[:, :4]
        arrays[f"{phase}_labels"] = np.array(json.dumps(tracer.labels))
    np.savez_compressed(path, **arrays)


_MISSING = object()


def _solve_label(phi_target, n, *args, **kwargs):
    return f"quorum.solve.n{n}"


def _simulate_label(sim):
    return f"simulate.empirical_staleness.n{sim.config.n}"


def _simulate_trials(sim):
    return sim.trials


def _patches(tracer: Tracer):
    import quorumtune as qt
    from quorumtune import cli, simulate, sweeps
    from quorumtune.clustering import IncrementalClusterer, SequentialClusterer

    def traced(owner, name, label, **options):
        return owner, name, tracer.wrap(getattr(owner, name), label, **options)

    incremental_learn = tracer.wrap(IncrementalClusterer.learn, "clustering.learn.incr")

    @functools.wraps(incremental_learn)
    def learn_counting_seeds(clusterer, sample):
        size = len(clusterer)
        k = incremental_learn(clusterer, sample)
        if len(clusterer) > size:
            tracer.count("clustering.seeds.incr")
        return k

    return [
        # Entry points the benchmark calls through the package namespace.
        traced(qt, "evaluate_sequential", "sweeps.point"),
        traced(qt, "evaluate_incremental", "sweeps.point"),
        traced(qt, "run_adaptation_loop", "simulate.loop"),
        traced(qt, "parse", "indicator.parse"),
        traced(qt, "solve_quorum", _solve_label),
        traced(cli, "main", "cli.main"),
        # Names bound as module globals by their callers.
        traced(simulate, "Sample", "clustering.sample"),
        traced(sweeps, "Sample", "clustering.sample"),
        traced(simulate, "evaluate", "indicator.evaluate"),
        traced(sweeps, "evaluate", "indicator.evaluate"),
        traced(simulate, "solve_quorum", _solve_label),
        traced(simulate, "consistency_level", "quorum.level"),
        traced(cli, "staleness_probability", "quorum.level"),
        traced(
            cli,
            "empirical_staleness",
            _simulate_label,
            work=_simulate_trials,
            track_memory=True,
        ),
        # Clusterer methods, on the classes.
        traced(SequentialClusterer, "learn", "clustering.learn.seq"),
        (IncrementalClusterer, "learn", learn_counting_seeds),
        traced(SequentialClusterer, "lookup", "clustering.lookup"),
        traced(IncrementalClusterer, "lookup", "clustering.lookup"),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every wrapped name through ``tracer`` until the block exits."""
    saved = []
    try:
        for owner, name, wrapper in _patches(tracer):
            saved.append((owner, name, vars(owner).get(name, _MISSING)))
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
