#!/usr/bin/env python3
"""quorumtune benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {sweep,control,montecarlo} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports quorumtune from ./src and
from nowhere else.  With ``--trace 0`` it reports the end-to-end metrics of
an untraced run; with ``--trace 1`` the per-layer metrics of a traced run
(see README.md).  Every op's output is checked after the timed loop.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 when every
check passed and 1 otherwise.  A results file with the run's metadata (and,
for a traced run, the spans) is written under ``perfbench/out/``.

Every run compiles its bytecode into a fresh cache of its own (under
``perfbench/out/``, removed at the end), so set-up time does not depend on
any ``__pycache__`` an earlier run or a test run left in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "control", "montecarlo")
SETUP_REPEATS = 7  # this process (which compiles the bytecode) plus six fresh children
TAIL_BEYOND = 10  # op_tail_ms is the slowest op with this many ops beyond it
HOST_REFERENCE_S = 1e-3  # time of one host_speed_s() loop on the reference host
HOST_INTERVAL_S = 0.1  # a closed loop measures the host's speed at least this often


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "quorumtune" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quorumtune sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


def host_speed_s() -> float:
    """The host's current speed: median time of five runs of a fixed
    pure-Python loop, about 1 ms each on a 2-vCPU VM.

    The host's speed swings by up to 2x within tens of seconds, and nothing
    inside the guest shows it: no steal time and no scheduling gaps.  The
    swings slow this loop and the program alike, so every timing is scaled
    by ``HOST_REFERENCE_S / host_speed_s()`` measured next to it, in the same
    process: the time the work would take on a host where the loop takes
    ``HOST_REFERENCE_S``.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _setup(workload: str, seed: int, tracer=None):
    """Import, input generation, expression parsing and warm-up; timed."""
    start = time.perf_counter()
    import workloads  # imports numpy and quorumtune

    if tracer is None:
        instance = workloads.WORKLOADS[workload](seed)
    else:
        import tracing

        with tracing.installed(tracer):
            instance = workloads.WORKLOADS[workload](seed)
    return time.perf_counter() - start, instance


def _setup_in_children(args, count: int) -> list[float]:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=True,
        )  # fmt: skip
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


class Raised:
    """An op that raised instead of returning; holds the traceback text."""

    def __init__(self, text: str):
        self.text = text


def closed_loop(instance, seconds: float):
    """Send ops back to back until ``seconds`` have passed, measuring the
    host's speed before an op whenever ``HOST_INTERVAL_S`` have passed since
    the last measurement (outside the op timings).

    Returns per-op latencies (s), each op's host scale (see
    :func:`host_speed_s`) and the op results.
    """
    ops = instance.ops
    times, scales, results = [], [], []
    deadline = time.perf_counter() + seconds
    measured = -HOST_INTERVAL_S
    i = 0
    while True:
        if time.perf_counter() - measured >= HOST_INTERVAL_S:
            scale = HOST_REFERENCE_S / host_speed_s()
            measured = time.perf_counter()
        now = time.perf_counter()
        try:
            result = instance.run(ops[i % len(ops)])
        except Exception:  # a raising op counts as failed; the loop goes on
            result = Raised(traceback.format_exc())
        done = time.perf_counter()
        times.append(done - now)
        scales.append(scale)
        results.append(result)
        i += 1
        if done >= deadline:
            return times, scales, results


def check_all(instance, results) -> list[str]:
    """Failure messages for the ops of one closed loop (which started at the
    first op).  A checker that raises on a malformed output fails the op."""
    failures = []
    for i, result in enumerate(results):
        op = instance.ops[i % len(instance.ops)]
        if isinstance(result, Raised):
            failures.append(f"op {i} raised:\n{result.text}")
            continue
        try:
            problem = instance.check(op, result)
        except Exception:
            problem = f"the check raised:\n{traceback.format_exc()}"
        if problem:
            failures.append(f"op {i}: {problem}")
    return failures


def misrounded_levels(instance, results) -> int:
    """Misrounded achieved levels over the first block of a closed loop: a
    fixed set of ops, so the count does not grow with the loop's speed."""
    count = getattr(instance, "misrounded", None)
    if count is None:
        return 0
    return sum(
        count(instance.ops[i], result)
        for i, result in enumerate(results[: instance.block])
        if not isinstance(result, Raised)
    )


def latency_summary(times: list[float], scales: list[float], block: int) -> dict:
    """Throughput, median and tail latency of one closed loop, in
    reference-host time (see :func:`host_speed_s`).

    Throughput and median are taken per complete block of ops (every block
    is the same work) and the median over blocks is reported.  The tail is
    the slowest op with ``TAIL_BEYOND`` ops beyond it, over the whole run.
    The same figures in unscaled wall time go beside them.
    """

    def summary(times):
        blocks = [times[i : i + block] for i in range(0, len(times) - block + 1, block)]
        if not blocks:  # a run too short for one block: use the partial one
            blocks = [times]
        ms = sorted(t * 1e3 for t in times)
        return {
            "complete_blocks": len(blocks),
            "ops_per_s": statistics.median(len(b) / sum(b) for b in blocks),
            "p50_ms": statistics.median(statistics.median(b) * 1e3 for b in blocks),
            "tail_ms": ms[k],
        }

    n = len(times)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "ops": n,
        **summary([t * scale for t, scale in zip(times, scales)]),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_ops_beyond": n - 1 - k,
        "host_speed_ms": statistics.median(HOST_REFERENCE_S / scale * 1e3 for scale in scales),
        "wall": summary(times),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _solve_n(label: str) -> int | None:
    prefix = "quorum.solve.n"
    return int(label[len(prefix):]) if label.startswith(prefix) else None


def layer_metrics(tracers: dict, ops: int, overhead_frac: float, misrounded: int) -> dict:
    """Per-layer metrics of a traced run.

    Times come from the workload phase; a layer the workload never calls is
    timed in the set-up phase, failing that in the probe.  Call counts are
    the workload phase's own, per op of that phase (``ops``), so that they
    measure work and not speed.
    """
    phases = [tracers["workload"], tracers["setup"], tracers["probe"]]
    work = tracers["workload"]

    def first_with(match):
        for tracer in phases:
            labels = [label for label in tracer.calls if match(label)]
            if labels:
                return tracer, labels
        raise RuntimeError("no phase called the layer")

    def mean(match, scale, per_work=False):
        tracer, labels = first_with(match)
        denominator = sum((tracer.work if per_work else tracer.calls)[label] for label in labels)
        return sum(tracer.self_ns[label] for label in labels) / denominator / scale

    def calls(match):
        return sum(c for label, c in work.calls.items() if match(label)) / ops

    def is_(*names):
        return lambda label: label in names

    def solve_at(test):
        return lambda label: _solve_n(label) is not None and test(_solve_n(label))

    def peak(label):
        tracer, _ = first_with(is_(label))
        return tracer.peak_bytes[label] / 1e6

    incr, _ = first_with(is_("clustering.learn.incr"))
    # The process's first solve at n = 100 builds the spectrum cache.
    cold = next(
        ns
        for ns in (t.first_ns("quorum.solve.n100") for t in tracers.values())
        if ns is not None
    )
    us, ms = 1e3, 1e6
    metrics = {
        "clustering.learn_us.seq": (mean(is_("clustering.learn.seq"), us), "us"),
        "clustering.learn_us.incr": (mean(is_("clustering.learn.incr"), us), "us"),
        "clustering.sample_us": (mean(is_("clustering.sample"), us), "us"),
        "clustering.learn_calls": (calls(is_("clustering.learn.seq", "clustering.learn.incr")), "1/op"),
        "clustering.lookup_us": (mean(is_("clustering.lookup"), us), "us"),
        "clustering.lookup_calls": (calls(is_("clustering.lookup")), "1/op"),
        "clustering.seed_frac.incr": (
            incr.counts.get("clustering.seeds.incr", 0) / incr.calls["clustering.learn.incr"],
            "ratio",
        ),
        "indicator.evaluate_us": (mean(is_("indicator.evaluate"), us), "us"),
        "indicator.evaluate_calls": (calls(is_("indicator.evaluate")), "1/op"),
        "indicator.parse_us": (mean(is_("indicator.parse"), us), "us"),
        "quorum.solve_ms.n_small": (mean(solve_at(lambda n: n < 25), ms), "ms"),
        "quorum.solve_ms.n25": (mean(solve_at(lambda n: n == 25), ms), "ms"),
        "quorum.solve_ms.n100": (mean(solve_at(lambda n: n == 100), ms), "ms"),
        "quorum.solve_calls": (calls(solve_at(lambda n: True)), "1/op"),
        "quorum.solve_cold_ms.n100": (cold / ms, "ms"),
        "quorum.level_us": (mean(is_("quorum.level"), us), "us"),
        "quorum.phi_misrounded": (misrounded, "count"),
    }
    for n in (5, 20, 100):
        label = f"simulate.empirical_staleness.n{n}"
        metrics[f"simulate.ns_per_trial.n{n}"] = (mean(is_(label), 1.0, per_work=True), "ns")
    for n in (5, 20, 100):
        metrics[f"simulate.peak_mb.n{n}"] = (peak(f"simulate.empirical_staleness.n{n}"), "MB")
    metrics["simulate.loop_self_ms"] = (mean(is_("simulate.loop"), ms), "ms")
    metrics["sweeps.point_self_ms"] = (mean(is_("sweeps.point"), ms), "ms")
    metrics["cli.main_self_ms"] = (mean(is_("cli.main"), ms), "ms")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


def metadata(args) -> dict:
    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_untraced(args) -> tuple[dict, dict, list, int]:
    setup_s, instance = _setup(args.workload, args.seed)
    setups = [{"setup_s": setup_s, "host_s": host_speed_s()}]
    setups += _setup_in_children(args, SETUP_REPEATS - 1)
    times, scales, results = closed_loop(instance, args.seconds)
    rss = peak_rss_mb()
    failures = check_all(instance, results)
    latency = latency_summary(times, scales, instance.block)
    scaled_setup = statistics.median(
        sample["setup_s"] * HOST_REFERENCE_S / sample["host_s"] for sample in setups
    )
    metrics = {
        "setup_s": (scaled_setup, "s"),
        "ops_per_s": (latency["ops_per_s"], "1/s"),
        "op_p50_ms": (latency["p50_ms"], "ms"),
        "op_tail_ms": (latency["tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "setup_samples_s": setups,
        "latency": latency,
        "phi_misrounded_first_block": misrounded_levels(instance, results),
    }
    return metrics, info, failures, len(results)


def run_traced(args) -> tuple[dict, dict, list, int]:
    import tracing

    tracers = {"setup": tracing.Tracer(), "workload": tracing.Tracer(), "probe": tracing.Tracer()}
    _, instance = _setup(args.workload, args.seed, tracers["setup"])
    import workloads

    # Half the time untraced, half traced, each from the first op; the rates
    # are compared over the ops both halves ran.
    plain_times, _, plain_results = closed_loop(instance, args.seconds / 2)
    with tracing.installed(tracers["workload"]):
        times, _, results = closed_loop(instance, args.seconds / 2)
    with tracing.installed(tracers["probe"]):
        workloads.probe()
    common = min(len(plain_times), len(times))
    plain_rate = common / sum(plain_times[:common])
    traced_rate = common / sum(times[:common])
    overhead = 1.0 - traced_rate / plain_rate
    failures = check_all(instance, plain_results) + check_all(instance, results)
    misrounded = misrounded_levels(instance, plain_results)
    metrics = layer_metrics(tracers, len(results), overhead, misrounded)
    layers = tracers["workload"].layer_self_ns()
    total = sum(layers.values())
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracing.save(spans, tracers)
    info = {
        "layer_self_share": {layer: ns / total for layer, ns in sorted(layers.items())},
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "overhead_ops": common,
        "spans": {phase: len(t.table) for phase, t in tracers.items()},
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, info, failures, len(plain_results) + len(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _use_checkout_sources()

    if args.setup_only:
        setup_s, _ = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "host_s": host_speed_s()}))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    run = run_traced if args.trace else run_untraced
    OUT.mkdir(exist_ok=True)
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = tempfile.mkdtemp(prefix="pycache-", dir=OUT)
    sys.dont_write_bytecode = False
    try:
        metrics, info, failures, attempted = run(args)
    finally:
        shutil.rmtree(sys.pycache_prefix, ignore_errors=True)
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    meta = metadata(args)
    for failure in failures[:5]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    print(f"# quorumtune benchmark {json.dumps(meta)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {len(failures) / attempted!r} ({len(failures)} of {attempted} ops)")
    if "latency" in info:
        latency = info["latency"]
        print(
            f"op_tail_ms is p{latency['tail_percentile']:.2f}: "
            f"{latency['tail_ops_beyond']} of {latency['ops']} ops beyond it"
        )
    for key, value in info.items():
        print(f"# {key} {json.dumps(value)}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, meta=meta, info=info, failures=failures[:20])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
