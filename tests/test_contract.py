"""The output contract, held as one SHA-256 per group of outputs.

Each group's outputs are joined and hashed, and the digest is compared with
the committed one, so a failure names the group that moved.  The groups that
draw through ``Generator.random`` (reports, loops, snapshots) are kept apart
from those that draw through the simulator's samplers, so a numpy release
that changes one sampler names it.  A deliberate contract change re-takes the
digest of its group and says which group moved and why; ``python
tests/test_contract.py`` prints every group's digest.

The file imports nothing but ``quorumtune``, so it also runs against an
installed package.
"""

import contextlib
import hashlib
import io
import os

import pytest

from quorumtune import (
    DomainError,
    IncrementalClusterer,
    IncrementalRow,
    LoopConfig,
    QuorumConfig,
    RelationFamily,
    RelationSpec,
    RmseReport,
    SequentialClusterer,
    SequentialRow,
    SimConfig,
    SolveOptions,
    evaluate_incremental,
    evaluate_sequential,
    iter_levels,
    parse,
    run_adaptation_loop,
    solve_quorum,
)
from quorumtune.cli import main


def _cli(*argv):
    """``main(argv)`` in process, as its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}"


def _rejection(call, *args, **kwargs):
    with pytest.raises(DomainError) as info:
        call(*args, **kwargs)
    return f"{type(info.value).__name__}: {info.value}"


def _reports():
    """Criteria 5 and 6: every family's sweeps at seed 42, with the default
    constants and with A = 2, C = -1."""
    for family in RelationFamily:
        for constants in ({}, {"a": 2.0, "c": -1.0}):
            spec = RelationSpec(family, **constants)
            yield evaluate_sequential(spec, [5, 10, 50, 100], seed=42).to_csv()
            yield evaluate_incremental(spec, [0.01, 0.02, 0.05, 0.1, 0.2], seed=42).to_csv()


def _loops():
    clusterers = (
        ["--algo", "seq"],
        ["--algo", "seq", "--capacity", "50"],
        ["--algo", "incr"],
        ["--algo", "incr", "--threshold", "1e-15"],
    )
    for n in (5, 25, 100):
        for clusterer in clusterers:
            yield _cli(
                "loop", "--expr", "A*phi^2 + B*phi + C", "--const", "A=1", "--const", "B=0.5",
                "--const", "C=-0.25", "--targets", "-0.2,0,0.3,0.6,0.9,1.2", "--n", str(n),
                "--seed", "7", *clusterer,
            )
    yield _cli(
        "loop", "--expr", "A*phi + C", "--const", "A=1", "--const", "C=0",
        "--targets", "0.5,0.9", "--n", "5", "--seed", "7",
    )


def _snapshots():
    """Each family's clusters after a 3,000-sample loop, for both clusterers."""
    for family in RelationFamily:
        spec = RelationSpec(family)
        for clusterer in (SequentialClusterer(50), IncrementalClusterer(0.01)):
            run_adaptation_loop(
                LoopConfig(spec.program, clusterer, 3000, (spec.chi(0.5),), 11, 25, spec.constants)
            )
            yield clusterer.csv_snapshot()


def _simulate(pairs, trials):
    for r, w, n in pairs:
        yield _cli(
            "simulate", "--r", str(r), "--w", str(w), "--n", str(n),
            "--trials", str(trials), "--seed", "7",
        )


def _simulate_stepped():
    """Pairs read one replica at a time: CI's, and every weak pair up to n = 12."""
    ci = [(2, 3, 5), (3, 2, 5), (1, 1, 5), (2, 3, 7), (3, 2, 7), (10, 20, 40), (20, 10, 40)]
    yield from _simulate([*ci, (3, 3, 5)], 100_000)
    weak = [(r, w, n) for n in range(2, 13) for r in range(1, n) for w in range(1, n - r + 1)]
    yield from _simulate(weak, 3000)


def _simulate_hypergeometric():
    yield from _simulate([(10, 10, 100), (10, 12, 100), (12, 10, 100), (15, 20, 200)], 100_000)


def _levels():
    for n in (1, 2, 3, 5, 30, 61, 97, 150, 200):
        yield "".join(f"{c.r},{c.w},{level.phi.hex()}\n" for c, level in iter_levels(n))


_COMMANDS = ("phi", "solve", "levels", "simulate", "evaluate", "loop", "parse")

_USAGE_ERRORS = (
    [],
    ["bogus"],
    ["phi", "--r", "2"],
    ["phi", "--r", "x", "--w", "3", "--n", "5"],
    ["phi", "--r", "2", "--w", "3", "--n", "5", "extra"],
    ["solve", "--phi", "0.5", "--n", "5", "--mode", "odd"],
    ["simulate", "--r", "1", "--w", "1", "--n", "5", "--trials", "1e5", "--seed", "7"],
    ["evaluate", "--relation", "cubic", "--algo", "seq", "--sweep", "a,b", "--seed", "1",
     "--out", "unused.csv"],
    ["loop", "--expr", "phi", "--targets", ",", "--n", "5", "--seed", "1"],
    ["loop", "--expr", "A*phi", "--targets", "0.5", "--n", "5", "--seed", "1", "--const", "A"],
)


def _help_and_usage():
    yield _cli("--help")
    for command in _COMMANDS:
        yield _cli(command, "--help")
    for argv in _USAGE_ERRORS:
        yield _cli(*argv)


_LOOP = ["loop", "--targets", "0.5", "--n", "5", "--seed", "1"]

_DOMAIN_ERRORS = (
    ["phi", "--r", "0", "--w", "1", "--n", "5"],
    ["phi", "--r", "6", "--w", "1", "--n", "5"],
    ["phi", "--r", "1", "--w", "6", "--n", "5"],
    ["solve", "--phi", "2", "--n", "5"],
    ["solve", "--phi", "0.5", "--n", "1", "--mode", "faithful"],
    ["levels", "--n", "0"],
    ["simulate", "--r", "1", "--w", "1", "--n", "1000000000", "--trials", "10", "--seed", "1"],
    ["simulate", "--r", "1", "--w", "1", "--n", "5", "--trials", "10", "--seed", "-1"],
    [*_LOOP, "--expr", "phi", "--capacity", "2000"],
    [*_LOOP, "--expr", "phi", "--algo", "incr", "--threshold", "0"],
    [*_LOOP, "--expr", "foo(phi)"],
    [*_LOOP, "--expr", "phi +"],
    [*_LOOP, "--expr", "phi )"],
    [*_LOOP, "--expr", "phi $"],
    [*_LOOP, "--expr", "1e999 * phi"],
    [*_LOOP, "--expr", "A*phi"],
    ["loop", "--expr", "phi", "--targets", "0.5,inf", "--n", "5", "--seed", "1"],
    ["evaluate", "--relation", "linear", "--algo", "seq", "--sweep", "5000", "--seed", "1",
     "--out", os.devnull],
)


def _rejections():
    """The message of every rejection of a short value, from the CLI and the API."""
    for argv in _DOMAIN_ERRORS:
        yield _cli(*argv)
    spec = RelationSpec(RelationFamily.LINEAR)
    program = spec.program
    yield _rejection(QuorumConfig, 2, 6, 5)
    yield _rejection(SimConfig, (1, 1, 5), 10, 1)
    yield _rejection(SimConfig, QuorumConfig(1, 1, 10**9), 10, 1)
    yield _rejection(LoopConfig, "phi", SequentialClusterer(5), 10, (0.5,), 1, 5)
    yield _rejection(LoopConfig, program, "seq", 10, (0.5,), 1, 5)
    yield _rejection(LoopConfig, program, SequentialClusterer(10), 5, (0.5,), 1, 5)
    yield _rejection(SolveOptions, mode="extended")
    yield _rejection(SolveOptions, read_write_bias="balanced")
    yield _rejection(solve_quorum, 1.5, 5)
    yield _rejection(RelationSpec, "linear")
    yield _rejection(RmseReport, spec, "bogus", 1, 1000, 100, ())
    yield _rejection(RmseReport, spec, "seq", 1, 1000, 100, (IncrementalRow(0.1, 3, 0.2),))
    yield _rejection(RmseReport, spec, "incr", 1, 1000, 100, (SequentialRow(5, 0.2),))
    yield _rejection(RmseReport, spec, "seq", 1, 1000, 100, (SequentialRow(5, -1.0),))
    yield _rejection(RmseReport, spec, "seq", 1, 1000, 100, (SequentialRow(0, 1.0),))
    yield _rejection(evaluate_sequential, spec, [2000])
    yield _rejection(parse, 5)
    yield _rejection(parse, "log(phi) + exp(phi)")
    yield _rejection(parse, "12345678901234567890e400")


_GROUPS = {
    "reports": (
        _reports,
        "fad37235cc24bc6c5a5f760ef0a6cf516c46686db71c4d027b815966c7333a1a",
    ),
    "loops": (
        _loops,
        "f111f4a131e6a7c8f586668dc90383001ff636ebe98256dcf5d97c031a2f23f7",
    ),
    "snapshots": (
        _snapshots,
        "c97ed69c87b392f890e4d2b76a429df64ccea6e1517b760155887d63d4cbe8b9",
    ),
    "simulate_stepped": (
        _simulate_stepped,
        "9bd1e36e737d416b3ed4e2740f3323e7a972dd9f6e484a938080747adc9486ac",
    ),
    "simulate_hypergeometric": (
        _simulate_hypergeometric,
        "bae956d489e457da21f265e9724894cf8887d758b8f3927ebc72176e39706313",
    ),
    "levels": (
        _levels,
        "55a2ea3d9d20689200ce2c9a9b79bf81d029b698f776894fb7a1f8869ca27193",
    ),
    "help_and_usage": (
        _help_and_usage,
        "668e0fb466d91ec128c0f9ca6c406175538abcd4266840eb9cd92e946b881e19",
    ),
    "rejections": (
        _rejections,
        "ca7e7128eaec80433ed850d03ffbb097b62bf12e1b9a86e1b82fdc4fdab9475a",
    ),
}


def _digest(outputs):
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


@pytest.fixture
def fixed_width(monkeypatch):
    # argparse wraps help to the terminal's width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.usefixtures("fixed_width")
@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_group_digest(group):
    outputs, digest = _GROUPS[group]
    assert _digest(outputs()) == digest


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for name, (outputs, _) in _GROUPS.items():
        print(f"{name}: {_digest(outputs())}")
