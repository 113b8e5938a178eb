"""Command-line interface.

Subcommands::

    phi       print the consistency level of a quorum configuration
    solve     invert a desired level into a quorum configuration
    levels    dump the achievable level spectrum at n replicas as CSV
    simulate  Monte-Carlo staleness estimate next to the analytic value
    evaluate  RMSE sweep over a relation family, written as CSV
    loop      run the closed adaptation loop, trace written as CSV
    parse     parse an indicator expression and print its AST

Exit status: 0 on success, 1 on usage errors (bad flags/arguments), 2 on
domain errors (inputs that parse but violate a precondition).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys
from typing import Sequence

from .clustering import IncrementalClusterer, SequentialClusterer
from .errors import DomainError
from .indicator import parse as parse_indicator
from .quorum import (
    QuorumConfig,
    ReadWriteBias,
    SolveMode,
    SolveOptions,
    consistency_level,
    iter_levels,
    solve_quorum,
    staleness_probability,
)
from .simulate import LoopConfig, SimConfig, empirical_staleness, run_adaptation_loop, trace_to_csv
from .sweeps import RelationFamily, RelationSpec, evaluate_incremental, evaluate_sequential

__all__ = ["main", "build_parser"]

_RELATIONS = {
    "linear": RelationFamily.LINEAR,
    "quadratic": RelationFamily.QUADRATIC,
    "cubic": RelationFamily.CUBIC,
    "log": RelationFamily.LOGARITHMIC,
}

_BIASES = {
    "reads": ReadWriteBias.READS_DOMINATE,
    "writes": ReadWriteBias.WRITES_DOMINATE,
    "balanced": ReadWriteBias.BALANCED,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    domain errors, so usage problems are remapped to exit status 1."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads "-1,-0.5" as a flag, since it is not a plain number;
        # no option here starts with "-<digit>", so such a word is a value.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split_list(text: str, kind_label: str, convert, parser: argparse.ArgumentParser):
    # int and float strip the whitespace around each piece themselves.
    try:
        items = [convert(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        items = []
    if not items:
        parser.error(f"expected a comma-separated list of {kind_label}, got {text!r}")
    return items


def _cmd_phi(args: argparse.Namespace) -> None:
    level = consistency_level(QuorumConfig(r=args.r, w=args.w, n=args.n))
    print(repr(level.phi))


def _cmd_solve(args: argparse.Namespace) -> None:
    options = SolveOptions(mode=SolveMode(args.mode), read_write_bias=_BIASES[args.bias])
    cfg = solve_quorum(args.phi, args.n, options)
    print(f"{cfg.r} {cfg.w} {consistency_level(cfg).phi!r}")


def _cmd_levels(args: argparse.Namespace) -> None:
    levels = iter_levels(args.n)  # checks n before the header is printed
    print("r,w,phi")
    for cfg, level in levels:
        print(f"{cfg.r},{cfg.w},{level.phi!r}")


def _cmd_simulate(args: argparse.Namespace) -> None:
    cfg = QuorumConfig(r=args.r, w=args.w, n=args.n)
    sim = SimConfig(config=cfg, trials=args.trials, seed=args.seed)
    empirical = empirical_staleness(sim)
    analytic = staleness_probability(cfg)
    print(f"empirical={empirical!r} analytic={analytic!r}")


def _open_out(path: str | None):
    """The CSV destination: ``path`` opened for writing, or stdout when
    ``path`` is None.  Commands open it before their run, so an unwritable
    path fails at once; a run that fails later leaves the file empty."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    relation = RelationSpec(_RELATIONS[args.relation], args.A, args.B, args.C, args.D)
    if args.algo == "seq":
        sweep = _split_list(args.sweep, "cluster counts", int, args.subparser)
        run_sweep = evaluate_sequential
    else:
        sweep = _split_list(args.sweep, "thresholds", float, args.subparser)
        run_sweep = evaluate_incremental
    with _open_out(args.out) as handle:
        handle.write(run_sweep(relation, sweep, args.bootstrap, args.tests, args.seed).to_csv())


def _parse_const(text: str, parser: argparse.ArgumentParser) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    with contextlib.suppress(ValueError):
        if sep:
            return name.strip(), float(value)
    parser.error(f"expected --const NAME=VALUE, got {text!r}")


def _cmd_loop(args: argparse.Namespace) -> None:
    program = parse_indicator(args.expr)
    targets = _split_list(args.targets, "target chi values", float, args.subparser)
    constants = dict(_parse_const(item, args.subparser) for item in args.const)
    missing = sorted(program.free_variables - set(constants) - {"phi"})
    if missing:
        raise DomainError(
            f"expression reads unbound variable(s) {', '.join(missing)}; "
            "bind them with --const NAME=VALUE"
        )
    if args.algo == "seq":
        clusterer = SequentialClusterer(args.capacity)
    else:
        clusterer = IncrementalClusterer(args.threshold)
    loop = LoopConfig(
        relation=program,
        clusterer=clusterer,
        bootstrap_samples=args.bootstrap,
        targets=targets,
        seed=args.seed,
        n=args.n,
        constants=constants,
    )
    with _open_out(args.out) as handle:
        handle.write(trace_to_csv(run_adaptation_loop(loop)))


def _cmd_parse(args: argparse.Namespace) -> None:
    print(repr(parse_indicator(args.expr).ast))


def _add_constant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--A", type=float, default=1.0, help="relation constant A (default 1)")
    parser.add_argument("--B", type=float, default=1.0, help="relation constant B (default 1)")
    parser.add_argument("--C", type=float, default=0.0, help="relation constant C (default 0)")
    parser.add_argument("--D", type=float, default=0.0, help="relation constant D (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quorumtune",
        description="Tunable quorum consistency: exact math, adaptation, simulation, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("phi", help="print the consistency level of (r, w, n)")
    p.add_argument("--r", type=int, required=True, help="read quorum size")
    p.add_argument("--w", type=int, required=True, help="write quorum size")
    p.add_argument("--n", type=int, required=True, help="replica count")
    p.set_defaults(func=_cmd_phi, subparser=p)

    p = sub.add_parser("solve", help="invert a desired level into (r, w)")
    p.add_argument("--phi", type=float, required=True, help="desired consistency level in [0, 1]")
    p.add_argument("--n", type=int, required=True, help="replica count")
    p.add_argument("--mode", choices=["faithful", "extended"], default="extended")
    p.add_argument("--bias", choices=sorted(_BIASES), default="balanced")
    p.set_defaults(func=_cmd_solve, subparser=p)

    p = sub.add_parser("levels", help="dump the achievable level spectrum as CSV")
    p.add_argument("--n", type=int, required=True, help="replica count")
    p.set_defaults(func=_cmd_levels, subparser=p)

    p = sub.add_parser("simulate", help="Monte-Carlo staleness vs the analytic value")
    p.add_argument("--r", type=int, required=True, help="read quorum size")
    p.add_argument("--w", type=int, required=True, help="write quorum size")
    p.add_argument("--n", type=int, required=True, help="replica count")
    p.add_argument("--trials", type=int, required=True, help="number of simulated reads")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.set_defaults(func=_cmd_simulate, subparser=p)

    p = sub.add_parser("evaluate", help="RMSE sweep over a relation family, written as CSV")
    p.add_argument("--relation", choices=sorted(_RELATIONS), required=True)
    p.add_argument("--algo", choices=["seq", "incr"], required=True)
    p.add_argument(
        "--sweep",
        required=True,
        help="comma-separated cluster counts (seq) or thresholds (incr)",
    )
    p.add_argument("--bootstrap", type=int, default=1000, help="training samples per point")
    p.add_argument("--tests", type=int, default=100, help="test targets per point")
    p.add_argument("--seed", type=int, required=True, help="master sweep seed")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_constant_flags(p)
    p.set_defaults(func=_cmd_evaluate, subparser=p)

    p = sub.add_parser("loop", help="run the closed adaptation loop; trace as CSV")
    p.add_argument("--expr", required=True, help="indicator expression, e.g. 'A*phi + C'")
    p.add_argument("--targets", required=True, help="comma-separated target chi values")
    p.add_argument("--algo", choices=["seq", "incr"], default="seq")
    p.add_argument("--capacity", type=int, default=1000, help="sequential cluster capacity")
    p.add_argument("--threshold", type=float, default=0.01, help="incremental admission threshold")
    p.add_argument("--n", type=int, required=True, help="replica count")
    p.add_argument("--bootstrap", type=int, default=1000, help="monitored bootstrap samples")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument(
        "--const",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a constant read by the expression (repeatable)",
    )
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_loop, subparser=p)

    p = sub.add_parser("parse", help="parse an indicator expression and print the AST")
    p.add_argument("--expr", required=True, help="indicator expression source")
    p.set_defaults(func=_cmd_parse, subparser=p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call rather than at import, and then reused:
    # parse_args leaves the parser unchanged, and --const's append action
    # copies its default list before appending.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # usage errors, while parsing or after (e.g. malformed lists)
        return 0 if exc.code in (0, None) else int(exc.code)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
