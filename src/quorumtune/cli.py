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
    enumerate_levels,
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

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split_list(text: str, kind_label: str, convert, parser: argparse.ArgumentParser):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        parser.error(f"expected a comma-separated list of {kind_label}, got {text!r}")
    try:
        return [convert(piece) for piece in items]
    except ValueError:
        parser.error(f"expected a comma-separated list of {kind_label}, got {text!r}")


def _cmd_phi(args: argparse.Namespace) -> int:
    level = consistency_level(QuorumConfig(r=args.r, w=args.w, n=args.n))
    print(repr(level.phi))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    options = SolveOptions(mode=SolveMode(args.mode), read_write_bias=_BIASES[args.bias])
    cfg = solve_quorum(args.phi, args.n, options)
    print(f"{cfg.r} {cfg.w} {consistency_level(cfg).phi!r}")
    return 0


def _cmd_levels(args: argparse.Namespace) -> int:
    print("r,w,phi")
    for cfg, level in enumerate_levels(args.n):
        print(f"{cfg.r},{cfg.w},{level.phi!r}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = QuorumConfig(r=args.r, w=args.w, n=args.n)
    sim = SimConfig(config=cfg, trials=args.trials, seed=args.seed)
    empirical = empirical_staleness(sim)
    analytic = staleness_probability(cfg)
    print(f"empirical={empirical!r} analytic={analytic!r}")
    return 0


def _relation_from_args(args: argparse.Namespace) -> RelationSpec:
    return RelationSpec(
        family=_RELATIONS[args.relation], a=args.A, b=args.B, c=args.C, d=args.D
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    relation = _relation_from_args(args)
    if args.algo == "seq":
        sweep = _split_list(args.sweep, "cluster counts", int, args.subparser)
        report = evaluate_sequential(relation, sweep, args.bootstrap, args.tests, args.seed)
    else:
        sweep = _split_list(args.sweep, "thresholds", float, args.subparser)
        report = evaluate_incremental(relation, sweep, args.bootstrap, args.tests, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_csv())
    return 0


def _parse_const(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise ValueError(text)
    return name.strip(), float(value)


def _cmd_loop(args: argparse.Namespace) -> int:
    program = parse_indicator(args.expr)
    targets = _split_list(args.targets, "target chi values", float, args.subparser)
    constants = {}
    for item in args.const:
        try:
            name, value = _parse_const(item)
        except ValueError:
            args.subparser.error(f"expected --const NAME=VALUE, got {item!r}")
        constants[name] = value
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
    csv_text = trace_to_csv(run_adaptation_loop(loop))
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    print(repr(parse_indicator(args.expr).ast))
    return 0


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


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # usage errors, while parsing or after (e.g. malformed lists)
        return 0 if exc.code in (0, None) else int(exc.code)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
