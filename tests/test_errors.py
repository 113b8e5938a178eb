"""The shared rejection rules in ``errors.py``, and the API's rejection
contract: every public constructor and call either returns or raises a
:class:`DomainError` whose message stays short, whatever it is given."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumtune import (
    Cluster,
    ConfigError,
    ConsistencyLevel,
    DomainError,
    EvaluationError,
    IncrementalClusterer,
    IncrementalRow,
    LoopConfig,
    LoopTraceEntry,
    ParseError,
    QuorumConfig,
    ReadWriteBias,
    RelationFamily,
    RelationSpec,
    RmseReport,
    Sample,
    SequentialClusterer,
    SequentialRow,
    SimConfig,
    SolveMode,
    SolveOptions,
    consistency_level,
    evaluate,
    evaluate_incremental,
    evaluate_sequential,
    free_variables,
    parse,
    solve_quorum,
    staleness_probability,
    unparse,
)
from quorumtune.errors import check_type, shown

HUGE = 10**5000  # past Python's int-to-str limit, so repr(HUGE) raises
LONG = "x" * 10**5
LINEAR = RelationSpec(RelationFamily.LINEAR)
MESSAGE_LIMIT = 300


class TestShown:
    @pytest.mark.parametrize(
        "value, text",
        [
            (5, "5"),
            ("x", "'x'"),
            (None, "None"),
            (HUGE, "<int of 16610 bits>"),
            (-HUGE, "<int of 16610 bits>"),
            (SequentialRow(HUGE, 0.0), "<SequentialRow>"),
            ((1, HUGE), "<tuple>"),
        ],
        ids=["int", "str", "none", "huge-int", "huge-negative-int", "row-of-huge-int", "tuple"],
    )
    def test_formats_every_value(self, value, text):
        assert shown(value) == text

    def test_bounds_a_long_repr(self):
        text = shown(LONG)
        assert len(text) == 80
        assert text == repr(LONG)[:77] + "..."

    def test_keeps_a_repr_of_80_characters(self):
        value = "y" * 78
        assert shown(value) == repr(value)


class TestCheckType:
    def test_accepts_an_instance(self):
        check_type(SolveMode.FAITHFUL, SolveMode, "mode")

    @pytest.mark.parametrize(
        "type_, message",
        [
            (SolveMode, "mode must be a SolveMode, got 'faithful'"),
            (RelationFamily, "mode must be a RelationFamily, got 'faithful'"),
            (SequentialRow, "mode must be a SequentialRow, got 'faithful'"),
            (IncrementalRow, "mode must be an IncrementalRow, got 'faithful'"),
        ],
    )
    def test_names_the_field_and_its_type(self, type_, message):
        with pytest.raises(ConfigError) as info:
            check_type("faithful", type_, "mode")
        assert str(info.value) == message

    def test_bounds_the_rejected_value(self):
        with pytest.raises(ConfigError) as info:
            check_type(LONG, SolveMode, "mode")
        assert len(str(info.value)) == len("mode must be a SolveMode, got ") + 80


class TestOptionsAreChecked:
    @pytest.mark.parametrize("options", [None, "faithful", SolveMode.FAITHFUL])
    def test_solve_quorum(self, options):
        with pytest.raises(ConfigError, match="^options must be a SolveOptions, got "):
            solve_quorum(0.5, 5, options)

    @pytest.mark.parametrize("options", [None, "x", SolveMode.FAITHFUL])
    def test_loop_config(self, options):
        # Checked when the loop is built, not when it first solves.
        with pytest.raises(ConfigError, match="^options must be a SolveOptions, got "):
            LoopConfig(parse("phi"), SequentialClusterer(5), 10, (0.5,), 1, 5, options=options)

    def test_loop_config_keeps_good_options(self):
        options = SolveOptions(mode=SolveMode.FAITHFUL)
        loop = LoopConfig(parse("phi"), SequentialClusterer(5), 10, (0.5,), 1, 5, options=options)
        assert loop.options is options


@pytest.mark.parametrize(
    "call, args, error",
    [
        (SimConfig, (HUGE, 1, 1), ConfigError),
        (QuorumConfig, (HUGE, 1, 5), ConfigError),
        (QuorumConfig, (1, HUGE, 5), ConfigError),
        (SimConfig, (QuorumConfig(1, 1, HUGE), 1, 1), ConfigError),
        (RmseReport, (LINEAR, "seq", 1, 10, 10, (SequentialRow(HUGE, -1.0),)), ConfigError),
        (RmseReport, (LINEAR, LONG, 1, 10, 10, ()), ConfigError),
        (evaluate_sequential, (LINEAR, [HUGE]), ConfigError),
        (LoopConfig, (parse("phi"), LONG, 1, (), 1, 5), ConfigError),
        (LoopConfig, (LONG, SequentialClusterer(1), 1, (), 1, 5), ConfigError),
        (solve_quorum, (10**300, 5), DomainError),
        (parse, ("a" * 10**6 + "(1)",), ParseError),
        (parse, ("phi " + "a" * 10**6,), ParseError),
        (parse, ("9" * 10**4,), ParseError),
        (evaluate, (parse("a" * 10**6), {}), EvaluationError),
        (evaluate, (parse(LONG + "/0"), {LONG: 1.0}), EvaluationError),
        (evaluate, (parse(LONG), {LONG: math.inf}), EvaluationError),
        (evaluate, (parse(LONG), {LONG: LONG}), EvaluationError),
        (evaluate, (parse(f"log10({LONG})"), {LONG: -1.0}), EvaluationError),
        (evaluate, (parse(LONG + "*1e308*10"), {LONG: 1.0}), EvaluationError),
        (evaluate_sequential, ("x", [5], 5, 1), ConfigError),
        (evaluate_sequential, (LINEAR, None), ConfigError),
        (evaluate_incremental, (LINEAR, None), ConfigError),
        (LoopConfig, (parse("phi"), SequentialClusterer(5), 10, None, 1, 5), ConfigError),
        (LoopConfig, (parse("phi"), SequentialClusterer(5), 10, (0.5,), 1, 5, 5), ConfigError),
    ],
    ids=[
        "simconfig-huge-config", "quorum-huge-r", "quorum-huge-w", "simconfig-huge-n",
        "report-row-huge-clusters", "report-long-algorithm", "sweep-huge-capacity",
        "loop-long-clusterer", "loop-long-relation", "solve-huge-target",
        "parse-long-function", "parse-long-unexpected", "parse-long-number",
        "evaluate-long-unbound", "evaluate-long-zero-division", "evaluate-long-non-finite",
        "evaluate-long-not-real", "evaluate-long-log10", "evaluate-long-overflow",
        "sweep-relation-str", "sweep-counts-none", "sweep-thresholds-none",
        "loop-targets-none", "loop-constants-int",
    ],
)
def test_a_huge_or_long_value_is_rejected_in_a_short_message(call, args, error):
    with pytest.raises(error) as info:
        call(*args)
    assert len(str(info.value)) <= MESSAGE_LIMIT


@pytest.mark.parametrize(
    "call, args, message",
    [
        (evaluate_sequential, ("x", [5], 5, 1), "relation must be a RelationSpec, got 'x'"),
        (evaluate_sequential, (LINEAR, None), "cluster_counts must be an Iterable, got None"),
        (evaluate_incremental, (LINEAR, 0.5), "thresholds must be an Iterable, got 0.5"),
        (
            LoopConfig, (parse("phi"), SequentialClusterer(5), 10, None, 1, 5),
            "targets must be an Iterable, got None",
        ),
        (
            LoopConfig, (parse("phi"), SequentialClusterer(5), 10, (), 1, 5, 5),
            "constants must be a Mapping, got 5",
        ),
    ],
    ids=["sweep-relation", "sweep-counts", "sweep-thresholds", "loop-targets", "loop-constants"],
)
def test_a_container_is_checked_by_the_type_rule(call, args, message):
    with pytest.raises(ConfigError) as info:
        call(*args)
    assert str(info.value) == message


def _learned():
    clusterer = SequentialClusterer(1)
    clusterer.learn(Sample(0.0, 0.5))
    return clusterer


def _loop(targets=(0.5,), constants=None):
    constants = {"A": 1.0} if constants is None else constants
    return LoopConfig(parse("A*phi"), SequentialClusterer(5), 10, targets, 1, 5, constants)


@pytest.mark.parametrize(
    "value, taken",
    [
        ("0.5", None), (True, None), (Decimal("0.5"), None), (np.array(0.5), None),
        (HUGE, None), (np.float32(0.5), 0.5), (Fraction(1, 2), 0.5), (np.int64(1), 1.0),
    ],
    ids=["str", "bool", "Decimal", "array", "huge-int", "float32", "Fraction", "int64"],
)
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda v: solve_quorum(v, 5), "phi_target", id="solve_quorum"),
        pytest.param(ConsistencyLevel, "consistency level", id="ConsistencyLevel"),
        pytest.param(
            lambda v: IncrementalClusterer(v).threshold, "threshold", id="IncrementalClusterer"
        ),
        pytest.param(lambda v: Sample(v, 0.5), "sample chi", id="Sample-chi"),
        pytest.param(lambda v: Sample(0.0, v), "sample phi", id="Sample-phi"),
        pytest.param(lambda v: _learned().lookup(v), "chi_target", id="lookup"),
        pytest.param(lambda v: RelationSpec(RelationFamily.LINEAR, a=v), "constant A", id="RelationSpec"),
        pytest.param(lambda v: _loop(targets=(v,)).targets, "target", id="LoopConfig-target"),
        pytest.param(
            lambda v: _loop(constants={"A": v}).constants, "constant 'A'", id="LoopConfig-constant"
        ),
        pytest.param(lambda v: SequentialRow(5, v), "rmse", id="row-float"),
    ],
)
def test_one_rule_for_every_real_number(call, name, value, taken):
    # A real is a numbers.Real other than a bool, kept as a float; anything
    # else is rejected in a message that names the field.
    if taken is None:
        with pytest.raises(ConfigError) as info:
            call(value)
        assert str(info.value) == f"{name} must be a real number, got {shown(value)}"
    else:
        assert repr(call(value)) == repr(call(taken))


@pytest.mark.parametrize("row", [Cluster, SequentialRow, IncrementalRow, LoopTraceEntry])
def test_every_row_field_is_declared_int_or_float(row):
    # A row checks each field by its declared type, so each must declare one
    # of the two.
    assert {field.type for field in dataclasses.fields(row)} <= {"int", "float"}


def test_a_long_evaluation_error_keeps_its_ellipsis():
    with pytest.raises(EvaluationError) as info:
        evaluate(parse(LONG + "/0"), {LONG: 1.0})
    assert str(info.value) == f"division by zero in '({'x' * 75}..."


def test_a_long_number_keeps_its_ellipsis():
    with pytest.raises(ParseError) as info:
        parse("9" * 10**4)
    assert str(info.value) == f"syntax error at position 0: number {'9' * 76}... is out of range"


# Values that no field takes, or that a field takes only by conversion.
_WRONG = st.sampled_from(
    [
        None, math.nan, math.inf, -1, 0, 1.5, True,
        np.float64(0.5), np.int64(5), "5", LONG, (), object(),
    ]
)


def _mostly(values, wrong=_WRONG):
    """A draw from ``values`` 3 times in 4, from ``wrong`` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: wrong if k == 3 else values)


# A size drawn huge only where it must be rejected: by a check, not by work.
_SIZE = _mostly(st.integers(1, 30))
_LARGE = st.sampled_from([10**9, 2**64, HUGE])
_SEED = _mostly(st.integers(0, 100), st.sampled_from([-1, 2**64, HUGE]) | _WRONG)
_REAL = _mostly(st.floats(-2.0, 2.0), st.sampled_from([10**300, HUGE, -HUGE]) | _WRONG)
_SOLVE_OPTIONS = _mostly(
    st.builds(SolveOptions, st.sampled_from(SolveMode), st.sampled_from(ReadWriteBias))
)
_CLUSTERER = _mostly(
    st.builds(SequentialClusterer, st.integers(1, 5)) | st.just(IncrementalClusterer(0.1)),
    st.sampled_from([LONG, HUGE]) | _WRONG,
)
# Row fields that each row accepts, so the draw cannot raise: a count of
# any size, and a real the report may still reject (a negative rmse or
# threshold).  The row constructors get wrong values through _CALLS.
_COUNT_FIELD = st.sampled_from([1, 5, HUGE])
_REAL_FIELD = st.sampled_from([0, 5, -1.0, 0.0, 0.5, 1e308])
_ROWS = st.lists(
    st.builds(SequentialRow, _COUNT_FIELD, _REAL_FIELD)
    | st.builds(IncrementalRow, _REAL_FIELD, _COUNT_FIELD, _REAL_FIELD),
    max_size=3,
).map(tuple)


@st.composite
def _quorum(draw):
    """(r, w, n), with r or w above n where it is huge."""
    n = draw(_SIZE)
    r, w = draw(_SIZE), draw(_SIZE)
    if draw(st.booleans()):
        r, w = draw(st.sampled_from([(HUGE, w), (r, HUGE), (HUGE, HUGE)]))
    return r, w, n


@st.composite
def _sim_config(draw):
    config = draw(_mostly(
        st.builds(QuorumConfig, st.just(1), st.just(1), st.integers(1, 30) | _LARGE)
    ))
    return config, draw(_SIZE), draw(_SEED)


@st.composite
def _solve(draw):
    return draw(_REAL), draw(_SIZE), draw(_SOLVE_OPTIONS)


@st.composite
def _loop_config(draw):
    relation = draw(_mostly(st.just(parse("A*phi + C")), st.sampled_from(["phi", LONG]) | _WRONG))
    clusterer = draw(_CLUSTERER)
    targets = draw(_mostly(st.lists(_REAL, max_size=3)))
    constants = draw(_mostly(st.just({"A": 1.0, "C": 0.0})))
    return (
        relation, clusterer, draw(_SIZE), targets, draw(_SEED),
        draw(_SIZE), constants, draw(_SOLVE_OPTIONS),
    )


@st.composite
def _relation_spec(draw):
    return (draw(_mostly(st.sampled_from(RelationFamily))), *(draw(_REAL) for _ in range(4)))


@st.composite
def _report(draw):
    relation = draw(_mostly(st.just(LINEAR), st.sampled_from(["linear", LONG]) | _WRONG))
    algorithm = draw(_mostly(st.sampled_from(["seq", "incr"]), st.just(["seq"]) | _WRONG))
    rows = draw(_mostly(_ROWS | _ROWS.map(list)))
    return relation, algorithm, draw(_SEED), draw(_SIZE), draw(_SIZE), rows


# A sweep has at most 3 points of at most 20 learns and 3 lookups each; a
# capacity is huge only above the bootstrap of 20.
_BOOTSTRAP = _mostly(st.just(20))
_TESTS = _mostly(st.integers(1, 3))


_SWEEP_RELATION = _mostly(st.just(LINEAR))


@st.composite
def _sweep_sequential(draw):
    counts = draw(_mostly(
        st.lists(_mostly(st.integers(1, 20), st.just(HUGE) | _WRONG), max_size=3)
    ))
    return draw(_SWEEP_RELATION), counts, draw(_BOOTSTRAP), draw(_TESTS), draw(_SEED)


@st.composite
def _sweep_incremental(draw):
    thresholds = draw(_mostly(st.lists(_REAL, max_size=3)))
    return draw(_SWEEP_RELATION), thresholds, draw(_BOOTSTRAP), draw(_TESTS), draw(_SEED)


_SOURCES = st.text(alphabet="phiAC0123456789e.+-*/^() logx$", max_size=30) | st.sampled_from(
    [
        "a" * 10**5 + "(1)", "phi " + "a" * 10**5, "9" * 10**4, "(" * 10**5, "phi " + ")" * 10**5,
        HUGE, None, b"phi",
    ]
)


# Programs that read one variable, named briefly or at length, each where one
# evaluation error would name that variable or a node around it.
_PROGRAMS = [
    parse(template.format(name))
    for name in ("phi", LONG)
    for template in (
        "{}", "{}/0", "1/({0}-{0})", "log10({})", "{}*1e308*10", "(-1-{})^0.5", "2^{}",
    )
]
_BINDING = st.sampled_from(
    [0.5, 0.0, -1.0, 1e308, math.inf, -math.inf, math.nan, "5", "x", LONG, 10**300, HUGE, None]
)


@st.composite
def _evaluate(draw):
    """A program and dict bindings: its variable missing, or bound to a
    number, a non-finite float, a string or a huge int."""
    program = draw(st.sampled_from(_PROGRAMS))
    (name,) = program.free_variables
    bindings = draw(st.just({}) | _BINDING.map(lambda value: {name: value}))
    return program, bindings


_CONFIG = _mostly(
    st.builds(QuorumConfig, st.integers(1, 5), st.integers(1, 5), st.just(5)),
    st.just((1, 1, 5)) | _WRONG,
)
# A tree, a program, or something else: a name, a long string or a wrong value.
_NODE = _mostly(
    st.sampled_from(_PROGRAMS) | st.sampled_from([program.ast for program in _PROGRAMS]),
    st.sampled_from(["phi", LONG]) | _WRONG,
)
# A row field: a plain or numpy number, a huge int, or a wrong value.
_FIELD = _mostly(st.sampled_from([0, 5, -1.0, 0.5, np.float64(0.5), np.int64(5), HUGE]))


_CALLS = {
    "QuorumConfig": (QuorumConfig, _quorum()),
    "SimConfig": (SimConfig, _sim_config()),
    "SolveOptions": (
        SolveOptions,
        st.tuples(_mostly(st.sampled_from(SolveMode)), _mostly(st.sampled_from(ReadWriteBias))),
    ),
    "solve_quorum": (solve_quorum, _solve()),
    "SequentialClusterer": (SequentialClusterer, st.tuples(_SIZE)),
    "IncrementalClusterer": (IncrementalClusterer, st.tuples(_REAL)),
    "LoopConfig": (LoopConfig, _loop_config()),
    "RelationSpec": (RelationSpec, _relation_spec()),
    "RmseReport": (RmseReport, _report()),
    "evaluate_sequential": (evaluate_sequential, _sweep_sequential()),
    "evaluate_incremental": (evaluate_incremental, _sweep_incremental()),
    "parse": (parse, st.tuples(_SOURCES)),
    "evaluate": (evaluate, _evaluate()),
    "consistency_level": (consistency_level, st.tuples(_CONFIG)),
    "staleness_probability": (staleness_probability, st.tuples(_CONFIG)),
    "unparse": (unparse, st.tuples(_NODE)),
    "free_variables": (free_variables, st.tuples(_NODE)),
    "SequentialRow": (SequentialRow, st.tuples(_FIELD, _FIELD)),
    "IncrementalRow": (IncrementalRow, st.tuples(_FIELD, _FIELD, _FIELD)),
    "LoopTraceEntry": (LoopTraceEntry, st.tuples(*[_FIELD] * 5)),
    "Cluster": (Cluster, st.tuples(_FIELD, _FIELD, _FIELD)),
}


class TestRejectionContract:
    """Every call returns or raises a DomainError of at most 300 characters."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_call_returns_or_raises_a_short_domain_error(self, data):
        name = data.draw(st.sampled_from(sorted(_CALLS)), label="call")
        call, arguments = _CALLS[name]
        args = data.draw(arguments, label="args")
        try:
            call(*args)
        except DomainError as exc:
            assert len(str(exc)) <= MESSAGE_LIMIT, shown(str(exc))
