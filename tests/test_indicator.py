"""Unit tests for the indicator expression language."""

import collections
import copy
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_ast, tuple_eval, tuple_free_variables, tuple_to_source
from quorumtune import indicator
from quorumtune import (
    BinOp,
    Call,
    MAX_DEPTH,
    EvaluationError,
    IndicatorError,
    IndicatorProgram,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    free_variables,
    parse,
    unparse,
)


class TestParse:
    def test_linear_relation_shape(self):
        program = parse("A*phi + C")
        assert program.ast == BinOp("+", BinOp("*", Var("A"), Var("phi")), Var("C"))
        assert program.source == "A*phi + C"

    def test_cubic_relation_shape(self):
        ast = parse("A*phi^3 + B*phi^2 + C*phi + D").ast
        cube = BinOp("*", Var("A"), BinOp("^", Var("phi"), Num(3.0)))
        square = BinOp("*", Var("B"), BinOp("^", Var("phi"), Num(2.0)))
        linear = BinOp("*", Var("C"), Var("phi"))
        assert ast == BinOp("+", BinOp("+", BinOp("+", cube, square), linear), Var("D"))

    def test_whitespace_is_insignificant(self):
        assert parse(" A * phi\t+ C ").ast == parse("A*phi+C").ast

    @pytest.mark.parametrize("source", ["1.5e-3", ".5", "2.", "1e6", "0.25"])
    def test_number_formats(self, source):
        ast = parse(source).ast
        assert ast == Num(float(source))

    def test_function_call(self):
        assert parse("log10(phi)").ast == Call("log10", Var("phi"))
        assert parse("abs( - phi )").ast == Call("abs", Neg(Var("phi")))

    @pytest.mark.parametrize(
        "source,position",
        [
            ("1 + * 2", 4),
            ("", 0),
            ("   ", 0),
            ("(1+2", 4),
            ("1+2)", 3),
            ("1 2", 2),
            ("$", 0),
            ("foo(3)", 0),
            ("1 +", 3),
            pytest.param("(" * 3000 + "1" + ")" * 3000, 100, id="deep-parentheses"),
            pytest.param("^".join(["2"] * 3000), 5799, id="deep-powers"),
            pytest.param("-" * 3000 + "1", 2900, id="deep-negations"),
            pytest.param("abs(" * 3000 + "1" + ")" * 3000, 403, id="deep-calls"),
            pytest.param("+".join(["1"] * 3000), 199, id="long-sum"),
            pytest.param("1e400*0+phi", 0, id="huge-literal"),
            pytest.param("phi + 2.5E+999", 6, id="huge-literal-later"),
        ],
    )
    def test_errors_carry_positions(self, source, position):
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        assert excinfo.value.position == position
        assert f"position {position}" in str(excinfo.value)

    def test_nesting_up_to_the_limit_is_accepted(self):
        # MAX_DEPTH - 1 negations over a literal make a tree MAX_DEPTH tall.
        program = parse("-" * (MAX_DEPTH - 1) + "1")
        assert evaluate(program, {}) == -1.0
        assert parse(unparse(program)).ast == program.ast
        assert evaluate(parse("+".join(["1"] * MAX_DEPTH)), {}) == MAX_DEPTH
        assert evaluate(parse("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH), {}) == 1.0

    def test_unknown_function_rejected_at_parse_time(self):
        with pytest.raises(ParseError):
            parse("sqrt(4)")
        # ... but the same name without a call is an ordinary variable.
        assert parse("sqrt").ast == Var("sqrt")


class TestPrecedence:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("2+3*4", 14.0),
            ("(2+3)*4", 20.0),
            ("2^3^2", 512.0),
            ("-2^2", 4.0),
            ("2^-3", 0.125),
            ("2*-3", -6.0),
            ("10-4-3", 3.0),
            ("16/4/2", 2.0),
            ("1 - -1", 2.0),
        ],
    )
    def test_golden_values(self, source, expected):
        assert evaluate(parse(source), {}) == expected


class TestEvaluate:
    def test_golden_examples(self):
        assert evaluate(parse("A*phi + C"), {"A": 2, "C": 1, "phi": 0.5}) == 2.0
        assert evaluate(parse("A*log10(phi) + C"), {"A": 1, "C": 0, "phi": 0.1}) == -1.0

    def test_log_domain_errors(self):
        program = parse("A*log10(phi)")
        with pytest.raises(EvaluationError, match="log10"):
            evaluate(program, {"A": 1, "phi": 0.0})
        with pytest.raises(EvaluationError):
            evaluate(program, {"A": 1, "phi": -2.0})

    def test_unbound_variable_named(self):
        with pytest.raises(EvaluationError, match="'B'"):
            evaluate(parse("A + B"), {"A": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate(parse("1/(phi - phi)"), {"phi": 3.0})

    def test_power_domain_errors(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("0 ^ -1"), {})
        with pytest.raises(EvaluationError):
            evaluate(parse("(-8) ^ 0.5"), {})

    def test_non_finite_binding_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("phi"), {"phi": float("inf")})

    @pytest.mark.parametrize(
        "source",
        [
            "phi*1e308*10",
            "1/(phi*1e308*10)",
            "(phi*1e308*10)^0",
            "0.5^(phi*1e308*10)",
            "phi*1e308*10 - phi*1e308*10",
            "abs(-phi*1e308*10)",
            "log10(phi*1e308*10)",
        ],
    )
    def test_overflow_is_evaluation_error(self, source):
        with pytest.raises(EvaluationError, match="overflow"):
            evaluate(parse(source), {"phi": 1.0})

    def test_hand_built_infinite_literal_is_evaluation_error(self):
        with pytest.raises(EvaluationError, match="overflow"):
            evaluate(Num(math.inf), {})
        with pytest.raises(EvaluationError, match="overflow"):
            evaluate(BinOp("/", Num(1.0), Num(math.inf)), {})

    def test_underflow_is_not_an_error(self):
        assert evaluate(parse("phi*1e-400 + 1/(phi*1e308)/1e308"), {"phi": 1.0}) == 0.0

    @pytest.mark.parametrize("bad", ["x", None, pytest.param(10**400, id="10**400")])
    def test_non_number_binding_rejected(self, bad):
        with pytest.raises(EvaluationError, match="'A'"):
            evaluate(parse("A"), {"A": bad})

    def test_accepts_bare_ast_and_program_method(self):
        program = parse("phi*2")
        assert evaluate(program.ast, {"phi": 3}) == 6.0
        assert program.evaluate({"phi": 3}) == 6.0


class TestUnparse:
    @pytest.mark.parametrize(
        "source",
        [
            "A*phi + C",
            "A*phi^3 + B*phi^2 + C*phi + D",
            "A*log10(phi) + C",
            "-(a+b)*c",
            "2^-3^0.5",
            "abs(-x_1)/3",
        ],
    )
    def test_round_trip_golden(self, source):
        ast = parse(source).ast
        assert parse(unparse(ast)).ast == ast

    def test_negative_literal_note(self):
        # Hand-built negative literals reparse as negation; documented edge.
        assert parse(unparse(Num(-2.0))).ast == Neg(Num(2.0))

    def test_accepts_program(self):
        program = parse("a + b")
        assert unparse(program) == "(a + b)"


class TestFreeVariables:
    def test_collects_names(self):
        program = parse("A*log10(phi) + C - -x_1")
        assert free_variables(program) == frozenset({"A", "phi", "C", "x_1"})
        assert program.free_variables == frozenset({"A", "phi", "C", "x_1"})
        assert free_variables(parse("1 + 2")) == frozenset()


class TestRandomizedAgainstOracle:
    def test_eval_matches_recursive_oracle(self):
        rnd = random.Random(20240515)
        env = {"phi": 0.37, "A": 2.5, "B": -1.25, "C": 0.75, "D": 4.0, "x_1": 1.5}
        checked = 0
        attempts = 0
        while checked < 300:
            attempts += 1
            assert attempts < 20000, "oracle generator starved"
            tree = random_ast(rnd, depth=6)
            source = tuple_to_source(tree)
            program = parse(source)
            try:
                expected = tuple_eval(tree, env)
            except ArithmeticError:
                with pytest.raises(EvaluationError):
                    evaluate(program, env)
                continue
            if not math.isfinite(expected):
                continue  # overflow-to-inf through * or +: unpinned behavior
            got = evaluate(program, env)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            checked += 1

    def test_free_variables_match_oracle_leaves(self):
        rnd = random.Random(9090)
        for _ in range(300):
            tree = random_ast(rnd, depth=8)
            program = parse(tuple_to_source(tree))
            expected = tuple_free_variables(tree)
            assert free_variables(program.ast) == expected
            assert program.free_variables == expected

    def test_round_trip_random_asts(self):
        rnd = random.Random(7171)
        for _ in range(300):
            tree = random_ast(rnd, depth=8)
            ast = parse(tuple_to_source(tree)).ast
            assert parse(unparse(ast)).ast == ast


def negations(height):
    """A hand-built chain of ``height - 1`` negations over ``Num(1.0)``."""
    tree = Num(1.0)
    for _ in range(height - 1):
        tree = Neg(tree)
    return tree


def right_spine(height):
    """A hand-built chain of ``height - 1`` powers, each nesting the next as
    its right operand, over ``Num(2.0)``."""
    tree = Num(2.0)
    for _ in range(height - 1):
        tree = BinOp("^", Num(2.0), tree)
    return tree


@pytest.mark.parametrize(
    "tree",
    [
        pytest.param(negations(MAX_DEPTH + 1), id=str(MAX_DEPTH + 1)),
        pytest.param(negations(5000), id="5000"),
        # The too-deep branch as the right operand of a BinOp whose left
        # operand is shallow, and as the argument of a Call.
        pytest.param(BinOp("+", Var("x"), negations(MAX_DEPTH)), id="binop-right-101"),
        pytest.param(BinOp("*", Num(1.0), negations(4999)), id="binop-right-5000"),
        pytest.param(right_spine(5000), id="right-spine-5000"),
        pytest.param(Call("abs", negations(MAX_DEPTH)), id="call-arg-101"),
        pytest.param(Call("log10", BinOp("-", Var("y"), negations(4998))), id="call-arg-5000"),
    ],
)
def test_hand_built_tree_past_the_limit_is_rejected(tree):
    with pytest.raises(EvaluationError, match="deeper than"):
        evaluate(tree, {})
    with pytest.raises(IndicatorError, match="deeper than"):
        unparse(tree)
    with pytest.raises(IndicatorError, match="deeper than"):
        free_variables(tree)
    with pytest.raises(IndicatorError, match="deeper than"):
        IndicatorProgram("-1", tree)


def test_hand_built_tree_at_the_limit_is_accepted():
    tree = negations(MAX_DEPTH)
    assert evaluate(IndicatorProgram("-1", tree), {}) == -1.0
    assert parse(unparse(tree)).ast == tree
    assert free_variables(tree) == frozenset()


def test_program_is_immutable():
    program = parse("a+b")
    with pytest.raises(AttributeError):
        program.ast = Num(1.0)  # type: ignore[misc]


def test_parse_requires_text():
    with pytest.raises(ParseError):
        parse(None)  # type: ignore[arg-type]


# Messages recorded from the tree-walking evaluator: the first failure in
# post-order (left before right) is the one reported.
@pytest.mark.parametrize(
    "source, bindings, message",
    [
        ("1/0 + x", {}, "division by zero in '(1.0 / 0.0)'"),
        ("x + 1/0", {}, "unbound variable 'x'"),
        (
            "log10(-phi) ^ (1/0)",
            {"phi": 1.0},
            "domain error in 'log10((-phi))': log10 argument -1.0 is not positive",
        ),
        (
            "(phi*10)^400 + 1/0",
            {"phi": 1.0},
            "domain error in '((phi * 10.0) ^ 400.0)': math range error",
        ),
        ("1/0 + (phi*10)^400", {"phi": 1.0}, "division by zero in '(1.0 / 0.0)'"),
        (
            "(phi*10)^400 * (1/(phi-phi))",
            {"phi": 2.0},
            "domain error in '((phi * 10.0) ^ 400.0)': math range error",
        ),
        ("(-2)^0.5 + x", {}, "domain error in '((-2.0) ^ 0.5)': math domain error"),
        ("A", {"A": "inf"}, "variable 'A' is bound to non-finite inf"),
        ("A", {"A": None}, "variable 'A' is bound to None, not a real number"),
        (
            "phi*1e308*10 - phi*1e308*10",
            {"phi": 1.0},
            "overflow: '(((phi * 1e+308) * 10.0) - ((phi * 1e+308) * 10.0))' evaluates to nan",
        ),
        ("-(1e308*10)", {}, "overflow: '(-(1e+308 * 10.0))' evaluates to -inf"),
        ("1/x", {"x": -0.0}, "division by zero in '(1.0 / x)'"),
    ],
)
def test_first_error_in_post_order_is_reported(source, bindings, message):
    with pytest.raises(EvaluationError) as info:
        evaluate(parse(source), bindings)
    assert str(info.value) == message
    with pytest.raises(EvaluationError) as info:
        evaluate(parse(source).ast, bindings)
    assert str(info.value) == message


def test_default_dict_binding_is_still_unbound():
    bindings = collections.defaultdict(float, x=1.0)
    with pytest.raises(EvaluationError) as info:
        evaluate(parse("x + y"), bindings)
    assert str(info.value) == "unbound variable 'y'"
    assert "y" not in bindings


@pytest.mark.parametrize(
    "source", ["A*phi + C", "A*phi^3 + B*phi^2 + C*phi + D", "abs(A*log10(phi) + B) - -x_1/2"]
)
def test_pickle_and_deepcopy_round_trip(source):
    program = parse(source)
    bindings = {"A": 2.5, "B": -1.25, "C": 0.75, "D": 4.0, "phi": 0.37, "x_1": 1.5}
    for copied in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program), copy.copy(program)):
        assert copied == program
        assert hash(copied) == hash(program)
        assert repr(copied) == repr(program)
        assert evaluate(copied, bindings).hex() == evaluate(program, bindings).hex()


def test_names_cannot_clash_with_the_generated_code():
    names = ["if", "return", "None", "bindings", "float", "abs", "repr", "e", "t0", "k0", "v_x", "x"]
    bindings = {name: float(2**k) for k, name in enumerate(names)}
    assert evaluate(parse(" + ".join(names)), bindings) == 2.0 ** len(names) - 1


def test_hand_built_names_need_not_be_identifiers():
    tree = BinOp("+", Var("a b"), BinOp("*", Var(3), Var("a b")))
    assert evaluate(tree, {"a b": 2.0, 3: 5.0}) == 12.0
    with pytest.raises(EvaluationError) as info:
        evaluate(Var("it's"), {})
    assert str(info.value) == "unbound variable \"it's\""


def test_a_value_that_is_not_a_node_is_an_indicator_error():
    for call in (unparse, free_variables, lambda node: IndicatorProgram("phi", node)):
        with pytest.raises(IndicatorError) as info:
            call("phi")
        assert str(info.value) == "not an expression node: 'phi'"
    with pytest.raises(EvaluationError, match="^not an expression node: None$"):
        evaluate(BinOp("+", Var("x"), None), {"x": 1.0})


# Constant values as LoopConfig and RelationSpec pass them on: finite
# floats, both zeros among them.
_CONSTANT = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
# Each name random_ast reads, "phi" included; a drawn map may miss any.
_CONSTANTS = st.dictionaries(st.sampled_from(("A", "B", "C", "D", "x_1", "phi")), _CONSTANT)


def outcome(program, bindings):
    """The result's type and exact text, or the error's type and message."""
    try:
        value = evaluate(program, bindings)
    except Exception as exc:  # the comparison covers every exception
        return type(exc), str(exc)
    return type(value), repr(value)


class TestConstantsWrittenIn:
    """``indicator._with_constants`` compiles a program with its constants as
    literals; evaluating it must match evaluating the program itself."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 5),
        maps=st.lists(_CONSTANTS, min_size=1, max_size=3),
        phis=st.lists(st.sampled_from([0.5, 1e-6, 1.0, -0.0, 0.0, 1e300, -2.0]), max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_evaluate_on_the_full_bindings(self, seed, depth, maps, phis):
        # One program under several constant maps in turn, as a sweep and a
        # loop run one after another: a map must never get another's literals,
        # not even those of the map with each float negated (0.0 and -0.0
        # compare equal).
        program = parse(tuple_to_source(random_ast(random.Random(seed), depth)))
        maps += [{k: -v if isinstance(v, float) else v for k, v in m.items()} for m in maps]
        for constants in maps:
            folded = indicator._with_constants(program, constants)
            bindings = dict(constants)
            assert outcome(folded, bindings) == outcome(program, bindings)
            for phi in phis:
                bindings["phi"] = phi
                assert outcome(folded, bindings) == outcome(program, bindings)

    def test_negative_zero_after_zero_keeps_its_sign(self):
        program = parse("A*phi")
        zero = indicator._with_constants(program, {"A": 0.0})
        negative = indicator._with_constants(program, {"A": -0.0})
        assert repr(evaluate(zero, {"A": 0.0, "phi": 0.5})) == "0.0"
        assert repr(evaluate(negative, {"A": -0.0, "phi": 0.5})) == "-0.0"

    @pytest.mark.parametrize(
        "constants", [{}, {"phi": 0.5}, {"B": 2.0}], ids=["missing", "phi-only", "unread"]
    )
    def test_a_constant_that_is_not_written_in_is_read(self, constants):
        program = parse("A*phi")
        assert indicator._with_constants(program, constants) is program

    def test_equal_programs_over_different_trees_are_kept_apart(self):
        # A hand-built Num(0.0) equals Num(-0.0), so these programs compare
        # equal; each must still run its own tree.
        positive = IndicatorProgram("A*0", BinOp("*", Var("A"), Num(0.0)))
        negative = IndicatorProgram("A*0", BinOp("*", Var("A"), Num(-0.0)))
        assert positive == negative
        for program, text in ((positive, "0.0"), (negative, "-0.0")):
            folded = indicator._with_constants(program, {"A": 1.0})
            assert repr(evaluate(folded, {"A": 1.0})) == text

    def test_phi_is_never_written_in(self):
        program = parse("phi + A")
        folded = indicator._with_constants(program, {"phi": 1.0, "A": 2.0})
        assert evaluate(folded, {"phi": 5.0, "A": 2.0}) == 7.0

    def test_one_compile_per_program(self):
        program = parse("A*phi + B")
        one = indicator._with_constants(program, {"A": 1.0, "B": 0.0})
        two = indicator._with_constants(program, {"A": 2.0, "B": 0.0})
        assert one._run.__code__ is two._run.__code__
        assert evaluate(two, {"phi": 0.5}) == 1.0  # A and B come from the cells
        assert indicator._with_constants(program, {"A": 1.0}) is program
        restored = pickle.loads(pickle.dumps(two))
        assert restored == program and restored._bind is None
        assert evaluate(restored, {"A": 3.0, "B": 0.0, "phi": 0.5}) == 1.5

    def test_the_folded_programs_are_bounded_in_memory(self):
        # The program's bound factory compiles once, on the first set; each
        # later set only makes a closure, which the next one replaces, so
        # 10,000 sets hold as much as one.
        program = parse("A")
        bindings = {}
        tracemalloc.start()
        try:
            for k in range(10_000):
                bindings["A"] = float(k)
                folded = indicator._with_constants(program, bindings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert evaluate(folded, bindings) == 9999.0
        assert peak < 2**20
