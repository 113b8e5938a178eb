"""A tiny arithmetic expression language for performance indicators.

Applications declare how their scalar performance indicator ``chi`` is
computed from the consistency level ``phi`` (and named constants) as a small
expression, parsed and compiled once and evaluated many times by the
controller::

    program = parse("A*phi^3 + B*phi^2 + C*phi + D")
    chi = evaluate(program, {"A": 1, "B": 1, "C": 0, "D": 0, "phi": 0.5})

Grammar (EBNF)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``+ - * /`` are left-associative and ``^`` is right-associative.  Unary
minus binds tighter than ``^`` in this grammar — ``factor`` raises a fully
parsed ``unary`` — so ``-2^2 == (-2)^2 == 4`` while ``2^-3`` is still legal.
The only functions are ``log10`` and ``abs``; unknown function names are
rejected at parse time.  Identifiers are ASCII letters/digits/underscores
starting with a letter; whitespace is insignificant.

The AST is a tree of frozen dataclasses with structural equality, and
:func:`unparse` emits a fully parenthesized form that re-parses to a
structurally identical tree.

Building an :class:`IndicatorProgram` compiles its AST to one generated
Python function of the bindings: straight-line code with one statement per
node, in the order a recursive evaluation would visit them, so each error is
the one that evaluation would raise first.  Generating source text is safe
here because nothing from the input reaches it unquoted: a parsed name
appears only as a dictionary key, through ``repr``, and its value is read
into a numbered local ``v<k>``; a parsed literal is a finite float, emitted
with ``repr``.  Anything else a hand-built tree holds, and each node that an
error message would name, is passed to the function as a global, not as
text.  So the generated source grows linearly in the expression's length,
as do the time and memory to compile it.  The adaptation loop and the
sweeps bind their relation's constants (``_with_constants``): the program
compiles once more, on first use, to a factory whose function reads each
constant from a closure cell, so each monitored sample reads and checks
only ``phi``.

Nesting is bounded by :data:`MAX_DEPTH`: the parser rejects source with
more nested parentheses than that, or whose tree is taller than that (a
long ``1+1+...`` sum is a tall left-leaning tree, ``2^2^...`` a tall
right-leaning one), with a :class:`ParseError` at the offending token; and
:class:`IndicatorProgram`, :func:`evaluate`, :func:`unparse` and
:func:`free_variables` reject a hand-built tree taller than that.  So no
input exhausts the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Mapping, Union

from .errors import EvaluationError, IndicatorError, ParseError, shown

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "IndicatorProgram",
    "Bindings",
    "FUNCTIONS",
    "MAX_DEPTH",
    "parse",
    "evaluate",
    "unparse",
    "free_variables",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/", "^"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # one of FUNCTIONS
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

Bindings = Mapping[str, float]

FUNCTIONS = ("log10", "abs")

# Deepest nesting accepted anywhere.  A level of parentheses costs the parser
# five interpreter frames and a tree level costs the compiler one, so this
# stays well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100

_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


@dataclass(frozen=True)
class IndicatorProgram:
    """A parsed indicator expression: the original source plus its AST.

    The AST is compiled once, when the program is built, to the function
    that :func:`evaluate` calls and the set of names it reads, and at most
    once more, on the first :func:`_with_constants`, to the factory that
    binds its constants.  None of these takes part in equality, hashing or
    ``repr``, and a pickled or copied program compiles anew.

    Raises:
        IndicatorError: for an AST taller than :data:`MAX_DEPTH`, which only
            a hand-built one can be.
    """

    source: str
    ast: Expr
    _run: Callable[[Bindings], float] = field(init=False, repr=False, compare=False)
    _names: frozenset[str] = field(init=False, repr=False, compare=False)
    _bind: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        make, names = _compile(self.ast, IndicatorError)
        object.__setattr__(self, "_run", make())
        object.__setattr__(self, "_names", names)

    def __reduce__(self):
        return type(self), (self.source, self.ast)

    def evaluate(self, bindings: Bindings) -> float:
        return evaluate(self, bindings)

    @property
    def free_variables(self) -> frozenset[str]:
        return self._names


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list.

    Each ``parse_*`` method returns the subtree with its height.  Only
    parentheses and calls recurse (chains of binary operators and of unary
    minus are parsed in loops), so counting the open ones in ``_depth``
    bounds the parser's own recursion, and ``_join`` bounds the height of
    the tree.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._index]

    def _advance(self) -> tuple[str, str, int]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _unexpected(self) -> ParseError:
        kind, text, pos = self._peek()
        if kind == "end":
            return ParseError("unexpected end of input", pos)
        return ParseError(f"unexpected {shown(text)}", pos)

    def _join(self, pos: int, *heights: int) -> int:
        """The height of a node over subtrees of ``heights``, or a
        :class:`ParseError` at ``pos`` when that is too tall."""
        height = 1 + max(heights)
        if height > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        return height

    def parse_binary(self, ops: str = "+-") -> tuple[Expr, int]:
        # A left-associative chain over the operator pair ``ops``: ``expr``
        # joins "*/" chains (terms) by "+-", and ``term`` joins factors by "*/".
        node, height = self.parse_binary("*/") if ops == "+-" else self.parse_factor()
        while self._peek()[0] == "op" and self._peek()[1] in ops:
            _, op, pos = self._advance()
            right, right_height = self.parse_binary("*/") if ops == "+-" else self.parse_factor()
            node, height = BinOp(op, node, right), self._join(pos, height, right_height)
        return node, height

    def parse_factor(self) -> tuple[Expr, int]:
        # unary ("^" unary)*, folded from the right because ^ is
        # right-associative: 2^3^2 == 2^(3^2).
        operands = [self.parse_unary()]
        carets = []
        while self._peek()[:2] == ("op", "^"):
            carets.append(self._advance()[2])
            operands.append(self.parse_unary())
        node, height = operands.pop()
        while operands:
            left, left_height = operands.pop()
            node, height = BinOp("^", left, node), self._join(carets.pop(), left_height, height)
        return node, height

    def parse_unary(self) -> tuple[Expr, int]:
        signs = []
        while self._peek()[:2] == ("op", "-"):
            signs.append(self._advance()[2])
        node, height = self.parse_atom()
        while signs:
            node, height = Neg(node), self._join(signs.pop(), height)
        return node, height

    def parse_atom(self) -> tuple[Expr, int]:
        kind, text, pos = self._peek()
        if kind == "number":
            self._advance()
            value = float(text)
            if not isfinite(value):
                digits = shown(text).strip("'")  # a number token holds no quote
                raise ParseError(f"number {digits} is out of range", pos)
            return Num(value), 1
        if kind == "ident":
            self._advance()
            if self._peek()[:2] != ("op", "("):
                return Var(text), 1
            if text not in FUNCTIONS:
                raise ParseError(f"unknown function {shown(text)}", pos)
        elif (kind, text) != ("op", "("):
            raise self._unexpected()
        # "(" expr ")", a call's argument or a group: the parser's only recursion.
        open_pos = self._advance()[2]
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, open_pos)
        node, height = self.parse_binary()
        if self._peek()[:2] != ("op", ")"):
            raise self._unexpected()
        self._advance()
        self._depth -= 1
        if kind == "ident":
            return Call(text, node), self._join(pos, height)
        return node, height

    def parse_program(self) -> Expr:
        node, _ = self.parse_binary()
        if self._peek()[0] != "end":
            raise self._unexpected()
        return node


def parse(source: str) -> IndicatorProgram:
    """Parse indicator source text into an :class:`IndicatorProgram`.

    Raises:
        ParseError: on malformed input, an unknown function name or a
            number too large for a double; the error carries the 0-based
            character offset of the problem.
    """
    if not isinstance(source, str):
        raise ParseError(f"expected source text, got {type(source).__name__}", 0)
    tokens = _tokenize(source)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 0)
    return IndicatorProgram(source=source, ast=_Parser(tokens).parse_program())


def _not_a_node(node: object) -> str:
    return f"not an expression node: {shown(node)}"


# The errors that generated code raises, each naming a variable or a node
# through ``shown``, so a long name or node is cut to 80 characters.
def _unbound(name: str) -> EvaluationError:
    return EvaluationError(f"unbound variable {shown(name)}")


def _not_real(name: str, value: object) -> EvaluationError:
    return EvaluationError(f"variable {shown(name)} is bound to {shown(value)}, not a real number")


def _non_finite(name: str, value: float) -> EvaluationError:
    return EvaluationError(f"variable {shown(name)} is bound to non-finite {value!r}")


def _overflow(node: Expr, value: float) -> EvaluationError:
    return EvaluationError(f"overflow: {shown(_unparse(node))} evaluates to {value!r}")


def _zero_division(node: Expr) -> EvaluationError:
    return EvaluationError(f"division by zero in {shown(_unparse(node))}")


def _domain_error(node: Expr, detail: object) -> EvaluationError:
    return EvaluationError(f"domain error in {shown(_unparse(node))}: {detail}")


# What generated code reads besides its argument, its locals and the builtins,
# each under its own ``__name__`` (``math.pow`` as ``pow``).
_RUNTIME = {f.__name__: f for f in (
    isfinite, math.pow, math.log10,
    _unbound, _not_real, _non_finite, _overflow, _zero_division, _domain_error,
)}


def _compile(
    ast: Expr, error: type[IndicatorError], bound: tuple[str, ...] = ()
) -> tuple[Callable[..., Callable[[Bindings], float]], frozenset[str]]:
    """A generated factory ``_make(c0, c1, ...)``, one parameter per name in
    ``bound``, whose result evaluates ``ast`` under bindings; and the names
    of the variables it reads.

    The function the factory returns reads each name in ``bound`` from the
    closure cell ``c<k>``, the factory's ``k``-th argument, with no check:
    it is taken to be finite, so ``_with_constants`` binds finite floats
    only.  It reads every other variable from the bindings.

    One walk does it all: it bounds the depth, raising ``error`` at the first
    node deeper than :data:`MAX_DEPTH` (so it never recurses past
    ``MAX_DEPTH + 1`` frames), and it collects each variable's name as it
    gives the variable a local.

    The body is straight-line code in post-order, left before right: each
    variable not in ``bound`` is read into a local ``v<k>`` at its first use,
    each interior node's value goes into a temporary ``t<k>``, and each
    node's checks come just before its operation.  An operand that is a
    variable or a finite literal is finite already, so its overflow test is
    left out.  A failed check raises through one of the helpers above, which
    format the message from the variable's name or from the node, passed in
    as a global ``k<k>``.  Message text baked into the source would repeat
    each checked node's subtree, so the source would grow as the tree's size
    times its height.
    """
    lines: list[str] = []
    namespace = dict(_RUNTIME)
    local_of: dict[object, str] = {name: f"c{k}" for k, name in enumerate(bound)}

    def global_(value: object) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def literal(value: object) -> str:
        # A parsed tree holds only names and finite floats, which repr
        # writes as literals; anything a hand-built tree holds goes global.
        if type(value) is str or (type(value) is float and isfinite(value)):
            return repr(value)
        return global_(value)

    def temp(expr: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"{name} = {expr}")
        return name

    def check_finite(node: Expr, operand: str) -> None:
        lines.append(f"if not isfinite({operand}): raise _overflow({global_(node)}, {operand})")

    def visit(node: Expr, depth: int) -> tuple[str, bool]:
        """The operand that holds ``node``'s value once the lines so far
        have run, and whether that value is known to be finite."""
        if depth > MAX_DEPTH:
            raise error(_TOO_DEEP)
        depth += 1
        if isinstance(node, BinOp):
            left, left_finite = visit(node.left, depth)
            right, right_finite = visit(node.right, depth)
            op = node.op
            if op in ("+", "*", "-"):
                return temp(f"{left} {op} {right}"), False
            if op == "/":
                lines.append(f"if {right} == 0.0: raise _zero_division({global_(node)})")
                if not right_finite:  # x / inf would hide an overflow as 0
                    check_finite(node.right, right)
                return temp(f"{left} / {right}"), False
            # pow(inf, 0), pow(0.5, inf) and the like would hide an overflow too.
            if not left_finite:
                check_finite(node.left, left)
            if not right_finite:
                check_finite(node.right, right)
            result = f"t{len(lines)}"
            lines.append(f"try: {result} = pow({left}, {right})")
            lines.append(
                "except (ValueError, OverflowError) as e: "
                f"raise _domain_error({global_(node)}, e) from None"
            )
            return result, False
        if isinstance(node, Var):
            name = node.name
            local = local_of.get(name)
            if local is None:
                local = local_of[name] = f"v{len(local_of)}"
                key = literal(name)
                lines.extend([
                    f"if {key} not in bindings: raise _unbound({key})",
                    f"try: {local} = float(bindings[{key}])",
                    "except (TypeError, ValueError, OverflowError): "
                    f"raise _not_real({key}, bindings[{key}]) from None",
                    f"if not isfinite({local}): raise _non_finite({key}, {local})",
                ])
            return local, True
        if isinstance(node, Num):
            value = node.value
            return literal(value), type(value) is float and isfinite(value)
        if isinstance(node, Neg):
            return temp(f"-{visit(node.operand, depth)[0]}"), False
        if not isinstance(node, Call):
            raise error(_not_a_node(node))
        arg = visit(node.arg, depth)[0]
        if node.func == "log10":
            lines.append(
                f"if {arg} <= 0.0: raise _domain_error({global_(node)}, "
                f"'log10 argument ' + repr({arg}) + ' is not positive')"
            )
            return temp(f"log10({arg})"), False
        return temp(f"abs({arg})"), False

    result, finite = visit(ast, 1)
    if not finite:
        check_finite(ast, result)
    cells = ", ".join(local_of[name] for name in bound)
    head = f"def _make({cells}):\n    def _indicator(bindings):\n"
    body = "".join(f"        {line}\n" for line in lines)
    exec(f"{head}{body}        return {result}\n    return _indicator\n", namespace)
    # Popped, so the factory and its globals form no cycle: a dropped
    # program is freed at once, not at the next full collection.
    return namespace.pop("_make"), frozenset(local_of)


def evaluate(program: IndicatorProgram | Expr, bindings: Bindings) -> float:
    """Evaluate a program (or bare AST) under the given variable bindings.

    Every result is finite.  Bindings and parsed literals are finite, so a
    non-finite value can only come from an overflow; ``+``, ``-``, ``*``,
    unary minus, ``abs`` and ``log10`` keep it non-finite, so it is caught
    once at the root, while ``/`` and ``^`` (which could turn it back into
    a finite number) check their operands.

    A program runs the function compiled when it was built; a bare AST is
    compiled on each call.

    Raises:
        EvaluationError: for an unbound variable, a binding that is not a
            finite real number, a tree nested deeper than :data:`MAX_DEPTH`,
            an overflow, or a numeric domain error (``log10`` of a
            non-positive value, division by zero, fractional power of a
            negative base); the message names the offending node.
    """
    if isinstance(program, IndicatorProgram):
        return program._run(bindings)  # the hot path: compiled when built
    return _compile(program, EvaluationError)[0]()(bindings)


def _with_constants(program: IndicatorProgram, constants: Bindings) -> IndicatorProgram:
    """``program`` with its constants bound, for a caller that evaluates it
    many times under ``constants`` with only ``phi`` rebound between calls.

    Binding is all or nothing.  When ``constants`` holds every name the
    program reads other than ``phi``, the result runs the program's bound
    factory (compiled on the first call and kept on the program) on those
    values, so its function reads each from a closure cell and only ``phi``
    from the bindings.  Each bound value must be a finite ``float``, as
    ``LoopConfig`` and ``RelationSpec`` make them; a cell holds the float
    itself, so ``-0.0`` keeps its sign.  :func:`evaluate` of the result
    under ``constants`` (``phi`` included) returns the same bits as that of
    ``program``, or raises the same error at the same node.  ``program``
    itself comes back when it reads no name but ``phi``, or when
    ``constants`` misses one.
    """
    bound = tuple(sorted(program._names - {"phi"}))
    if not bound or any(name not in constants for name in bound):
        return program
    if program._bind is None:
        object.__setattr__(program, "_bind", _compile(program.ast, IndicatorError, bound)[0])
    result = object.__new__(IndicatorProgram)
    vars(result).update(vars(program), _run=program._bind(*map(constants.__getitem__, bound)))
    return result


def unparse(node: Expr | IndicatorProgram) -> str:
    """Serialize an AST to a fully parenthesized source string.

    For any AST the parser can produce, ``parse(unparse(ast)).ast`` is
    structurally equal to ``ast``.  (A hand-built ``Num`` with a negative
    value serializes as a negation and therefore reparses as ``Neg``; the
    parser itself never produces negative literals.)

    Raises:
        IndicatorError: for a hand-built tree nested deeper than
            :data:`MAX_DEPTH`.
    """
    return _unparse(node.ast if isinstance(node, IndicatorProgram) else node)


def _unparse(node: Expr, depth: int = 1) -> str:
    if depth > MAX_DEPTH:
        raise IndicatorError(_TOO_DEEP)
    depth += 1
    if isinstance(node, Num):
        value = node.value
        if value < 0.0 or math.copysign(1.0, value) < 0.0:
            return f"(-{-value!r})"
        return repr(value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_unparse(node.operand, depth)})"
    if isinstance(node, BinOp):
        return f"({_unparse(node.left, depth)} {node.op} {_unparse(node.right, depth)})"
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg, depth)})"
    raise IndicatorError(_not_a_node(node))


def free_variables(node: Expr | IndicatorProgram) -> frozenset[str]:
    """All variable names the expression reads; a bare tree is compiled to
    collect them.

    Raises:
        IndicatorError: for a hand-built tree nested deeper than
            :data:`MAX_DEPTH`.
    """
    if isinstance(node, IndicatorProgram):
        return node._names
    return _compile(node, IndicatorError)[1]
