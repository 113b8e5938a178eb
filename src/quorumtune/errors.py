"""Exception hierarchy shared across the package.

Every violated precondition raises a subclass of :class:`DomainError`, so
callers (notably the CLI) can distinguish domain problems from genuine bugs
with a single ``except`` clause.  The input checks shared by the other
modules (:func:`check_type`, :func:`check_count`, :func:`check_seed`,
:func:`as_real`, :func:`as_finite`) live here too, so each rule and its
message are written once.  Every rejection by a constructor, a solve or the
parser that prints the rejected value, here or in another module, formats it
with :func:`shown`, so its message stays short whatever the input.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "ConfigError",
    "SolveError",
    "UnlearnedError",
    "IndicatorError",
    "ParseError",
    "EvaluationError",
]


class DomainError(ValueError):
    """Base class for all precondition/domain violations raised by quorumtune."""


class ConfigError(DomainError):
    """An invalid configuration value (quorum triple, simulation, sweep, ...)."""


class SolveError(DomainError):
    """The inverse solver was asked for something its search space cannot hold."""


class UnlearnedError(DomainError):
    """A lookup was attempted on a clusterer that has not learned any samples."""


class IndicatorError(DomainError):
    """Base class for indicator-language errors."""


class ParseError(IndicatorError):
    """Malformed indicator source text.

    ``position`` is the 0-based character offset into the source at which the
    problem was detected.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class EvaluationError(IndicatorError):
    """A well-formed program could not be evaluated (unbound variable or a
    numeric domain error such as ``log10`` of a non-positive value)."""


def shown(value: object) -> str:
    """``repr(value)`` for an error message, at most 80 characters long.

    ``repr`` itself raises ``ValueError`` for an int of more than 4300 digits
    (Python's int-to-str limit); such an int is described by its size, and
    any other value whose ``repr`` raises (say, a dataclass holding such an
    int) by its type's name.
    """
    try:
        text = repr(value)
    except Exception:
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        text = f"<{type(value).__name__}{size}>"
    return text if len(text) <= 80 else text[:77] + "..."


def check_type(value: object, type_: type, name: str) -> None:
    """Require an instance of ``type_``."""
    if not isinstance(value, type_):
        article = "an" if type_.__name__[0] in "AEIOU" else "a"
        raise ConfigError(f"{name} must be {article} {type_.__name__}, got {shown(value)}")


def check_count(value: int, name: str) -> None:
    """Require an ``int`` (not a ``bool``) that is at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {shown(value)}")


def check_seed(seed: int) -> None:
    """Require an ``int`` (not a ``bool``) in [0, 2**64), the PCG64 seed range."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {shown(seed)}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {shown(seed)}")


def as_real(value: float, name: str) -> float:
    """``float(value)``, or a :class:`ConfigError` naming ``name`` when the
    value is not a number or is out of the float range (e.g. ``10**400``)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a real number, got {shown(value)}") from None


def as_finite(value: float, name: str) -> float:
    """:func:`as_real`, then a :class:`ConfigError` naming ``name`` when the
    number is infinite or nan."""
    value = as_real(value, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value
