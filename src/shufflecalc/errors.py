"""Exception types shared across the package, and the checks that more
than one module makes: ``is_int`` for integer arguments and ``quoted`` for
echoing a value in an error line."""


class ShuffleCalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShuffleCalcError, ValueError):
    """An argument violates a documented precondition."""


class TruncationError(DomainError):
    """A value beyond the configured truncation degree was requested."""


ECHO_LIMIT = 40


def is_int(x) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def quoted(value) -> str:
    """``repr(value)`` for an error message, with each unprintable
    character escaped and cut to its first ``ECHO_LIMIT`` characters plus
    the full length when longer, so that an error stays one short line
    whatever the input holds (a ``Word`` repr shows its letters raw)."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in repr(value))
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} chars)"
