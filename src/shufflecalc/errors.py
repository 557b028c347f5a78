"""Exception types shared across the package."""


class ShuffleCalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShuffleCalcError, ValueError):
    """An argument violates a documented precondition."""


class TruncationError(DomainError):
    """A value beyond the configured truncation degree was requested."""


ECHO_LIMIT = 40


def quoted(value) -> str:
    """``repr(value)`` for an error message, with each unprintable
    character escaped and cut to its first ``ECHO_LIMIT`` characters plus
    the full length when longer, so that an error stays one short line
    whatever the input holds (a ``Word`` repr shows its letters raw)."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in repr(value))
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} chars)"
