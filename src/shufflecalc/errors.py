"""Exception types shared across the package."""


class ShuffleCalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShuffleCalcError, ValueError):
    """An argument violates a documented precondition."""


class TruncationError(DomainError):
    """A value beyond the configured truncation degree was requested."""


ECHO_LIMIT = 40


def quoted(value) -> str:
    """``repr(value)`` for an error message, cut to its first
    ``ECHO_LIMIT`` characters plus the full length when longer, so that an
    error line stays short whatever the input holds."""
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} chars)"
