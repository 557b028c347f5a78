"""Word-value tables: exact scalars, word enumeration, and the moment and
cumulant tables that the CLI reads and writes.

A table holds one ``Fraction`` per word of length 1..max_len over its
alphabet.  Tables are plain data: the integer kernel in ``cumulants``, the
partition oracles and the bar-word engine in ``functionals`` all read them,
and this module imports none of those layers.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, TruncationError, quoted
from .words import Word

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_SCALAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_scalar(obj) -> Fraction:
    """Accept ints and strings of the form ``[+-]?digits(/digits)?``; no
    decimals, exponents, underscores or surrounding space."""
    if isinstance(obj, bool):
        raise DomainError(f"not a scalar: {quoted(obj)}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if _SCALAR.fullmatch(obj) is None:
            raise DomainError(f"malformed scalar {quoted(obj)}")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed scalar {quoted(obj)}") from exc
    raise DomainError(f"not a scalar: {quoted(obj)}")


def format_scalar(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:
        # str(int) refuses more digits than sys.get_int_max_str_digits();
        # count them from the bit length (log10(2) = 0.30103).
        bits = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        raise DomainError(
            f"a result has about {int(bits * 0.30103)} digits, more than "
            "this Python converts to a string"
        ) from None


def words_over(alphabet: Iterable[str], length: int) -> Iterator[Word]:
    for combo in itertools.product(sorted(alphabet), repeat=length):
        yield Word(combo)


def words_up_to(alphabet: Iterable[str], max_len: int) -> Iterator[Word]:
    alphabet = sorted(alphabet)
    for n in range(1, max_len + 1):
        yield from words_over(alphabet, n)


class ValueTable:
    """A total mapping Word -> Scalar for all words of length <= max_len,
    held in ``words_up_to`` order (by length, then by letters), which is
    also the order of its JSON form.

    JSON form: ``{"alphabet": ["a","b"], "max_len": N,
    "values": {"a": "1/2", "a.b": "-2/3", ...}}``
    with words as dot-joined letter names and scalars as ``"p/q"`` strings
    (on input, JSON integers and the strings ``parse_scalar`` accepts).
    """

    def __init__(self, alphabet: Iterable[str], max_len: int, values: dict[Word, Fraction]):
        self.alphabet = tuple(sorted(set(alphabet)))
        if not self.alphabet:
            raise DomainError("alphabet must be nonempty")
        if max_len < 1:
            raise DomainError("max_len must be >= 1")
        self.max_len = max_len
        self.values = {}
        for w in words_up_to(self.alphabet, max_len):
            if w not in values:
                raise DomainError(f"table is missing a value for {quoted(w.dotted())}")
            self.values[w] = values[w]
        if len(self.values) != len(values):
            extra = set(values) - self.values.keys()
            raise DomainError(f"table has out-of-domain entries: {quoted(sorted(extra)[:3])}")

    def lookup(self, w: Word) -> Fraction:
        try:
            return self.values[w]
        except KeyError:
            raise TruncationError(
                f"word {w.dotted()!r} exceeds the table domain "
                f"(alphabet {self.alphabet}, max_len {self.max_len})"
            ) from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValueTable)
            and self.alphabet == other.alphabet
            and self.max_len == other.max_len
            and self.values == other.values
        )

    def __add__(self, other: "ValueTable"):
        self._check_compatible(other)
        values = {w: v + other.values[w] for w, v in self.values.items()}
        return type(self)(self.alphabet, self.max_len, values)

    def __neg__(self):
        return type(self)(self.alphabet, self.max_len, {w: -v for w, v in self.values.items()})

    def _check_compatible(self, other: "ValueTable") -> None:
        if self.alphabet != other.alphabet or self.max_len != other.max_len:
            raise DomainError(
                f"incompatible tables: alphabet/max_len ({quoted(self.alphabet)}, "
                f"{self.max_len}) vs ({quoted(other.alphabet)}, {other.max_len})"
            )

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "max_len": self.max_len,
            "values": {w.dotted(): format_scalar(v) for w, v in self.values.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "ValueTable":
        try:
            alphabet = obj["alphabet"]
            max_len = obj["max_len"]
            raw = obj["values"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed table JSON: {exc}") from exc
        if not isinstance(alphabet, list) or not all(isinstance(x, str) for x in alphabet):
            raise DomainError("malformed table JSON: alphabet must be a list of strings")
        if len(set(alphabet)) != len(alphabet):
            raise DomainError("malformed table JSON: alphabet letters must be distinct, "
                              f"got {quoted(alphabet)}")
        if not isinstance(max_len, int) or isinstance(max_len, bool):
            raise DomainError(f"malformed table JSON: max_len must be an integer, got {quoted(max_len)}")
        if not isinstance(raw, dict):
            raise DomainError("malformed table JSON: values must be an object")
        values = {}
        for k, v in raw.items():
            try:
                values[Word.parse(k)] = parse_scalar(v)
            except DomainError as exc:
                raise DomainError(f"table entry {quoted(k)}: {exc}") from None
        return cls(alphabet, max_len, values)

    @classmethod
    def zeros(cls, alphabet: Iterable[str], max_len: int) -> "ValueTable":
        return cls(alphabet, max_len, {w: ZERO for w in words_up_to(alphabet, max_len)})

    @classmethod
    def random(cls, alphabet: Iterable[str], max_len: int, rng) -> "ValueTable":
        """Seeded random rational values: numerators in [-9, 9], denominators
        in [1, 9]."""
        values = {
            w: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for w in words_up_to(alphabet, max_len)
        }
        return cls(alphabet, max_len, values)


class MomentTable(ValueTable):
    """Word values of a state; extends multiplicatively to a character."""


class CumulantTable(ValueTable):
    """Word values of an infinitesimal character (a cumulant functional)."""
