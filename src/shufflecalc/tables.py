"""Word-value tables: the moment and cumulant tables that the CLI reads and
writes, with exact rational values.

A table holds one exact rational per word of length 1..max_len over its
alphabet, in coded form: the sorted alphabet, ``max_len``, one base D, the
lcm of the reduced denominators of its values, and per word length n one
list of ``int``s, the values times ``D^n``.  A word's place in the list of
its length is its code, the base-K number whose digits are the places of
its letters in the sorted alphabet (K letters), first letter most
significant, so each list runs in ``itertools.product`` order.

This module owns the JSON schema of tables and state pairs.  ``_members``
takes the named members of a JSON object, and refuses anything else with
one line that names them.  ``_header`` checks a table's ``alphabet``,
``max_len`` and ``values`` before any entry is read, so that the CLI can
check each table's degree first.  ``_read`` is the one reader of a
table's entries: ``from_json`` reads a JSON table through ``_header`` and
``_read``, and the dict constructor reads a ``Word -> Rational`` dict
through ``_read``, under the dotted names of its words.  ``_read``
validates straight into the coded form, ``to_json`` writes from it with
one ``gcd`` per value each way, ``random`` draws straight into it, and the
kernel in ``cumulants`` computes on the lists; none of them builds a
``Fraction`` or a ``Word``.  The
``Word -> Fraction`` mapping ``values`` is a view built on first use, for
library callers: the bar-word engine's tests, the partition oracles, the
verify suites.  This module imports ``fractions`` and ``words`` only inside
the code that builds one of them: the view, and ``_read`` on a key outside
the header's domain.  So a process that reads, draws, transforms and writes
well-formed tables loads neither.  Tables are plain data: this module
imports none of the layers that read them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from itertools import product, repeat
from math import gcd, lcm
from operator import add, floordiv, mul

from .errors import DomainError, TruncationError, is_int, quoted

# The scalar strings a table accepts, numerator and denominator as groups.
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(obj) -> tuple[int, int]:
    """The numerator and positive denominator, not reduced, of a scalar: a
    ``numbers.Rational`` other than a bool, or a string
    ``[+-]?digits(/digits)?``; no decimals, exponents, underscores or
    surrounding space.  ``numbers`` is imported only for a value that is
    neither a ``str`` nor an ``int``, which a well-formed JSON table never
    holds."""
    if isinstance(obj, bool):
        raise DomainError(f"not a scalar: {quoted(obj)}")
    if isinstance(obj, int):
        return obj, 1
    if isinstance(obj, str):
        match = _SCALAR.fullmatch(obj)
        if match is not None:
            num, den = match.groups()
            try:
                # int() refuses more digits than sys.get_int_max_str_digits()
                num, den = int(num), int(den or 1)
            except ValueError:
                pass
            else:
                if den:
                    return num, den
        raise DomainError(f"malformed scalar {quoted(obj)}")
    from numbers import Rational

    if isinstance(obj, Rational):
        return obj.numerator, obj.denominator
    raise DomainError(f"not a scalar: {quoted(obj)}")


def _format(num: int, den: int) -> str:
    """``"num/den"``, or ``"num"`` when den is 1, as ``str`` of the
    ``Fraction`` with these lowest terms."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # str(int) refuses more digits than sys.get_int_max_str_digits();
        # count them from the bit length (log10(2) = 0.30103).
        bits = max(abs(num).bit_length(), den.bit_length())
        raise DomainError(
            f"a result has about {int(bits * 0.30103)} digits, more than "
            "this Python converts to a string"
        ) from None


def _letters(alphabet: Iterable[str], max_len: int, names=None) -> tuple[str, ...]:
    """The sorted letters of the domain of a table, the words of length
    1..max_len over ``alphabet``.  Raises what a walk over the domain in
    ``words_up_to`` order meets first: an empty alphabet, a ``max_len``
    that is not an integer or is below 1, a letter name that ``Word``
    refuses (each checked when its one-letter word is reached), or, given
    ``names``, the dotted names of the words a table has values for, a word
    whose name is not among them."""
    letters = tuple(sorted(set(alphabet)))
    if not letters:
        raise DomainError("alphabet must be nonempty")
    if not is_int(max_len):
        raise DomainError(f"max_len must be an integer, got {quoted(max_len)}")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    for n in range(1, max_len + 1 if names is not None else 2):
        for word in product(letters, repeat=n):
            if n == 1 and (not isinstance(word[0], str) or not word[0] or "." in word[0]):
                raise DomainError(f"invalid letter name: {quoted(word[0])}")
            if names is not None and ".".join(word) not in names:
                raise DomainError(f"table is missing a value for {quoted('.'.join(word))}")
    return letters


def _read(alphabet: Sequence[str], max_len: int, raw: dict) -> tuple:
    """The ``(letters, max_len, nums, dens)`` of ``_code`` for the table
    whose header is ``alphabet`` and ``max_len`` and whose entries map
    dotted word names to scalars.  Raises the first malformed entry, naming
    its key; then what ``_letters`` meets on a walk over the domain; then,
    when every word of the domain has a value, the out-of-domain keys."""
    try:
        letters = _letters(alphabet, max_len)
    except DomainError:
        letters = ()  # reported after the entries
    # The keys can cover the domain only if its K^max_len longest words
    # number at most len(raw); the bound on max_len comes first, so that
    # no power is taken of a deep header.
    index = {}
    if letters and max_len <= len(raw) and len(letters) ** max_len <= len(raw):
        index = {name: (n, i) for n in range(1, max_len + 1)
                 for i, name in enumerate(map(".".join, product(letters, repeat=n)))}
    sizes = [len(letters) ** n for n in range(max_len + 1)] if index else []
    nums, dens, extra = [[0] * size for size in sizes], [[1] * size for size in sizes], []
    for key, value in raw.items():
        place = index.get(key)
        try:
            num, den = _rational(value)
            if place is not None:
                n, i = place
                nums[n][i], dens[n][i] = num, den
            else:
                # not a word of the header's domain: a Word, or the entry
                # error that names why the key is none
                from .words import Word

                extra.append(Word.parse(key))
        except DomainError as exc:
            raise DomainError(f"table entry {quoted(key)}: {exc}") from None
    if index and not extra and len(raw) == len(index):
        return letters, max_len, nums, dens
    # Every entry is well formed but the keys are not the domain: the walk
    # over it names the first missing word; if none is missing, some key is
    # a word outside it.
    _letters(alphabet, max_len, raw)
    raise DomainError(f"table has out-of-domain entries: {quoted(sorted(extra)[:3])}")


def _members(obj, names: Sequence[str], where: str) -> list:
    """The members ``names`` of the JSON object ``obj``, in order; for
    anything else, one line that names ``where`` and the members."""
    if isinstance(obj, dict) and all(name in obj for name in names):
        return [obj[name] for name in names]
    *rest, last = map(repr, names)
    raise DomainError(f"{where}: expected a JSON object with members {', '.join(rest)} and {last}")


def _header(obj) -> tuple:
    """The ``alphabet``, ``max_len`` and ``values`` of a JSON table, checked
    as a list of distinct strings, an int other than a bool and an object;
    the entries are left to ``_read``."""
    alphabet, max_len, raw = _members(obj, ("alphabet", "max_len", "values"),
                                      "malformed table JSON")
    if not isinstance(alphabet, list) or not all(isinstance(x, str) for x in alphabet):
        raise DomainError("malformed table JSON: alphabet must be a list of strings")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError("malformed table JSON: alphabet letters must be distinct, "
                          f"got {quoted(alphabet)}")
    if not is_int(max_len):
        raise DomainError(f"malformed table JSON: max_len must be an integer, got {quoted(max_len)}")
    if not isinstance(raw, dict):
        raise DomainError("malformed table JSON: values must be an object")
    return alphabet, max_len, raw


class ValueTable:
    """A total mapping from the words of length 1..max_len over an alphabet
    to exact rationals.  ``coded[n]`` lists the values of the words of
    length n times ``base**n``, in code order; ``coded[0]`` is empty.

    JSON form: ``{"alphabet": ["a","b"], "max_len": N,
    "values": {"a": "1/2", "a.b": "-2/3", ...}}``
    with words as dot-joined letter names and scalars as ``"p/q"`` strings
    in lowest terms (on input, JSON integers and any string of the
    ``_SCALAR`` grammar).
    """

    def __init__(self, alphabet: Iterable[str], max_len: int, values: dict):
        """The table of a ``Word -> Rational`` dict holding exactly the
        words of length 1..max_len, read as ``from_json`` reads its
        entries."""
        self._code(*_read(tuple(alphabet), max_len, {w.dotted(): v for w, v in values.items()}))

    def _code(self, letters: tuple[str, ...], max_len: int, nums: list, dens: list) -> "ValueTable":
        """Make this the table whose word of length n and code i has the
        value ``nums[n][i] / dens[n][i]``; ``dens[n]`` is a sequence of
        positive ints or the ``repeat`` of one.  One ``gcd`` per value gives
        its reduced denominator, and the base is their lcm."""
        self.alphabet, self.max_len, self._values = letters, max_len, None
        self.base = base = lcm(*set().union(*(map(floordiv, dens[n], map(gcd, nums[n], dens[n]))
                                              for n in range(1, max_len + 1))))
        # exact: each reduced denominator divides base, hence base**n
        self.coded = [[]] + [list(map(floordiv, map(mul, nums[n], repeat(base**n)), dens[n]))
                             for n in range(1, max_len + 1)]
        return self

    @classmethod
    def _from_fractions(cls, letters: tuple[str, ...], max_len: int, nums: list, dens: list):
        """The table of ``_code``."""
        return cls.__new__(cls)._code(letters, max_len, nums, dens)

    @property
    def values(self) -> dict:
        """The ``Word -> Fraction`` mapping in ``words_up_to`` order (by
        length, then by letters), built on first use."""
        if self._values is None:
            from fractions import Fraction

            from .words import words_up_to

            fractions = (Fraction(v, self.base**n)
                         for n in range(1, self.max_len + 1) for v in self.coded[n])
            self._values = dict(zip(words_up_to(self.alphabet, self.max_len), fractions))
        return self._values

    def lookup(self, w):
        """The value of the word ``w``, a ``Fraction``."""
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
            and self.base == other.base
            and self.coded == other.coded
        )

    def __add__(self, other: "ValueTable"):
        """``a / B^n + b / C^n = (a C^n + b B^n) / (BC)^n``, reduced."""
        self._check_compatible(other)
        B, C = self.base, other.base
        nums = [list(map(add, map(mul, a, repeat(C**n)), map(mul, b, repeat(B**n))))
                for n, (a, b) in enumerate(zip(self.coded, other.coded))]
        return type(self)._from_fractions(self.alphabet, self.max_len, nums,
                                          [repeat((B * C) ** n) for n in range(self.max_len + 1)])

    def __neg__(self):
        return type(self)._from_fractions(self.alphabet, self.max_len,
                                          [[-v for v in values] for values in self.coded],
                                          [repeat(self.base**n) for n in range(self.max_len + 1)])

    def _check_compatible(self, other: "ValueTable") -> None:
        if self.alphabet != other.alphabet or self.max_len != other.max_len:
            raise DomainError(
                f"incompatible tables: alphabet/max_len ({quoted(self.alphabet)}, "
                f"{self.max_len}) vs ({quoted(other.alphabet)}, {other.max_len})"
            )

    def to_json(self) -> dict:
        values = {}
        for n in range(1, self.max_len + 1):
            scale, coded = self.base**n, self.coded[n]
            names = map(".".join, product(self.alphabet, repeat=n))
            for name, num, g in zip(names, coded, map(gcd, coded, repeat(scale))):
                values[name] = _format(num // g, scale // g)
        return {"alphabet": list(self.alphabet), "max_len": self.max_len, "values": values}

    @classmethod
    def from_json(cls, obj) -> "ValueTable":
        return cls._from_fractions(*_read(*_header(obj)))

    @classmethod
    def zeros(cls, alphabet: Iterable[str], max_len: int) -> "ValueTable":
        letters = _letters(alphabet, max_len)
        nums = [[0] * len(letters) ** n for n in range(max_len + 1)]
        return cls._from_fractions(letters, max_len, nums, [repeat(1)] * (max_len + 1))

    @classmethod
    def random(cls, alphabet: Iterable[str], max_len: int, rng) -> "ValueTable":
        """Seeded random rational values, drawn in code order: numerators in
        [-9, 9], denominators in [1, 9]."""
        letters = _letters(alphabet, max_len)
        nums, dens = [[]], [[]]
        for n in range(1, max_len + 1):
            num, den = zip(*[(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(len(letters) ** n)])
            nums.append(num)
            dens.append(den)
        return cls._from_fractions(letters, max_len, nums, dens)


class MomentTable(ValueTable):
    """Word values of a state; extends multiplicatively to a character."""


class CumulantTable(ValueTable):
    """Word values of an infinitesimal character (a cumulant functional)."""
