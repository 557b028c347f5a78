"""Words, bar-words and the subset/connected-component combinatorics.

A word is a nonempty sequence of letters (interned names of random
variables).  A bar-word is a possibly empty sequence of words, written
``w1|w2|...|wk``; the empty bar-word is the unit of the bar-concatenation
product.  Index sets are 1-based positions into a word; positions, not
letter values, drive all extraction operations, so repeated letters are
handled correctly.

All values are immutable after construction and every operation is pure.
Words and bar-words are interned: the constructors return the one object
that exists for a given letter or factor tuple, so equal values are the
same object and equality and hashing are by identity.  The intern tables
are never cleared, which is what keeps identity equality sound for the
life of the process.  Interning is not locked: the package runs on one
thread.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import product

from .errors import DomainError, is_int, quoted


_WORDS: dict[tuple[str, ...], "Word"] = {}
_BARWORDS: dict[tuple["Word", ...], "BarWord"] = {}


class Word:
    """A nonempty word over an alphabet of letter names (strings)."""

    __slots__ = ("letters",)

    def __new__(cls, letters: Iterable[str]):
        letters = tuple(letters)
        try:
            word = _WORDS.get(letters)
        except TypeError:  # an unhashable letter; rejected below
            word = None
        if word is None:
            if not letters:
                raise DomainError("a Word must contain at least one letter")
            for name in letters:
                if not isinstance(name, str) or not name or "." in name:
                    raise DomainError(f"invalid letter name: {quoted(name)}")
            word = _WORDS[letters] = object.__new__(cls)
            word.letters = letters
        return word

    def __init__(self, letters: Iterable[str]):
        """All state is set once, by ``__new__``.  This no-op stays:
        ``perfbench/child.py`` counts allocations by wrapping ``__init__``,
        and under ``--trace 1`` the inherited ``object.__init__`` would
        refuse the constructor's arguments."""

    def __reduce__(self):
        return (Word, (self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __lt__(self, other: "Word") -> bool:
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __repr__(self) -> str:
        return f"Word({'.'.join(self.letters)})"

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the dot-joined form used as JSON table keys, e.g. ``"a.b.a"``."""
        return cls(text.split("."))

    def dotted(self) -> str:
        return ".".join(self.letters)


class BarWord:
    """A bar-word ``w1|...|wk``; the empty sequence of factors is the unit."""

    __slots__ = ("factors", "degree")

    def __new__(cls, factors: Iterable[Word] = ()):
        factors = tuple(factors)
        try:
            bar = _BARWORDS.get(factors)
        except TypeError:  # an unhashable factor; rejected below
            bar = None
        if bar is None:
            for f in factors:
                if not isinstance(f, Word):
                    raise DomainError("BarWord factors must be nonempty Words")
            bar = _BARWORDS[factors] = object.__new__(cls)
            bar.factors = factors
            bar.degree = sum(len(f.letters) for f in factors)
        return bar

    def __init__(self, factors: Iterable[Word] = ()):
        """All state is set once, by ``__new__``.  This no-op stays:
        ``perfbench/child.py`` counts allocations by wrapping ``__init__``,
        and under ``--trace 1`` the inherited ``object.__init__`` would
        refuse the constructor's arguments."""

    def __reduce__(self):
        return (BarWord, (self.factors,))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def _key(self):
        return (self.degree, len(self.factors), tuple(f.letters for f in self.factors))

    def __repr__(self) -> str:
        if not self.factors:
            return "BarWord(1)"
        return "BarWord(%s)" % "|".join(f.dotted() for f in self.factors)

    def concat(self, other: "BarWord") -> "BarWord":
        """Bar-concatenation; the identification ``w|1|w' = w|w'`` is automatic
        because unit factors cannot be constructed."""
        if not other.factors:
            return self
        if not self.factors:
            return other
        factors = self.factors + other.factors
        return _BARWORDS.get(factors) or BarWord(factors)

    @classmethod
    def of(cls, word: Word) -> "BarWord":
        return cls((word,))


UNIT = BarWord()


def words_over(alphabet: Iterable[str], length: int) -> Iterator[Word]:
    """The words of one length over the alphabet, in ``itertools.product``
    order over its sorted letters."""
    for letters in product(sorted(alphabet), repeat=length):
        yield Word(letters)


def words_up_to(alphabet: Iterable[str], max_len: int) -> Iterator[Word]:
    """The words of length 1..max_len: by length, then by letters."""
    alphabet = sorted(alphabet)
    for n in range(1, max_len + 1):
        yield from words_over(alphabet, n)


def subword(w: Word, positions: Iterable[int]):
    """Extract the letters of ``w`` at the given 1-based positions.

    Positions must be strictly increasing and within bounds.  Returns a
    ``Word``; the empty position set returns the unit bar-word.
    """
    positions = tuple(positions)
    _check_positions(w, positions)
    if not positions:
        return UNIT
    return Word(w.letters[p - 1] for p in positions)


def complement_components(w: Word, S: Iterable[int]) -> BarWord:
    """Split the positions of ``w`` outside ``S`` into their connected
    components, the maximal runs of consecutive positions, and render each
    as a subword of ``w``.  Returns the unit when ``S`` holds every
    position.
    """
    S = tuple(S)
    _check_positions(w, S)
    sset = set(S)
    components: list[Word] = []
    run: list[str] = []
    for u, letter in enumerate(w.letters, 1):
        if u in sset:
            if run:
                components.append(Word(run))
                run = []
        else:
            run.append(letter)
    if run:
        components.append(Word(run))
    return BarWord(components)


def _check_positions(w: Word, positions: Sequence[int]) -> None:
    prev = 0
    for p in positions:
        if not is_int(p):
            raise DomainError(f"positions must be integers, got {quoted(p)}")
        if p < 1 or p > len(w):
            raise DomainError(f"position {p} out of range for word of length {len(w)}")
        if p <= prev:
            raise DomainError(f"positions must be strictly increasing, got {positions}")
        prev = p
