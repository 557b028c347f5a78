"""The subset-extraction coproduct, its half-coproduct splitting and
reduced variants, extended multiplicatively to bar-words.

The coproduct of a word ``a_1...a_n`` sums, over all subsets S of the
positions, the extracted subword tensored with the connected components of
the complement.  The left half keeps the subsets containing position 1, the
right half the subsets avoiding it.  On a bar-word the first factor uses the
half-coproduct and the remaining factors the full coproduct; the product in
the tensor square is componentwise bar-concatenation.

Results are memoized, since the same subwords recur heavily across
computations: the full coproduct and both half-coproducts per word
(``_word_cache``, ``_word_left_cache``, ``_word_right_cache``), and per
multi-factor bar-word (``_bar_cache``, ``_bar_left_cache``,
``_bar_right_cache``).  Bar-words are interned (see ``words``), so the keys
of these caches and the legs of their terms are shared, not copied.  The
caches are never cleared.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError
from .words import UNIT, BarWord, Word, complement_components


class TensorSum:
    """An integer-coefficient formal sum of (left, right) bar-word pairs.

    Normalized eagerly: equal pairs are merged and zero coefficients
    dropped.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[tuple[BarWord, BarWord], int] = {}
        for left, right, coeff in terms:
            key = (left, right)
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        self._terms = acc

    def terms(self) -> list[tuple[BarWord, BarWord, int]]:
        """Terms in a canonical order (graded, then lexicographic)."""
        return sorted(
            ((l, r, c) for (l, r), c in self._terms.items()),
            key=lambda t: (t[0]._key(), t[1]._key()),
        )

    def items(self) -> Iterator[tuple[BarWord, BarWord, int]]:
        for (l, r), c in self._terms.items():
            yield l, r, c

    def pairs(self):
        """The ``((left, right), coeff)`` items in insertion order, as a
        view of the underlying dict: the cheap iteration for evaluation."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSum) and self._terms == other._terms

    def __add__(self, other: "TensorSum") -> "TensorSum":
        out = TensorSum()
        out._terms = dict(self._terms)
        for (l, r), c in other._terms.items():
            key = (l, r)
            c2 = out._terms.get(key, 0) + c
            if c2:
                out._terms[key] = c2
            elif key in out._terms:
                del out._terms[key]
        return out

    def __sub__(self, other: "TensorSum") -> "TensorSum":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "TensorSum":
        out = TensorSum()
        if scalar:
            out._terms = {k: scalar * c for k, c in self._terms.items()}
        return out

    def product(self, other: "TensorSum") -> "TensorSum":
        """Componentwise bar-concatenation product in the tensor square."""
        out = TensorSum()
        acc = out._terms
        for (l1, r1), c1 in self._terms.items():
            for (l2, r2), c2 in other._terms.items():
                key = (l1.concat(l2), r1.concat(r2))
                c = acc.get(key, 0) + c1 * c2
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "TensorSum(0)"
        parts = [f"{c}*{l!r}(x){r!r}" for l, r, c in self.terms()]
        return "TensorSum(%s)" % " + ".join(parts)


_UNIT_SUM = TensorSum([(UNIT, UNIT, 1)])

_word_cache: dict[Word, TensorSum] = {}
_word_left_cache: dict[Word, TensorSum] = {}
_word_right_cache: dict[Word, TensorSum] = {}
_bar_cache: dict[BarWord, TensorSum] = {}
_bar_left_cache: dict[BarWord, TensorSum] = {}
_bar_right_cache: dict[BarWord, TensorSum] = {}


def _split_term(w: Word, mask: int, n: int) -> tuple[BarWord, BarWord]:
    positions = [i + 1 for i in range(n) if mask >> i & 1]
    if positions:
        left = BarWord.of(Word(w.letters[p - 1] for p in positions))
    else:
        left = UNIT
    right = complement_components(w, positions)
    return left, right


def coproduct_word(w: Word) -> TensorSum:
    """Coproduct of a single word: sum over all position subsets S of
    ``subword(w, S) (x) complement_components(w, S)``."""
    cached = _word_cache.get(w)
    if cached is not None:
        return cached
    n = len(w)
    terms = [(*_split_term(w, mask, n), 1) for mask in range(1 << n)]
    result = TensorSum(terms)
    _word_cache[w] = result
    return result


def _half_word(w: Word, keep_first: bool) -> TensorSum:
    cache = _word_left_cache if keep_first else _word_right_cache
    cached = cache.get(w)
    if cached is not None:
        return cached
    n = len(w)
    terms = []
    for mask in range(1 << n):
        if bool(mask & 1) != keep_first:
            continue
        terms.append((*_split_term(w, mask, n), 1))
    result = TensorSum(terms)
    cache[w] = result
    return result


def coproduct(b: BarWord) -> TensorSum:
    """Multiplicative extension of the coproduct to bar-words."""
    if len(b.factors) == 1:
        return coproduct_word(b.factors[0])
    cached = _bar_cache.get(b)
    if cached is not None:
        return cached
    result = _UNIT_SUM
    for factor in b.factors:
        result = result.product(coproduct_word(factor))
    _bar_cache[b] = result
    return result


def half_coproduct_left(b: BarWord) -> TensorSum:
    """Left half-coproduct: position 1 of the first factor is extracted."""
    return _half_coproduct(b, keep_first=True)


def half_coproduct_right(b: BarWord) -> TensorSum:
    """Right half-coproduct: position 1 of the first factor stays behind."""
    return _half_coproduct(b, keep_first=False)


def _half_coproduct(b: BarWord, keep_first: bool) -> TensorSum:
    if b.is_unit:
        raise DomainError("the half-coproducts are not defined on the unit")
    factors = b.factors
    if len(factors) == 1:
        return _half_word(factors[0], keep_first)
    cache = _bar_left_cache if keep_first else _bar_right_cache
    cached = cache.get(b)
    if cached is not None:
        return cached
    result = _half_word(factors[0], keep_first)
    for factor in factors[1:]:
        result = result.product(coproduct_word(factor))
    cache[b] = result
    return result


def reduced_coproduct(b: BarWord) -> TensorSum:
    if b.is_unit:
        raise DomainError("the reduced coproduct is not defined on the unit")
    primitive = TensorSum([(b, UNIT, 1), (UNIT, b, 1)])
    return coproduct(b) - primitive


def reduced_half_left(b: BarWord) -> TensorSum:
    return half_coproduct_left(b) - TensorSum([(b, UNIT, 1)])


def reduced_half_right(b: BarWord) -> TensorSum:
    return half_coproduct_right(b) - TensorSum([(UNIT, b, 1)])
