"""Exponentials, logarithms, the pre-Lie Magnus pair, the # product, BCH
cross-checks and the adjoint actions.

Everything here evaluates against concrete rational tables, and all results
are exact.  The half-shuffle exponentials ``E<``/``E>`` are fixed points, not
series: they solve ``X = e + a < X`` and ``Y = e + Y > a`` directly, as the
convolution inverse (``functionals.inverse``) solves ``X = e + (e - f) * X``.
Only ``exp*``, ``log*`` and the Magnus pair truncate by degree: on a bar-word
of degree d they stop after d terms by grading.  Group-side arguments must
take the value 1 on the unit, Lie-side arguments the value 0; only these
cheap normalizations are checked at construction (full
character/infinitesimal checks are available via ``functionals.is_character``
/ ``is_infinitesimal``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from . import coalgebra
from .errors import DomainError
from .functionals import (
    Functional,
    ONE,
    ZERO,
    _Convolution,
    _FixedPoint,
    conv,
    functionals_agree,
    half_left,
    half_right,
    inverse,
    prelie,
    unit,
)
from .words import UNIT, BarWord

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli numbers with the B_1 = -1/2 convention, by the standard
    recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    while len(_bernoulli_cache) <= m:
        k = len(_bernoulli_cache)
        total = sum(
            (comb(k + 1, j) * _bernoulli_cache[j] for j in range(k)), Fraction(0)
        )
        _bernoulli_cache.append(-total / (k + 1))
    return _bernoulli_cache[m]


def _require_lie(a: Functional, what: str) -> None:
    if a(UNIT) != ZERO:
        raise DomainError(f"{what} requires a functional vanishing on the unit")


def _require_group(f: Functional, what: str) -> None:
    if f(UNIT) != ONE:
        raise DomainError(f"{what} requires a functional equal to 1 on the unit")


class _ConvSeries(Functional):
    """sum_j coeff(j) * x^{*j}, truncated at j = degree of the argument."""

    def __init__(self, x: Functional, coeff):
        super().__init__()
        self._coeff = coeff
        self._powers: list[Functional] = [unit()]
        self._x = x

    def _compute(self, b: BarWord) -> Fraction:
        n = b.degree
        powers = self._powers
        while len(powers) <= n:
            powers.append(_Convolution(powers[-1], self._x))
        total = ZERO
        for j in range(n + 1):
            c = self._coeff(j)
            if c:
                total += c * powers[j](b)
        return total


def exp_conv(a: Functional) -> Functional:
    """Convolution exponential ``e + sum a^{*n}/n!``."""
    _require_lie(a, "exp_conv")
    return _ConvSeries(a, lambda j: Fraction(1, factorial(j)))


def log_conv(f: Functional) -> Functional:
    """Convolution logarithm ``sum (-1)^{l-1} (f-e)^{*l} / l``."""
    _require_group(f, "log_conv")
    return _ConvSeries(f - unit(), lambda j: Fraction((-1) ** (j - 1), j) if j else ZERO)


def exp_left(a: Functional) -> Functional:
    """Solution of the left fixed point equation ``X = e + a < X``."""
    _require_lie(a, "exp_left")
    return _FixedPoint(a, coalgebra.half_coproduct_left, g_left=True)


def exp_right(a: Functional) -> Functional:
    """Solution of the right fixed point equation ``Y = e + Y > a``."""
    _require_lie(a, "exp_right")
    return _FixedPoint(a, coalgebra.half_coproduct_right, g_left=False)


def log_left(f: Functional) -> Functional:
    """Left half-shuffle logarithm ``(f - e) < f^{*-1}``."""
    _require_group(f, "log_left")
    return half_left(f - unit(), inverse(f))


def log_right(f: Functional) -> Functional:
    """Right half-shuffle logarithm ``f^{*-1} > (f - e)``."""
    _require_group(f, "log_right")
    return half_right(inverse(f), f - unit())


class _Magnus(Functional):
    """Pre-Lie Magnus expansion, solved degree by degree from the Bernoulli
    recursion ``W = sum_m B_m/m! (L_{W |>})^m (a)``.

    Each pre-Lie multiplication by the result itself raises the minimal
    degree, so the self-referential evaluation below is well founded: the
    value on a bar-word of degree d only needs values of strictly smaller
    degree.
    """

    def __init__(self, a: Functional):
        super().__init__()
        self._a = a
        self._iterates: list[Functional] = [a]

    def _compute(self, b: BarWord) -> Fraction:
        if b.is_unit:
            return ZERO
        n = b.degree
        iterates = self._iterates
        while len(iterates) < n:
            iterates.append(prelie(self, iterates[-1]))
        total = ZERO
        for m in range(n):
            c = bernoulli(m)
            if c:
                total += (c / factorial(m)) * iterates[m](b)
        return total


class _MagnusInverse(Functional):
    """``sum_m 1/(m+1)! (L_{a |>})^m (a) = a + a|>a/2 + a|>(a|>a)/6 + ...``"""

    def __init__(self, a: Functional):
        super().__init__()
        self._a = a
        self._iterates: list[Functional] = [a]

    def _compute(self, b: BarWord) -> Fraction:
        if b.is_unit:
            return ZERO
        n = b.degree
        iterates = self._iterates
        while len(iterates) < n:
            iterates.append(prelie(self._a, iterates[-1]))
        return sum(
            (Fraction(1, factorial(m + 1)) * iterates[m](b) for m in range(n)), ZERO
        )


def magnus(a: Functional) -> Functional:
    _require_lie(a, "magnus")
    return _Magnus(a)


def magnus_inverse(a: Functional) -> Functional:
    _require_lie(a, "magnus_inverse")
    return _MagnusInverse(a)


def sharp(a: Functional, b: Functional) -> Functional:
    """Group-transported addition: ``a # b = a + E<(a) > b < E<(a)^{*-1}``;
    satisfies ``E<(a) * E<(b) = E<(a # b)``.

    Its right-exponential counterpart is ``x #> y = -((-y) # (-x))``, which
    satisfies ``E>(x) * E>(y) = E>(x #> y)``.
    """
    _require_lie(a, "sharp")
    _require_lie(b, "sharp")
    ea = exp_left(a)
    return a + half_left(half_right(ea, b), inverse(ea))


def bch(x: Functional, y: Functional) -> Functional:
    """Baker-Campbell-Hausdorff value ``log*(exp*(x) * exp*(y))``."""
    _require_lie(x, "bch")
    _require_lie(y, "bch")
    return log_conv(conv(exp_conv(x), exp_conv(y)))


def ad_lower(x: Functional, y: Functional) -> Functional:
    """Adjoint action ``y^x = E<(x)^{*-1} > y < E<(x)``."""
    _require_lie(x, "ad_lower")
    _require_lie(y, "ad_lower")
    ex = exp_left(x)
    return half_left(half_right(inverse(ex), y), ex)


def ad_upper(x: Functional, y: Functional) -> Functional:
    """Inverse adjoint action ``y_x = E<(x) > y < E<(x)^{*-1}``."""
    _require_lie(x, "ad_upper")
    _require_lie(y, "ad_upper")
    ex = exp_left(x)
    return half_left(half_right(ex, y), inverse(ex))


def factorize_left(x: Functional, y: Functional, alphabet: Iterable[str], max_degree: int):
    """Check ``E<(x + y) = E<(x) * E<(y^x)`` exactly up to max_degree.

    Returns (ok, lhs, rhs, counterexample) with the witness functionals.
    """
    lhs = exp_left(x + y)
    rhs = conv(exp_left(x), exp_left(ad_lower(x, y)))
    bad = functionals_agree(lhs, rhs, alphabet, max_degree)
    return (bad is None, lhs, rhs, bad)


def factorize_right(x: Functional, y: Functional, alphabet: Iterable[str], max_degree: int):
    """Check ``E>(x + y) = E>(x^{-y}) * E>(y)`` exactly up to max_degree.

    Transported to the Lie side this reads ``x^{-y} #> y = x + y`` with the
    right product ``#>`` (see ``sharp``), and not ``x^{-y} # y = x + y``,
    which already fails at degree 3.
    """
    lhs = exp_right(x + y)
    rhs = conv(exp_right(ad_lower(-y, x)), exp_right(y))
    bad = functionals_agree(lhs, rhs, alphabet, max_degree)
    return (bad is None, lhs, rhs, bad)
