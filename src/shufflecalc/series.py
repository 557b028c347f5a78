"""Exponentials, logarithms, the pre-Lie Magnus pair, the # product, BCH
cross-checks and the adjoint actions.

Everything here evaluates against concrete rational tables, and all results
are exact.  The half-shuffle exponentials ``E<``/``E>`` are fixed points, not
series: they solve ``X = e + a < X`` and ``Y = e + Y > a`` directly, as the
convolution inverse (``functionals.inverse``) solves ``X = e + (e - f) * X``.
``exp*``, ``log*`` and the Magnus pair are power series
``sum_m c_m L^m(seed)`` in a linear map L (right convolution by a
known factor, or the pre-Lie product ``w |>``); each is one ``_Series`` node
that memoizes the integer numerators of the powers ``L^m(seed)`` in one dict
per power m, over one denominator per ``(m, degree)``, and stops by
grading at the degree of the bar-word.  Group-side arguments must
take the value 1 on the unit, Lie-side arguments the value 0; only these
cheap normalizations are checked at construction (full
character/infinitesimal checks are available via ``functionals.is_character``
/ ``is_infinitesimal``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm
from operator import add
from typing import Iterable

from . import coalgebra
from .errors import DomainError
from .functionals import (
    Functional,
    _Domain,
    _FixedPoint,
    _known_first,
    _multipliers,
    _split_sum,
    conv,
    functionals_agree,
    half_left,
    half_right,
    inverse,
    unit,
)
from .tables import ONE, ZERO
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


class _Series(Functional):
    """``sum_m coeff(m) P_m``, where ``P_0 = seed`` and ``P_m = L(P_{m-1})``
    for a linear map L.

    L is given as ``(sign, split, known, known_left)`` terms, each adding
    ``sign * (known . P)`` (``known_left``) or ``sign * (P . known)`` with
    ``.`` pairing the legs of ``split``; ``known is None`` stands for the
    series itself.  Every known factor vanishes on the unit, so L raises the
    degree: P_m vanishes below degree ``m + low``, where ``low`` is 1 if the
    seed vanishes on the unit and 0 otherwise, and on a bar-word of degree d
    the series stops at ``m = d - low``.

    The numerators of P_m are memoized in ``_powers[m]``, a dict keyed by
    bar-word, over the denominator ``den_P(m, d)``: ``_powers[0]`` is the
    seed's own memo and ``den_P(0, d)`` the seed's ``den(d)``; for m >= 1,
    ``den_P(m, d)`` is the lcm over the terms of L and over the known leg's
    degree k of ``den_known(k) * den_P(m - 1, d - k)``.  k runs over
    ``1..d - (m - 1 + low)`` only, where both legs can be nonzero; this also
    keeps a series that is its own known factor below its own ``den(d)``.
    Computing P_m on b hands ``_powers[m - 1]`` to ``_known_first``, which
    reads it inline and falls back to ``_power(m - 1, .)`` on a miss; the
    series sums ``_powers[m]`` the same way.  The series reads itself by
    calling ``self``, so no child node refers back to it.  The exhaustive
    checks read P_m one whole degree at a time (``_power_degree``), from
    one list per ``(m, alphabet, degree)`` in ``_power_lists``, by the same
    weights.
    """

    def __init__(self, seed: Functional, coeff, step):
        super().__init__()
        self.seed = seed
        self.coeff = coeff
        self.step = step
        self._powers: list[dict[BarWord, int]] = [seed._memo]
        self._power_scales: dict[tuple[int, int], tuple] = {}
        self._power_lists: dict[tuple, list[int]] = {}
        self._low = 1 if seed(UNIT) == ZERO else 0

    def _rescale(self, d: int) -> tuple:
        # Degree d reads P_0..P_{d - low}: give each its memo before
        # ``_num`` or ``_power`` indexes ``_powers``.
        powers = self._powers
        while len(powers) < d + 1 - self._low:
            powers.append({})
        terms = []
        for m in range(d + 1 - self._low):
            c = self.coeff(m)
            if c:
                terms.append((m, c.numerator, c.denominator * self._power_scale(m, d)[0]))
        den = lcm(*(x for _, _, x in terms))
        return den, [(m, n * (den // x)) for m, n, x in terms]

    def _num(self, b: BarWord) -> int:
        powers = self._powers
        total = 0
        for m, w in self._scale(b.degree)[1]:
            x = powers[m].get(b)
            if x is None:
                x = self._power(m, b)
            total += w * x
        return total

    def _power_scale(self, m: int, d: int) -> tuple:
        """``(den_P(m, d), weights per term of L)``."""
        if m == 0:
            return self.seed.den(d), None
        key = (m, d)
        scale = self._power_scales.get(key)
        if scale is None:
            top = d - (m - 1 + self._low)
            terms = []
            for sign, _, known, known_left in self.step:
                known = self if known is None else known
                terms.append((sign, known_left, {
                    k: known.den(k) * self._power_scale(m - 1, d - k)[0]
                    for k in range(1, top + 1)}))
            scale = self._power_scales[key] = _multipliers(d, terms)
        return scale

    def _power(self, m: int, b: BarWord) -> int:
        if m == 0:
            return self.seed.num(b)
        if m + self._low > b.degree:
            return 0
        memo = self._powers[m]
        value = memo.get(b)
        if value is None:
            weights = self._power_scale(m, b.degree)[1]
            lower = self._powers[m - 1]
            miss = lambda u: self._power(m - 1, u)
            value = 0
            for (_, split, known, known_left), row in zip(self.step, weights):
                known = self if known is None else known
                value += _known_first(split(b), known, lower, miss, row, known_left)
            memo[b] = value
        return value

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        total = [0] * len(domain.bars(d))
        for m, w in self._scale(d)[1]:
            total = list(map(add, total, map(w.__mul__, self._power_degree(m, domain, d))))
        return total

    def _power_degree(self, m: int, domain: _Domain, d: int) -> list[int]:
        """The batched ``_power``: the numerators of P_m on every bar-word of
        degree d of the domain, kept in ``_power_lists``."""
        if m == 0:
            return self.seed._degree(domain, d)
        if m + self._low > d:
            return [0] * len(domain.bars(d))
        key = (m, domain.alphabet, d)
        values = self._power_lists.get(key)
        if values is None:
            lower = partial(self._power_degree, m - 1)
            values = [0] * len(domain.bars(d))
            for (_, split, known, known_left), row in zip(self.step, self._power_scale(m, d)[1]):
                known = (self if known is None else known)._degree
                left, right = (known, lower) if known_left else (lower, known)
                values = list(map(add, values, _split_sum(domain, split, d, row, left, right)))
            self._power_lists[key] = values
        return values


def _times(g: Functional):
    """``L(z) = z * g``: the known factor on the right leg keeps the
    recursion on the extracted subword."""
    return ((1, coalgebra.coproduct, g, False),)


def _prelie_by(w: Functional | None):
    """``L(z) = w |> z = w > z - z < w``; ``None`` is the series itself."""
    return (
        (1, coalgebra.half_coproduct_right, w, True),
        (-1, coalgebra.half_coproduct_left, w, False),
    )


def exp_conv(a: Functional) -> Functional:
    """Convolution exponential ``e + sum a^{*n}/n!``."""
    _require_lie(a, "exp_conv")
    return _Series(unit(), lambda m: Fraction(1, factorial(m)), _times(a))


def log_conv(f: Functional) -> Functional:
    """Convolution logarithm ``sum (-1)^{l-1} (f-e)^{*l} / l``."""
    _require_group(f, "log_conv")
    return _Series(unit(), lambda m: Fraction((-1) ** (m - 1), m) if m else ZERO,
                   _times(f - unit()))


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


def magnus(a: Functional) -> Functional:
    """Pre-Lie Magnus expansion, the solution of the Bernoulli recursion
    ``W = sum_m B_m/m! (W |>)^m (a)``.  Each pre-Lie multiplication by W
    raises the degree, so on a bar-word of degree d it reads W only below
    d."""
    _require_lie(a, "magnus")
    return _Series(a, lambda m: bernoulli(m) / factorial(m), _prelie_by(None))


def magnus_inverse(a: Functional) -> Functional:
    """``sum_m 1/(m+1)! (a |>)^m (a) = a + a|>a/2 + a|>(a|>a)/6 + ...``"""
    _require_lie(a, "magnus_inverse")
    return _Series(a, lambda m: Fraction(1, factorial(m + 1)), _prelie_by(a))


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
