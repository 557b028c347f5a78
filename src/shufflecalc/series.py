"""Exponentials, logarithms, the pre-Lie Magnus pair, the # product, BCH
cross-checks and the adjoint actions.

Everything here evaluates against concrete rational tables, and all results
are exact.  The half-shuffle exponentials ``E<``/``E>`` are fixed points, not
series: they solve ``X = e + a < X`` and ``Y = e + Y > a`` directly, as the
convolution inverse (``functionals.inverse``) solves ``X = e + (e - f) * X``.
``exp*``, ``log*`` and the Magnus pair are power series
``sum_m c_m L^m(seed)`` in a linear map L (right convolution by a
known factor, or the pre-Lie product ``w |>``); each is one ``_Series`` node,
a sum over the powers ``L^m(seed)``, which stops by grading at the degree of
the bar-word.  Each power is a split-product node (``functionals._Product``)
of L with the power before it, with its own memo and denominators, made when
a degree first needs it.  Group-side arguments must take the value 1 on the
unit, Lie-side arguments the value 0; only these cheap normalizations are
checked at construction, by ``functionals._require_group`` and
``_require_lie``, which ``inverse`` shares (full character/infinitesimal
checks are available via ``functionals.is_character`` /
``is_infinitesimal``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable
from weakref import proxy

from . import coalgebra
from .errors import DomainError
from .functionals import (
    ZERO,
    Functional,
    _Product,
    _Sum,
    _require_group,
    _require_lie,
    conv,
    functionals_agree,
    half_left,
    half_right,
    inverse,
    unit,
)
from .words import UNIT

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli numbers with the B_1 = -1/2 convention, by the standard
    recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    if m < 0:
        raise DomainError(f"bernoulli requires m >= 0, got {m}")
    while len(_bernoulli_cache) <= m:
        k = len(_bernoulli_cache)
        total = sum(
            (comb(k + 1, j) * _bernoulli_cache[j] for j in range(k)), Fraction(0)
        )
        _bernoulli_cache.append(-total / (k + 1))
    return _bernoulli_cache[m]


class _Series(_Sum):
    """``sum_m coeff(m) P_m``, where ``P_0 = seed`` and ``P_m = L(P_{m-1})``
    for a linear map L.

    L is given as ``(sign, split, known, known_left)`` terms, as for a
    ``_Product``; ``known is None`` stands for the series itself, read
    through a weak proxy so that no power refers back to the series.  Every
    known factor vanishes on the unit, so L raises the degree: P_m vanishes
    below degree ``m + low``, where ``low`` is 1 if the seed vanishes on the
    unit and 0 otherwise, and on a bar-word of degree d the series stops at
    ``m = d - low``.  So the series is a sum whose parts at degree d are
    ``coeff(m) P_m`` for ``m <= d - low``, and P_m is the ``_Product`` of L
    with ``P_{m-1}`` whose known leg has degree ``1..d - (m - 1 + low)``,
    made when a degree first needs it.  That range also keeps a series that
    is its own known factor below its own ``den(d)``.
    """

    def __init__(self, seed: Functional, coeff, step):
        super().__init__(())
        self.coeff = coeff
        self.step = tuple((sign, split, proxy(self) if known is None else known, known_left)
                          for sign, split, known, known_left in step)
        self.powers = [seed]
        self._low = 1 if seed(UNIT) == ZERO else 0

    def _parts(self, d: int):
        powers, low = self.powers, self._low
        while len(powers) < d + 1 - low:
            powers.append(_Product(self.step, powers[-1], low=1, skip=len(powers) - 1 + low))
        return [(self.coeff(m), powers[m]) for m in range(d + 1 - low)]


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
    return _Product(((1, coalgebra.half_coproduct_left, a, True),), None, low=1, on_unit=1)


def exp_right(a: Functional) -> Functional:
    """Solution of the right fixed point equation ``Y = e + Y > a``."""
    _require_lie(a, "exp_right")
    return _Product(((1, coalgebra.half_coproduct_right, a, False),), None, low=1, on_unit=1)


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
    """Group-transported addition: ``a # b = a + E<(a) > b < E<(a)^{*-1}``,
    which is a plus the inverse adjoint action ``b_a`` (``ad_upper``);
    satisfies ``E<(a) * E<(b) = E<(a # b)``.

    Its right-exponential counterpart is ``x #> y = -((-y) # (-x))``, which
    satisfies ``E>(x) * E>(y) = E>(x #> y)``.
    """
    _require_lie(a, "sharp")
    _require_lie(b, "sharp")
    return a + ad_upper(a, b)


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
