"""Exponentials, logarithms, the pre-Lie Magnus pair, the # product, BCH
cross-checks and the adjoint actions.

Everything here evaluates against concrete rational tables, and all results
are exact.  The half-shuffle exponentials ``E<``/``E>`` are fixed points, not
series: they solve ``X = e + a < X`` and ``Y = e + Y > a`` directly, as the
convolution inverse (``functionals.inverse``) solves ``X = e + (e - f) * X``.
``exp*``, ``log*`` and the Magnus pair are power series
``sum_m c_m L^m(seed)`` in a linear map L (right convolution by a
known factor, or the pre-Lie product ``w |>``), each evaluated in Horner
form: the series is the first node of a chain ``H_j = c_j seed +
L(H_{j+1})``, the affine form of the fixed point ``X = seed + L(X)``.  Each
``L(H_{j+1})`` is one split-product node (``functionals._Product``), and the
chain stops by grading: ``H_j`` is only read below degree ``d - j + 1`` on
a bar-word of degree d, and is made when a degree first needs it.  As L is
linear, a degree costs the series one split pass per term of L, however
many powers reach it.  Group-side arguments must take the value 1 on the
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
from .errors import DomainError, is_int, quoted
from .functionals import (
    ONE,
    ZERO,
    Functional,
    _Product,
    _Sum,
    _check_domain,
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
    if not is_int(m) or m < 0:
        raise DomainError(f"bernoulli requires an integer m >= 0, got {quoted(m)}")
    while len(_bernoulli_cache) <= m:
        k = len(_bernoulli_cache)
        total = sum(
            (comb(k + 1, j) * _bernoulli_cache[j] for j in range(k)), Fraction(0)
        )
        _bernoulli_cache.append(-total / (k + 1))
    return _bernoulli_cache[m]


class _Series(_Sum):
    """``sum_m coeff(m) L^m(seed)`` for a linear map L, as the Horner chain
    node ``H_j = coeff(j) seed + L(H_{j+1})``; the series is ``H_0``.

    L is given as ``(sign, split, known, known_left)`` terms, as for a
    ``_Product``; ``known is None`` stands for the series ``H_0`` itself,
    read through a weak proxy so that no chain node refers back to it.
    Every known factor vanishes on the unit, so L raises the degree:
    ``L^m(seed)`` vanishes below degree ``m + low``, where ``low`` is 1 if
    the seed vanishes on the unit and 0 otherwise.  So ``L(H_{j+1})`` is
    the ``_Product`` of L with ``H_{j+1}`` whose known leg has degree
    ``1..d - low``, 0 below degree ``1 + low``, where ``H_j`` is
    ``coeff(j) seed`` alone; ``tail`` holds it, made with ``H_{j+1}`` when a
    degree of at least ``1 + low`` first needs it.  On a bar-word of degree
    d, ``H_j`` is read below degree ``d - j + 1`` only, so the chain stops at
    ``H_{d - low}``, and a series that is its own known factor is read below
    its own ``den(d)``.
    """

    def __init__(self, seed: Functional, coeff, step, j: int = 0):
        super().__init__(((coeff(j), seed),))
        self.seed, self.coeff, self.j = seed, coeff, j
        self.step = tuple((sign, split, proxy(self) if known is None else known, known_left)
                          for sign, split, known, known_left in step)
        self.tail = None
        self._low = 1 if seed(UNIT) == ZERO else 0

    def _parts(self, d: int):
        if d <= self._low:
            return self.parts
        if self.tail is None:
            after = _Series(self.seed, self.coeff, self.step, self.j + 1)
            self.tail = _Product(self.step, after, low=1, skip=self._low)
        return self.parts + ((ONE, self.tail),)


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
    alphabet = _check_domain(alphabet, max_degree)
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
    alphabet = _check_domain(alphabet, max_degree)
    lhs = exp_right(x + y)
    rhs = conv(exp_right(ad_lower(-y, x)), exp_right(y))
    bad = functionals_agree(lhs, rhs, alphabet, max_degree)
    return (bad is None, lhs, rhs, bad)
