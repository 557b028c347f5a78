"""Named identity suites over seeded random rational tables.

Every suite restates one or more of the structural identities of the
calculus as exact equality checks.  A suite is a generator that yields one
detail line per failed check, in the order of its checks; ``run_checks``
reports the first line and stops there, so nothing after the first failure
is built or evaluated.  The CLI ``verify`` command drives this module; the
acceptance tests reuse it.

Randomized tables use numerators uniform in [-9, 9] and denominators in
[1, 9]; the generator is seeded per (seed, suite name, trial), so failures
are reproducible from the reported configuration alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import coalgebra, cumulants, partitions, series
from .coalgebra import TensorSum
from .errors import DomainError
from .functionals import (
    ONE,
    ZERO,
    Functional,
    barwords_up_to,
    character,
    conv,
    functionals_agree,
    half_left,
    half_right,
    infinitesimal,
    inverse,
    is_infinitesimal,
    materialize,
    prelie,
    unit,
)
from .tables import CumulantTable, MomentTable
from .words import UNIT, BarWord, words_up_to


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyConfig:
    alphabet: tuple[str, ...] = ("a", "b")
    max_len: int = 4
    seed: int = 0
    corrupt: bool = False


_REGISTRY: dict[str, Callable[[VerifyConfig], Iterator[str]]] = {}


def _suite(name: str, trials: int = 1):
    """Register ``fn(config, rng)``, a generator of failure lines, as the
    suite ``name``.  It runs once per trial, each run with the generator
    seeded by (seed, name, trial)."""

    def register(fn):
        _REGISTRY[name] = lambda config: (
            line
            for trial in range(trials)
            for line in fn(config, random.Random(f"{config.seed}:{name}:{trial}"))
        )
        return fn

    return register


def check_names() -> list[str]:
    return sorted(_REGISTRY)


def run_checks(config: VerifyConfig, only: list[str] | None = None) -> list[CheckResult]:
    names = check_names()
    if only is not None:
        if not only:
            raise DomainError("no check names given")
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise DomainError(
                f"unknown check names: {unknown}; available: {', '.join(names)}"
            )
        names = [n for n in names if n in set(only)]
    results = []
    for name in names:
        detail = next(_REGISTRY[name](config), None)
        results.append(CheckResult(name, detail is None, detail or ""))
    return results


def _rand_moments(config: VerifyConfig, rng) -> MomentTable:
    return MomentTable.random(config.alphabet, config.max_len, rng)


def _rand_cumulants(config: VerifyConfig, rng) -> CumulantTable:
    return CumulantTable.random(config.alphabet, config.max_len, rng)


def _rand_functional(config: VerifyConfig, rng) -> Functional:
    c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return (
        c0 * unit()
        + infinitesimal(_rand_cumulants(config, rng))
        + c1 * character(_rand_moments(config, rng))
    )


def _differ(config: VerifyConfig, degree: int, f: Functional, g: Functional,
            include_unit: bool = True, label: str = "counterexample") -> Iterator[str]:
    """Yield the first bar-word of degree <= ``degree`` on which f and g
    differ, if any, as ``<label> <bar-word>: <f value> != <g value>``."""
    bad = functionals_agree(f, g, config.alphabet, degree, include_unit=include_unit)
    if bad is not None:
        b, lhs, rhs = bad
        yield f"{label} {b!r}: {lhs} != {rhs}"


def _words_differ(config: VerifyConfig, lhs, rhs) -> Iterator[str]:
    """Yield ``counterexample <word>: <lhs> != <rhs>`` for each word of the
    domain on which the two functions of a word differ."""
    for w in words_up_to(config.alphabet, config.max_len):
        left, right = lhs(w), rhs(w)
        if left != right:
            yield f"counterexample {w.dotted()!r}: {left} != {right}"


# --- coalgebra ---------------------------------------------------------


def _coassociative(b: BarWord) -> bool:
    """Whether ``(Delta (x) id) Delta b = (id (x) Delta) Delta b``, compared
    per first leg x.  On the left, the ``(y, r)`` terms over x are built
    term by term.  On the right they are ``sum c Delta r`` over the terms
    ``c (x, r)`` of ``Delta b``: where that is one term with c = 1, the two
    sides are equal if the left's terms are those of the cached coproduct;
    else, and where they are not, the right's terms are subtracted from the
    left's, which must leave 0 everywhere."""
    coproduct = coalgebra.coproduct
    lefts: dict = {}
    rights: dict = {}
    for (l, r), c in coproduct(b).pairs():
        rights.setdefault(l, []).append((r, c))
        for (x, y), c2 in coproduct(l).pairs():
            group = lefts.get(x)
            if group is None:
                group = lefts[x] = {}
            key = (y, r)
            group[key] = group.get(key, 0) + c * c2
    for x in lefts.keys() | rights.keys():
        group = lefts.get(x, {})
        terms = rights.get(x, ())
        if len(terms) == 1 and terms[0][1] == 1:
            if group.items() == coproduct(terms[0][0]).pairs():
                continue
        for r, c in terms:
            for key, c2 in coproduct(r).pairs():
                group[key] = group.get(key, 0) - c * c2
        if any(group.values()):
            return False
    return True


@_suite("coassociativity")
def _coassociativity(config: VerifyConfig, rng):
    for w in words_up_to(config.alphabet, config.max_len):
        if not _coassociative(BarWord.of(w)):
            yield f"counterexample word {w.dotted()!r}"
    # A one-factor bar-word is the bar-word of a word checked above.
    for b in barwords_up_to(config.alphabet, min(config.max_len, 4)):
        if len(b.factors) != 1 and not _coassociative(b):
            yield f"counterexample {b!r}"


@_suite("counit")
def _counit(config: VerifyConfig, rng):
    for b in barwords_up_to(config.alphabet, config.max_len):
        left = TensorSum(
            [(UNIT, r, c) for l, r, c in coalgebra.coproduct(b).items() if l.is_unit]
        )
        right = TensorSum(
            [(l, UNIT, c) for l, r, c in coalgebra.coproduct(b).items() if r.is_unit]
        )
        if left != TensorSum([(UNIT, b, 1)]) or right != TensorSum([(b, UNIT, 1)]):
            yield f"counterexample {b!r}"


@_suite("half-coproduct-split")
def _half_split(config: VerifyConfig, rng):
    for b in barwords_up_to(config.alphabet, config.max_len):
        total = coalgebra.half_coproduct_left(b) + coalgebra.half_coproduct_right(b)
        if total != coalgebra.coproduct(b):
            yield f"counterexample {b!r}"


@_suite("coproduct-grading")
def _grading(config: VerifyConfig, rng):
    for b in barwords_up_to(config.alphabet, config.max_len):
        for l, r, _ in coalgebra.coproduct(b).items():
            if l.degree + r.degree != b.degree:
                yield f"counterexample {b!r}: {l!r} (x) {r!r}"


# --- shuffle algebra on functionals ------------------------------------


@_suite("shuffle-axioms", trials=3)
def _shuffle_axioms(config: VerifyConfig, rng):
    degree = min(config.max_len, 5)
    f, g, h = (_rand_functional(config, rng) for _ in range(3))
    pairs = [
        (half_left(half_left(f, g), h), half_left(f, conv(g, h))),
        (half_left(half_right(f, g), h), half_right(f, half_left(g, h))),
        (half_right(f, half_right(g, h)), half_right(conv(f, g), h)),
    ]
    for axiom, (lhs, rhs) in zip(("A1", "A2", "A3"), pairs):
        yield from _differ(config, degree, lhs, rhs, include_unit=False,
                           label=f"{axiom} fails at")


@_suite("half-sum-convolution")
def _half_sum(config: VerifyConfig, rng):
    f = _rand_functional(config, rng)
    g = _rand_functional(config, rng)
    yield from _differ(config, config.max_len, half_left(f, g) + half_right(f, g),
                       conv(f, g), include_unit=False)


@_suite("conv-associativity")
def _conv_assoc(config: VerifyConfig, rng):
    f, g, h = (_rand_functional(config, rng) for _ in range(3))
    yield from _differ(config, config.max_len, conv(conv(f, g), h), conv(f, conv(g, h)))


@_suite("conv-inverse")
def _conv_inverse(config: VerifyConfig, rng):
    f = character(_rand_moments(config, rng))
    for side in (conv(f, inverse(f)), conv(inverse(f), f)):
        yield from _differ(config, config.max_len, side, unit())


@_suite("prelie-identity")
def _prelie_identity(config: VerifyConfig, rng):
    degree = min(config.max_len, 5)
    f, g, h = (infinitesimal(_rand_cumulants(config, rng)) for _ in range(3))
    lhs = prelie(prelie(f, g), h) - prelie(f, prelie(g, h))
    rhs = prelie(prelie(g, f), h) - prelie(g, prelie(f, h))
    yield from _differ(config, degree, lhs, rhs, include_unit=False)
    # closure of infinitesimal characters under the pre-Lie product
    if not is_infinitesimal(prelie(f, g), config.alphabet, min(config.max_len, 4)):
        yield "pre-Lie product left the Lie algebra"


# --- exponentials ------------------------------------------------------


@_suite("exp-half-inverse")
def _exp_half_inverse(config: VerifyConfig, rng):
    a = infinitesimal(_rand_cumulants(config, rng))
    yield from _differ(config, config.max_len, inverse(series.exp_left(a)),
                       series.exp_right(-a))


@_suite("exp-log-inverse")
def _exp_log_inverse(config: VerifyConfig, rng):
    a = infinitesimal(_rand_cumulants(config, rng))
    phi = character(_rand_moments(config, rng))
    pairs = [
        (series.log_left(series.exp_left(a)), a),
        (series.log_right(series.exp_right(a)), a),
        (series.log_conv(series.exp_conv(a)), a),
        (series.exp_left(series.log_left(phi)), phi),
        (series.exp_right(series.log_right(phi)), phi),
        (series.exp_conv(series.log_conv(phi)), phi),
    ]
    for lhs, rhs in pairs:
        yield from _differ(config, config.max_len, lhs, rhs)


@_suite("exp-transforming")
def _exp_transforming(config: VerifyConfig, rng):
    a = infinitesimal(_rand_cumulants(config, rng))
    target = series.exp_conv(a)
    for other in (
        series.exp_left(series.magnus_inverse(a)),
        series.exp_right(-series.magnus_inverse(-a)),
    ):
        yield from _differ(config, config.max_len, target, other)


@_suite("magnus-crosscheck")
def _magnus_crosscheck(config: VerifyConfig, rng):
    a = infinitesimal(_rand_cumulants(config, rng))
    yield from _differ(config, config.max_len, series.magnus(a),
                       series.log_conv(series.exp_left(a)))
    yield from _differ(config, config.max_len, series.magnus_inverse(series.magnus(a)), a)
    yield from _differ(config, config.max_len, series.magnus(series.magnus_inverse(a)), a)


@_suite("sharp-product")
def _sharp_product(config: VerifyConfig, rng):
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    yield from _differ(config, config.max_len, conv(series.exp_left(a), series.exp_left(b)),
                       series.exp_left(series.sharp(a, b)))


@_suite("bch-prelie")
def _bch_prelie(config: VerifyConfig, rng):
    degree = min(config.max_len, 5)
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    yield from _differ(config, degree, series.bch(series.magnus(a), series.magnus(b)),
                       series.magnus(series.sharp(a, b)))
    yield from _differ(config, degree, series.bch(a, b), -series.bch(-b, -a))


@_suite("ad-composition")
def _ad_composition(config: VerifyConfig, rng):
    degree = min(config.max_len, 4)
    x, y, z = (infinitesimal(_rand_cumulants(config, rng)) for _ in range(3))
    yield from _differ(config, degree, series.ad_lower(x, series.ad_lower(y, z)),
                       series.ad_lower(series.sharp(y, x), z))
    yield from _differ(config, config.max_len, series.ad_upper(x, series.ad_lower(x, y)), y)
    yield from _differ(config, config.max_len, series.ad_lower(x, series.ad_upper(x, y)), y)


@_suite("sharp-adjoint")
def _sharp_adjoint(config: VerifyConfig, rng):
    degree = min(config.max_len, 5)
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    # a # b^a = a + b, and the right-exponential counterpart transported to
    # the # product: -((-b) # -(a^{-b})) = a + b.
    for lhs in (
        series.sharp(a, series.ad_lower(a, b)),
        -series.sharp(-b, -series.ad_lower(-b, a)),
    ):
        yield from _differ(config, degree, lhs, a + b)


@_suite("factorizations")
def _factorizations(config: VerifyConfig, rng):
    degree = min(config.max_len, 5)
    x = infinitesimal(_rand_cumulants(config, rng))
    y = infinitesimal(_rand_cumulants(config, rng))
    for factorize in (series.factorize_left, series.factorize_right):
        ok, _, _, bad = factorize(x, y, config.alphabet, degree)
        if not ok:
            b, lhs, rhs = bad
            yield f"counterexample {b!r}: {lhs} != {rhs}"


# --- moment-cumulant oracles -------------------------------------------


def _oracle(config: VerifyConfig, rng, exp_map, oracle, offset=ZERO) -> Iterator[str]:
    table = _rand_cumulants(config, rng)
    engine = exp_map(infinitesimal(table))
    yield from _words_differ(
        config, lambda w: engine(BarWord.of(w)), lambda w: oracle(table, w) + offset
    )


@_suite("free-oracle")
def _free_oracle(config: VerifyConfig, rng):
    return _oracle(config, rng, series.exp_left, partitions.free_moment_sum,
                   ONE if config.corrupt else ZERO)


@_suite("boolean-oracle")
def _boolean_oracle(config: VerifyConfig, rng):
    return _oracle(config, rng, series.exp_right, partitions.boolean_moment_sum)


@_suite("monotone-oracle")
def _monotone_oracle(config: VerifyConfig, rng):
    return _oracle(config, rng, series.exp_conv, partitions.monotone_moment_sum)


@_suite("adjoint-sums")
def _adjoint_sums(config: VerifyConfig, rng):
    psi = _rand_moments(config, rng)
    mu_table = _rand_cumulants(config, rng)
    mu = infinitesimal(mu_table)
    nu = series.log_left(character(psi))
    tau_table = cumulants.boolean_cumulants(psi)
    lower = series.ad_lower(nu, mu)
    upper = series.ad_upper(nu, mu)
    for w in words_up_to(config.alphabet, config.max_len):
        b = BarWord.of(w)
        lhs, rhs = lower(b), partitions.adjoint_sum_lower(mu_table, psi, w)
        if lhs != rhs:
            yield f"lower fails at {w.dotted()!r}: {lhs} != {rhs}"
        lhs, rhs = upper(b), partitions.adjoint_sum_upper(mu_table, tau_table, w)
        if lhs != rhs:
            yield f"upper fails at {w.dotted()!r}: {lhs} != {rhs}"


# --- c-free ------------------------------------------------------------


@_suite("cfree-oracle")
def _cfree_oracle(config: VerifyConfig, rng):
    pair = cumulants.StatePair(
        _rand_moments(config, rng), _rand_moments(config, rng)
    )
    r = cumulants.cfree_cumulants(pair)
    kappa_psi = cumulants.free_cumulants(pair.psi)
    yield from _words_differ(
        config, pair.phi.lookup, lambda w: partitions.cfree_moment_sum(r, kappa_psi, w)
    )
    # round trip and the <-side fixed point
    if cumulants.moments_from_cfree(r, pair.psi) != pair.phi:
        yield "moments_from_cfree does not invert cfree_cumulants"
    phic = character(pair.phi)
    psic = character(pair.psi)
    mix = conv(phic, inverse(psic))
    conjugated = half_left(half_right(mix, infinitesimal(r)), inverse(mix))
    yield from _differ(config, config.max_len, unit() + half_left(conjugated, phic), phic)


@_suite("cfree-degenerations")
def _cfree_degenerations(config: VerifyConfig, rng):
    phi1 = _rand_moments(config, rng)
    phi2 = _rand_moments(config, rng)
    e_state = cumulants.unit_state(config.alphabet, config.max_len)
    # psi_i = e: boolean additive convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, e_state), cumulants.StatePair(phi2, e_state)
    )
    if out.phi != cumulants.convolve_boolean(phi1, phi2):
        yield "boolean degeneration fails"
    # phi_i = psi_i: free additive convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, phi1), cumulants.StatePair(phi2, phi2)
    )
    free = cumulants.convolve_free(phi1, phi2)
    if out.phi != free or out.psi != free:
        yield "free degeneration fails"
    # psi1 = e, phi2 = psi2: monotone convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, e_state), cumulants.StatePair(phi2, phi2)
    )
    if out.phi != cumulants.convolve_monotone(phi1, phi2):
        yield "monotone degeneration fails"


@_suite("cfree-additivity")
def _cfree_additivity(config: VerifyConfig, rng):
    p1 = cumulants.StatePair(_rand_moments(config, rng), _rand_moments(config, rng))
    p2 = cumulants.StatePair(_rand_moments(config, rng), _rand_moments(config, rng))
    out = cumulants.convolve_cfree(p1, p2)
    if cumulants.cfree_cumulants(out) != cumulants.cfree_cumulants(p1) + cumulants.cfree_cumulants(p2):
        yield "c-free cumulants are not additive"
    if cumulants.free_cumulants(out.psi) != cumulants.free_cumulants(p1.psi) + cumulants.free_cumulants(p2.psi):
        yield "psi free cumulants are not additive"


# The paper's Lie-side relations between the cumulant families, evaluated on
# the engine: (src, dst) -> the dst cumulants as a function of the src ones,
# through the pre-Lie Magnus pair, the adjoint action and the E> conjugation.
_LIE_CONVERSIONS = {
    ("free", "boolean"): lambda a: series.ad_lower(a, a),
    ("boolean", "free"): lambda a: half_left(half_right(phi := series.exp_right(a), a), inverse(phi)),
    ("monotone", "free"): series.magnus_inverse,
    ("monotone", "boolean"): lambda a: -series.magnus_inverse(-a),
    ("free", "monotone"): series.magnus,
    ("boolean", "monotone"): lambda a: -series.magnus(-a),
}


@_suite("cumulant-conversions")
def _cumulant_conversions(config: VerifyConfig, rng):
    phi = _rand_moments(config, rng)
    kappa = cumulants.free_cumulants(phi)
    beta = cumulants.boolean_cumulants(phi)
    rho = cumulants.monotone_cumulants(phi)
    tables = {"free": kappa, "boolean": beta, "monotone": rho}
    for (src, dst), lie in _LIE_CONVERSIONS.items():
        engine = lie(infinitesimal(tables[src]))
        if materialize(engine, phi.alphabet, phi.max_len, CumulantTable) != tables[dst]:
            yield f"engine conversion {src} -> {dst} fails"
        if cumulants.convert(tables[src], src, dst) != tables[dst]:
            yield f"conversion {src} -> {dst} fails"
    # irreducible partition sums linking the three cumulant families
    for w in words_up_to(config.alphabet, config.max_len):
        for expected, oracle, table in (
            (beta, partitions.boolean_from_free_sum, kappa),
            (kappa, partitions.free_from_boolean_sum, beta),
            (beta, partitions.boolean_from_monotone_sum, rho),
            (kappa, partitions.free_from_monotone_sum, rho),
        ):
            if expected.lookup(w) != oracle(table, w):
                yield f"{oracle.__name__} fails at {w.dotted()!r}"


@_suite("nc-counts")
def _nc_counts(config: VerifyConfig, rng):
    catalan = [1]
    for n in range(1, 9):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    ncs = {n: partitions.enumerate_nc(n) for n in range(1, 8)}
    for n, nc in ncs.items():
        if len(nc) != catalan[n]:
            yield f"|NC_{n}| != Catalan({n})"
    for n in range(1, 9):
        bools = partitions.enumerate_boolean(n)
        if len(bools) != 2 ** (n - 1):
            yield f"|B_{n}| != 2^{n - 1}"
        if n in ncs and not set(bools) <= set(ncs[n]):
            yield f"B_{n} not inside NC_{n}"
