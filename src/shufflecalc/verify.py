"""Named identity suites over seeded random rational tables.

Every suite restates one of the structural identities of the calculus as an
exact equality check and reports the first counterexample on failure.  The
CLI ``verify`` command drives this module; the acceptance tests reuse it.

Randomized tables use numerators uniform in [-9, 9] and denominators in
[1, 9]; the generator is seeded per (seed, suite name), so failures are
reproducible from the reported configuration alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import coalgebra, cumulants, partitions, series
from .coalgebra import TensorSum
from .errors import DomainError
from .functionals import (
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
from .tables import ONE, ZERO, CumulantTable, MomentTable, words_up_to
from .words import UNIT, BarWord


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


_REGISTRY: dict[str, Callable[[VerifyConfig], CheckResult]] = {}


def _check(name: str):
    def register(fn):
        _REGISTRY[name] = fn
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
    return [_REGISTRY[n](config) for n in names]


def _rng(config: VerifyConfig, name: str, extra: int = 0) -> random.Random:
    return random.Random(f"{config.seed}:{name}:{extra}")


def _rand_moments(config: VerifyConfig, rng, max_len=None) -> MomentTable:
    return MomentTable.random(config.alphabet, max_len or config.max_len, rng)


def _rand_cumulants(config: VerifyConfig, rng, max_len=None) -> CumulantTable:
    return CumulantTable.random(config.alphabet, max_len or config.max_len, rng)


def _rand_functional(config: VerifyConfig, rng) -> Functional:
    c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return (
        c0 * unit()
        + infinitesimal(_rand_cumulants(config, rng))
        + c1 * character(_rand_moments(config, rng))
    )


def _counterexample(name: str, bad) -> CheckResult:
    b, lhs, rhs = bad
    return CheckResult(name, False, f"counterexample {b!r}: {lhs} != {rhs}")


def _agree(name: str, f: Functional, g: Functional, config: VerifyConfig, degree: int) -> CheckResult | None:
    bad = functionals_agree(f, g, config.alphabet, degree)
    if bad is not None:
        return _counterexample(name, bad)
    return None


# --- coalgebra ---------------------------------------------------------


def _triples(b: BarWord, left: bool) -> dict:
    """``(Delta (x) id) Delta b`` (``left``) or ``(id (x) Delta) Delta b`` as
    a dict from ``(l, m, r)`` to its nonzero coefficient."""
    out: dict = {}
    for (l, r), c in coalgebra.coproduct(b).pairs():
        for (x, y), c2 in coalgebra.coproduct(l if left else r).pairs():
            key = (x, y, r) if left else (l, x, y)
            out[key] = out.get(key, 0) + c * c2
    return {key: c for key, c in out.items() if c}


@_check("coassociativity")
def _coassociativity(config: VerifyConfig) -> CheckResult:
    name = "coassociativity"
    for w in words_up_to(config.alphabet, config.max_len):
        b = BarWord.of(w)
        if _triples(b, True) != _triples(b, False):
            return CheckResult(name, False, f"counterexample word {w.dotted()!r}")
    for b in barwords_up_to(config.alphabet, min(config.max_len, 4)):
        if _triples(b, True) != _triples(b, False):
            return CheckResult(name, False, f"counterexample {b!r}")
    return CheckResult(name, True)


@_check("counit")
def _counit(config: VerifyConfig) -> CheckResult:
    name = "counit"
    for b in barwords_up_to(config.alphabet, config.max_len):
        left = TensorSum(
            [(UNIT, r, c) for l, r, c in coalgebra.coproduct(b).items() if l.is_unit]
        )
        right = TensorSum(
            [(l, UNIT, c) for l, r, c in coalgebra.coproduct(b).items() if r.is_unit]
        )
        if left != TensorSum([(UNIT, b, 1)]) or right != TensorSum([(b, UNIT, 1)]):
            return CheckResult(name, False, f"counterexample {b!r}")
    return CheckResult(name, True)


@_check("half-coproduct-split")
def _half_split(config: VerifyConfig) -> CheckResult:
    name = "half-coproduct-split"
    for b in barwords_up_to(config.alphabet, config.max_len):
        total = coalgebra.half_coproduct_left(b) + coalgebra.half_coproduct_right(b)
        if total != coalgebra.coproduct(b):
            return CheckResult(name, False, f"counterexample {b!r}")
    return CheckResult(name, True)


@_check("coproduct-grading")
def _grading(config: VerifyConfig) -> CheckResult:
    name = "coproduct-grading"
    for b in barwords_up_to(config.alphabet, config.max_len):
        for l, r, _ in coalgebra.coproduct(b).items():
            if l.degree + r.degree != b.degree:
                return CheckResult(name, False, f"counterexample {b!r}: {l!r} (x) {r!r}")
    return CheckResult(name, True)


# --- shuffle algebra on functionals ------------------------------------


@_check("shuffle-axioms")
def _shuffle_axioms(config: VerifyConfig) -> CheckResult:
    name = "shuffle-axioms"
    degree = min(config.max_len, 5)
    for trial in range(3):
        rng = _rng(config, name, trial)
        f, g, h = (_rand_functional(config, rng) for _ in range(3))
        pairs = [
            (half_left(half_left(f, g), h), half_left(f, conv(g, h))),
            (half_left(half_right(f, g), h), half_right(f, half_left(g, h))),
            (half_right(f, half_right(g, h)), half_right(conv(f, g), h)),
        ]
        for axiom, (lhs, rhs) in zip(("A1", "A2", "A3"), pairs):
            bad = functionals_agree(lhs, rhs, config.alphabet, degree, include_unit=False)
            if bad is not None:
                b, lv, rv = bad
                return CheckResult(name, False, f"{axiom} fails at {b!r}: {lv} != {rv}")
    return CheckResult(name, True)


@_check("half-sum-convolution")
def _half_sum(config: VerifyConfig) -> CheckResult:
    name = "half-sum-convolution"
    rng = _rng(config, name)
    f = _rand_functional(config, rng)
    g = _rand_functional(config, rng)
    bad = functionals_agree(
        half_left(f, g) + half_right(f, g), conv(f, g),
        config.alphabet, config.max_len, include_unit=False,
    )
    return _counterexample(name, bad) if bad else CheckResult(name, True)


@_check("conv-associativity")
def _conv_assoc(config: VerifyConfig) -> CheckResult:
    name = "conv-associativity"
    rng = _rng(config, name)
    f, g, h = (_rand_functional(config, rng) for _ in range(3))
    bad = functionals_agree(
        conv(conv(f, g), h), conv(f, conv(g, h)), config.alphabet, config.max_len
    )
    return _counterexample(name, bad) if bad else CheckResult(name, True)


@_check("conv-inverse")
def _conv_inverse(config: VerifyConfig) -> CheckResult:
    name = "conv-inverse"
    rng = _rng(config, name)
    f = character(_rand_moments(config, rng))
    for side in (conv(f, inverse(f)), conv(inverse(f), f)):
        bad = functionals_agree(side, unit(), config.alphabet, config.max_len)
        if bad:
            return _counterexample(name, bad)
    return CheckResult(name, True)


@_check("prelie-identity")
def _prelie_identity(config: VerifyConfig) -> CheckResult:
    name = "prelie-identity"
    degree = min(config.max_len, 5)
    rng = _rng(config, name)
    f, g, h = (infinitesimal(_rand_cumulants(config, rng)) for _ in range(3))
    lhs = prelie(prelie(f, g), h) - prelie(f, prelie(g, h))
    rhs = prelie(prelie(g, f), h) - prelie(g, prelie(f, h))
    bad = functionals_agree(lhs, rhs, config.alphabet, degree, include_unit=False)
    if bad:
        return _counterexample(name, bad)
    # closure of infinitesimal characters under the pre-Lie product
    if not is_infinitesimal(prelie(f, g), config.alphabet, min(config.max_len, 4)):
        return CheckResult(name, False, "pre-Lie product left the Lie algebra")
    return CheckResult(name, True)


# --- exponentials ------------------------------------------------------


@_check("exp-half-inverse")
def _exp_half_inverse(config: VerifyConfig) -> CheckResult:
    name = "exp-half-inverse"
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    bad = _agree(
        name, inverse(series.exp_left(a)), series.exp_right(-a), config, config.max_len
    )
    return bad or CheckResult(name, True)


@_check("exp-log-inverse")
def _exp_log_inverse(config: VerifyConfig) -> CheckResult:
    name = "exp-log-inverse"
    rng = _rng(config, name)
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
        bad = _agree(name, lhs, rhs, config, config.max_len)
        if bad:
            return bad
    return CheckResult(name, True)


@_check("exp-transforming")
def _exp_transforming(config: VerifyConfig) -> CheckResult:
    name = "exp-transforming"
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    target = series.exp_conv(a)
    for other in (
        series.exp_left(series.magnus_inverse(a)),
        series.exp_right(-series.magnus_inverse(-a)),
    ):
        bad = _agree(name, target, other, config, config.max_len)
        if bad:
            return bad
    return CheckResult(name, True)


@_check("magnus-crosscheck")
def _magnus_crosscheck(config: VerifyConfig) -> CheckResult:
    name = "magnus-crosscheck"
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    bad = _agree(
        name, series.magnus(a), series.log_conv(series.exp_left(a)), config, config.max_len
    )
    if bad:
        return bad
    bad = _agree(name, series.magnus_inverse(series.magnus(a)), a, config, config.max_len)
    if bad:
        return bad
    bad = _agree(name, series.magnus(series.magnus_inverse(a)), a, config, config.max_len)
    return bad or CheckResult(name, True)


@_check("sharp-product")
def _sharp_product(config: VerifyConfig) -> CheckResult:
    name = "sharp-product"
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    bad = _agree(
        name,
        conv(series.exp_left(a), series.exp_left(b)),
        series.exp_left(series.sharp(a, b)),
        config,
        config.max_len,
    )
    return bad or CheckResult(name, True)


@_check("bch-prelie")
def _bch_prelie(config: VerifyConfig) -> CheckResult:
    name = "bch-prelie"
    degree = min(config.max_len, 5)
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    bad = _agree(
        name,
        series.bch(series.magnus(a), series.magnus(b)),
        series.magnus(series.sharp(a, b)),
        config,
        degree,
    )
    if bad:
        return bad
    bad = _agree(name, series.bch(a, b), -series.bch(-b, -a), config, degree)
    return bad or CheckResult(name, True)


@_check("ad-composition")
def _ad_composition(config: VerifyConfig) -> CheckResult:
    name = "ad-composition"
    degree = min(config.max_len, 4)
    rng = _rng(config, name)
    x, y, z = (infinitesimal(_rand_cumulants(config, rng)) for _ in range(3))
    bad = _agree(
        name,
        series.ad_lower(x, series.ad_lower(y, z)),
        series.ad_lower(series.sharp(y, x), z),
        config,
        degree,
    )
    if bad:
        return bad
    bad = _agree(name, series.ad_upper(x, series.ad_lower(x, y)), y, config, config.max_len)
    if bad:
        return bad
    bad = _agree(name, series.ad_lower(x, series.ad_upper(x, y)), y, config, config.max_len)
    return bad or CheckResult(name, True)


@_check("sharp-adjoint")
def _sharp_adjoint(config: VerifyConfig) -> CheckResult:
    name = "sharp-adjoint"
    degree = min(config.max_len, 5)
    rng = _rng(config, name)
    a = infinitesimal(_rand_cumulants(config, rng))
    b = infinitesimal(_rand_cumulants(config, rng))
    # a # b^a = a + b, and the right-exponential counterpart transported to
    # the # product: -((-b) # -(a^{-b})) = a + b.
    for lhs in (
        series.sharp(a, series.ad_lower(a, b)),
        -series.sharp(-b, -series.ad_lower(-b, a)),
    ):
        bad = _agree(name, lhs, a + b, config, degree)
        if bad:
            return bad
    return CheckResult(name, True)


@_check("factorizations")
def _factorizations(config: VerifyConfig) -> CheckResult:
    name = "factorizations"
    degree = min(config.max_len, 5)
    rng = _rng(config, name)
    x = infinitesimal(_rand_cumulants(config, rng))
    y = infinitesimal(_rand_cumulants(config, rng))
    ok, _, _, bad = series.factorize_left(x, y, config.alphabet, degree)
    if not ok:
        return _counterexample(name, bad)
    ok, _, _, bad = series.factorize_right(x, y, config.alphabet, degree)
    if not ok:
        return _counterexample(name, bad)
    return CheckResult(name, True)


# --- moment-cumulant oracles -------------------------------------------


def _oracle_check(config, name, exp_map, oracle, corrupt=False) -> CheckResult:
    rng = _rng(config, name)
    table = _rand_cumulants(config, rng)
    engine = exp_map(infinitesimal(table))
    offset = ONE if corrupt else ZERO
    for w in words_up_to(config.alphabet, config.max_len):
        lhs = engine(BarWord.of(w))
        rhs = oracle(table, w) + offset
        if lhs != rhs:
            return CheckResult(
                name, False, f"counterexample {w.dotted()!r}: {lhs} != {rhs}"
            )
    return CheckResult(name, True)


@_check("free-oracle")
def _free_oracle(config: VerifyConfig) -> CheckResult:
    return _oracle_check(
        config, "free-oracle", series.exp_left, partitions.free_moment_sum,
        corrupt=config.corrupt,
    )


@_check("boolean-oracle")
def _boolean_oracle(config: VerifyConfig) -> CheckResult:
    return _oracle_check(
        config, "boolean-oracle", series.exp_right, partitions.boolean_moment_sum
    )


@_check("monotone-oracle")
def _monotone_oracle(config: VerifyConfig) -> CheckResult:
    return _oracle_check(
        config, "monotone-oracle", series.exp_conv, partitions.monotone_moment_sum
    )


@_check("adjoint-sums")
def _adjoint_sums(config: VerifyConfig) -> CheckResult:
    name = "adjoint-sums"
    rng = _rng(config, name)
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
            return CheckResult(name, False, f"lower fails at {w.dotted()!r}: {lhs} != {rhs}")
        lhs, rhs = upper(b), partitions.adjoint_sum_upper(mu_table, tau_table, w)
        if lhs != rhs:
            return CheckResult(name, False, f"upper fails at {w.dotted()!r}: {lhs} != {rhs}")
        if len(w) <= 2 and lower(b) != mu_table.lookup(w):
            return CheckResult(name, False, f"low-degree fixed point fails at {w.dotted()!r}")
    return CheckResult(name, True)


# --- c-free ------------------------------------------------------------


@_check("cfree-oracle")
def _cfree_oracle(config: VerifyConfig) -> CheckResult:
    name = "cfree-oracle"
    rng = _rng(config, name)
    pair = cumulants.StatePair(
        _rand_moments(config, rng), _rand_moments(config, rng)
    )
    r = cumulants.cfree_cumulants(pair)
    kappa_psi = cumulants.free_cumulants(pair.psi)
    for w in words_up_to(config.alphabet, config.max_len):
        lhs = pair.phi.lookup(w)
        rhs = partitions.cfree_moment_sum(r, kappa_psi, w)
        if lhs != rhs:
            return CheckResult(name, False, f"counterexample {w.dotted()!r}: {lhs} != {rhs}")
    # round trip and the <-side fixed point
    phi_back = cumulants.moments_from_cfree(r, pair.psi)
    if phi_back != pair.phi:
        return CheckResult(name, False, "moments_from_cfree does not invert cfree_cumulants")
    phic = character(pair.phi)
    psic = character(pair.psi)
    mix = conv(phic, inverse(psic))
    conjugated = half_left(half_right(mix, infinitesimal(r)), inverse(mix))
    fixed_point = unit() + half_left(conjugated, phic)
    bad = _agree(name, fixed_point, phic, config, config.max_len)
    return bad or CheckResult(name, True)


@_check("cfree-degenerations")
def _cfree_degenerations(config: VerifyConfig) -> CheckResult:
    name = "cfree-degenerations"
    rng = _rng(config, name)
    phi1 = _rand_moments(config, rng)
    phi2 = _rand_moments(config, rng)
    e_state = cumulants.unit_state(config.alphabet, config.max_len)
    # psi_i = e: boolean additive convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, e_state), cumulants.StatePair(phi2, e_state)
    )
    if out.phi != cumulants.convolve_boolean(phi1, phi2):
        return CheckResult(name, False, "boolean degeneration fails")
    # phi_i = psi_i: free additive convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, phi1), cumulants.StatePair(phi2, phi2)
    )
    free = cumulants.convolve_free(phi1, phi2)
    if out.phi != free or out.psi != free:
        return CheckResult(name, False, "free degeneration fails")
    # psi1 = e, phi2 = psi2: monotone convolution
    out = cumulants.convolve_cfree(
        cumulants.StatePair(phi1, e_state), cumulants.StatePair(phi2, phi2)
    )
    if out.phi != cumulants.convolve_monotone(phi1, phi2):
        return CheckResult(name, False, "monotone degeneration fails")
    return CheckResult(name, True)


@_check("cfree-additivity")
def _cfree_additivity(config: VerifyConfig) -> CheckResult:
    name = "cfree-additivity"
    rng = _rng(config, name)
    p1 = cumulants.StatePair(_rand_moments(config, rng), _rand_moments(config, rng))
    p2 = cumulants.StatePair(_rand_moments(config, rng), _rand_moments(config, rng))
    out = cumulants.convolve_cfree(p1, p2)
    if cumulants.cfree_cumulants(out) != cumulants.cfree_cumulants(p1) + cumulants.cfree_cumulants(p2):
        return CheckResult(name, False, "c-free cumulants are not additive")
    if cumulants.free_cumulants(out.psi) != cumulants.free_cumulants(p1.psi) + cumulants.free_cumulants(p2.psi):
        return CheckResult(name, False, "psi free cumulants are not additive")
    return CheckResult(name, True)


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


def _engine_convert(table: CumulantTable, src: str, dst: str) -> CumulantTable:
    out = _LIE_CONVERSIONS[src, dst](infinitesimal(table))
    return materialize(out, table.alphabet, table.max_len, CumulantTable)


@_check("cumulant-conversions")
def _cumulant_conversions(config: VerifyConfig) -> CheckResult:
    name = "cumulant-conversions"
    rng = _rng(config, name)
    phi = _rand_moments(config, rng)
    kappa = cumulants.free_cumulants(phi)
    beta = cumulants.boolean_cumulants(phi)
    rho = cumulants.monotone_cumulants(phi)
    tables = {"free": kappa, "boolean": beta, "monotone": rho}
    for src, dst in _LIE_CONVERSIONS:
        if _engine_convert(tables[src], src, dst) != tables[dst]:
            return CheckResult(name, False, f"engine conversion {src} -> {dst} fails")
        if cumulants.convert(tables[src], src, dst) != tables[dst]:
            return CheckResult(name, False, f"conversion {src} -> {dst} fails")
    # consistency triangle on the engine
    back = _engine_convert(
        _engine_convert(_engine_convert(kappa, "free", "boolean"), "boolean", "monotone"),
        "monotone",
        "free",
    )
    if back != kappa:
        return CheckResult(name, False, "free -> boolean -> monotone -> free round trip fails")
    # irreducible partition sums linking the three cumulant families
    for w in words_up_to(config.alphabet, config.max_len):
        for expected, oracle, table in (
            (beta, partitions.boolean_from_free_sum, kappa),
            (kappa, partitions.free_from_boolean_sum, beta),
            (beta, partitions.boolean_from_monotone_sum, rho),
            (kappa, partitions.free_from_monotone_sum, rho),
        ):
            if expected.lookup(w) != oracle(table, w):
                return CheckResult(name, False, f"{oracle.__name__} fails at {w.dotted()!r}")
    return CheckResult(name, True)


@_check("nc-counts")
def _nc_counts(config: VerifyConfig) -> CheckResult:
    name = "nc-counts"
    catalan = [1]
    for n in range(1, 9):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    ncs = {n: partitions.enumerate_nc(n) for n in range(1, 8)}
    for n, nc in ncs.items():
        if len(nc) != catalan[n]:
            return CheckResult(name, False, f"|NC_{n}| != Catalan({n})")
    for n in range(1, 9):
        bools = partitions.enumerate_boolean(n)
        if len(bools) != 2 ** (n - 1):
            return CheckResult(name, False, f"|B_{n}| != 2^{n - 1}")
        if n in ncs and not set(bools) <= set(ncs[n]):
            return CheckResult(name, False, f"B_{n} not inside NC_{n}")
    return CheckResult(name, True)
