"""Failure paths of the verify suites.

A suite that never fails proves little, so every failure line of every
suite is forced here, and the detail line each suite reports is held to a
recorded value.  The engine comparisons are also counted per suite: a
check whose failure lines are built but never yielded would still pass
every suite, and only its missing comparison shows it.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import pytest

from shufflecalc import coalgebra, cumulants, partitions, series, verify
from shufflecalc.coalgebra import TensorSum
from shufflecalc.functionals import barwords_up_to
from shufflecalc.verify import VerifyConfig, check_names, run_checks
from shufflecalc.words import UNIT, BarWord, Word

CONFIG = VerifyConfig(("a", "b"), 3)

# Each partition oracle that verify reads, and the one failure that its
# value + 1 causes.
ORACLE_FAILURES = {
    "free_moment_sum": ("free-oracle", "counterexample 'a': 4/9 != 13/9"),
    "boolean_moment_sum": ("boolean-oracle", "counterexample 'a': -3/7 != 4/7"),
    "monotone_moment_sum": ("monotone-oracle", "counterexample 'a': 8 != 9"),
    "adjoint_sum_lower": ("adjoint-sums", "lower fails at 'a': -1 != 0"),
    "adjoint_sum_upper": ("adjoint-sums", "upper fails at 'a': -1 != 0"),
    "cfree_moment_sum": ("cfree-oracle", "counterexample 'a': -3/8 != 5/8"),
    "boolean_from_free_sum": ("cumulant-conversions", "boolean_from_free_sum fails at 'a'"),
    "free_from_boolean_sum": ("cumulant-conversions", "free_from_boolean_sum fails at 'a'"),
    "boolean_from_monotone_sum": ("cumulant-conversions",
                                  "boolean_from_monotone_sum fails at 'a'"),
    "free_from_monotone_sum": ("cumulant-conversions", "free_from_monotone_sum fails at 'a'"),
}

# Engine comparisons (``functionals_agree`` calls) each passing suite makes.
ENGINE_COMPARISONS = {
    "ad-composition": 3,
    "bch-prelie": 2,
    "cfree-oracle": 1,
    "conv-associativity": 1,
    "conv-inverse": 2,
    "exp-half-inverse": 1,
    "exp-log-inverse": 6,
    "exp-transforming": 2,
    "factorizations": 2,
    "half-sum-convolution": 1,
    "magnus-crosscheck": 3,
    "prelie-identity": 1,
    "sharp-adjoint": 2,
    "sharp-product": 1,
    "shuffle-axioms": 9,
}


def _failures(results):
    return {r.name: r.detail for r in results if not r.passed}


@pytest.mark.parametrize("oracle", sorted(ORACLE_FAILURES))
def test_corrupted_oracle_fails_its_suite_alone(monkeypatch, oracle):
    original = getattr(partitions, oracle)
    monkeypatch.setattr(partitions, oracle,
                        functools.wraps(original)(lambda *args: original(*args) + 1))
    suite, detail = ORACLE_FAILURES[oracle]
    assert _failures(run_checks(CONFIG)) == {suite: detail}


def _count_comparisons(monkeypatch, result=None):
    """Count ``functionals_agree`` calls per running suite, returning
    ``result`` from each when it is given; return the counts and the
    results of every suite, run one at a time."""
    counts: dict[str, int] = {}
    agree = verify.functionals_agree

    def counted(*args, **kwargs):
        counts[current] = counts.get(current, 0) + 1
        return result if result is not None else agree(*args, **kwargs)

    monkeypatch.setattr(verify, "functionals_agree", counted)
    monkeypatch.setattr(series, "functionals_agree", counted)
    results = []
    for current in check_names():
        results += run_checks(CONFIG, only=[current])
    return counts, results


def test_engine_comparisons_per_suite(monkeypatch):
    counts, results = _count_comparisons(monkeypatch)
    assert _failures(results) == {}
    assert counts == ENGINE_COMPARISONS


def test_engine_disagreement_fails_each_engine_suite_at_its_first_check(monkeypatch):
    counts, results = _count_comparisons(monkeypatch, result=(UNIT, 1, 2))
    expected = {name: "counterexample BarWord(1): 1 != 2" for name in ENGINE_COMPARISONS}
    expected["shuffle-axioms"] = "A1 fails at BarWord(1): 1 != 2"
    assert _failures(results) == expected
    # nothing after a suite's first failure is evaluated
    assert counts == dict.fromkeys(ENGINE_COMPARISONS, 1)


@pytest.mark.parametrize("direction", list(verify._LIE_CONVERSIONS), ids="->".join)
def test_corrupted_engine_conversion_fails_its_suite_alone(monkeypatch, direction):
    original = verify._LIE_CONVERSIONS[direction]
    monkeypatch.setitem(verify._LIE_CONVERSIONS, direction, lambda a: -original(a))
    src, dst = direction
    assert _failures(run_checks(CONFIG)) == {
        "cumulant-conversions": f"engine conversion {src} -> {dst} fails"}


def test_corrupted_kernel_conversion_fails_its_suite_alone(monkeypatch):
    convert = cumulants.convert

    def corrupted(table, src, dst):
        out = convert(table, src, dst)
        return -out if (src, dst) == ("boolean", "monotone") else out

    monkeypatch.setattr(cumulants, "convert", corrupted)
    assert _failures(run_checks(CONFIG)) == {
        "cumulant-conversions": "conversion boolean -> monotone fails"}


def test_corrupted_cfree_reconstruction_fails_its_suites(monkeypatch):
    """``convolve_cfree`` reconstructs its moments with the same function,
    so the c-free convolution suites fail with the round trip."""
    original = cumulants.moments_from_cfree
    monkeypatch.setattr(cumulants, "moments_from_cfree", lambda *args: -original(*args))
    assert _failures(run_checks(CONFIG)) == {
        "cfree-additivity": "c-free cumulants are not additive",
        "cfree-degenerations": "boolean degeneration fails",
        "cfree-oracle": "moments_from_cfree does not invert cfree_cumulants",
    }


def _replace_for_verify(monkeypatch, module, **functions):
    """Let verify read ``module`` with ``functions`` in place of its own,
    while the engine and the kernel keep reading the module itself."""
    monkeypatch.setattr(verify, module.__name__.rpartition(".")[2],
                        SimpleNamespace(**{**vars(module), **functions}))


@pytest.mark.parametrize("corrupted, line", [
    (lambda b: True, "counterexample word 'a'"),
    (lambda b: len(b.factors) > 1, "counterexample BarWord(a|a)"),
], ids=["word", "bar-word"])
def test_noncoassociative_triples_fail_coassociativity_alone(monkeypatch, corrupted, line):
    coassociative = verify._coassociative
    monkeypatch.setattr(verify, "_coassociative", lambda b: not corrupted(b) and coassociative(b))
    assert _failures(run_checks(CONFIG)) == {"coassociativity": line}


COPRODUCTS = ("coproduct", "half_coproduct_left", "half_coproduct_right")


def _triples(b, left, coproduct):
    """``(Delta (x) id) Delta b`` (``left``) or ``(id (x) Delta) Delta b`` as
    a dict from ``(l, m, r)`` to its nonzero coefficient, both sides built
    term by term."""
    out: dict = {}
    for (l, r), c in coproduct(b).pairs():
        for (x, y), c2 in coproduct(l if left else r).pairs():
            key = (x, y, r) if left else (l, x, y)
            out[key] = out.get(key, 0) + c * c2
    return {key: c for key, c in out.items() if c}


def _scaling(target, position, factor):
    """The coproduct with the term at ``position`` of ``Delta target``
    multiplied by ``factor``."""
    def coproduct(b):
        terms = list(coalgebra.coproduct(b).items())
        if b == target:
            l, r, c = terms[position]
            terms[position] = (l, r, factor * c)
        return TensorSum(terms)
    return coproduct


@pytest.mark.parametrize("corruption", [
    None, (BarWord.of(Word("ab")), 1, 2), (BarWord.of(Word("aa")), 1, 2),
    (BarWord.of(Word("bca")), 3, 2), (BarWord((Word("a"), Word("b"))), 0, 2),
    (BarWord.of(Word("c")), 0, 2), (BarWord.of(Word("b")), 1, -1),
], ids=["exact", "ab", "aa", "bca", "a|b", "c", "b-negated"])
def test_grouped_coassociativity_is_the_triple_comparison(monkeypatch, corruption):
    """The per-first-leg comparison says equal exactly where the two triple
    dicts are equal, on every bar-word of degree <= 4 over {a, b, c}, for
    the coproduct, for coproducts with one term doubled, and for one with
    a term negated, under which coefficients cancel."""
    coproduct = coalgebra.coproduct if corruption is None else _scaling(*corruption)
    _replace_for_verify(monkeypatch, coalgebra, coproduct=coproduct)
    verdicts = [(verify._coassociative(b),
                 _triples(b, True, coproduct) == _triples(b, False, coproduct))
                for b in barwords_up_to("abc", 4)]
    assert all(grouped == triples for grouped, triples in verdicts)
    assert any(not grouped for grouped, _ in verdicts) is (corruption is not None)


def test_doubled_coproduct_fails_counit_alone(monkeypatch):
    """Twice the coproduct, split into twice its halves, is still
    coassociative and graded, but not counital."""
    _replace_for_verify(monkeypatch, coalgebra, **{
        name: functools.partial(lambda fn, b: 2 * fn(b), getattr(coalgebra, name))
        for name in COPRODUCTS})
    assert _failures(run_checks(CONFIG)) == {"counit": "counterexample BarWord(a)"}


def test_doubled_right_half_fails_half_coproduct_split_alone(monkeypatch):
    half_right = coalgebra.half_coproduct_right
    _replace_for_verify(monkeypatch, coalgebra, half_coproduct_right=lambda b: 2 * half_right(b))
    assert _failures(run_checks(CONFIG)) == {"half-coproduct-split": "counterexample BarWord(a)"}


def test_transported_coproduct_fails_grading_alone(monkeypatch):
    """The coproduct and its halves transported along the bijection of
    bar-words that swaps a and a.a are still coassociative, counital and
    split, but not graded."""
    a, aa = BarWord.of(Word("a")), BarWord.of(Word("aa"))
    swap = {a: aa, aa: a}

    def transported(fn, b):
        return TensorSum((swap.get(l, l), swap.get(r, r), c)
                         for l, r, c in fn(swap.get(b, b)).items())

    _replace_for_verify(monkeypatch, coalgebra, **{
        name: functools.partial(transported, getattr(coalgebra, name)) for name in COPRODUCTS})
    assert _failures(run_checks(CONFIG)) == {
        "coproduct-grading": "counterexample BarWord(a): BarWord(a.a) (x) BarWord(a.a)"}


def test_prelie_product_outside_the_lie_algebra_fails_its_suite_alone(monkeypatch):
    monkeypatch.setattr(verify, "is_infinitesimal", lambda *args: False)
    assert _failures(run_checks(CONFIG)) == {
        "prelie-identity": "pre-Lie product left the Lie algebra"}


@pytest.mark.parametrize("convolution, line", [
    ("convolve_free", "free degeneration fails"),
    ("convolve_monotone", "monotone degeneration fails"),
])
def test_corrupted_convolution_fails_its_degeneration_alone(monkeypatch, convolution, line):
    # convolve_cfree keeps reading the kernel's own convolutions
    original = getattr(cumulants, convolution)
    _replace_for_verify(monkeypatch, cumulants, **{convolution: lambda *args: -original(*args)})
    assert _failures(run_checks(CONFIG)) == {"cfree-degenerations": line}


def test_nonadditive_psi_cumulants_fail_cfree_additivity_alone(monkeypatch):
    """Free cumulants that are wrong only on the psi of a c-free
    convolution fail the psi check, after the c-free cumulants pass."""
    convolve_cfree, free_cumulants = cumulants.convolve_cfree, cumulants.free_cumulants
    convolved = []

    def recorded(p1, p2):
        out = convolve_cfree(p1, p2)
        convolved.append(out.psi)
        return out

    def corrupted(phi):
        kappa = free_cumulants(phi)
        return -kappa if any(phi is psi for psi in convolved) else kappa

    _replace_for_verify(monkeypatch, cumulants, convolve_cfree=recorded,
                        free_cumulants=corrupted)
    assert _failures(run_checks(CONFIG)) == {
        "cfree-additivity": "psi free cumulants are not additive"}


@pytest.mark.parametrize("family, corrupted, line", [
    ("enumerate_nc", lambda nc: nc[1:], "|NC_1| != Catalan(1)"),
    ("enumerate_boolean", lambda bools: bools + bools[:1], "|B_1| != 2^0"),
    # NC_n with its first partition replaced by its last: the count holds
    ("enumerate_nc", lambda nc: nc[-1:] + nc[1:], "B_2 not inside NC_2"),
], ids=["nc-count", "boolean-count", "boolean-inside-nc"])
def test_corrupted_enumeration_fails_nc_counts_alone(monkeypatch, family, corrupted, line):
    original = getattr(partitions, family)
    _replace_for_verify(monkeypatch, partitions, **{family: lambda n: corrupted(original(n))})
    assert _failures(run_checks(CONFIG)) == {"nc-counts": line}
