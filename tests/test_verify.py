"""Failure paths of the verify suites.

A suite that never fails proves little, so every check that compares
against an oracle or the engine is made to fail here, and the detail line
each suite reports is held to a recorded table.  The engine comparisons
are also counted per suite: a check whose failure lines are built but never
yielded would still pass every suite, and only its missing comparison
shows it.
"""

from __future__ import annotations

import functools

import pytest

from shufflecalc import cumulants, partitions, series, verify
from shufflecalc.verify import VerifyConfig, check_names, run_checks
from shufflecalc.words import UNIT

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
