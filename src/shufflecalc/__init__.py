"""Exact-arithmetic cumulant calculus on the word Hopf algebra.

The package implements words and bar-words with their subset-extraction
coproduct, the induced shuffle algebra of linear forms, the three
exponential/logarithm bijections with the pre-Lie Magnus pair and adjoint
actions, independent non-crossing-partition oracles, and the resulting
free, boolean, monotone and conditionally free cumulant transforms and
convolutions.

Importing the package loads none of its modules: each exported name is
imported from its home module on first use (PEP 562), so a program that
needs only the integer kernel never loads the bar-word engine.
"""

import importlib

_EXPORTS = {
    "words": ("Word", "BarWord", "UNIT", "subword", "complement_components"),
    "coalgebra": (
        "TensorSum",
        "coproduct",
        "coproduct_word",
        "half_coproduct_left",
        "half_coproduct_right",
        "reduced_coproduct",
        "reduced_half_left",
        "reduced_half_right",
    ),
    "tables": ("MomentTable", "CumulantTable"),
    "functionals": (
        "Functional",
        "character",
        "infinitesimal",
        "unit",
        "conv",
        "half_left",
        "half_right",
        "prelie",
        "inverse",
        "is_character",
        "is_infinitesimal",
        "materialize",
    ),
    "series": (
        "exp_conv",
        "log_conv",
        "exp_left",
        "exp_right",
        "log_left",
        "log_right",
        "magnus",
        "magnus_inverse",
        "sharp",
        "bch",
        "ad_lower",
        "ad_upper",
        "factorize_left",
        "factorize_right",
    ),
    "partitions": (
        "SetPartition",
        "enumerate_nc",
        "enumerate_boolean",
        "enumerate_nc_irreducible",
        "classify_blocks",
        "nesting_forest",
        "tree_factorial",
        "free_moment_sum",
        "boolean_moment_sum",
        "monotone_moment_sum",
        "cfree_moment_sum",
        "boolean_from_free_sum",
        "free_from_boolean_sum",
        "boolean_from_monotone_sum",
        "free_from_monotone_sum",
        "adjoint_sum_lower",
        "adjoint_sum_upper",
    ),
    "cumulants": (
        "StatePair",
        "unit_state",
        "free_cumulants",
        "boolean_cumulants",
        "monotone_cumulants",
        "moments_from_free",
        "moments_from_boolean",
        "moments_from_monotone",
        "convert",
        "cfree_cumulants",
        "moments_from_cfree",
        "convolve_free",
        "convolve_boolean",
        "convolve_monotone",
        "convolve_cfree",
    ),
    "errors": ("ShuffleCalcError", "DomainError", "TruncationError"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
