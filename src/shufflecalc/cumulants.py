"""State <-> cumulant transforms, inter-cumulant conversions, c-free
cumulants of a pair of states, and the four convolutions.

Moments and cumulants are characters and infinitesimal characters, so each
is fixed by its values on single words.  Each family is one relation
``phi(w) = x(w) + lower(w)`` on words (letter tuples), where ``lower(w)``
reads the cumulants x and the moments phi on shorter words only.  Cumulants
solve it, ``x(w) = phi(w) - lower(w)``; moments evaluate it,
``phi(w) = x(w) + lower(w)``; both run in increasing word length:

- free and c-free: the first-block sum
  ``phi(w) = sum_{S ∋ 1} x(w_S) prod gap(run) tail(run)`` over the position
  sets S that contain 1, where the gaps are the runs of the complement
  before ``max S`` and the tail is the run after it; ``lower`` is the sum
  over ``S != [n]``.  c-free has ``x = R``, ``gap = psi`` and
  ``tail = phi``; free has ``x = kappa`` and ``gap = tail = phi``.
- boolean: ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``.
- monotone: ``P_m(w) = sum_I P_{m-1}(w minus I) rho(w_I)`` over the
  intervals I, and ``phi = sum_m P_m / m!`` with ``P_1 = rho``.
- monotone convolution: ``sum_S phi1(w_S) prod phi2(run)`` over all S.

All of them are homogeneous in word length and run in ``int``: the input
values are scaled by ``D^|w|`` (D the lcm of the input denominators), by
``|w|! D^|w|`` for the monotone relation in both directions, and each
output word gets one ``Fraction``.  ``convert`` evaluates one relation and
solves another.  The paper's Lie-side form of the conversions (the pre-Lie
Magnus pair and the adjoint actions) is evaluated on the bar-word engine by
the ``cumulant-conversions`` verify suite, which holds ``convert`` to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .errors import DomainError
from .tables import CumulantTable, MomentTable, ValueTable

FREE = "free"
BOOLEAN = "boolean"
MONOTONE = "monotone"


class StatePair:
    """A pair of states (phi, psi) on a shared alphabet and truncation."""

    __slots__ = ("phi", "psi")

    def __init__(self, phi: MomentTable, psi: MomentTable):
        phi._check_compatible(psi)
        self.phi = phi
        self.psi = psi

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.phi == other.phi and self.psi == other.psi

    def __repr__(self) -> str:
        return f"StatePair(phi={self.phi!r}, psi={self.psi!r})"

    @property
    def alphabet(self):
        return self.phi.alphabet

    @property
    def max_len(self) -> int:
        return self.phi.max_len

    def to_json(self) -> dict:
        return {"phi": self.phi.to_json(), "psi": self.psi.to_json()}

    @classmethod
    def from_json(cls, obj) -> "StatePair":
        try:
            phi, psi = obj["phi"], obj["psi"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed state pair JSON: {exc}") from exc
        return cls(MomentTable.from_json(phi), MomentTable.from_json(psi))


def unit_state(alphabet, max_len: int) -> MomentTable:
    """The character extension of the counit: all moments of nonempty words
    vanish."""
    return MomentTable.zeros(alphabet, max_len)


def free_cumulants(phi: MomentTable) -> CumulantTable:
    """Left half-shuffle logarithm of the state: the first-block sum with
    ``gap = tail = phi``, solved for its ``S = [n]`` term: the c-free
    cumulants of (phi, phi)."""
    return _solve(_first_block, phi)


def boolean_cumulants(phi: MomentTable) -> CumulantTable:
    """Right half-shuffle logarithm of the state:
    ``beta(w) = phi(w) - sum_{k<n} beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    return _solve(_boolean, phi)


def monotone_cumulants(phi: MomentTable) -> CumulantTable:
    """Convolution logarithm of the state: ``phi = sum_m P_m / m!`` solved
    for ``P_1 = rho``."""
    return _solve(_monotone, phi)


def moments_from_free(kappa: CumulantTable) -> MomentTable:
    """Left half-shuffle exponential: the first-block sum with
    ``gap = tail = phi``."""
    return _evaluate(_first_block, kappa)


def moments_from_boolean(beta: CumulantTable) -> MomentTable:
    """Right half-shuffle exponential:
    ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    return _evaluate(_boolean, beta)


def moments_from_monotone(rho: CumulantTable) -> MomentTable:
    """Convolution exponential: ``phi = sum_m P_m / m!`` with ``P_1 = rho``."""
    return _evaluate(_monotone, rho)


def _solve(relation, phi: MomentTable, *given: MomentTable) -> CumulantTable:
    """The cumulants ``x(w) = phi(w) - lower(w)`` of phi under a relation,
    shortest words first; ``given`` are the relation's further states."""
    scale, (moments, *given) = _scaled(phi, *given, factorials=relation is _monotone)
    moments[()] = 1
    lower = relation(phi.max_len, *given)
    x: dict[tuple, int] = {}
    for w in _by_length(phi):
        x[w] = moments[w] - lower(x, moments, w)
    return _table(CumulantTable, phi, scale, x)


def _evaluate(relation, x: CumulantTable, *given: MomentTable) -> MomentTable:
    """The moments ``phi(w) = x(w) + lower(w)`` of the cumulants x under a
    relation, shortest words first."""
    scale, (cumulants, *given) = _scaled(x, *given, factorials=relation is _monotone)
    lower = relation(x.max_len, *given)
    phi = {(): 1}
    for w in _by_length(x):
        phi[w] = cumulants[w] + lower(cumulants, phi, w)
    return _table(MomentTable, x, scale, phi)


def _scaled(*tables: ValueTable, factorials: bool = False):
    """The tables' values times ``D^|w|``, or ``|w|! D^|w|`` with
    ``factorials``, as ints keyed by letter tuple, with D the lcm of all
    their denominators; also those scales by word length."""
    d = lcm(*(v.denominator for t in tables for v in t.values.values()))
    scale = [(factorial(n) if factorials else 1) * d**n for n in range(tables[0].max_len + 1)]
    return scale, [
        {w.letters: v.numerator * (scale[len(w)] // v.denominator) for w, v in t.values.items()}
        for t in tables
    ]


def _table(cls, like: ValueTable, scale: list[int], scaled: dict):
    """Undo the scaling: one ``Fraction`` per word of ``like``."""
    return cls(like.alphabet, like.max_len,
               {w: Fraction(scaled[w.letters], scale[len(w)]) for w in like.values})


def _by_length(table: ValueTable) -> list[tuple]:
    """The table's words as letter tuples, shortest first."""
    return sorted((w.letters for w in table.values), key=len)


def _subsets(n: int, first: bool) -> list[tuple]:
    """``(S, gaps, tail)`` for the position sets S of a word of length n,
    only those containing position 0 if ``first``, the full set first: S as
    0-based positions, the ``(start, stop)`` slices of the complement's runs
    before ``max S``, and the start of the run after it."""
    out = []
    for mask in range((1 << n) - 1, -1, -2 if first else -1):
        S = tuple(i for i in range(n) if mask >> i & 1)
        gaps = tuple((a + 1, b) for a, b in zip((-1,) + S, S) if b > a + 1)
        out.append((S, gaps, S[-1] + 1 if S else 0))
    return out


def _subset_sum(x: dict, gap: dict, tail: dict, w: tuple, subsets) -> int:
    """``sum x(w_S) prod gap(run) tail(run)`` over the given subsets."""
    total = 0
    for S, gaps, t in subsets:
        v = x[tuple([w[i] for i in S])]
        if v:
            for a, b in gaps:
                v *= gap[w[a:b]]
            total += v * tail[w[t:]]
    return total


# A relation maps the truncation, and the relation's further states as
# scaled dicts, to its ``lower(x, phi, w)``.  ``_solve`` and ``_evaluate``
# call it once per word, shortest first, so ``lower`` may read x and phi on
# every shorter word and may keep what it computed for them.

def _first_block(max_len: int, gap: dict | None = None):
    """The first-block sum over ``S != [n]``, with ``gap = psi`` (c-free) or
    ``gap = phi`` (free) if no psi is given."""
    proper = [_subsets(n, first=True)[1:] for n in range(max_len + 1)]

    def lower(x: dict, phi: dict, w: tuple) -> int:
        return _subset_sum(x, phi if gap is None else gap, phi, w, proper[len(w)])
    return lower


def _boolean(max_len: int):
    """``sum_{k<n} beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    def lower(x: dict, phi: dict, w: tuple) -> int:
        return sum(x[w[:k]] * phi[w[k:]] for k in range(1, len(w)))
    return lower


def _monotone(max_len: int):
    """``sum_{m>=2} P_m(w) / m!``, keeping each ``P_m(w)`` in ``powers[m]``;
    ``P_1`` is x itself.  Values carry the scale ``n! D^n`` of their word
    length n, under which ``P_m(w) = sum_I P_{m-1}(w minus I) rho(w_I)``
    over the intervals I becomes ``sum_I C(n, |I|) P_{m-1}(w minus I)
    rho(w_I)`` in integers.  For m >= 2 only proper intervals contribute, so
    this reads x and P only on shorter words."""
    powers: dict[int, dict] = {}

    def lower(x: dict, phi: dict, w: tuple) -> int:
        n = len(w)
        total = 0
        previous = x
        for m in range(2, n + 1):
            value = 0
            for i in range(n):
                for j in range(i + 1, min(n, i + n - m + 1) + 1):
                    p = previous[w[:i] + w[j:]]
                    if p:
                        value += comb(n, j - i) * p * x[w[i:j]]
            previous = powers.setdefault(m, {})
            previous[w] = value
            total += value * (factorial(n) // factorial(m))
        # total is n! times the scaled sum, and the division is exact.
        # Solving, the quotient is the scaled phi(w) - rho(w): rho =
        # log*(phi) has the coefficients 1/l, l <= n, on the scaled moments,
        # so n! D^n rho(w) is an integer.  Evaluating, n! D^n phi(w) is the
        # sum over noncrossing partitions of n! / (tree factorial of the
        # nesting forest) times the integers D^|B| rho(w_B) over the blocks
        # B; a forest of k <= n blocks has a tree factorial that divides k!,
        # hence n!.
        return total // factorial(n)
    return lower


_RELATIONS = {FREE: _first_block, BOOLEAN: _boolean, MONOTONE: _monotone}


def convert(table: CumulantTable, src: str, dst: str) -> CumulantTable:
    """Convert between free, boolean and monotone cumulant tables: the
    ``dst`` cumulants of the state whose ``src`` cumulants are ``table``."""
    if src not in _RELATIONS or dst not in _RELATIONS:
        raise DomainError(f"unknown cumulant kind: {src!r} -> {dst!r}")
    if src == dst:
        return table
    return _solve(_RELATIONS[dst], _evaluate(_RELATIONS[src], table))


def cfree_cumulants(pair: StatePair) -> CumulantTable:
    """c-free cumulants of (phi, psi), ``R = Psi > (Phi^{*-1} > (Phi - e)) <
    Psi^{*-1}``: the first-block sum with ``gap = psi`` and ``tail = phi``,
    solved for its ``S = [n]`` term."""
    return _solve(_first_block, pair.phi, pair.psi)


def moments_from_cfree(R: CumulantTable, psi: MomentTable) -> MomentTable:
    """Reconstruct phi from c-free cumulants and the second state,
    ``Phi = E>(Psi^{*-1} > R < Psi)``: the first-block sum with
    ``gap = psi`` and ``tail = phi``."""
    R._check_compatible(psi)
    return _evaluate(_first_block, R, psi)


def convolve_free(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    phi1._check_compatible(phi2)
    return moments_from_free(free_cumulants(phi1) + free_cumulants(phi2))


def convolve_boolean(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    phi1._check_compatible(phi2)
    return moments_from_boolean(boolean_cumulants(phi1) + boolean_cumulants(phi2))


def convolve_monotone(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    """Monotone convolution is the convolution product of the characters:
    ``sum_S phi1(w_S) prod phi2(run)`` over all position sets S."""
    phi1._check_compatible(phi2)
    scale, (first, second) = _scaled(phi1, phi2)
    first[()] = second[()] = 1
    subsets = [_subsets(n, first=False) for n in range(phi1.max_len + 1)]
    product = {w: _subset_sum(first, second, second, w, subsets[len(w)])
               for w in _by_length(phi1)}
    return _table(MomentTable, phi1, scale, product)


def convolve_cfree(p1: StatePair, p2: StatePair) -> StatePair:
    """c-free convolution: psi-free cumulants and c-free cumulants both add."""
    p1.phi._check_compatible(p2.phi)
    kappa_psi = free_cumulants(p1.psi) + free_cumulants(p2.psi)
    psi = moments_from_free(kappa_psi)
    r = cfree_cumulants(p1) + cfree_cumulants(p2)
    phi = moments_from_cfree(r, psi)
    return StatePair(phi, psi)
