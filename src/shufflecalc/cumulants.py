"""State <-> cumulant transforms, inter-cumulant conversions, c-free
cumulants of a pair of states, and the four convolutions.

Moments and cumulants are characters and infinitesimal characters, so each
is fixed by its values on single words.  Each family is one relation
``phi(w) = x(w) + lower(w)``, where ``lower(w)`` reads the cumulants x and
the moments phi on shorter words only.  Cumulants solve it,
``x(w) = phi(w) - lower(w)``; moments evaluate it,
``phi(w) = x(w) + lower(w)``:

- free and c-free: the first-block sum
  ``phi(w) = sum_{S ∋ 1} x(w_S) prod gap(run) tail(run)`` over the position
  sets S that contain 1, where the gaps are the runs of the complement
  before ``max S`` and the tail is the run after it; ``lower`` is the sum
  over ``S != [n]``.  c-free has ``x = R``, ``gap = psi`` and
  ``tail = phi``; free has ``x = kappa`` and ``gap = tail = phi``.
- boolean: ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``.
- monotone: ``P_m(w) = sum_I P_{m-1}(w minus I) rho(w_I)`` over the
  intervals I, and ``phi = sum_m P_m / m!`` with ``P_1 = rho``.
- monotone convolution: ``sum_S phi1(w_S) prod phi2(run)`` over all S,
  evaluated with ``x = phi1``.

The kernel works on the coded per-length lists that a ``ValueTable``
holds.  A word of length n over K letters has the code whose base-K digits
are its letters' places in the sorted alphabet, first letter most
significant, so the codes of a length run in ``itertools.product`` order;
a table is one list of values per length, indexed by code.  Each
relation's ``lower(x, phi, n)`` returns the list for all K^n words of
length n at once, and ``_solve`` and ``_evaluate`` loop over lengths.  A
subword at fixed positions is a fixed map of codes: ``w[a:b]`` repeats
each value ``K^(n-b)`` times and tiles the result ``K^a`` times
(``_spread``), and the code of w minus a run of positions is a sum of two
such maps (``_without``).  So each term costs a few C-level ``map`` passes
over one length, not a Python loop over its words.  The first-block sum
and the monotone convolution are one prefix recursion (``_first_block``):
the first block grows from the left, from the first letter or, for the
convolution, from the empty block, each next position of S taken past a
gap run, and the sum over the rest of the word is read at w minus that
run from a shorter length.  That makes about n^2/2 gathers per length n,
and the recursion keeps each length's levels, one per prefix length, for
the longer words that read them.

All of them are homogeneous in word length and run in ``int``: a table
holds its values times ``D^|w|``, and ``_scaled`` brings the tables of one
call to the base D that is the lcm of theirs, times ``|w|!`` for the
monotone relation in both directions.  It first checks that they share
one domain: the one domain check of the operations here, made before any
work (``StatePair`` checks its own two states).  ``_table`` reads the
result back with one ``gcd`` per value.  No ``Fraction`` or ``Word`` is
built, so this module imports neither ``fractions`` nor ``words``.  The
free, boolean and c-free convolutions add their solved cumulants in these
integers, on one scale for all their inputs.  ``convert`` evaluates one relation and solves
another.  The paper's Lie-side form of the
conversions (the pre-Lie Magnus pair and the adjoint actions) is
evaluated on the bar-word engine by the ``cumulant-conversions`` verify
suite, which holds ``convert`` to it.
"""

from __future__ import annotations

from itertools import repeat
from math import comb, factorial, lcm
from operator import add, floordiv, mul, sub

from .errors import DomainError
from .tables import CumulantTable, MomentTable, ValueTable, _members

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

    def to_json(self) -> dict:
        return {"phi": self.phi.to_json(), "psi": self.psi.to_json()}

    @classmethod
    def from_json(cls, obj) -> "StatePair":
        phi, psi = _members(obj, ("phi", "psi"), "malformed state pair JSON")
        return cls(MomentTable.from_json(phi), MomentTable.from_json(psi))


def unit_state(alphabet, max_len: int) -> MomentTable:
    """The character extension of the counit: all moments of nonempty words
    vanish."""
    return MomentTable.zeros(alphabet, max_len)


def free_cumulants(phi: MomentTable) -> CumulantTable:
    """Left half-shuffle logarithm of the state: the first-block sum with
    ``gap = tail = phi``, solved for its ``S = [n]`` term: the c-free
    cumulants of (phi, phi)."""
    return _apply(_solve, _first_block, CumulantTable, phi)


def boolean_cumulants(phi: MomentTable) -> CumulantTable:
    """Right half-shuffle logarithm of the state:
    ``beta(w) = phi(w) - sum_{k<n} beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    return _apply(_solve, _boolean, CumulantTable, phi)


def monotone_cumulants(phi: MomentTable) -> CumulantTable:
    """Convolution logarithm of the state: ``phi = sum_m P_m / m!`` solved
    for ``P_1 = rho``."""
    return _apply(_solve, _monotone, CumulantTable, phi)


def moments_from_free(kappa: CumulantTable) -> MomentTable:
    """Left half-shuffle exponential: the first-block sum with
    ``gap = tail = phi``."""
    return _apply(_evaluate, _first_block, MomentTable, kappa)


def moments_from_boolean(beta: CumulantTable) -> MomentTable:
    """Right half-shuffle exponential:
    ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    return _apply(_evaluate, _boolean, MomentTable, beta)


def moments_from_monotone(rho: CumulantTable) -> MomentTable:
    """Convolution exponential: ``phi = sum_m P_m / m!`` with ``P_1 = rho``."""
    return _apply(_evaluate, _monotone, MomentTable, rho)


def _solve(relation, K: int, phi: list, *given: list) -> list[list[int]]:
    """The cumulants ``x = phi - lower`` of the coded moments phi under a
    relation, one word length at a time, shortest first; ``given`` are the
    relation's further states."""
    lower = relation(K, *given)
    x: list[list[int]] = [[]]
    for n in range(1, len(phi)):
        x.append(list(map(sub, phi[n], lower(x, phi, n))))
    return x


def _evaluate(relation, K: int, x: list, *given: list) -> list[list[int]]:
    """The moments ``phi = x + lower`` of the coded cumulants x under a
    relation, one word length at a time, shortest first."""
    lower = relation(K, *given)
    phi: list[list[int]] = [[]]
    for n in range(1, len(x)):
        phi.append(list(map(add, x[n], lower(x, phi, n))))
    return phi


def _apply(step, relation, cls, table: ValueTable, *given: ValueTable):
    """Solve or evaluate (``step``) a relation on a table and the
    relation's further states, and read the result as a ``cls`` table."""
    scale, coded = _scaled(table, *given, factorials=relation is _monotone)
    return _table(cls, table, scale, step(relation, len(table.alphabet), *coded))


def _scaled(*tables: ValueTable, factorials: bool = False):
    """The tables' coded lists over one scale per word length n, ``D^n``,
    or ``n! D^n`` with ``factorials``, where D is the lcm of the tables'
    bases; also the scales by length.  Every table is checked against the
    first for its domain before any is scaled."""
    for t in tables[1:]:
        tables[0]._check_compatible(t)
    base = lcm(*(t.base for t in tables))
    scale = [(factorial(n) if factorials else 1) * base**n for n in range(tables[0].max_len + 1)]
    return scale, [[list(map(mul, coded, repeat(s // t.base**n))) for n, (coded, s)
                    in enumerate(zip(t.coded, scale))] for t in tables]


def _table(cls, like: ValueTable, scale: list[int], coded: list[list[int]]):
    """The ``cls`` table on the domain of ``like`` whose word of length n
    and code i has the value ``coded[n][i] / scale[n]``."""
    return cls._from_fractions(like.alphabet, like.max_len, coded, list(map(repeat, scale)))


def _spread(values, inner: int, outer: int) -> list:
    """``values[code of w[a:b]]`` for every word w of length n, in code
    order, given ``inner = K^(n-b)`` and ``outer = K^a``: each value
    repeated ``inner`` times, the whole tiled ``outer`` times."""
    spread = []
    for v in values:
        spread += [v] * inner
    return spread * outer


def _split_sum(left: list, right: list, K: int, n: int) -> list[int]:
    """``sum_{0<k<n} left(w[:k]) right(w[k:])`` for the words of length n."""
    total = [0] * K**n
    for k in range(1, n):
        terms = map(mul, _spread(left[k], K ** (n - k), 1), right[n - k] * K**k)
        total = list(map(add, total, terms))
    return total


def _without(K: int, n: int, i: int, j: int) -> list[int]:
    """The code of w minus its positions ``i..j-1``, a word of length
    ``n - j + i``, for every word w of length n, in code order."""
    head = _spread(range(0, K ** (n - j + i), K ** (n - j)), K ** (n - i), 1)
    return list(map(add, head, _spread(range(K ** (n - j)), 1, K**j)))


# A relation maps the alphabet size K, and the relation's further states as
# scaled lists, to its ``lower(x, phi, n)``: the list of ``lower(w)`` over
# the words w of length n.  ``_solve`` and ``_evaluate`` call it once per
# length, shortest first, so ``lower`` may read x and phi on every shorter
# length and may keep what it computed for them.

def _first_block(K: int, gap: list | None = None, tail: list | None = None, start: int = 1):
    """The first-block sum over ``S != [n]``, with ``gap = psi`` (c-free)
    or ``gap = phi`` (free) if no psi is given, and ``tail = phi`` unless a
    tail is given, by a prefix recursion on the first block.  ``G_p(w)``
    sums ``x(w[:p] w_S) prod gap(run) tail(run)`` over the position sets S
    after p, with the runs of the complement of S in ``w[p:]``.  Split by
    ``min S = p + t``, with ``gap`` of the empty run 1,
    ``G_p(w) = x(w[:p]) tail(w[p:]) + sum_{t=1..n-p} gap(w[p:p+t-1]) G_{p+1}(w minus p..p+t-2)``.
    The first-block sum is ``G_1``; from ``start = 0``, ``G_0`` with
    ``x(empty) = 1`` is the convolution sum over every S.  Every ``G_p(w)``
    holds ``x(w)`` once, through the t = 1 chain down from ``G_n = x``, so
    length n runs with ``x(w) = 0`` and its levels get x added when length
    n + 1 starts, the first to read them."""
    # levels[m][q] is G_{m-q} on length m, for the levels that a longer word
    # reads: all but G_start
    levels: list[list[list[int]]] = [[]]

    def lower(x: list, phi: list, n: int) -> list[int]:
        gaps = phi if gap is None else gap
        tails = phi if tail is None else tail
        if n > 1:
            levels[n - 1] = [list(map(add, level, x[n - 1])) for level in levels[n - 1]]
        level = [0] * K**n
        kept = []
        for p in range(n - 1, start - 1, -1):
            kept.append(level)
            head = _spread(x[p], K ** (n - p), 1) if p else repeat(1)
            level = list(map(add, level, map(mul, head, tails[n - p] * K**p)))
            for t in range(2, n - p + 1):
                shorter = levels[n - t + 1][n - t - p]
                terms = map(mul, _spread(gaps[t - 1], K ** (n - p - t + 1), K**p),
                            map(shorter.__getitem__, _without(K, n, p, p + t - 1)))
                level = list(map(add, level, terms))
        levels.append(kept)
        return level
    return lower


def _boolean(K: int):
    """``sum_{k<n} beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    def lower(x: list, phi: list, n: int) -> list[int]:
        return _split_sum(x, phi, K, n)
    return lower


def _monotone(K: int):
    """``sum_{m>=2} P_m(w) / m!``, keeping each ``P_m`` by length in
    ``powers[m]``; ``P_1`` is x itself.  Values carry the scale ``n! D^n``
    of their word length n, under which ``P_m(w) = sum_I P_{m-1}(w minus I)
    rho(w_I)`` over the intervals I becomes ``sum_I C(n, |I|) P_{m-1}(w
    minus I) rho(w_I)`` in integers.  For m >= 2 only proper intervals
    contribute, so this reads x and P only on shorter words."""
    powers: dict[int, dict[int, list[int]]] = {}

    def lower(x: list, phi: list, n: int) -> list[int]:
        # Per proper interval I = [i, j): its length, the code of
        # w minus I and C(n, |I|) rho(w_I), for every word w.
        intervals = []
        for i in range(n):
            for j in range(i + 1, min(n, i + n - 1) + 1):
                weighted = map(mul, _spread(x[j - i], K ** (n - j), K**i), repeat(comb(n, j - i)))
                intervals.append((j - i, _without(K, n, i, j), list(weighted)))
        total = [0] * K**n
        previous = x
        for m in range(2, n + 1):
            value = [0] * K**n
            for length, rest, weighted in intervals:
                if length <= n - m + 1:
                    terms = map(mul, map(previous[n - length].__getitem__, rest), weighted)
                    value = list(map(add, value, terms))
            previous = powers.setdefault(m, {})
            previous[n] = value
            total = list(map(add, total, map(mul, value, repeat(factorial(n) // factorial(m)))))
        # total is n! times the scaled sum, and the division is exact.
        # Solving, the quotient is the scaled phi(w) - rho(w): rho =
        # log*(phi) has the coefficients 1/l, l <= n, on the scaled moments,
        # so n! D^n rho(w) is an integer.  Evaluating, n! D^n phi(w) is the
        # sum over noncrossing partitions of n! / (tree factorial of the
        # nesting forest) times the integers D^|B| rho(w_B) over the blocks
        # B; a forest of k <= n blocks has a tree factorial that divides k!,
        # hence n!.
        return list(map(floordiv, total, repeat(factorial(n))))
    return lower


def _convolution(K: int, second: list):
    """The convolution product of the characters phi1 = x and phi2 =
    ``second``, ``sum_S phi1(w_S) prod phi2(run)`` over all position sets
    S, less its ``S = [n]`` term: the first-block recursion from the
    empty block, with ``gap = tail = phi2``."""
    return _first_block(K, second, second, 0)


_RELATIONS = {FREE: _first_block, BOOLEAN: _boolean, MONOTONE: _monotone}


def convert(table: CumulantTable, src: str, dst: str) -> CumulantTable:
    """Convert between free, boolean and monotone cumulant tables: the
    ``dst`` cumulants of the state whose ``src`` cumulants are ``table``."""
    kinds = tuple(_RELATIONS)  # ``in`` a tuple compares, so an unhashable kind is refused too
    if src not in kinds or dst not in kinds:
        raise DomainError(f"unknown cumulant kind: {src!r} -> {dst!r}")
    if src == dst:
        return table
    moments = _apply(_evaluate, _RELATIONS[src], MomentTable, table)
    return _apply(_solve, _RELATIONS[dst], CumulantTable, moments)


def cfree_cumulants(pair: StatePair) -> CumulantTable:
    """c-free cumulants of (phi, psi), ``R = Psi > (Phi^{*-1} > (Phi - e)) <
    Psi^{*-1}``: the first-block sum with ``gap = psi`` and ``tail = phi``,
    solved for its ``S = [n]`` term."""
    return _apply(_solve, _first_block, CumulantTable, pair.phi, pair.psi)


def moments_from_cfree(R: CumulantTable, psi: MomentTable) -> MomentTable:
    """Reconstruct phi from c-free cumulants and the second state,
    ``Phi = E>(Psi^{*-1} > R < Psi)``: the first-block sum with
    ``gap = psi`` and ``tail = phi``."""
    return _apply(_evaluate, _first_block, MomentTable, R, psi)


def convolve_free(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    return _additive(_first_block, phi1, phi2)


def convolve_boolean(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    return _additive(_boolean, phi1, phi2)


def _additive(relation, phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    """The state whose cumulants under the relation are those of phi1 plus phi2."""
    scale, x = _cumulant_sum(relation, (phi1,), (phi2,))
    return _table(MomentTable, phi1, scale, _evaluate(relation, len(phi1.alphabet), x))


def _cumulant_sum(relation, first: tuple, second: tuple):
    """The scales and the coded sum of the cumulants that the relation
    solves for ``first`` and for ``second``, each a state followed by the
    relation's further states, on one scale for all of them."""
    scale, coded = _scaled(*first, *second)
    K = len(first[0].alphabet)
    x = _solve(relation, K, *coded[:len(first)])
    y = _solve(relation, K, *coded[len(first):])
    return scale, [list(map(add, a, b)) for a, b in zip(x, y)]


def convolve_monotone(phi1: MomentTable, phi2: MomentTable) -> MomentTable:
    """Monotone convolution is the convolution product of the characters:
    ``sum_S phi1(w_S) prod phi2(run)`` over all position sets S."""
    return _apply(_evaluate, _convolution, MomentTable, phi1, phi2)


def convolve_cfree(p1: StatePair, p2: StatePair) -> StatePair:
    """c-free convolution: psi-free cumulants and c-free cumulants both
    add, so psi is the free convolution of the psis."""
    psi = convolve_free(p1.psi, p2.psi)
    scale, r = _cumulant_sum(_first_block, (p1.phi, p1.psi), (p2.phi, p2.psi))
    return StatePair(moments_from_cfree(_table(CumulantTable, p1.phi, scale, r), psi), psi)
