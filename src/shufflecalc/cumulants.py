"""State <-> cumulant transforms, inter-cumulant conversions, c-free
cumulants of a pair of states, and the four convolutions.

Moments and cumulants are characters and infinitesimal characters, so each
is fixed by its values on single words.  Every transform here is therefore
a short recursion on words (letter tuples), run in increasing word length:

- free and c-free: the first-block sum
  ``phi(w) = sum_{S ∋ 1} x(w_S) prod gap(run) tail(run)`` over the position
  sets S that contain 1, where the gaps are the runs of the complement
  before ``max S`` and the tail is the run after it.  c-free has ``x = R``,
  ``gap = psi`` and ``tail = phi``; free has ``x = kappa`` and
  ``gap = tail = phi``.  Moments evaluate the sum; cumulants solve it for
  its ``S = [n]`` term.
- boolean: ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``.
- monotone: ``P_m(w) = sum_I P_{m-1}(w minus I) rho(w_I)`` over the
  intervals I, and ``phi = sum_m P_m / m!``; cumulants solve for ``P_1``.
- monotone convolution: ``sum_S phi1(w_S) prod phi2(run)`` over all S.

All of them are homogeneous in word length and run in ``int``: the input
values are scaled by ``D^|w|`` (D the lcm of the input denominators), and
by a further ``|w|!`` for the monotone pair, and each output word gets one
``Fraction``.  ``convert`` composes two of these transforms through the
moments.  The paper's Lie-side form of the conversions (the pre-Lie Magnus
pair and the adjoint actions) is evaluated on the bar-word engine by the
``cumulant-conversions`` verify suite, which holds ``convert`` to it.
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
    return _first_block_cumulants(phi, phi)


def boolean_cumulants(phi: MomentTable) -> CumulantTable:
    """Right half-shuffle logarithm of the state:
    ``beta(w) = phi(w) - sum_{k<n} beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    scale, (moments,) = _scaled(phi)
    moments[()] = 1
    beta = {}
    for w in _by_length(phi):
        beta[w] = moments[w] - sum(beta[w[:k]] * moments[w[k:]] for k in range(1, len(w)))
    return _table(CumulantTable, phi, scale, beta)


def monotone_cumulants(phi: MomentTable) -> CumulantTable:
    """Convolution logarithm of the state: ``phi = sum_m P_m / m!`` solved
    for ``P_1 = rho``."""
    scale, moments = _monotone_scaled(phi)
    rho: dict[tuple, int] = {}
    powers: dict[tuple, int] = {}
    for w in _by_length(phi):
        # The division is exact: rho = log*(phi) has the coefficients 1/l,
        # l <= n, on the scaled moments, so n! D^n rho(w) is an integer.
        rho[w] = powers[1, w] = moments[w] - _higher_powers(rho, powers, w) // factorial(len(w))
    return _table(CumulantTable, phi, scale, rho)


def moments_from_free(kappa: CumulantTable) -> MomentTable:
    """Left half-shuffle exponential: the first-block sum with
    ``gap = tail = phi``."""
    return _first_block_moments(kappa, None)


def moments_from_boolean(beta: CumulantTable) -> MomentTable:
    """Right half-shuffle exponential:
    ``phi(w) = sum_k beta(a_1..a_k) phi(a_{k+1}..a_n)``."""
    scale, (cumulants,) = _scaled(beta)
    phi = {(): 1}
    for w in _by_length(beta):
        phi[w] = sum(cumulants[w[:k]] * phi[w[k:]] for k in range(1, len(w) + 1))
    return _table(MomentTable, beta, scale, phi)


def moments_from_monotone(rho: CumulantTable) -> MomentTable:
    """Convolution exponential: ``phi = sum_m P_m / m!`` with ``P_1 = rho``."""
    scale, cumulants = _monotone_scaled(rho)
    powers: dict[tuple, int] = {}
    phi = {}
    for w in _by_length(rho):
        powers[1, w] = cumulants[w]
        phi[w] = factorial(len(w)) * cumulants[w] + _higher_powers(cumulants, powers, w)
    # phi(w) = sum_m P_m(w) / m!, and phi[w] holds n! times that sum.
    return _table(MomentTable, rho, [factorial(n) * s for n, s in enumerate(scale)], phi)


def _scaled(*tables: ValueTable):
    """The tables' values times ``D^|w|``, as ints keyed by letter tuple,
    with D the lcm of all their denominators; also the scales ``D^n`` by
    word length n."""
    d = lcm(*(v.denominator for t in tables for v in t.values.values()))
    scale = [d**n for n in range(tables[0].max_len + 1)]
    return scale, [
        {w.letters: v.numerator * (scale[len(w)] // v.denominator) for w, v in t.values.items()}
        for t in tables
    ]


def _monotone_scaled(table: ValueTable):
    """Like ``_scaled`` for one table, with the scales ``n! D^n``, under
    which every ``P_m`` is an integer (see ``_higher_powers``)."""
    scale, (values,) = _scaled(table)
    return ([factorial(n) * s for n, s in enumerate(scale)],
            {w: factorial(len(w)) * v for w, v in values.items()})


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


def _first_block_moments(x: CumulantTable, psi: MomentTable | None) -> MomentTable:
    """Evaluate the first-block sum with ``gap = psi``, or ``gap = phi``
    (free) if psi is None."""
    scale, (cumulants, *second) = _scaled(*((x,) if psi is None else (x, psi)))
    phi = {(): 1}
    gap = second[0] if second else phi
    subsets = [_subsets(n, first=True) for n in range(x.max_len + 1)]
    for w in _by_length(x):
        phi[w] = _subset_sum(cumulants, gap, phi, w, subsets[len(w)])
    return _table(MomentTable, x, scale, phi)


def _first_block_cumulants(phi: MomentTable, psi: MomentTable) -> CumulantTable:
    """Solve the first-block sum with ``gap = psi`` for its ``S = [n]``
    term, shortest words first."""
    scale, (moments, gap) = _scaled(phi, psi)
    moments[()] = 1
    proper = [_subsets(n, first=True)[1:] for n in range(phi.max_len + 1)]
    x: dict[tuple, int] = {}
    for w in _by_length(phi):
        x[w] = moments[w] - _subset_sum(x, gap, moments, w, proper[len(w)])
    return _table(CumulantTable, phi, scale, x)


def _higher_powers(rho: dict, powers: dict, w: tuple) -> int:
    """``n! sum_{m>=2} P_m(w) / m!``, storing each ``P_m(w)`` in ``powers``
    under ``(m, w)``.  Values carry the scale ``n! D^n`` of their word
    length n, under which ``P_m(w) = sum_I P_{m-1}(w minus I) rho(w_I)``
    over the intervals I becomes ``sum_I C(n, |I|) P_{m-1}(w minus I)
    rho(w_I)`` in integers.  For m >= 2 only proper intervals contribute, so
    this reads rho and P only on shorter words."""
    n = len(w)
    total = 0
    for m in range(2, n + 1):
        value = 0
        for i in range(n):
            for j in range(i + 1, min(n, i + n - m + 1) + 1):
                p = powers.get((m - 1, w[:i] + w[j:]))
                if p:
                    value += comb(n, j - i) * p * rho[w[i:j]]
        powers[m, w] = value
        total += value * (factorial(n) // factorial(m))
    return total


_CUMULANTS = {FREE: free_cumulants, BOOLEAN: boolean_cumulants, MONOTONE: monotone_cumulants}
_MOMENTS = {FREE: moments_from_free, BOOLEAN: moments_from_boolean, MONOTONE: moments_from_monotone}


def convert(table: CumulantTable, src: str, dst: str) -> CumulantTable:
    """Convert between free, boolean and monotone cumulant tables: the
    ``dst`` cumulants of the state whose ``src`` cumulants are ``table``."""
    if src not in _CUMULANTS or dst not in _CUMULANTS:
        raise DomainError(f"unknown cumulant kind: {src!r} -> {dst!r}")
    if src == dst:
        return table
    return _CUMULANTS[dst](_MOMENTS[src](table))


def cfree_cumulants(pair: StatePair) -> CumulantTable:
    """c-free cumulants of (phi, psi), ``R = Psi > (Phi^{*-1} > (Phi - e)) <
    Psi^{*-1}``: the first-block sum with ``gap = psi`` and ``tail = phi``,
    solved for its ``S = [n]`` term."""
    return _first_block_cumulants(pair.phi, pair.psi)


def moments_from_cfree(R: CumulantTable, psi: MomentTable) -> MomentTable:
    """Reconstruct phi from c-free cumulants and the second state,
    ``Phi = E>(Psi^{*-1} > R < Psi)``: the first-block sum with
    ``gap = psi`` and ``tail = phi``."""
    R._check_compatible(psi)
    return _first_block_moments(R, psi)


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
