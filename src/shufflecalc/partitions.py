"""Independent combinatorial oracles: non-crossing, interval and irreducible
partition enumeration, inner/outer classification, nesting forests, tree
factorials, and direct partition-sum evaluators for the closed
moment-cumulant formulas and for the irreducible sums that link free,
boolean and monotone cumulants.

These evaluators deliberately share no code with the shuffle engine in
``series``; cross-checking the two is the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DomainError
from .functionals import ONE, ZERO, ValueTable, MomentTable, CumulantTable
from .words import Word

MAX_ORDER = 14


class SetPartition:
    """A set partition of [1..n] with blocks canonically sorted by minimum."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise DomainError("blocks must be nonempty")
            for x in block:
                if x in seen:
                    raise DomainError(f"element {x} appears in two blocks")
                seen.add(x)
        if seen != set(range(1, n + 1)):
            raise DomainError(f"blocks do not partition [1..{n}]")
        self.n = n
        self.blocks = blocks
        self._hash = hash((n, blocks))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {[list(b) for b in self.blocks]})"

    def is_noncrossing(self) -> bool:
        """No i < j < l < m with i,l in one block and j,m in another."""
        block_of = {}
        for idx, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = idx
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = block_of[x]
            if not stack or stack[-1] != b:
                if b in stack:
                    return False
                stack.append(b)
            if self.blocks[b][-1] == x:
                if stack[-1] != b:
                    return False
                stack.pop()
        return True

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def to_json(self) -> list:
        return [list(b) for b in self.blocks]


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"order must be in [1, {MAX_ORDER}], got {n}")


@lru_cache(maxsize=None)
def _nc_blocks(elems: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All non-crossing partitions of an ordered element tuple, generated by
    choosing the block of the first element; the remaining elements fall into
    the gaps between its members and are partitioned independently."""
    if not elems:
        return ((),)
    first, rest = elems[0], elems[1:]
    results: list[tuple[tuple[int, ...], ...]] = []
    for mask in range(1 << len(rest)):
        block = (first,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
        gaps: list[tuple[int, ...]] = []
        gap: list[int] = []
        gi = 0
        for x in rest:
            if gi < len(block) - 1 and x == block[gi + 1]:
                gaps.append(tuple(gap))
                gap = []
                gi += 1
            else:
                gap.append(x)
        gaps.append(tuple(gap))
        combos: list[tuple[tuple[int, ...], ...]] = [(block,)]
        for g in gaps:
            sub = _nc_blocks(g)
            combos = [c + s for c in combos for s in sub]
        results.extend(combos)
    return tuple(results)


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [1..n] (Catalan many)."""
    _check_order(n)
    return [SetPartition(n, blocks) for blocks in _nc_blocks(tuple(range(1, n + 1)))]


def enumerate_boolean(n: int) -> list[SetPartition]:
    """All interval partitions of [1..n] (2^(n-1) many)."""
    _check_order(n)
    out = []
    for mask in range(1 << (n - 1)):
        blocks: list[list[int]] = [[1]]
        for x in range(2, n + 1):
            if mask >> (x - 2) & 1:
                blocks.append([x])
            else:
                blocks[-1].append(x)
        out.append(SetPartition(n, blocks))
    return out


def enumerate_nc_irreducible(n: int) -> list[SetPartition]:
    """Non-crossing partitions with 1 and n in the same block."""
    _check_order(n)
    out = []
    for p in enumerate_nc(n):
        for block in p.blocks:
            if 1 in block:
                if n in block:
                    out.append(p)
                break
    return out


def _require_noncrossing(p: SetPartition) -> None:
    if not p.is_noncrossing():
        raise DomainError(f"partition is crossing: {p!r}")


def classify_blocks(p: SetPartition) -> list[str]:
    """Per-block flags, "inner" or "outer", in canonical block order.

    A block is inner iff some other block has elements a < c < b for all of
    its elements c.
    """
    _require_noncrossing(p)
    flags = []
    for i, block in enumerate(p.blocks):
        lo, hi = block[0], block[-1]
        inner = any(
            j != i and other[0] < lo and hi < other[-1]
            for j, other in enumerate(p.blocks)
        )
        flags.append("inner" if inner else "outer")
    return flags


def nesting_forest(p: SetPartition) -> list[int | None]:
    """Parent index per block (None for roots): the parent is the minimal
    block, by span containment, properly nesting the block."""
    _require_noncrossing(p)
    parents: list[int | None] = []
    for i, block in enumerate(p.blocks):
        lo, hi = block[0], block[-1]
        best = None
        for j, other in enumerate(p.blocks):
            if j == i or not (other[0] < lo and hi < other[-1]):
                continue
            if best is None or (
                other[0] >= p.blocks[best][0] and other[-1] <= p.blocks[best][-1]
            ):
                best = j
        parents.append(best)
    return parents


def tree_factorial(p: SetPartition) -> int:
    """Rooted-forest factorial of the nesting forest: the product over all
    blocks of the size of the subtree rooted there (blocks counted)."""
    parents = nesting_forest(p)
    k = len(p.blocks)
    sizes = [1] * k
    # children are always nested inside parents, so processing blocks by
    # decreasing span length accumulates sizes bottom-up
    order = sorted(range(k), key=lambda i: p.blocks[i][-1] - p.blocks[i][0])
    total = 1
    for i in order:
        total *= sizes[i]
        if parents[i] is not None:
            sizes[parents[i]] += sizes[i]
    return total


# The oracles below go through the words of one length at a time, so the
# partitions of that length, with their weights and block flags, are kept
# for the last few lengths.  ``enumerate_nc`` itself stays uncached.
_RECENT_LENGTHS = 4


@lru_cache(maxsize=_RECENT_LENGTHS)
def _nc_terms(n: int) -> tuple:
    """``(blocks, 1 / tree factorial, outer flags)`` per non-crossing
    partition of [1..n]."""
    return tuple(
        (p.blocks, Fraction(1, tree_factorial(p)),
         tuple(flag == "outer" for flag in classify_blocks(p)))
        for p in enumerate_nc(n)
    )


@lru_cache(maxsize=_RECENT_LENGTHS)
def _boolean_terms(n: int) -> tuple:
    """The blocks of every interval partition of [1..n]."""
    return tuple(p.blocks for p in enumerate_boolean(n))


@lru_cache(maxsize=_RECENT_LENGTHS)
def _irreducible_terms(n: int) -> tuple:
    """``(blocks, sign (-1)^(#blocks - 1), 1 / tree factorial)`` per
    irreducible non-crossing partition of [1..n]."""
    return tuple((p.blocks, (-1) ** (len(p.blocks) - 1), Fraction(1, tree_factorial(p)))
                 for p in enumerate_nc_irreducible(n))


def _block_word(w: Word, block: tuple[int, ...]) -> Word:
    return Word(w.letters[x - 1] for x in block)


def _block_product(table: ValueTable, w: Word, blocks) -> Fraction:
    value = ONE
    for block in blocks:
        value *= table.lookup(_block_word(w, block))
    return value


def free_moment_sum(kappa: CumulantTable, w: Word) -> Fraction:
    """sum over non-crossing partitions of the product of block cumulants."""
    return sum((_block_product(kappa, w, blocks) for blocks, _, _ in _nc_terms(len(w))), ZERO)


def boolean_moment_sum(beta: CumulantTable, w: Word) -> Fraction:
    """sum over interval partitions of the product of block cumulants."""
    return sum((_block_product(beta, w, blocks) for blocks in _boolean_terms(len(w))), ZERO)


def monotone_moment_sum(rho: CumulantTable, w: Word) -> Fraction:
    """sum over non-crossing partitions, weighted by the inverse tree
    factorial of the nesting forest."""
    total = ZERO
    for blocks, weight, _ in _nc_terms(len(w)):
        total += weight * _block_product(rho, w, blocks)
    return total


def cfree_moment_sum(R: CumulantTable, kappa_psi: CumulantTable, w: Word) -> Fraction:
    """sum over non-crossing partitions: outer blocks weighted by the c-free
    cumulants, inner blocks by the free cumulants of the second state."""
    total = ZERO
    for blocks, _, outer in _nc_terms(len(w)):
        value = ONE
        for block, is_outer in zip(blocks, outer):
            table = R if is_outer else kappa_psi
            value *= table.lookup(_block_word(w, block))
        total += value
    return total


def boolean_from_free_sum(kappa: CumulantTable, w: Word) -> Fraction:
    """Boolean cumulant from free cumulants: sum over irreducible
    non-crossing partitions of the product of block cumulants."""
    return sum((_block_product(kappa, w, blocks) for blocks, _, _ in _irreducible_terms(len(w))),
               ZERO)


def free_from_boolean_sum(beta: CumulantTable, w: Word) -> Fraction:
    """Free cumulant from boolean cumulants: the same sum with sign
    (-1)^(#blocks - 1)."""
    return sum((sign * _block_product(beta, w, blocks)
                for blocks, sign, _ in _irreducible_terms(len(w))), ZERO)


def boolean_from_monotone_sum(rho: CumulantTable, w: Word) -> Fraction:
    """Boolean cumulant from monotone cumulants: sum over irreducible
    non-crossing partitions of the product of block cumulants, weighted by
    the inverse tree factorial of the nesting forest."""
    return sum((weight * _block_product(rho, w, blocks)
                for blocks, _, weight in _irreducible_terms(len(w))), ZERO)


def free_from_monotone_sum(rho: CumulantTable, w: Word) -> Fraction:
    """Free cumulant from monotone cumulants: the same sum with sign
    (-1)^(#blocks - 1)."""
    return sum((sign * weight * _block_product(rho, w, blocks)
                for blocks, sign, weight in _irreducible_terms(len(w))), ZERO)


def adjoint_sum_lower(mu: CumulantTable, psi: MomentTable, w: Word) -> Fraction:
    """Subset-sum form of the lower adjoint action: sum over position sets S
    containing 1 and n of mu(a_S) times the product of psi over the connected
    components of the complement."""
    n = len(w)
    if n == 1:
        return mu.lookup(w)
    total = ZERO
    inner = range(2, n)
    for mask in range(1 << (n - 2)):
        positions = [1] + [x for i, x in enumerate(inner) if mask >> i & 1] + [n]
        value = mu.lookup(Word(w.letters[p - 1] for p in positions))
        sset = set(positions)
        run: list[str] = []
        for x in range(1, n + 1):
            if x in sset:
                if run:
                    value *= psi.lookup(Word(run))
                    run = []
            else:
                run.append(w.letters[x - 1])
        total += value
    return total


def adjoint_sum_upper(mu: CumulantTable, tau: CumulantTable, w: Word) -> Fraction:
    """Signed irreducible non-crossing sum for the upper adjoint action: the
    unique outer block takes mu, inner blocks take the boolean cumulants tau,
    with sign (-1)^(#blocks - 1)."""
    total = ZERO
    for blocks, sign, _ in _irreducible_terms(len(w)):
        value = ONE
        for block in blocks:
            table = mu if block[0] == 1 else tau
            value *= table.lookup(_block_word(w, block))
        total += sign * value
    return total
