"""Independent combinatorial oracles: non-crossing, interval and irreducible
partition enumeration, inner/outer classification, nesting forests, tree
factorials, and direct partition-sum evaluators for the closed
moment-cumulant formulas and for the irreducible sums that link free,
boolean and monotone cumulants.

One generator, ``_nc_blocks`` on integer ranges, yields NC(n) and, by
fixing the first block to hold n, NC_irr(n) directly.  Generated blocks are
already canonical, so the enumerators wrap them with
``SetPartition._canonical`` without sorting or validating them again; only
outside input goes through ``SetPartition(n, blocks)``.  One stack scan,
``SetPartition._nesting``, decides crossing and reads off the nesting
forest; block classes and tree factorials derive from that forest.

The lines and counts that ``enumerate`` prints come from ``enumeration``,
which imports neither this module nor the table layer; the order and
family checks and the first-block generator are imported from there.  The
rows of the adjoint sum come from that generator too: each first block of
NC_irr(n), the block S holding 1 and n, followed by one block per gap, so
every partition sum refuses an order outside [1, 14] by one check.

The sum oracles run in integers.  For the words of one length, each sum
keeps its distinct blocks and, per partition, the block indices and an
integer weight over one common denominator (signs and inverse tree
factorials).  A word reads each distinct block's value straight from its
table's coded list, at the code of the block's letters over that table's
alphabet, and scales it to an integer over ``D^|B|``, D the lcm of the
tables' bases, so every partition's product lies over ``D^n``; no
``Word`` is built for a block, one ``Fraction`` is built per word, and
only there is ``fractions`` imported.  The caches are bounded: the term
tables (``_terms``) and the letter places of the last few alphabets
(``_places``).

These evaluators deliberately share no code with the shuffle engine in
``series`` or the kernel in ``cumulants``; cross-checking them is the point.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod
from numbers import Rational
from typing import Iterable, Sequence

from .enumeration import _check_family, _check_order, _first_blocks
from .errors import DomainError, is_int, quoted
from .tables import CumulantTable, MomentTable, ValueTable
from .words import Word


class SetPartition:
    """A set partition of [1..n] with blocks canonically sorted by minimum."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if not is_int(n) or n < 0:
            raise DomainError(f"n must be a nonnegative integer, got {quoted(n)}")
        try:
            blocks = [tuple(block) for block in blocks]
        except TypeError:
            raise DomainError("blocks must be an iterable of iterables of integers") from None
        for block in blocks:
            for x in block:
                if not is_int(x):
                    raise DomainError(f"block elements must be integers, got {quoted(x)}")
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise DomainError("blocks must be nonempty")
            for i, x in enumerate(block):
                if x in seen:
                    where = "twice in one block" if i and block[i - 1] == x else "in two blocks"
                    raise DomainError(f"element {x} appears {where}")
                seen.add(x)
        # the length test first, so that no set of a huge n is built
        if len(seen) != n or seen != set(range(1, n + 1)):
            raise DomainError(f"blocks do not partition [1..{n}]")
        self.n = n
        self.blocks = blocks
        self._hash = hash((n, blocks))

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> SetPartition:
        """Wrap blocks that already partition [1..n] in canonical order, as
        the generators below yield them, without sorting or validating."""
        p = cls.__new__(cls)
        p.n = n
        p.blocks = blocks
        p._hash = hash((n, blocks))
        return p

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

    def _nesting(self) -> list[int | None] | None:
        """Read 1..n once with a stack of open blocks.  Returns None as soon
        as a block is re-entered while another is open above it (the
        partition is crossing); otherwise the parent of each block, the
        block on top of the stack when it opens (None for roots)."""
        block_of = [0] * (self.n + 1)
        for i, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = i
        parents: list[int | None] = []
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = block_of[x]
            block = self.blocks[b]
            if x == block[0]:
                parents.append(stack[-1] if stack else None)
                stack.append(b)
            elif stack[-1] != b:
                return None
            if x == block[-1]:
                stack.pop()
        return parents

    def is_noncrossing(self) -> bool:
        """No i < j < l < m with i,l in one block and j,m in another."""
        return self._nesting() is not None

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def to_json(self) -> list:
        return [list(b) for b in self.blocks]


def _nc_blocks(lo: int, hi: int, memo: dict, closed: bool = False) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All non-crossing partitions of the range lo..hi, generated by choosing
    the block of lo; every nonempty gap between its members (and after the
    last) is again a range, partitioned independently.  With ``closed``, only the
    partitions whose first block holds hi.  ``memo`` holds the ranges
    already done in this enumeration."""
    key = (lo, hi, closed)
    if key not in memo:
        results: list[tuple[tuple[int, ...], ...]] = []
        for block in _first_blocks(lo, hi, closed):
            combos: list[tuple[tuple[int, ...], ...]] = [(block,)]
            for a, b in zip(block, block[1:] + (hi + 1,)):
                if b > a + 1:
                    sub = _nc_blocks(a + 1, b - 1, memo)
                    combos = [c + s for c in combos for s in sub]
            results.extend(combos)
        memo[key] = tuple(results)
    return memo[key]


def _interval_blocks(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The blocks of every interval partition of [1..n]."""
    out = []
    for mask in range(1 << (n - 1)):
        # a block starts at 1 and at every x whose bit x - 2 is set
        starts = [1] + [x for x in range(2, n + 1) if mask >> (x - 2) & 1] + [n + 1]
        out.append(tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:])))
    return out


def family_blocks(family: str, n: int) -> Sequence[tuple[tuple[int, ...], ...]]:
    """The canonical blocks of every partition of [1..n] in the family
    "nc", "nc-irr" or "boolean", in the order of its enumerator below."""
    _check_family(family, n)
    if family == "boolean":
        return _interval_blocks(n)
    return _nc_blocks(1, n, {}, closed=family == "nc-irr")


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [1..n] (Catalan many)."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("nc", n)]


def enumerate_boolean(n: int) -> list[SetPartition]:
    """All interval partitions of [1..n] (2^(n-1) many)."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("boolean", n)]


def enumerate_nc_irreducible(n: int) -> list[SetPartition]:
    """Non-crossing partitions with 1 and n in the same block."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("nc-irr", n)]


def classify_blocks(p: SetPartition) -> list[str]:
    """Per-block flags, "inner" or "outer", in canonical block order.

    A block is inner iff some other block has elements a < c < b for all of
    its elements c, that is iff it has a parent in the nesting forest.
    """
    return _classes(nesting_forest(p))


def nesting_forest(p: SetPartition) -> list[int | None]:
    """Parent index per block (None for roots): the parent is the minimal
    block, by span containment, properly nesting the block."""
    parents = p._nesting()
    if parents is None:
        raise DomainError(f"partition is crossing: {p!r}")
    return parents


def tree_factorial(p: SetPartition) -> int:
    """Rooted-forest factorial of the nesting forest: the product over all
    blocks of the size of the subtree rooted there (blocks counted)."""
    return _forest_factorial(nesting_forest(p))


def _classes(parents: Sequence[int | None]) -> list[str]:
    return ["outer" if parent is None else "inner" for parent in parents]


def _forest_factorial(parents: Sequence[int | None]) -> int:
    sizes = [1] * len(parents)
    total = 1
    # a child block opens after its parent, so it has the larger index and
    # reverse index order accumulates sizes bottom-up
    for i in reversed(range(len(parents))):
        total *= sizes[i]
        if parents[i] is not None:
            sizes[parents[i]] += sizes[i]
    return total


def _adjoint_blocks(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The blocks of each partition of [1..n] into one block S holding 1 and
    n and the runs of positions between consecutive members of S: each
    first block of NC_irr(n), followed by one block per gap."""
    _check_order(n)
    return [(block,) + tuple(tuple(range(a + 1, b)) for a, b in zip(block, block[1:]) if b > a + 1)
            for block in _first_blocks(1, n, closed=True)]


# The oracles below go through the words of one length at a time, so the
# terms of each of the ten sums are kept for the last few lengths.
# ``enumerate_nc`` itself stays uncached.
_RECENT_TERMS = 10 * 4


@lru_cache(maxsize=_RECENT_TERMS)
def _terms(family: str, n: int, split: bool, signed: bool, tree: bool) -> tuple:
    """``(blocks, rows, den)`` for a partition sum over the words of length
    n.  ``blocks`` lists each distinct ``(table, 0-based positions)`` once,
    in the order the partitions first reach it; with ``split``, outer blocks
    read table 0 and inner blocks table 1.  Each row is one partition:
    ``(weight, block indices)``, where ``weight / den`` is the sign
    (-1)^(#blocks - 1) if ``signed`` times the inverse tree factorial of the
    nesting forest if ``tree``."""
    index: dict = {}
    rows = []
    for blocks in _adjoint_blocks(n) if family == "adjoint" else family_blocks(family, n):
        parents = SetPartition._canonical(n, blocks)._nesting()
        parts = tuple(index.setdefault((int(split and parent is not None), block), len(index))
                      for block, parent in zip(blocks, parents))
        sign = (-1) ** (len(blocks) - 1) if signed else 1
        rows.append((sign, _forest_factorial(parents) if tree else 1, parts))
    den = lcm(*(t for _, t, _ in rows))
    return (tuple((table, tuple(x - 1 for x in block)) for table, block in index),
            tuple((sign * (den // t), parts) for sign, t, parts in rows), den)


# The alphabets of the tables the oracles last read.
_RECENT_ALPHABETS = 16


@lru_cache(maxsize=_RECENT_ALPHABETS)
def _places(alphabet: tuple[str, ...]) -> dict[str, int]:
    """The place of each letter in a table's sorted alphabet, its digit in
    the codes of ``ValueTable.coded``."""
    return {letter: i for i, letter in enumerate(alphabet)}


def _partition_sum(family: str, w: Word, *tables: ValueTable,
                   signed: bool = False, tree: bool = False) -> Rational:
    """The weighted sum over the partitions of ``family`` on the positions
    of w of the product of the block values, the one-table sums reading
    ``tables[0]`` and the two-table sums ``tables[0]`` on outer blocks and
    ``tables[1]`` on inner ones.  Each distinct block reads its value from
    its table's coded list, at the code of the block's letters over that
    table's alphabet, scaled to an integer over ``D^|B|``, D the lcm of the
    tables' bases, so every product lies over ``D^n`` and the sum runs in
    integers; one ``Fraction`` is built per word.  A word outside the
    tables' domain raises the ``TruncationError`` of the first block, in
    block order, that a table does not hold."""
    from fractions import Fraction

    n, letters = len(w), w.letters
    blocks, rows, den = _terms(family, n, len(tables) > 1, signed, tree)
    base = lcm(*(table.base for table in tables))
    # per table: its coded values, its number of letters, the place of each
    # letter of w in its alphabet (None outside it) and its scale to base
    reads = [(table.coded, len(table.alphabet), tuple(map(_places(table.alphabet).get, letters)),
              base // table.base) for table in tables]
    nums = []
    try:
        for t, block in blocks:
            coded, k, places, scale = reads[t]
            code = 0
            for x in block:
                code = code * k + places[x]
            nums.append(coded[len(block)][code] * scale ** len(block))
    except (TypeError, IndexError):
        # a letter outside an alphabet (a None place), or a block longer
        # than its table holds: the first such block's lookup raises
        for t, block in blocks:
            tables[t].lookup(Word(map(letters.__getitem__, block)))
        raise
    total = sum(weight * prod(map(nums.__getitem__, parts)) for weight, parts in rows)
    return Fraction(total, den * base**n)


def free_moment_sum(kappa: CumulantTable, w: Word) -> Rational:
    """sum over non-crossing partitions of the product of block cumulants."""
    return _partition_sum("nc", w, kappa)


def boolean_moment_sum(beta: CumulantTable, w: Word) -> Rational:
    """sum over interval partitions of the product of block cumulants."""
    return _partition_sum("boolean", w, beta)


def monotone_moment_sum(rho: CumulantTable, w: Word) -> Rational:
    """sum over non-crossing partitions, weighted by the inverse tree
    factorial of the nesting forest."""
    return _partition_sum("nc", w, rho, tree=True)


def cfree_moment_sum(R: CumulantTable, kappa_psi: CumulantTable, w: Word) -> Rational:
    """sum over non-crossing partitions: outer blocks weighted by the c-free
    cumulants, inner blocks by the free cumulants of the second state."""
    return _partition_sum("nc", w, R, kappa_psi)


def boolean_from_free_sum(kappa: CumulantTable, w: Word) -> Rational:
    """Boolean cumulant from free cumulants: sum over irreducible
    non-crossing partitions of the product of block cumulants."""
    return _partition_sum("nc-irr", w, kappa)


def free_from_boolean_sum(beta: CumulantTable, w: Word) -> Rational:
    """Free cumulant from boolean cumulants: the same sum with sign
    (-1)^(#blocks - 1)."""
    return _partition_sum("nc-irr", w, beta, signed=True)


def boolean_from_monotone_sum(rho: CumulantTable, w: Word) -> Rational:
    """Boolean cumulant from monotone cumulants: sum over irreducible
    non-crossing partitions of the product of block cumulants, weighted by
    the inverse tree factorial of the nesting forest."""
    return _partition_sum("nc-irr", w, rho, tree=True)


def free_from_monotone_sum(rho: CumulantTable, w: Word) -> Rational:
    """Free cumulant from monotone cumulants: the same sum with sign
    (-1)^(#blocks - 1)."""
    return _partition_sum("nc-irr", w, rho, signed=True, tree=True)


def adjoint_sum_lower(mu: CumulantTable, psi: MomentTable, w: Word) -> Rational:
    """Subset-sum form of the lower adjoint action: sum over position sets S
    containing 1 and n of mu(a_S) times the product of psi over the connected
    components of the complement."""
    return _partition_sum("adjoint", w, mu, psi)


def adjoint_sum_upper(mu: CumulantTable, tau: CumulantTable, w: Word) -> Rational:
    """Signed irreducible non-crossing sum for the upper adjoint action: the
    unique outer block takes mu, inner blocks take the boolean cumulants tau,
    with sign (-1)^(#blocks - 1)."""
    return _partition_sum("nc-irr", w, mu, tau, signed=True)
