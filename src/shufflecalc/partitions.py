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

``json_lines`` writes the lines of ``enumerate`` straight from the block
tuples of ``family_blocks``, without building a ``SetPartition``: each
distinct block's text is made once per call, and for details one stack
scan over the blocks (valid because generated partitions are canonical and
non-crossing) gives the forest, whose classes, parents and tree factorial
are also written once per distinct forest.  The lines are the text that
``json.dumps`` with sorted keys gives; there is no per-partition dict.

These evaluators deliberately share no code with the shuffle engine in
``series``; cross-checking the two is the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, quoted
from .tables import ONE, ZERO, ValueTable, MomentTable, CumulantTable
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


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"order must be in [1, {MAX_ORDER}], got {n}")


@lru_cache(maxsize=None)
def _nc_blocks(lo: int, hi: int, closed: bool = False) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All non-crossing partitions of the range lo..hi, generated by choosing
    the block of lo; every gap between its members (and after the last) is
    again a range, partitioned independently.  With ``closed``, only the
    partitions whose first block holds hi: the masks with the top bit set."""
    if lo > hi:
        return ((),)
    size = hi - lo
    results: list[tuple[tuple[int, ...], ...]] = []
    for mask in range((1 << size) >> 1 if closed else 0, 1 << size):
        block = (lo,) + tuple(lo + 1 + i for i in range(size) if mask >> i & 1)
        combos: list[tuple[tuple[int, ...], ...]] = [(block,)]
        for a, b in zip(block, block[1:] + (hi + 1,)):
            sub = _nc_blocks(a + 1, b - 1)
            combos = [c + s for c in combos for s in sub]
        results.extend(combos)
    return tuple(results)


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
    _check_order(n)
    if family == "nc":
        return _nc_blocks(1, n)
    if family == "nc-irr":
        return _nc_blocks(1, n, closed=True)
    if family == "boolean":
        return _interval_blocks(n)
    raise DomainError(f"unknown partition family {quoted(family)}")


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [1..n] (Catalan many)."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("nc", n)]


def enumerate_boolean(n: int) -> list[SetPartition]:
    """All interval partitions of [1..n] (2^(n-1) many)."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("boolean", n)]


def enumerate_nc_irreducible(n: int) -> list[SetPartition]:
    """Non-crossing partitions with 1 and n in the same block."""
    return [SetPartition._canonical(n, blocks) for blocks in family_blocks("nc-irr", n)]


def _forest_json(parents: Sequence[int | None]) -> str:
    """The "classes", "parents" and "tree_factorial" members of a
    ``json_lines`` details object, for one nesting forest."""
    classes = '", "'.join(_classes(parents))
    numbers = ", ".join(["-1" if p is None else str(p) for p in parents])
    return (f'"classes": ["{classes}"], "parents": [{numbers}], '
            f'"tree_factorial": {_forest_factorial(parents)}')


def json_lines(family: str, n: int, details: bool = False) -> list[str]:
    """One JSON line per partition of ``family_blocks(family, n)``: the
    blocks, or with ``details`` the object ``{"blocks", "classes",
    "parents", "tree_factorial"}`` (parent -1 for roots), each as
    ``json.dumps(..., sort_keys=True)`` writes it.

    The blocks are canonical and non-crossing, so a block's parent is the
    nearest earlier block whose span still covers the block's minimum: one
    stack of open blocks per partition gives the nesting forest.  The text
    of each distinct block and forest is made once per call."""
    block_text = lru_cache(maxsize=None)(lambda block: str(list(block)))
    forest_text = lru_cache(maxsize=None)(_forest_json)
    lines = []
    for blocks in family_blocks(family, n):
        text = f"[{', '.join(map(block_text, blocks))}]"
        if details:
            parents: list[int | None] = []
            stack: list[int] = []
            for i, block in enumerate(blocks):
                while stack and blocks[stack[-1]][-1] < block[0]:
                    stack.pop()
                parents.append(stack[-1] if stack else None)
                stack.append(i)
            text = f'{{"blocks": {text}, {forest_text(tuple(parents))}}}'
        lines.append(text)
    return lines


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


# The oracles below go through the words of one length at a time, so the
# partitions of that length, with their weights and block flags, are kept
# for the last few lengths.  ``enumerate_nc`` itself stays uncached.
_RECENT_LENGTHS = 4


@lru_cache(maxsize=_RECENT_LENGTHS)
def _nc_terms(n: int) -> tuple:
    """``(blocks, 1 / tree factorial, outer flags)`` per non-crossing
    partition of [1..n]."""
    terms = []
    for p in enumerate_nc(n):
        parents = nesting_forest(p)
        terms.append((p.blocks, Fraction(1, _forest_factorial(parents)),
                      tuple(parent is None for parent in parents)))
    return tuple(terms)


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
