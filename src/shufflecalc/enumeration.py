"""What ``enumerate`` runs: the partition families' closed-form counts and
their JSON lines, in a module that imports only ``errors`` and the
standard library, so an ``enumerate`` process loads neither the partition
oracles nor the table layer.

``json_lines`` streams the lines of ``enumerate`` without building a block
tuple or a ``SetPartition``.  It runs the recursion of
``partitions._nc_blocks`` on records of text: a record of a partition of a
range is the text of its blocks and its shape, which writes each block as
``"("``, the shapes of the blocks nested in it and ``")"``, in block order.
A shape does not depend on where its range sits, so each sub-range's
records are made once per call.  The last gap of each first block of
[1..n] is streamed straight into lines, and the classes, parents and tree
factorial text is read off each distinct shape once, by one stack scan.
The lines are the text that ``json.dumps`` with sorted keys gives; there is
no per-partition dict.

The order check, the family check and the first-block generator live here
too; ``partitions`` imports them back for its enumerators and for the rows
of its adjoint sum.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from .errors import DomainError, is_int, quoted

MAX_ORDER = 14


def _check_order(n: int) -> None:
    """Refuse an order that is not an int in [1, MAX_ORDER]; a bool is no
    order."""
    if not is_int(n) or not 1 <= n <= MAX_ORDER:
        raise DomainError(f"order must be in [1, {MAX_ORDER}], got {quoted(n)}")


def _first_blocks(lo: int, hi: int, closed: bool) -> Iterator[tuple[int, ...]]:
    """Each block of lo in a non-crossing partition of lo..hi, by the mask
    of its other members; with ``closed``, only the blocks holding hi: the
    masks with the top bit set."""
    size = hi - lo
    for mask in range((1 << size) >> 1 if closed else 0, 1 << size):
        yield (lo,) + tuple(lo + 1 + i for i in range(size) if mask >> i & 1)


def _check_family(family: str, n: int) -> None:
    _check_order(n)
    if family not in ("nc", "nc-irr", "boolean"):
        raise DomainError(f"unknown partition family {quoted(family)}")


def family_count(family: str, n: int) -> int:
    """``len(partitions.family_blocks(family, n))`` from the closed forms,
    with no blocks built: Catalan(n) for "nc", Catalan(n - 1) for "nc-irr"
    and 2^(n - 1) for "boolean"."""
    _check_family(family, n)
    if family == "boolean":
        return 1 << (n - 1)
    m = n if family == "nc" else n - 1
    return comb(2 * m, m) // (m + 1)


def _forest_json(shape: str) -> str:
    """The "classes", "parents" and "tree_factorial" members of a
    ``json_lines`` details object, read off a shape by one stack scan: a
    block's parent is the open block when it opens, and its subtree holds
    the blocks opened from it to its close."""
    parents: list[int] = []
    stack: list[int] = []
    factorial = 1
    for c in shape:
        if c == "(":
            parents.append(stack[-1] if stack else -1)
            stack.append(len(parents) - 1)
        else:
            factorial *= len(parents) - stack.pop()
    classes = '", "'.join(["outer" if p < 0 else "inner" for p in parents])
    return (f'"classes": ["{classes}"], "parents": {parents}, '
            f'"tree_factorial": {factorial}')


class _Forests(dict):
    """Shape -> ``_forest_json(shape)``, each made on first lookup."""

    def __missing__(self, shape: str) -> str:
        self[shape] = text = _forest_json(shape)
        return text


# A record of a partition of a range: the text of its blocks, each led by
# ", " (the first, at the top level, by the line's lead), and its shape.  A
# group is (heads, tails, close): its records are each head joined with
# each tail, heads varying slowest, with ``close`` after the two shapes.
_Group = tuple[list[tuple[str, str]], list[tuple[str, str]], str]


def _nc_groups(lo: int, hi: int, lead: str, memo: dict,
               closed: bool = False) -> Iterator[_Group]:
    """The records of the non-crossing partitions of lo..hi, one group per
    first block, in the order of ``partitions._nc_blocks``; ``lead`` comes
    before the first block's text.  The shape of a partition is ``"("``, the
    shapes of the gaps inside its first block, ``")"`` and the shape of the
    gap after it.  The tails are the records of the last gap, ``_nc_range``'s list, so
    a group's records are not built here."""
    for block in _first_blocks(lo, hi, closed):
        gaps = [(a + 1, b - 1) for a, b in zip(block, block[1:] + (hi + 1,)) if b > a + 1]
        inner = len(gaps) - (block[-1] < hi)
        heads = [(f"{lead}{list(block)}", "(" if inner else "()")]
        # the first block closes after its last inner gap
        for i, (a, b) in enumerate(gaps[:-1], 1):
            close = ")" if i == inner else ""
            heads = [(t + u, f"{s}{q}{close}") for t, s in heads for u, q in _nc_range(a, b, memo)]
        if gaps:
            yield heads, _nc_range(*gaps[-1], memo), ")" if inner == len(gaps) else ""
        else:
            yield heads, [("", "")], ""


def _nc_range(lo: int, hi: int, memo: dict) -> list[tuple[str, str]]:
    """The records of the non-crossing partitions of lo..hi, made once per
    call of ``json_lines``: a shape does not depend on where the range
    sits, so the range fixes the records."""
    records = memo.get((lo, hi))
    if records is None:
        records = memo[lo, hi] = [
            (t + u, f"{s}{q}{close}")
            for heads, tails, close in _nc_groups(lo, hi, ", ", memo)
            for t, s in heads for u, q in tails]
    return records


def _interval_groups(n: int, lead: str) -> Iterator[_Group]:
    """The records of the interval partitions of [1..n], one group per last
    block [s..n], in the order of ``partitions._interval_blocks``: the heads
    are the records of the partitions of [1..s-1], led by ``lead``, and the
    tail is the block, of shape ``"()"``."""
    prefixes = [[(lead, "")]]
    for m in range(1, n + 1):
        groups = [(prefixes[s - 1], [(f"{', ' if s > 1 else ''}{list(range(s, m + 1))}", "()")], "")
                  for s in range(1, m + 1)]
        if m == n:
            yield from groups
        else:
            prefixes.append([(t + u, shape + q) for heads, tails, _ in groups
                             for t, shape in heads for u, q in tails])


def json_lines(family: str, n: int, details: bool = False) -> Iterator[str]:
    """One JSON line per partition of ``partitions.family_blocks(family,
    n)``: the blocks, or with ``details`` the object ``{"blocks",
    "classes", "parents", "tree_factorial"}`` (parent -1 for roots), each
    as ``json.dumps(..., sort_keys=True)`` writes it.

    The family and order are checked here; the lines come from the
    returned iterator.  They are joined from records of blocks text and
    shape, built by the recursion of ``partitions._nc_blocks`` on ranges,
    each sub-range's records once per call (for "boolean", from interval
    prefixes); the last gap of each first block is streamed into lines.
    The classes, parents and tree factorial text is made once per distinct
    shape."""
    _check_family(family, n)
    lead = '{"blocks": [' if details else "["
    if family == "boolean":
        groups = _interval_groups(n, lead)
    else:
        groups = _nc_groups(1, n, lead, {}, closed=family == "nc-irr")
    if not details:
        return (f"{t}{u}]" for heads, tails, _ in groups for t, _ in heads for u, _ in tails)
    forests = _Forests()
    return (f"{t}{u}], {forests[f'{s}{q}{close}']}}}"
            for heads, tails, close in groups for t, s in heads for u, q in tails)
