"""Seeded inputs, op lists and engine-independent reference checks.

Every expected output is computed here from the seed before any op is
timed, by partition sums and subset sums written in this file.  They share
no code with the package under test, not even with its own partition
oracles in ``shufflecalc.partitions``: that module is itself a measured
layer (it dominates ``enumerate-details``), and rebuilding its partition
lists for every word would cost about 25 s of set-up per run, where the
lists below are built once per length.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

TRANSFORM_LETTERS = ("a", "b")
TRANSFORM_MAX_LEN = 7
VERIFY_LETTERS = ("a", "b", "c")
VERIFY_MAX_LEN = 4
KINDS = ("free", "boolean", "monotone", "cfree")

# (family, n) of the `enumerate --details` ops; sizes are closed forms.
ENUMERATE_OPS = (("nc", 11), ("nc-irr", 12), ("boolean", 14))

# The no-work CLI call timed as set-up.
SETUP_ARGV = ("enumerate", "--family", "boolean", "--n", "1", "--counts")


@dataclass
class Op:
    """One CLI process: its arguments, the files it reads, and a check of
    its standard output that returns an error message or None."""

    name: str
    argv: tuple[str, ...]
    inputs: dict[str, object] = field(default_factory=dict)
    check: Callable[[bytes], str | None] = lambda out: None


# --- tables -------------------------------------------------------------
# A table maps a tuple of letters to a Fraction, for every word of length
# 1..max_len over the alphabet.


def words(letters, max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(letters, repeat=n)


def random_table(rng: random.Random, letters, max_len) -> dict:
    """Numerators in [-9, 9], denominators in [1, 9]."""
    return {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for w in words(letters, max_len)}


def add(t1: dict, t2: dict) -> dict:
    return {w: v + t2[w] for w, v in t1.items()}


def table_json(table: dict, letters, max_len) -> dict:
    return {
        "alphabet": list(letters),
        "max_len": max_len,
        "values": {".".join(w): str(v) for w, v in table.items()},
    }


def parse_table(obj) -> dict:
    return {tuple(k.split(".")): Fraction(v) for k, v in obj["values"].items()}


# --- partitions, enumerated once per length ------------------------------
# A partition is a tuple of blocks, each a tuple of 0-based positions.


def set_partitions(n: int):
    if n == 0:
        yield ()
        return
    for p in set_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + (p[i] + (n - 1,),) + p[i + 1:]
        yield p + ((n - 1,),)


def is_noncrossing(blocks) -> bool:
    """Stack test on blocks of increasing elements: reading the elements in
    order, a block may only be re-entered while it is on top."""
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    stack: list[int] = []
    for x in sorted(block_of):
        i = block_of[x]
        if not stack or stack[-1] != i:
            if i in stack:
                return False
            stack.append(i)
        if blocks[i][-1] == x:
            stack.pop()
    return True


def is_interval(blocks) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in blocks)


def nested_in(inner, outer) -> bool:
    return outer[0] < inner[0] and inner[-1] < outer[-1]


@dataclass(frozen=True)
class Family:
    """Partitions of [0..n-1], each as a tuple of block bit masks."""

    nc: tuple
    interval: tuple
    # per NC partition: lcm(tree factorials) / tree factorial of its nesting
    # forest, and the masks of its outer and inner blocks
    weight: tuple
    weight_scale: int
    outer_inner: tuple


@functools.cache
def family(n: int) -> Family:
    nc = [p for p in set_partitions(n) if is_noncrossing(p)]
    tree_factorials, outer_inner = [], []
    for p in nc:
        t = 1
        for b in p:
            t *= 1 + sum(nested_in(c, b) for c in p)
        tree_factorials.append(t)
        outer = [not any(nested_in(b, c) for c in p) for b in p]
        outer_inner.append((tuple(_mask(b) for b, o in zip(p, outer) if o),
                            tuple(_mask(b) for b, o in zip(p, outer) if not o)))
    scale = math.lcm(*tree_factorials)
    return Family(
        nc=tuple(tuple(_mask(b) for b in p) for p in nc),
        interval=tuple(tuple(_mask(b) for b in p) for p in nc if is_interval(p)),
        weight=tuple(scale // t for t in tree_factorials),
        weight_scale=scale,
        outer_inner=tuple(outer_inner),
    )


def _mask(block) -> int:
    return sum(1 << i for i in block)


def _partition_sum(tables, terms) -> dict:
    """``terms(n, subs)`` sums over the partitions of a word of length n,
    where ``subs[j][mask]`` is table j on the subword at ``mask``.  The
    tables are scaled to integers homogeneous in word length (value times
    D^length), so the sum runs in ints and is divided once per word."""
    d = math.lcm(*(v.denominator for t in tables for v in t.values()))
    out = {}
    for w in tables[0]:
        n = len(w)
        subs = [[0] * (1 << n) for _ in tables]
        for mask in range(1, 1 << n):
            u = tuple(w[i] for i in range(n) if mask >> i & 1)
            for sub, table in zip(subs, tables):
                v = table[u]
                sub[mask] = v.numerator * (d ** len(u) // v.denominator)
        total, scale = terms(n, subs)
        out[w] = Fraction(total, scale * d ** n)
    return out


def _product(sub, masks) -> int:
    value = 1
    for m in masks:
        value *= sub[m]
    return value


def free_moments(kappa: dict) -> dict:
    return _partition_sum([kappa], lambda n, subs: (
        sum(_product(subs[0], p) for p in family(n).nc), 1))


def boolean_moments(beta: dict) -> dict:
    return _partition_sum([beta], lambda n, subs: (
        sum(_product(subs[0], p) for p in family(n).interval), 1))


def monotone_moments(rho: dict) -> dict:
    """Non-crossing sum weighted by the inverse tree factorial."""
    def terms(n, subs):
        fam = family(n)
        return sum(c * _product(subs[0], p) for c, p in zip(fam.weight, fam.nc)), fam.weight_scale
    return _partition_sum([rho], terms)


def cfree_moments(r: dict, kappa_psi: dict) -> dict:
    """Outer blocks take the c-free cumulants, inner blocks the free
    cumulants of the second state."""
    return _partition_sum([r, kappa_psi], lambda n, subs: (
        sum(_product(subs[0], o) * _product(subs[1], i) for o, i in family(n).outer_inner), 1))


def monotone_convolution(phi1: dict, phi2: dict) -> dict:
    """Direct subset sum: phi1 of the extracted subword times phi2 of each
    run of the complement."""
    out = {}
    for w in phi1:
        n, total = len(w), Fraction(0)
        for mask in range(1 << n):
            chosen = tuple(w[i] for i in range(n) if mask >> i & 1)
            value = phi1[chosen] if chosen else Fraction(1)
            run: list[str] = []
            for i in range(n + 1):
                if i < n and not mask >> i & 1:
                    run.append(w[i])
                elif run:
                    value *= phi2[tuple(run)]
                    run = []
            total += value
        out[w] = total
    return out


# --- output checks ---------------------------------------------------------


def expect_table(expected: dict) -> Callable[[bytes], str | None]:
    def check(out: bytes):
        try:
            got = parse_table(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable table: {exc!r}"
        return _compare(got, expected)

    return check


def expect_pair(phi: dict, psi: dict) -> Callable[[bytes], str | None]:
    def check(out: bytes):
        try:
            obj = json.loads(out)
            got_phi, got_psi = parse_table(obj["phi"]), parse_table(obj["psi"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable state pair: {exc!r}"
        return _compare(got_phi, phi) or _compare(got_psi, psi)

    return check


def _compare(got: dict, expected: dict) -> str | None:
    if got.keys() != expected.keys():
        return f"domain differs: {len(got)} words, expected {len(expected)}"
    for w, v in expected.items():
        if got[w] != v:
            return f"value at {'.'.join(w)}: got {got[w]}, expected {v}"
    return None


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def expect_partitions(fam: str, n: int) -> Callable[[bytes], str | None]:
    """Count by closed form; each line distinct, a partition of [1..n], and
    non-crossing, irreducible or interval as the family requires.  Outputs
    are deterministic, so only the first is parsed; later ones must match
    its digest."""
    count = {"nc": catalan(n), "nc-irr": catalan(n - 1), "boolean": 2 ** (n - 1)}[fam]
    verified: set[bytes] = set()

    def check(out: bytes):
        digest = hashlib.sha256(out).digest()
        if digest in verified:
            return None
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} partitions, expected {count}"
        seen = set()
        for line in lines:
            try:
                blocks = tuple(tuple(x - 1 for x in b) for b in json.loads(line)["blocks"])
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable line {line[:80]!r}: {exc!r}"
            if sorted(x for b in blocks for x in b) != list(range(n)):
                return f"not a partition of [1..{n}]: {line[:80]!r}"
            if fam == "boolean" and not is_interval(blocks):
                return f"not an interval partition: {line[:80]!r}"
            if not is_noncrossing(blocks):
                return f"crossing partition: {line[:80]!r}"
            if fam == "nc-irr" and not any(0 in b and n - 1 in b for b in blocks):
                return f"1 and {n} in different blocks: {line[:80]!r}"
            seen.add(blocks)
        if len(seen) != count:
            return f"{count - len(seen)} repeated partitions"
        verified.add(digest)
        return None

    return check


# --- workloads -------------------------------------------------------------


def transform_ops(seed: int) -> list[Op]:
    """Twelve ops at 2 letters and max_len 7, with inputs built from random
    cumulants by the partition sums, so every expected output is exact."""
    letters, n = TRANSFORM_LETTERS, TRANSFORM_MAX_LEN
    rng = random.Random(f"transform-deep:{seed}")
    cum = {k: [random_table(rng, letters, n) for _ in range(2)] for k in KINDS}
    kappa_psi = [random_table(rng, letters, n) for _ in range(2)]
    mono2 = random_table(rng, letters, n)
    oracle = {"free": free_moments, "boolean": boolean_moments, "monotone": monotone_moments}

    def js(t):
        return table_json(t, letters, n)

    phi = {k: oracle[k](cum[k][0]) for k in oracle}
    psi = [free_moments(k) for k in kappa_psi]
    phi["cfree"] = cfree_moments(cum["cfree"][0], kappa_psi[0])
    phi_cfree2 = cfree_moments(cum["cfree"][1], kappa_psi[1])
    pair = {"phi": js(phi["cfree"]), "psi": js(psi[0])}

    ops = []
    for k in KINDS:
        to_input = pair if k == "cfree" else js(phi[k])
        from_input = ({"cumulants": js(cum[k][0]), "psi": js(psi[0])} if k == "cfree"
                      else js(cum[k][0]))
        ops.append(Op(f"to-{k}", ("transform", "--input", "{to}", "--to", k),
                      {"to": to_input}, expect_table(cum[k][0])))
        ops.append(Op(f"from-{k}", ("transform", "--input", "{from}", "--from", k),
                      {"from": from_input}, expect_table(phi[k])))
    for k in KINDS:
        if k == "cfree":
            inputs = {"x": pair, "y": {"phi": js(phi_cfree2), "psi": js(psi[1])}}
            kp = add(*kappa_psi)
            check = expect_pair(cfree_moments(add(*cum[k]), kp), free_moments(kp))
        elif k == "monotone":
            inputs = {"x": js(phi[k]), "y": js(mono2)}
            check = expect_table(monotone_convolution(phi[k], mono2))
        else:
            second = oracle[k](cum[k][1])
            inputs = {"x": js(phi[k]), "y": js(second)}
            check = expect_table(oracle[k](add(*cum[k])))
        ops.append(Op(f"convolve-{k}",
                      ("convolve", "--kind", k, "--input", "{x}", "--input2", "{y}"),
                      inputs, check))
    return ops


def enumerate_ops() -> list[Op]:
    return [
        Op(f"{fam}-{n}", ("enumerate", "--family", fam, "--n", str(n), "--details"),
           check=expect_partitions(fam, n))
        for fam, n in ENUMERATE_OPS
    ]
