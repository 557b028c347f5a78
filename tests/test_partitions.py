import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import shufflecalc
from shufflecalc import (
    CumulantTable,
    DomainError,
    MomentTable,
    SetPartition,
    Word,
    adjoint_sum_lower,
    adjoint_sum_upper,
    boolean_cumulants,
    boolean_from_free_sum,
    boolean_from_monotone_sum,
    boolean_moment_sum,
    cfree_moment_sum,
    classify_blocks,
    enumerate_boolean,
    enumerate_nc,
    enumerate_nc_irreducible,
    free_cumulants,
    free_from_boolean_sum,
    free_from_monotone_sum,
    free_moment_sum,
    monotone_cumulants,
    monotone_moment_sum,
    nesting_forest,
    tree_factorial,
)
from shufflecalc.enumeration import family_count, json_lines
from shufflecalc.partitions import family_blocks
from shufflecalc.words import words_over, words_up_to

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]

SRC = str(Path(shufflecalc.__file__).resolve().parent.parent)

FAMILIES = {"nc": enumerate_nc, "boolean": enumerate_boolean,
            "nc-irr": enumerate_nc_irreducible}


class TestSetPartition:
    def test_canonical_block_order(self):
        p = SetPartition(4, [[3, 4], [2, 1]])
        assert p.blocks == ((1, 2), (3, 4))

    def test_validation(self):
        with pytest.raises(DomainError):
            SetPartition(3, [[1, 2]])
        with pytest.raises(DomainError):
            SetPartition(3, [[1, 2], [2, 3]])
        with pytest.raises(DomainError):
            SetPartition(2, [[1, 2], []])

    @pytest.mark.parametrize("n, blocks, message", [
        (-1, [], "n must be a nonnegative integer, got -1"),
        ("2", [[1, 2]], "n must be a nonnegative integer, got '2'"),
        (True, [[1]], "n must be a nonnegative integer, got True"),
        (2, [[True, 2]], "block elements must be integers, got True"),
        (2, [[1.0, 2]], "block elements must be integers, got 1.0"),
        (2, [["1", 2]], "block elements must be integers, got '1'"),
        (2, [1, 2], "blocks must be an iterable of iterables of integers"),
        (2, [[1, 1, 2]], "element 1 appears twice in one block"),
        (2, [[2], [1, 2]], "element 2 appears in two blocks"),
        (10**12, [[1]], r"blocks do not partition \[1..1000000000000\]"),
    ], ids=["negative-n", "str-n", "bool-n", "bool-element", "float-element",
            "str-element", "int-block", "repeat-in-block", "repeat-across-blocks", "huge-n"])
    def test_validation_names_the_fault(self, n, blocks, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            SetPartition(n, blocks)

    def test_empty_partition(self):
        p = SetPartition(0, [])
        assert p.blocks == () and p.to_json() == [] and p.is_noncrossing()

    def test_noncrossing_detection(self):
        assert SetPartition(4, [[1, 4], [2, 3]]).is_noncrossing()
        assert not SetPartition(4, [[1, 3], [2, 4]]).is_noncrossing()
        assert SetPartition(6, [[1, 6], [2, 3], [4, 5]]).is_noncrossing()
        assert not SetPartition(6, [[1, 4], [2, 6], [3], [5]]).is_noncrossing()

    def test_interval_detection(self):
        assert SetPartition(4, [[1, 2], [3, 4]]).is_interval()
        assert not SetPartition(4, [[1, 4], [2, 3]]).is_interval()

    def test_json(self):
        assert SetPartition(3, [[1, 3], [2]]).to_json() == [[1, 3], [2]]


class TestEnumeration:
    def test_catalan_counts(self):
        for n in range(1, 9):
            assert len(enumerate_nc(n)) == CATALAN[n]

    def test_boolean_counts(self):
        for n in range(1, 13):
            assert len(enumerate_boolean(n)) == 2 ** (n - 1)

    def test_irreducible_counts_shift_catalan(self):
        # partitions with 1 and n joined biject with NC(n-1)
        for n in range(2, 9):
            assert len(enumerate_nc_irreducible(n)) == CATALAN[n - 1]

    def test_no_duplicates(self):
        ps = enumerate_nc(6)
        assert len(set(ps)) == len(ps)

    def test_boolean_inside_noncrossing(self):
        for n in range(1, 8):
            assert set(enumerate_boolean(n)) <= set(enumerate_nc(n))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_partitions_equal_validated_ones(self, family):
        # the enumerators skip the sorting and validating constructor
        for n in range(1, 11):
            for p in FAMILIES[family](n):
                q = SetPartition(n, p.blocks)
                assert (p.n, p.blocks) == (q.n, q.blocks)
                assert p == q and hash(p) == hash(q)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            enumerate_nc(0)
        with pytest.raises(DomainError):
            enumerate_nc(15)


@given(st.integers(min_value=1, max_value=7))
def test_enumerated_partitions_are_noncrossing(n):
    for p in enumerate_nc(n):
        assert p.n == n
        assert p.is_noncrossing()


@given(st.integers(min_value=1, max_value=10))
def test_interval_partitions_are_intervals(n):
    for p in enumerate_boolean(n):
        assert p.is_interval()


@given(st.integers(min_value=2, max_value=7))
def test_irreducible_partitions_join_endpoints(n):
    for p in enumerate_nc_irreducible(n):
        first = next(b for b in p.blocks if 1 in b)
        assert n in first


class TestNesting:
    def test_classify_blocks(self):
        p = SetPartition(4, [[1, 4], [2, 3]])
        assert classify_blocks(p) == ["outer", "inner"]
        q = SetPartition(4, [[1, 2], [3, 4]])
        assert classify_blocks(q) == ["outer", "outer"]

    def test_nesting_forest_parents(self):
        p = SetPartition(6, [[1, 6], [2, 5], [3, 4]])
        assert nesting_forest(p) == [None, 0, 1]

    def test_nesting_forest_picks_minimal_parent(self):
        p = SetPartition(5, [[1, 5], [2, 4], [3]])
        assert nesting_forest(p) == [None, 0, 1]

    def test_tree_factorial_examples(self):
        assert tree_factorial(SetPartition(3, [[1, 3], [2]])) == 2
        assert tree_factorial(SetPartition(6, [[1, 6], [2, 3], [4, 5]])) == 3
        assert tree_factorial(SetPartition(6, [[1, 6], [2, 5], [3, 4]])) == 6
        assert tree_factorial(SetPartition(4, [[1, 2], [3, 4]])) == 1

    def test_crossing_rejected(self):
        with pytest.raises(DomainError):
            tree_factorial(SetPartition(4, [[1, 3], [2, 4]]))
        with pytest.raises(DomainError):
            classify_blocks(SetPartition(4, [[1, 3], [2, 4]]))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_json_lines_match_json_dumps_of_the_single_readers(self, family):
        # the per-range records of blocks text and shape, and the text read
        # off each shape, against the element scan of each reader and
        # json.dumps
        for n in range(1, 11):
            members = FAMILIES[family](n)
            assert list(json_lines(family, n)) == [json.dumps(p.to_json()) for p in members]
            assert list(json_lines(family, n, details=True)) == [json.dumps({
                "blocks": p.to_json(),
                "classes": classify_blocks(p),
                "parents": [-1 if q is None else q for q in nesting_forest(p)],
                "tree_factorial": tree_factorial(p),
            }, sort_keys=True) for p in members]

    def test_json_lines_keep_no_state(self):
        # the record memo and the forest table live only as long as the
        # iterator: a first call in a fresh process, consumed whole and
        # dropped, leaves the traced heap where it was.  A full collection
        # also empties the interpreter's free lists, which would otherwise
        # keep the freed record tuples.
        code = (
            "import gc, tracemalloc\n"
            "from shufflecalc.enumeration import json_lines\n"
            "list(json_lines('nc', 3, details=True))\n"
            "gc.collect()\n"
            "tracemalloc.start()\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "lines = list(json_lines('nc', 10, details=True))\n"
            "assert len(lines) == 16796\n"
            "del lines\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0] - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64 * 1024

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_interleaved_iterators_give_the_same_lines(self, family):
        expected = list(json_lines(family, 9, details=True))
        first, second = json_lines(family, 9, details=True), json_lines(family, 9, details=True)
        pairs = list(zip(first, second))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == expected
        assert next(first, None) is None and next(second, None) is None

    @pytest.mark.parametrize("family", ["nc", "nc-irr", "boolean"])
    def test_closed_form_counts_match_the_generated_blocks(self, family):
        for n in range(1, 13):
            assert family_count(family, n) == len(family_blocks(family, n)), n

    def test_family_blocks_rejects_bad_input(self):
        with pytest.raises(DomainError, match="unknown partition family"):
            family_blocks("crossing", 3)
        # json_lines raises when called, before any line is taken from it
        for reader in (json_lines, family_count):
            with pytest.raises(DomainError, match="unknown partition family"):
                reader("crossing", 3)
            for n in (0, 15):
                with pytest.raises(DomainError, match="order must be"):
                    reader("nc", n)


def _set_partitions(n):
    """Every set partition of [1..n], as lists of sorted blocks."""
    if n == 0:
        return [[]]
    out = []
    for p in _set_partitions(n - 1):
        out.extend(p[:i] + [p[i] + [n]] + p[i + 1:] for i in range(len(p)))
        out.append(p + [[n]])
    return out


def _nests(outer, block):
    return outer is not block and outer[0] < block[0] and block[-1] < outer[-1]


def test_nesting_matches_the_definitions_on_all_set_partitions():
    seen = 0
    for n in range(1, 8):
        noncrossing = set()
        for raw in _set_partitions(n):
            p = SetPartition(n, raw)
            blocks = p.blocks
            crossing = any(i < j < l < m
                           for a in blocks for b in blocks if a is not b
                           for i in a for l in a for j in b for m in b)
            assert p.is_noncrossing() is not crossing
            seen += 1
            if crossing:
                for fn in (nesting_forest, classify_blocks, tree_factorial):
                    with pytest.raises(DomainError):
                        fn(p)
                continue
            noncrossing.add(p)
            # the parent is the enclosing block of smallest span
            parents = [min((j for j, o in enumerate(blocks) if _nests(o, b)),
                           key=lambda j: blocks[j][-1] - blocks[j][0], default=None)
                       for b in blocks]
            assert nesting_forest(p) == parents
            assert classify_blocks(p) == [
                "inner" if any(_nests(o, b) for o in blocks) else "outer" for b in blocks]
            # each block's subtree is itself plus every block it encloses
            assert tree_factorial(p) == math.prod(
                1 + sum(_nests(b, o) for o in blocks) for b in blocks)
        assert set(enumerate_nc(n)) == noncrossing
    assert seen == 1155


def test_nc_irreducible_is_the_endpoint_filter_in_order():
    for n in range(1, 11):
        joined = [p for p in enumerate_nc(n)
                  if any(1 in b and n in b for b in p.blocks)]
        assert enumerate_nc_irreducible(n) == joined


@given(st.integers(min_value=1, max_value=7))
def test_tree_factorial_divides_factorial_of_block_count(n):
    for p in enumerate_nc(n):
        k = len(p.blocks)
        assert math.factorial(k) % tree_factorial(p) == 0


class TestMomentSums:
    """Closed-form univariate checks at low degree."""

    def setup_method(self):
        rng = random.Random(5)
        self.k = CumulantTable.random(["a"], 3, rng)
        self.k1 = self.k.lookup(Word("a"))
        self.k2 = self.k.lookup(Word("aa"))
        self.k3 = self.k.lookup(Word("aaa"))

    def test_free(self):
        assert free_moment_sum(self.k, Word("aaa")) == (
            self.k3 + 3 * self.k1 * self.k2 + self.k1**3
        )

    def test_boolean(self):
        assert boolean_moment_sum(self.k, Word("aaa")) == (
            self.k3 + 2 * self.k1 * self.k2 + self.k1**3
        )

    def test_monotone(self):
        assert monotone_moment_sum(self.k, Word("aaa")) == (
            self.k3 + Fraction(5, 2) * self.k1 * self.k2 + self.k1**3
        )

    def test_cfree_weights_outer_by_r_and_inner_by_kappa(self):
        rng = random.Random(6)
        r = CumulantTable.random(["a"], 3, rng)
        kpsi = CumulantTable.random(["a"], 3, rng)
        # only {1,3}{2} has an inner block at n = 3
        expected = (
            r.lookup(Word("aaa"))
            + 2 * r.lookup(Word("a")) * r.lookup(Word("aa"))
            + r.lookup(Word("a")) ** 3
            + r.lookup(Word("aa")) * kpsi.lookup(Word("a"))
        )
        assert cfree_moment_sum(r, kpsi, Word("aaa")) == expected

    def test_multivariate_positions_drive_lookups(self):
        rng = random.Random(7)
        k = CumulantTable.random(["a", "b"], 2, rng)
        expected = k.lookup(Word("ab")) + k.lookup(Word("a")) * k.lookup(Word("b"))
        assert free_moment_sum(k, Word("ab")) == expected


def test_free_boolean_sums_match_the_kernel():
    phi = MomentTable.random(["a", "b"], 5, random.Random(9))
    kappa, beta, rho = free_cumulants(phi), boolean_cumulants(phi), monotone_cumulants(phi)
    for w in words_up_to(["a", "b"], 5):
        assert boolean_from_free_sum(kappa, w) == beta.lookup(w)
        assert free_from_boolean_sum(beta, w) == kappa.lookup(w)
        assert boolean_from_monotone_sum(rho, w) == beta.lookup(w)
        assert free_from_monotone_sum(rho, w) == kappa.lookup(w)


class TestAdjointSums:
    def setup_method(self):
        rng = random.Random(8)
        self.mu = CumulantTable.random(["a", "b"], 4, rng)
        self.psi = MomentTable.random(["a", "b"], 4, rng)
        self.tau = CumulantTable.random(["a", "b"], 4, rng)

    def test_low_degree_fixed_points(self):
        for text in ("a", "b", "ab", "ba", "aa"):
            w = Word(text)
            assert adjoint_sum_lower(self.mu, self.psi, w) == self.mu.lookup(w)

    def test_lower_degree_three_expansion(self):
        w = Word("aba")
        expected = self.mu.lookup(w) + self.mu.lookup(Word("aa")) * self.psi.lookup(
            Word("b")
        )
        assert adjoint_sum_lower(self.mu, self.psi, w) == expected

    def test_upper_degree_three_expansion(self):
        w = Word("aba")
        expected = self.mu.lookup(w) - self.mu.lookup(Word("aa")) * self.tau.lookup(
            Word("b")
        )
        assert adjoint_sum_upper(self.mu, self.tau, w) == expected


def _mixed_table(cls, alphabet, max_len, seed):
    """Values over mixed denominators, with zeros and a 40-digit numerator
    on one of the shortest words."""
    rng = random.Random(seed)
    words = list(words_up_to(alphabet, max_len))
    values = {w: Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.choice([1, 2, 3, 4, 7, 9, 12]))
              for w in words}
    values[rng.choice(words[:6])] = Fraction(10**39 + 7, 3)
    return cls(alphabet, max_len, values)


def _direct_sum(terms, w):
    """The Fraction partition sum block by block over ``(weight, [(block,
    table)])`` terms: each partition's weight times the product of its block
    values."""
    total = Fraction(0)
    for weight, blocks in terms:
        value = weight
        for block, table in blocks:
            value *= table.lookup(Word(w.letters[x - 1] for x in block))
        total += value
    return total


def _direct_adjoint_lower(mu, psi, w):
    """mu on each position set S holding 1 and n, times psi on each run of
    the complement."""
    n = len(w)
    total = Fraction(0)
    for mask in range(1 << n):
        members = [x for x in range(1, n + 1) if mask >> (x - 1) & 1]
        if not members or members[0] != 1 or members[-1] != n:
            continue
        value = mu.lookup(Word(w.letters[x - 1] for x in members))
        for a, b in zip(members, members[1:]):
            if b > a + 1:
                value *= psi.lookup(Word(w.letters[a:b - 1]))
        total += value
    return total


@pytest.mark.parametrize("alphabet,max_len", [(("a", "b"), 6), (("a",), 7)])
def test_integer_oracles_match_direct_fraction_sums(alphabet, max_len):
    t1 = _mixed_table(CumulantTable, alphabet, max_len, 1)
    t2 = _mixed_table(CumulantTable, alphabet, max_len, 2)
    psi = _mixed_table(MomentTable, alphabet, max_len, 3)

    def terms(partitions, signed=False, tree=False, inner=None):
        """(weight, [(block, table)]) per partition: t1 on every block, or
        t1 on outer and ``inner`` on inner blocks."""
        out = []
        for p in partitions:
            weight = Fraction((-1) ** (len(p.blocks) - 1) if signed else 1)
            if tree:
                weight /= tree_factorial(p)
            tables = [t1 if inner is None or c == "outer" else inner for c in classify_blocks(p)]
            out.append((weight, list(zip(p.blocks, tables))))
        return out

    for n in range(1, max_len + 1):
        nc, irr = enumerate_nc(n), enumerate_nc_irreducible(n)
        cases = [
            (lambda w: free_moment_sum(t1, w), terms(nc)),
            (lambda w: boolean_moment_sum(t1, w), terms(enumerate_boolean(n))),
            (lambda w: monotone_moment_sum(t1, w), terms(nc, tree=True)),
            (lambda w: cfree_moment_sum(t1, t2, w), terms(nc, inner=t2)),
            (lambda w: boolean_from_free_sum(t1, w), terms(irr)),
            (lambda w: free_from_boolean_sum(t1, w), terms(irr, signed=True)),
            (lambda w: boolean_from_monotone_sum(t1, w), terms(irr, tree=True)),
            (lambda w: free_from_monotone_sum(t1, w), terms(irr, signed=True, tree=True)),
            (lambda w: adjoint_sum_upper(t1, t2, w), terms(irr, signed=True, inner=t2)),
        ]
        for w in words_over(alphabet, n):
            for oracle, expected in cases:
                got = oracle(w)
                assert type(got) is Fraction
                assert got == _direct_sum(expected, w)
            assert adjoint_sum_lower(t1, psi, w) == _direct_adjoint_lower(t1, psi, w)
