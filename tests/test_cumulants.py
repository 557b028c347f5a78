import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from shufflecalc import (
    CumulantTable,
    DomainError,
    MomentTable,
    StatePair,
    Word,
    boolean_cumulants,
    cfree_cumulants,
    character,
    conv,
    convert,
    convolve_boolean,
    convolve_cfree,
    convolve_free,
    convolve_monotone,
    exp_conv,
    exp_left,
    exp_right,
    free_cumulants,
    half_left,
    half_right,
    infinitesimal,
    inverse,
    log_conv,
    log_left,
    log_right,
    materialize,
    moments_from_boolean,
    moments_from_cfree,
    moments_from_free,
    moments_from_monotone,
    monotone_cumulants,
    unit,
    unit_state,
)
from shufflecalc import cumulants, partitions
from shufflecalc.words import words_up_to
from shufflecalc.verify import VerifyConfig, run_checks
from fractions import Fraction
from math import comb, factorial


def rand_moments(seed, alphabet=("a", "b"), max_len=4):
    return MomentTable.random(alphabet, max_len, random.Random(seed))


class TestUnivariateClosedForms:
    def setup_method(self):
        self.phi = rand_moments(1, alphabet=("a",), max_len=3)
        self.m1 = self.phi.lookup(Word("a"))
        self.m2 = self.phi.lookup(Word("aa"))
        self.m3 = self.phi.lookup(Word("aaa"))

    def test_free(self):
        k = free_cumulants(self.phi)
        m1, m2, m3 = self.m1, self.m2, self.m3
        assert k.lookup(Word("a")) == m1
        assert k.lookup(Word("aa")) == m2 - m1**2
        assert k.lookup(Word("aaa")) == m3 - 3 * m1 * m2 + 2 * m1**3

    def test_boolean(self):
        b = boolean_cumulants(self.phi)
        m1, m2, m3 = self.m1, self.m2, self.m3
        assert b.lookup(Word("a")) == m1
        assert b.lookup(Word("aa")) == m2 - m1**2
        assert b.lookup(Word("aaa")) == m3 - 2 * m1 * m2 + m1**3

    def test_monotone(self):
        r = monotone_cumulants(self.phi)
        m1, m2, m3 = self.m1, self.m2, self.m3
        assert r.lookup(Word("a")) == m1
        assert r.lookup(Word("aa")) == m2 - m1**2
        assert r.lookup(Word("aaa")) == (
            m3 - Fraction(5, 2) * m1 * m2 + Fraction(3, 2) * m1**3
        )


class TestRoundTrips:
    def test_all_three_transforms_invert(self):
        phi = rand_moments(2)
        assert moments_from_free(free_cumulants(phi)) == phi
        assert moments_from_boolean(boolean_cumulants(phi)) == phi
        assert moments_from_monotone(monotone_cumulants(phi)) == phi
        # a round trip inverts whatever the relation computes, so the
        # moments are also held to the partition sums of the cumulants
        for kind, (solve, _, moment_sum) in RELATIONS.items():
            x = solve(phi)
            for w in words_up_to(phi.alphabet, phi.max_len):
                assert phi.lookup(w) == moment_sum(x, w), (kind, w)

    def test_tables_have_the_expected_types(self):
        phi = rand_moments(3)
        assert isinstance(free_cumulants(phi), CumulantTable)
        assert isinstance(moments_from_free(free_cumulants(phi)), MomentTable)

    def test_unit_state_has_vanishing_cumulants(self):
        e = unit_state(["a", "b"], 3)
        zeros = CumulantTable.zeros(["a", "b"], 3)
        assert free_cumulants(e) == zeros
        assert boolean_cumulants(e) == zeros
        assert monotone_cumulants(e) == zeros


# Any positive denominator, weighted towards multiples of small factorials,
# which the monotone kernel's n! D^n scale divides out exactly.
denominators = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.builds(lambda k, n: k * factorial(n),
              st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=6)),
)
scalars = st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6), denominators)
domains = st.tuples(st.sampled_from([("a",), ("a", "b")]), st.integers(min_value=1, max_value=4))


def _table(draw, cls, alphabet, max_len):
    words = list(words_up_to(alphabet, max_len))
    return cls(alphabet, max_len,
               dict(zip(words, draw(st.lists(scalars, min_size=len(words), max_size=len(words))))))


RELATIONS = {
    "free": (free_cumulants, moments_from_free, partitions.free_moment_sum),
    "boolean": (boolean_cumulants, moments_from_boolean, partitions.boolean_moment_sum),
    "monotone": (monotone_cumulants, moments_from_monotone, partitions.monotone_moment_sum),
}


@settings(max_examples=40, deadline=None)
@given(domains, st.data())
def test_round_trips_on_arbitrary_denominators(domain, data):
    """Solving and evaluating each relation invert each other on tables with
    arbitrary denominators, both ways round, and so do the c-free pair with
    a fixed second state.  Solving and evaluating one relation are inverse
    whatever its lower terms compute, so the moments are also held to the
    partition sums: that is what checks the exact integer divisions."""
    phi, kappa, psi = (_table(data.draw, cls, *domain)
                       for cls in (MomentTable, CumulantTable, MomentTable))
    for kind, (solve, evaluate, moment_sum) in RELATIONS.items():
        assert evaluate(solve(phi)) == phi, kind
        moments = evaluate(kappa)
        assert solve(moments) == kappa, kind
        for w, value in moments.values.items():
            assert value == moment_sum(kappa, w), (kind, w)
    assert moments_from_cfree(cfree_cumulants(StatePair(phi, psi)), psi) == phi
    moments = moments_from_cfree(kappa, psi)
    assert cfree_cumulants(StatePair(moments, psi)) == kappa
    kappa_psi = free_cumulants(psi)
    for w, value in moments.values.items():
        assert value == partitions.cfree_moment_sum(kappa, kappa_psi, w), ("cfree", w)


@pytest.mark.parametrize("alphabet", [("x",), ("b", "a"), ("c", "a", "b")], ids=len)
def test_coded_lists_follow_product_order(alphabet):
    """The kernel indexes the words of each length 1-4 in
    ``itertools.product`` order over the sorted alphabet: ``_scaled`` lists
    the values in it, ``_spread`` places the subword ``w[a:b]`` of every
    word by it, and ``_table`` reads it back."""
    letters = sorted(alphabet)
    K = len(letters)
    rank = {w: i for n in range(1, 5) for i, w in enumerate(itertools.product(letters, repeat=n))}
    table = MomentTable(alphabet, 4, {Word(w): Fraction(i + 1) for w, i in rank.items()})
    scale, (coded,) = cumulants._scaled(table)
    words = iter(table.values)
    for n in range(1, 5):
        product = list(itertools.product(letters, repeat=n))
        assert [w.letters for w in itertools.islice(words, K**n)] == product
        assert coded[n] == list(range(1, K**n + 1))
        for a in range(n):
            for b in range(a + 1, n + 1):
                spread = cumulants._spread(range(K ** (b - a)), K ** (n - b), K**a)
                assert spread == [rank[w[a:b]] for w in product], (n, a, b)
    assert cumulants._table(MomentTable, table, scale, coded) == table


# --- the first-block recursion against the position-set walk -------------
#
# The kernel's first-block relation before it became a prefix recursion:
# the sum over every position set S, regrouped by ``max S`` into a split
# sum and the sets that hold both ends of the word, walked depth-first; the
# monotone convolution regrouped by ``min S`` onto it.  It is kept here as
# the reference that the recursion's ``lower`` lists are held to.


def _walk_spanning_sum(x, gap, K, n):
    """``sum x(w_S) prod gap(run)`` for the words of length n, over the
    position sets S that hold both ends of the word, other than all of it."""
    total = [0] * K**n
    digits = [cumulants._spread(range(K), K ** (n - 1 - i), K**i) for i in range(n)]
    runs = {}

    def walk(last, size, codes, product):
        nonlocal total
        shifted = [code * K for code in codes]
        for i in range(last + 1, n):
            extended = product
            if i > last + 1:
                run = runs.get((last, i))
                if run is None:
                    run = runs[last, i] = cumulants._spread(gap[i - last - 1], K ** (n - i),
                                                            K ** (last + 1))
                extended = run if product is None else [a * b for a, b in zip(product, run)]
            codes_i = [a + b for a, b in zip(shifted, digits[i])]
            if i < n - 1:
                walk(i, size + 1, codes_i, extended)
            elif extended is not None:  # S has a gap, so it is not all of [n]
                values = [x[size + 1][c] for c in codes_i]
                total = [t + v * e for t, v, e in zip(total, values, extended)]

    walk(0, 1, digits[0], None)
    return total


def _walk_first_block(K, gap=None):
    """``sum_{k<n} A(w[:k]) phi(w[k:]) + spanning(w)`` with
    ``A = x + spanning``."""
    heads, spanning = [[]], [[]]

    def lower(x, phi, n):
        if n > 1:
            heads.append([a + b for a, b in zip(x[n - 1], spanning[n - 1])])
        spanning.append(_walk_spanning_sum(x, phi if gap is None else gap, K, n))
        split = cumulants._split_sum(heads, phi, K, n)
        return [a + b for a, b in zip(split, spanning[n])]
    return lower


def _walk_convolution(K, second):
    """``phi2(w) + sum_{0<i<n} phi2(w[:i]) B(w[i:]) + B(w)`` with B the
    first-block sum with ``gap = tail = phi2``."""
    first_block = _walk_first_block(K, second)
    blocks, rest = [[]], [[]]

    def lower(x, phi, n):
        if n > 1:
            blocks.append([a + b for a, b in zip(x[n - 1], rest[n - 1])])
        rest.append(first_block(x, second, n))
        split = cumulants._split_sum(second, blocks, K, n)
        return [a + b + c for a, b, c in zip(second[n], rest[n], split)]
    return lower


def _lower_lists(relation, K, x, phi, *given):
    """The relation's ``lower`` list of every length, each call handed x
    and phi on the shorter lengths only."""
    lower = relation(K, *given)
    return [lower(x[:n], phi[:n], n) for n in range(1, len(x))]


def _based_table(cls, alphabet, max_len, rng, den):
    """Random values with denominators in [1, den], so base 1 for den 1."""
    return cls(alphabet, max_len, {w: Fraction(rng.randint(-9, 9), rng.randint(1, den))
                                   for w in words_up_to(alphabet, max_len)})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("a",), ("b", "a"), ("a", "b", "c"), ("a", "b", "c", "d")]), st.data())
def test_first_block_recursion_matches_the_position_set_walk(alphabet, data):
    """The recursion's ``lower`` lists equal the walk's, length by length,
    for free, c-free with psi != phi and the monotone convolution, on
    tables of mixed bases brought to one scale."""
    max_len = 7 if len(alphabet) <= 2 else 5  # every shorter length is compared too
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    tables = [_based_table(cls, alphabet, max_len, rng, data.draw(st.sampled_from([1, 2, 3, 5])))
              for cls in (CumulantTable, MomentTable, MomentTable, MomentTable)]
    _, (x, phi, psi, second) = cumulants._scaled(*tables)
    K = len(alphabet)
    assume(psi != phi)
    for name, recursion, walk, given in [
        ("free", cumulants._first_block, _walk_first_block, ()),
        ("cfree", cumulants._first_block, _walk_first_block, (psi,)),
        ("convolution", cumulants._convolution, _walk_convolution, (second,)),
    ]:
        expected = _lower_lists(walk, K, x, phi, *given)
        assert _lower_lists(recursion, K, x, phi, *given) == expected, name


def test_closed_forms_at_the_truncation_cap(monkeypatch):
    """On one letter at ``max_len`` 12: kappa = 1 has the Catalan numbers
    as moments; R = 1 with psi = e, the boolean case, has 2^(n-1); e is a
    two-sided unit of the monotone convolution.  The free evaluation at
    that depth makes at most n^2/2 gathers per length."""
    letter, n = ("a",), 12
    words = [Word("a" * m) for m in range(1, n + 1)]
    ones = CumulantTable(letter, n, {w: 1 for w in words})
    calls = {}
    without = cumulants._without

    def counted(K, m, i, j):
        calls[m] = calls.get(m, 0) + 1
        return without(K, m, i, j)

    monkeypatch.setattr(cumulants, "_without", counted)
    catalan = MomentTable(letter, n, {w: comb(2 * len(w), len(w)) // (len(w) + 1) for w in words})
    assert moments_from_free(ones) == catalan
    assert catalan.lookup(words[-1]) == 208012
    # every length from 3 on gathers through the helper, and none more than n^2/2 times
    assert sorted(calls) == list(range(3, n + 1)), calls
    assert all(count <= m * m / 2 for m, count in calls.items()), calls
    monkeypatch.undo()
    e = unit_state(letter, n)
    assert moments_from_cfree(ones, e) == MomentTable(letter, n, {w: 2 ** (len(w) - 1) for w in words})
    phi = MomentTable.random(letter, n, random.Random(32))
    assert convolve_monotone(phi, e) == phi
    assert convolve_monotone(e, phi) == phi


class TestConversions:
    def test_all_six_directions_agree_with_the_transforms(self):
        phi = rand_moments(4)
        kappa = free_cumulants(phi)
        beta = boolean_cumulants(phi)
        rho = monotone_cumulants(phi)
        table = {"free": kappa, "boolean": beta, "monotone": rho}
        for src in table:
            for dst in table:
                assert convert(table[src], src, dst) == table[dst]
        # convert runs the transforms it is compared with, so the tables are
        # also held to the irreducible partition sums between the families
        for w in words_up_to(phi.alphabet, phi.max_len):
            assert beta.lookup(w) == partitions.boolean_from_free_sum(kappa, w), w
            assert kappa.lookup(w) == partitions.free_from_boolean_sum(beta, w), w
            assert beta.lookup(w) == partitions.boolean_from_monotone_sum(rho, w), w
            assert kappa.lookup(w) == partitions.free_from_monotone_sum(rho, w), w

    def test_identity_conversion(self):
        kappa = free_cumulants(rand_moments(5))
        assert convert(kappa, "free", "free") is kappa

    @pytest.mark.parametrize("src, dst", [
        ("free", "classical"), (["free"], "boolean"), ({"free": 1}, "boolean"),
        ("free", ["boolean"]), ("free", {"boolean": 1}),
    ], ids=["name", "src-list", "src-dict", "dst-list", "dst-dict"])
    def test_unknown_kind(self, src, dst):
        with pytest.raises(DomainError, match=r"^unknown cumulant kind: "):
            convert(free_cumulants(rand_moments(6)), src, dst)


class TestStatePair:
    def test_requires_compatible_tables(self):
        with pytest.raises(DomainError):
            StatePair(rand_moments(7, max_len=3), rand_moments(8, max_len=4))

    def test_json_roundtrip(self):
        pair = StatePair(rand_moments(9), rand_moments(10))
        assert StatePair.from_json(pair.to_json()) == pair

    def test_malformed_json(self):
        with pytest.raises(DomainError):
            StatePair.from_json({"phi": rand_moments(11).to_json()})


@pytest.mark.parametrize("read, obj, where, members", [
    (MomentTable.from_json, [1], "malformed table JSON", "'alphabet', 'max_len' and 'values'"),
    (StatePair.from_json, [1], "malformed state pair JSON", "'phi' and 'psi'"),
    (StatePair.from_json, {"phi": {}}, "malformed state pair JSON", "'phi' and 'psi'"),
], ids=["table-list", "pair-list", "pair-without-psi"])
def test_from_json_refuses_a_non_object_with_its_members(read, obj, where, members):
    with pytest.raises(DomainError) as exc:
        read(obj)
    assert str(exc.value) == f"{where}: expected a JSON object with members {members}"


class TestConditionallyFree:
    def test_explicit_degree_three_expansion(self):
        phi = rand_moments(12, alphabet=("a", "b", "c"), max_len=3)
        psi = rand_moments(13, alphabet=("a", "b", "c"), max_len=3)
        r = cfree_cumulants(StatePair(phi, psi))

        def p(text):
            return phi.lookup(Word(text))

        expected = (
            p("abc")
            - p("c") * p("ab")
            - p("bc") * p("a")
            + p("a") * p("b") * p("c")
            - p("ac") * psi.lookup(Word("b"))
            + p("a") * p("c") * psi.lookup(Word("b"))
        )
        assert r.lookup(Word("abc")) == expected

    def test_degenerations(self):
        phi = rand_moments(14)
        # second state trivial: boolean cumulants
        e = unit_state(phi.alphabet, phi.max_len)
        assert cfree_cumulants(StatePair(phi, e)) == boolean_cumulants(phi)
        # both states equal: free cumulants
        assert cfree_cumulants(StatePair(phi, phi)) == free_cumulants(phi)

    def test_moments_from_cfree_inverts(self):
        pair = StatePair(rand_moments(15), rand_moments(16))
        r = cfree_cumulants(pair)
        assert moments_from_cfree(r, pair.psi) == pair.phi

    def test_moments_from_cfree_checks_compatibility(self):
        with pytest.raises(DomainError):
            moments_from_cfree(
                CumulantTable.zeros(["a"], 3), MomentTable.zeros(["a"], 4)
            )


class TestConvolutions:
    def test_free_and_boolean_cumulants_are_additive(self):
        phi1, phi2 = rand_moments(17), rand_moments(18)
        out = convolve_free(phi1, phi2)
        assert free_cumulants(out) == free_cumulants(phi1) + free_cumulants(phi2)
        out = convolve_boolean(phi1, phi2)
        assert boolean_cumulants(out) == boolean_cumulants(phi1) + boolean_cumulants(phi2)

    def test_free_and_boolean_commute(self):
        phi1, phi2 = rand_moments(19), rand_moments(20)
        assert convolve_free(phi1, phi2) == convolve_free(phi2, phi1)
        assert convolve_boolean(phi1, phi2) == convolve_boolean(phi2, phi1)

    def test_monotone_is_noncommutative(self):
        phi1, phi2 = rand_moments(21), rand_moments(22)
        assert convolve_monotone(phi1, phi2) != convolve_monotone(phi2, phi1)

    def test_monotone_unit(self):
        phi = rand_moments(23)
        e = unit_state(phi.alphabet, phi.max_len)
        assert convolve_monotone(phi, e) == phi
        assert convolve_monotone(e, phi) == phi

    def test_cfree_additivity(self):
        p1 = StatePair(rand_moments(24), rand_moments(25))
        p2 = StatePair(rand_moments(26), rand_moments(27))
        out = convolve_cfree(p1, p2)
        assert cfree_cumulants(out) == cfree_cumulants(p1) + cfree_cumulants(p2)
        assert free_cumulants(out.psi) == free_cumulants(p1.psi) + free_cumulants(p2.psi)

    def test_incompatible_inputs(self):
        with pytest.raises(DomainError):
            convolve_free(rand_moments(28, max_len=3), rand_moments(29, max_len=4))


def _two_domains(cls=MomentTable):
    return (cls.random(("a", "b"), 3, random.Random(30)),
            MomentTable.random(("a", "c"), 3, random.Random(31)))


@pytest.mark.parametrize("op, inputs", [
    (moments_from_cfree, lambda: _two_domains(CumulantTable)),
    (convolve_monotone, _two_domains),
    (convolve_free, _two_domains),
    (convolve_boolean, _two_domains),
    (convolve_cfree, lambda: tuple(StatePair(t, t) for t in _two_domains())),
], ids=["moments-from-cfree", "monotone", "free", "boolean", "cfree"])
def test_table_domains_are_checked_before_any_work(monkeypatch, op, inputs):
    args = inputs()

    def no_work(*_):
        raise AssertionError("the kernel ran before the domain check")

    monkeypatch.setattr(cumulants, "_solve", no_work)
    monkeypatch.setattr(cumulants, "_evaluate", no_work)
    with pytest.raises(DomainError, match=r"^incompatible tables: alphabet/max_len "):
        op(*args)


# --- the words-only kernel against the bar-word engine -------------------
#
# The engine expressions below are the definitions the kernel in
# ``cumulants`` replaces: the half-shuffle and convolution logarithms and
# exponentials, the conjugations of the c-free transforms and the
# convolution of characters, evaluated on bar-words and materialized.


def _engine_cfree_cumulants(phi, psi):
    phic, psic = character(phi), character(psi)
    boolean_log = half_right(inverse(phic), phic - unit())
    return half_left(half_right(psic, boolean_log), inverse(psic))


def _engine_moments_from_cfree(r, psi):
    psic = character(psi)
    return exp_right(half_left(half_right(inverse(psic), infinitesimal(r)), psic))


# name -> (kernel function, engine expression, input kinds, output type);
# "m" is a moment table, "k" a cumulant table, "psi" a second state.
KERNEL_CASES = {
    "free_cumulants": (free_cumulants, lambda m: log_left(character(m)), "m", CumulantTable),
    "boolean_cumulants": (boolean_cumulants, lambda m: log_right(character(m)), "m", CumulantTable),
    "monotone_cumulants": (monotone_cumulants, lambda m: log_conv(character(m)), "m", CumulantTable),
    "moments_from_free": (moments_from_free, lambda k: exp_left(infinitesimal(k)), "k", MomentTable),
    "moments_from_boolean": (moments_from_boolean, lambda k: exp_right(infinitesimal(k)), "k", MomentTable),
    "moments_from_monotone": (moments_from_monotone, lambda k: exp_conv(infinitesimal(k)), "k", MomentTable),
    "cfree_cumulants": (lambda m, psi: cfree_cumulants(StatePair(m, psi)),
                        _engine_cfree_cumulants, "m psi", CumulantTable),
    "moments_from_cfree": (moments_from_cfree, _engine_moments_from_cfree, "k psi", MomentTable),
    "convolve_monotone": (convolve_monotone, lambda m1, m2: conv(character(m1), character(m2)),
                          "m m2", MomentTable),
}

DOMAINS = [(("a",), 7), (("a", "b"), 6), (("a", "b", "c"), 4)]


def _sparse(cls, alphabet, max_len, rng):
    """A random table with about half of its values zero."""
    table = cls.random(alphabet, max_len, rng)
    return cls(alphabet, max_len,
               {w: v if rng.random() < 0.5 else Fraction(0) for w, v in table.values.items()})


def _kernel_inputs(alphabet, max_len):
    """Labelled input tuples: three random seeds, a table with zero values,
    the all-zero table, and the second states psi = e and psi = phi."""
    zero_m = MomentTable.zeros(alphabet, max_len)
    zero_k = CumulantTable.zeros(alphabet, max_len)
    out = []
    for seed in range(3):
        rng = random.Random(f"kernel:{seed}:{len(alphabet)}")
        tables = {
            "m": MomentTable.random(alphabet, max_len, rng),
            "k": CumulantTable.random(alphabet, max_len, rng),
            "psi": MomentTable.random(alphabet, max_len, rng),
            "m2": MomentTable.random(alphabet, max_len, rng),
        }
        out.append((f"seed {seed}", tables))
    rng = random.Random(f"kernel:sparse:{len(alphabet)}")
    sparse = {
        "m": _sparse(MomentTable, alphabet, max_len, rng),
        "k": _sparse(CumulantTable, alphabet, max_len, rng),
        "psi": _sparse(MomentTable, alphabet, max_len, rng),
        "m2": _sparse(MomentTable, alphabet, max_len, rng),
    }
    base = out[0][1]
    out += [
        ("sparse", sparse),
        ("zeros", {"m": zero_m, "k": zero_k, "psi": zero_m, "m2": zero_m}),
        ("psi = e", {**base, "psi": zero_m, "m2": zero_m}),
        ("psi = phi", {**base, "psi": base["m"], "m2": base["m"]}),
    ]
    return out


@pytest.mark.parametrize("alphabet, max_len", DOMAINS,
                         ids=[f"{''.join(a)}-{n}" for a, n in DOMAINS])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matches_engine(name, alphabet, max_len):
    """Each word-recursion of the kernel equals its bar-word engine
    definition on every word of the domain."""
    kernel, engine, kinds, cls = KERNEL_CASES[name]
    for label, tables in _kernel_inputs(alphabet, max_len):
        args = [tables[kind] for kind in kinds.split()]
        expected = materialize(engine(*args), alphabet, max_len, cls)
        got = kernel(*args)
        assert type(got) is cls
        assert got == expected, f"{name} differs from the engine on {label}"


@pytest.mark.parametrize("alphabet, max_len", DOMAINS,
                         ids=[f"{''.join(a)}-{n}" for a, n in DOMAINS])
def test_convert_matches_the_lie_side_relations(alphabet, max_len):
    """The cumulant-conversions suite holds the kernel's ``convert`` to the
    Magnus and adjoint-action expressions on the engine in all six
    directions, and the kernel's tables to the irreducible partition sums."""
    config = VerifyConfig(alphabet=alphabet, max_len=max_len)
    (result,) = run_checks(config, only=["cumulant-conversions"])
    assert result.passed, result.detail


def _package_imports(module) -> set[tuple[str, str]]:
    """``(sibling module, name)`` per name that a module imports from its
    own package; ``from . import x`` gives ``("", "x")``."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {(node.module or "", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}


def test_cumulant_layer_and_oracles_stay_off_the_engine():
    names = {name for _, name in _package_imports(cumulants)}
    assert names == {"DomainError", "CumulantTable", "MomentTable", "ValueTable", "_members"}
    modules = {module or name for module, name in _package_imports(partitions)}
    assert not modules & {"series", "coalgebra", "cumulants"}
    for module in (cumulants, partitions):
        imports = _package_imports(module)
        assert "functionals" not in {source or name for source, name in imports}
        assert {source for source, name in imports if name.endswith("Table")} == {"tables"}
