import pickle

import pytest
from hypothesis import given, strategies as st

from shufflecalc import BarWord, DomainError, UNIT, Word, complement_components, subword

letters = st.sampled_from(["a", "b", "c"])
word_strategy = st.lists(letters, min_size=1, max_size=7).map(Word)


class TestWord:
    def test_requires_letters(self):
        with pytest.raises(DomainError):
            Word([])

    def test_rejects_dotted_letter_names(self):
        # "." is reserved as the JSON key separator
        with pytest.raises(DomainError):
            Word(["a.b"])
        with pytest.raises(DomainError):
            Word([""])

    def test_equality_and_hash(self):
        assert Word("ab") == Word(["a", "b"])
        assert hash(Word("ab")) == hash(Word("ab"))
        assert Word("ab") != Word("ba")

    def test_ordering_is_graded(self):
        assert Word("c") < Word("ab")
        assert Word("ab") < Word("ba")

    def test_parse_dotted_roundtrip(self):
        w = Word(["a", "b", "a"])
        assert Word.parse(w.dotted()) == w
        assert w.dotted() == "a.b.a"

    def test_rejects_non_string_letters(self):
        # unhashable letters are rejected too, not just failed to intern
        with pytest.raises(DomainError):
            Word([["x"]])
        with pytest.raises(DomainError):
            Word([1])

    def test_interned(self):
        assert Word.parse("a.b") is Word(("a", "b"))
        assert pickle.loads(pickle.dumps(Word("ab"))) is Word("ab")


class TestBarWord:
    def test_unit(self):
        assert UNIT.is_unit
        assert UNIT.degree == 0
        assert BarWord() == UNIT

    def test_degree_sums_factor_lengths(self):
        b = BarWord([Word("ab"), Word("c")])
        assert b.degree == 3
        assert not b.is_unit

    def test_concat_is_unit_neutral(self):
        b = BarWord([Word("ab")])
        assert UNIT.concat(b) == b == b.concat(UNIT)

    def test_rejects_non_word_factors(self):
        with pytest.raises(DomainError):
            BarWord(["ab"])
        with pytest.raises(DomainError):
            BarWord(["a"])

    def test_interned(self):
        b = BarWord([Word("ab"), Word("c")])
        assert b.concat(UNIT) is b
        assert UNIT.concat(b) is b
        assert BarWord.of(Word("ab")).concat(BarWord.of(Word("c"))) is b
        assert pickle.loads(pickle.dumps(b)) is b

    def test_of(self):
        assert BarWord.of(Word("a")) == BarWord([Word("a")])


class TestSubword:
    def test_extracts_by_position(self):
        assert subword(Word("abcd"), [1, 3]) == Word("ac")

    def test_empty_positions_give_unit(self):
        assert subword(Word("ab"), []) == UNIT

    def test_positions_must_increase(self):
        with pytest.raises(DomainError):
            subword(Word("abc"), [2, 2])
        with pytest.raises(DomainError):
            subword(Word("abc"), [3, 1])

    def test_positions_must_be_in_range(self):
        with pytest.raises(DomainError):
            subword(Word("abc"), [0])
        with pytest.raises(DomainError):
            subword(Word("abc"), [4])


@pytest.mark.parametrize("split", [subword, complement_components])
@pytest.mark.parametrize("positions", [[True], [1, True], [1.0]], ids=["true", "1-true", "float"])
def test_positions_must_be_integers(split, positions):
    # bool is an int subclass; True would be read as position 1
    with pytest.raises(DomainError, match="^positions must be integers, got "):
        split(Word("ab"), positions)


class TestComplementComponents:
    def test_interleaved_extraction(self):
        w = Word("abcdef")
        assert complement_components(w, [1, 3, 5]) == BarWord(
            [Word("b"), Word("d"), Word("f")]
        )

    def test_run_merging(self):
        w = Word("abcdef")
        assert complement_components(w, [3, 4, 5]) == BarWord([Word("ab"), Word("f")])
        assert complement_components(w, [3, 6]) == BarWord([Word("ab"), Word("de")])

    def test_full_and_empty_subsets(self):
        w = Word("abc")
        assert complement_components(w, [1, 2, 3]) == UNIT
        assert complement_components(w, []) == BarWord([w])


@given(word_strategy, st.data())
def test_extraction_preserves_degree(w, data):
    positions = sorted(
        data.draw(st.sets(st.integers(min_value=1, max_value=len(w))))
    )
    extracted = subword(w, positions)
    rest = complement_components(w, positions)
    extracted_len = 0 if extracted == UNIT else len(extracted)
    assert extracted_len + rest.degree == len(w)


@given(word_strategy, st.data())
def test_components_concatenate_to_complement(w, data):
    positions = sorted(
        data.draw(st.sets(st.integers(min_value=1, max_value=len(w))))
    )
    rest = complement_components(w, positions)
    expected = [w.letters[i] for i in range(len(w)) if i + 1 not in positions]
    flattened = [x for f in rest.factors for x in f.letters]
    assert flattened == expected
