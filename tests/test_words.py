"""The word encoding and token serialization."""

import random

import pytest

from snowflake_groups import GroupParams, PathWord
from snowflake_groups.hnn_group import reduce_chars
from snowflake_groups.words import format_word, free_reduce, invert_chars, parse_word, power_chars

from conftest import reference_free_reduce


def test_parse_format_roundtrip():
    for text in ("s a s^-1 t a t^-1", "a^6", "x^-2 y a^3", "1"):
        chars = parse_word(text)
        assert parse_word(format_word(chars)) == chars


def test_parse_examples():
    assert parse_word("s a^3 s^-1") == "saaaS"
    assert parse_word("a^-2 x") == "AAx"
    assert parse_word("1") == ""
    assert format_word("") == "1"
    assert format_word("saaaS") == "s a^3 s^-1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("q")
    with pytest.raises(ValueError):
        parse_word("a^b")


def test_invert_chars():
    assert invert_chars("saS") == "sAS"
    assert invert_chars("") == ""
    w = "saStaT"
    assert invert_chars(invert_chars(w)) == w


def test_pathword_lengths(p6):
    w = PathWord(p6, "saxXy")
    # a/s/t edges weigh 1, x/y edges weigh L
    assert len(w.chars) == 5
    assert w.length == 2 + 3 * p6.L


def test_pathword_concat_and_reverse(p6):
    w1, w2 = parse_word("s a"), parse_word("a^-1 s^-1")
    assert reduce_chars(p6.L, w1 + w2) == (0, 0)
    assert invert_chars(w1) == "AS" == w2
    with pytest.raises(ValueError):
        PathWord(p6, "qq")


def test_free_reduce_matches_reference():
    # nested pairs, which the regex reference cancels a level per pass
    assert free_reduce("saSsAS") == "" and free_reduce("sssSSS") == ""
    assert free_reduce("saStaT") == "saStaT"
    rng = random.Random(7)
    for _ in range(3000):
        word = "".join(rng.choice("aAsStTxXyY"[: rng.choice((4, 10))]) for _ in range(rng.randrange(40)))
        assert free_reduce(word) == reference_free_reduce(word), word
    # deep nests w w^-1, with a tail that survives
    for n in (1, 7, 300):
        word = "".join(rng.choice("aAsStTxXyY") for _ in range(n))
        nest = word + invert_chars(word)
        assert free_reduce(nest) == reference_free_reduce(nest) == ""
        assert free_reduce(nest + "s" + nest) == reference_free_reduce(nest + "s" + nest) == "s"
        assert free_reduce("t" + nest + "T") == ""


@pytest.mark.parametrize("gen", ["b", "A", "", "as", "astxy"])
def test_power_chars_refuses_bad_letter(gen):
    # one generator only: a run of them, or none, is not a letter
    with pytest.raises(ValueError) as info:
        power_chars(gen, 2)
    assert str(info.value) == f"bad letter {gen!r}"


@pytest.mark.parametrize("token", ["as^2", "^2", "astxy^9999999"])
def test_parse_word_refuses_runs_of_generators(token):
    # a token names one generator: "as^2" is not read as "asas", so the
    # letter count a word is checked against is the count it spells
    with pytest.raises(ValueError) as info:
        parse_word(f"a {token}")
    assert str(info.value) == f"unknown generator in token {token!r}"
