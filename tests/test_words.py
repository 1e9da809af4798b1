"""Alphabet encoding and plain word helpers."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphrec.errors import AlphabetMismatch
from morphrec.words import (
    Alphabet,
    factor_set,
    occurrences_in_word,
    occurrences_until,
    split_occurrences,
)


def test_alphabet_roundtrip():
    a = Alphabet(("a", "b", "c"))
    assert len(a) == 3
    assert "b" in a and "z" not in a
    word = ["a", "c", "b", "a"]
    assert a.decode(a.encode(word)) == word


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(())


def test_alphabet_unknown_letter():
    a = Alphabet(("a", "b"))
    with pytest.raises(AlphabetMismatch):
        a.encode(["a", "z"])


def test_indexed_alphabet():
    a = Alphabet.indexed(4)
    assert a.tokens == ("1", "2", "3", "4")
    with pytest.raises(ValueError):
        Alphabet.indexed(0)


def test_multichar_tokens():
    a = Alphabet(("a_0", "a_1", "b_0"))
    assert a.decode(a.encode(["b_0", "a_1"])) == ["b_0", "a_1"]


def test_factor_set():
    a = Alphabet(("a", "b"))
    w = a.encode(list("abaab"))
    assert factor_set(w, 0) == {""}
    assert factor_set(w, 2) == {a.encode(list(f)) for f in ("ab", "ba", "aa")}
    assert factor_set(w, 5) == {w}
    assert factor_set(w, 6) == set()


def test_occurrences_in_word_overlapping():
    a = Alphabet(("a",))
    w = a.encode(["a"] * 5)
    assert occurrences_in_word(w, a.encode(["a", "a"])) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        occurrences_in_word(w, "")


def _starts(word, pattern):
    """Every start of pattern in word, rebuilt from split_occurrences."""
    pieces, inner, tail = split_occurrences(word, pattern)
    out = []
    q = len(pieces[0])
    for i in range(1, len(pieces)):
        out.append(q)
        out.extend(q + d for d in (tail if i == len(pieces) - 1 else inner[pieces[i]]))
        q += len(pattern) + len(pieces[i])
    return out


def test_split_occurrences_on_every_short_binary_word():
    patterns = [
        "".join(p) for k in range(1, 6) for p in itertools.product("ab", repeat=k)
    ]
    for n in range(13):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            for pattern in patterns:
                assert _starts(word, pattern) == occurrences_in_word(word, pattern)


def test_split_occurrences_on_seeded_ternary_words():
    rng = random.Random(7)
    for _ in range(3000):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(0, 60)))
        if word and rng.random() < 0.5:  # a factor of the word, so that it occurs
            i = rng.randrange(len(word))
            pattern = word[i : i + rng.randint(1, 6)]
        else:
            pattern = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        assert _starts(word, pattern) == occurrences_in_word(word, pattern)


def test_split_occurrences_skips_several_starts_in_one_segment():
    # split cuts at 0 and 4 in a^9; the starts 1, 2, 3 lie before the
    # inner piece, and 5 in the last segment
    assert split_occurrences("a" * 9, "aaaa") == (["", "", "a"], {"": (1, 2, 3)}, (1,))
    for word, pattern, skipped in (
        ("ab" * 4, "abab", (2,)),
        ("abaabaabaab", "abaab", (3,)),
        ("a" * 6 + "b" + "a" * 5, "aaaa", (1, 2)),
    ):
        pieces, inner, _ = split_occurrences(word, pattern)
        assert inner[pieces[1]] == skipped
        assert _starts(word, pattern) == occurrences_in_word(word, pattern)


def test_split_occurrences_in_the_last_segment():
    assert split_occurrences("aaaaa", "aa") == (["", "", "a"], {"": (1,)}, (1,))
    assert split_occurrences("babab", "bab") == (["", "ab"], {}, (2,))
    # the last piece equals the inner one but is not followed by the pattern
    assert split_occurrences("aaaa", "aa") == (["", "", ""], {"": (1,)}, ())


def test_split_occurrences_with_zero_or_one_occurrence():
    assert split_occurrences("bbb", "a") == (["bbb"], {}, ())
    assert split_occurrences("", "a") == ([""], {}, ())
    assert split_occurrences("bab", "a") == (["b", "b"], {}, ())
    assert split_occurrences("baa", "aa") == (["b", ""], {}, ())
    with pytest.raises(ValueError):
        split_occurrences("ab", "")


# binary words, half of them powers of a short root so that self-overlapping
# patterns (aa, aba, abab, ...) recur with overlaps, each with an end at 0,
# inside the word or at its length
@st.composite
def _word_and_end(draw):
    word = draw(
        st.text("ab", max_size=40)
        | st.builds(lambda r, k: r * k, st.text("ab", min_size=1, max_size=5), st.integers(1, 10))
    )
    return word, draw(st.sampled_from([0, len(word)]) | st.integers(0, len(word)))


@settings(max_examples=400, deadline=None)
@given(_word_and_end(), st.text("ab", min_size=1, max_size=5))
@example(("aaaa", 0), "aa")  # overlapping starts, end at 0
@example(("abababa", 3), "aba")  # end between two overlapping starts
@example(("abababa", 4), "aba")  # end on an overlapping start
@example(("abab", 4), "ab")  # end at the length
@example(("abab", 2), "bb")  # no occurrence
def test_occurrences_until_is_the_filtered_scan(word_end, pattern):
    word, end = word_end
    every = occurrences_in_word(word, pattern)
    before, closing = occurrences_until(word, pattern, end)
    assert before == [o for o in every if o < end]
    assert closing == next((o for o in every if o >= end), None)


def test_occurrences_until_rejects_an_empty_pattern():
    with pytest.raises(ValueError):
        occurrences_until("ab", "", 1)
