"""
Handle reduction against a verbatim copy of the full-rescan implementation.

`handle_reduce` resumes its handle scan where the word changed and
free-reduces only around each rewrite; `reference_handle_reduce` below
rescans from position 0 and free-reduces the whole word after every handle.
Both must find the same handles in the same order, so the reduced words are
required to be identical, not merely equal as braids.  Words derived from
validated words are built without re-validation; every such word must equal
the same word built through the validating constructor.
"""

import random
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from operadics import braids
from operadics.braids import (
    BraidWord,
    concatenate,
    equal,
    format_word,
    free_reduce,
    handle_reduce,
    is_trivial,
)

GOLDEN = Path(__file__).parent / "golden" / "handle_reduce_seeded.txt"


# ------------------------------------------------------------- reference


def reference_free_reduce(w: BraidWord) -> BraidWord:
    stack: list[int] = []
    for entry in w.word:
        if stack and stack[-1] == -entry:
            stack.pop()
        else:
            stack.append(entry)
    return BraidWord(w.strands, tuple(stack))


def reference_first_handle(word: list[int]) -> tuple[int, int] | None:
    for k in range(len(word)):
        index = abs(word[k])
        for j in range(k - 1, -1, -1):
            if abs(word[j]) > index:
                continue
            if word[j] == -word[k]:
                return j, k
            break
    return None


def reference_handle_reduce(w: BraidWord) -> BraidWord:
    word = list(reference_free_reduce(w).word)
    while True:
        found = reference_first_handle(word)
        if found is None:
            return BraidWord(w.strands, tuple(word))
        j, k = found
        index = abs(word[k])
        sign = 1 if word[j] > 0 else -1
        replacement: list[int] = []
        for entry in word[j + 1:k]:
            if abs(entry) == index + 1:
                inner_sign = 1 if entry > 0 else -1
                replacement.extend(
                    [-sign * (index + 1), inner_sign * index, sign * (index + 1)]
                )
            else:
                replacement.append(entry)
        word[j:k + 1] = replacement
        word = list(reference_free_reduce(BraidWord(w.strands, tuple(word))).word)


def reference_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Handle reduction of w1 * w2^-1 alone, without the positive-word shortcut."""
    quotient = BraidWord(w1.strands, w1.word + tuple(-e for e in reversed(w2.word)))
    return not reference_handle_reduce(quotient).word


# ------------------------------------------------------------- words


def random_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(length)]


def rewrite(rng: random.Random, word: list[int], strands: int) -> list[int]:
    """
    An equal word: free pairs and commutation relators inserted, commuting
    letters swapped and same-sign braid relations applied at random places.
    """
    out = list(word)
    for _ in range(max(1, len(word) // 4)):
        move = rng.randrange(3)
        if move == 0:
            letter = rng.choice((1, -1)) * rng.randrange(1, strands)
            at = rng.randrange(len(out) + 1)
            out[at:at] = [letter, -letter]
        elif move == 1 and strands > 3:
            a = rng.randrange(1, strands - 2)
            b = rng.randrange(a + 2, strands)
            e, f = rng.choice((1, -1)), rng.choice((1, -1))
            at = rng.randrange(len(out) + 1)
            out[at:at] = [e * a, f * b, -e * a, -f * b]
        elif len(out) >= 2:
            i = rng.randrange(len(out) - 1)
            x, y = out[i], out[i + 1]
            if abs(abs(x) - abs(y)) >= 2:
                out[i], out[i + 1] = y, x
            elif (i + 2 < len(out) and out[i + 2] == x
                  and abs(abs(x) - abs(y)) == 1 and (x > 0) == (y > 0)):
                out[i:i + 3] = [y, x, y]
    return out


def quotient_word(rng: random.Random, strands: int, length: int, trivial: bool) -> list[int]:
    """``w * rewrite(w')^-1``, where w' is w, or w with one letter inverted."""
    base = random_letters(rng, strands, length)
    other = list(base)
    if not trivial and other:
        at = rng.randrange(len(other))
        other[at] = -other[at]
    other = rewrite(rng, other, strands)
    return base + [-e for e in reversed(other)]


def seeded_words() -> list[BraidWord]:
    """The 64 inputs of the golden file: 3-6 strands, at most 256 letters."""
    rng = random.Random(19971312)
    words = []
    for i in range(64):
        strands = 3 + i % 4
        kind = (i // 4) % 3
        if kind == 0:
            letters = random_letters(rng, strands, rng.randrange(257))
        else:
            letters = quotient_word(rng, strands, rng.randrange(1, 100), trivial=kind == 1)
            del letters[256:]
        words.append(BraidWord(strands, tuple(letters)))
    return words


@contextmanager
def checked_trusted_words():
    """Build every trusted word through the validating constructor too, and compare."""
    original = braids._trusted_word
    built = []

    def checked(strands, word):
        w = original(strands, word)
        assert type(w.word) is tuple
        assert w == BraidWord(strands, word)
        built.append(w)
        return w

    braids._trusted_word = checked
    try:
        yield built
    finally:
        braids._trusted_word = original


# ------------------------------------------------------------- tests


def test_seeded_reductions_match_the_golden_file():
    lines = [format_word(handle_reduce(w)) for w in seeded_words()]
    assert "".join(line + "\n" for line in lines) == GOLDEN.read_text()


@st.composite
def words(draw):
    """Random words, and ``w * rewrite(w')^-1`` words, on 2-8 strands with 0-256 letters."""
    strands = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "trivial", "one letter off"]))
    if kind == "random":
        letters = random_letters(rng, strands, draw(st.integers(0, 256)))
    else:
        letters = quotient_word(rng, strands, draw(st.integers(0, 100)), trivial=kind == "trivial")
        del letters[256:]
    return BraidWord(strands, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(w=words())
def test_handle_reduce_finds_the_reference_handles(w):
    with checked_trusted_words() as built:
        reduced = handle_reduce(w)
    assert reduced.word == reference_handle_reduce(w).word
    assert built[-1] is reduced


@settings(max_examples=200, deadline=None)
@given(w=words(), data=st.data())
def test_equal_agrees_with_the_reference(w, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    other = BraidWord(w.strands, tuple(rewrite(rng, list(w.word), w.strands)))
    if w.word and data.draw(st.booleans()):
        letters = list(other.word)
        at = rng.randrange(len(letters))
        letters[at] = -letters[at]
        other = BraidWord(w.strands, tuple(letters))
    with checked_trusted_words():
        verdict = equal(w, other)
        assert verdict == equal(other, w)
        assert is_trivial(concatenate(w, other.inverse())) == verdict
    assert verdict == reference_equal(w, other)


def test_mirrored_and_derived_words_are_valid():
    w = BraidWord(5, (-1, -3, -2, -4, -1))
    with checked_trusted_words():
        assert equal(w, BraidWord(5, (-3, -1, -2, -4, -1)))
        assert free_reduce(BraidWord(5, (1, 2, -2, 3))) == BraidWord(5, (1, 3))
        assert w.inverse() == BraidWord(5, (1, 4, 2, 3, 1))


def test_deciding_equality_validates_no_word(monkeypatch):
    rng = random.Random(6)
    letters = random_letters(rng, 5, 100)
    a = BraidWord(5, tuple(letters))
    letters[37] = -letters[37]
    b = BraidWord(5, tuple(letters))
    validated = []
    post_init = BraidWord.__post_init__

    def counted(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(BraidWord, "__post_init__", counted)
    assert not equal(a, b)
    assert validated == []
