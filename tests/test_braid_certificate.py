"""
The minimal-positive certificate against the interchange checker's earlier
decision procedure.

`braids.certify_equal` is the one place that decides braid equations by the
minimal-positive criterion; the interchange checker calls it and falls back
to `braid_equal` (handle reduction) when it does not decide.
`reference_braid_sides_equal` below is the checker's earlier procedure, kept
verbatim, with its own positivity tests and its own validating mirror.  Both
must give the same verdict and the same certificate tag on every kind of
pair, and a verdict the certificate gives must agree with handle reduction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from operadics import braids, pseudocomm
from operadics.action_operads import instance_braid
from operadics.braids import (
    BraidWord,
    certify_equal,
    concatenate,
    equal as braid_equal,
    is_minimal_positive,
    is_positive,
    is_trivial,
    permutation_braid,
    underlying_permutation,
)
from operadics.permutations import Permutation
from operadics.pseudocomm import t_family_braid_negative, t_family_braid_positive

BR = instance_braid()


# ------------------------------------------------------------- reference


def _mirror(word: BraidWord) -> BraidWord:
    """The crossing-reversal automorphism; sends all-negative to all-positive."""
    return BraidWord(word.strands, tuple(-letter for letter in word.word))


def reference_braid_sides_equal(lhs: BraidWord, rhs: BraidWord) -> tuple[bool, str]:
    """
    Decide lhs == rhs with a certificate tag.  For positive words the
    decision needs no rewriting: equal braids have equal exponent sums and
    permutations, and a positive word of length inversions(pi) is the
    unique minimal lift of pi.  All-negative pairs reduce to that through
    the mirror automorphism.  Anything else falls back to handle reduction
    — reachable only if a side fails to be positive as the construction
    promises, so the tag marks it as an anomaly.
    """
    if is_positive(lhs) and is_positive(rhs):
        if underlying_permutation(lhs) != underlying_permutation(rhs) or len(lhs) != len(rhs):
            return False, "positive"
        if is_minimal_positive(lhs):
            return True, "positive"
        return braid_equal(lhs, rhs), "fallback"
    negative = lambda w: len(w) > 0 and all(letter < 0 for letter in w.word)
    if negative(lhs) and negative(rhs):
        held, tag = reference_braid_sides_equal(_mirror(lhs), _mirror(rhs))
        return held, ("mirrored" if tag == "positive" else "fallback")
    if len(lhs) == 0 and len(rhs) == 0:
        return True, "positive"
    return braid_equal(lhs, rhs), "fallback"


# ------------------------------------------------------------- pairs


def lift(rng: random.Random, strands: int) -> list[int]:
    """The minimal positive lift of a random permutation."""
    image = list(range(1, strands + 1))
    rng.shuffle(image)
    return list(permutation_braid(Permutation(tuple(image))).word)


def pad(rng: random.Random, word: list[int], strands: int) -> list[int]:
    """A positive word that is not minimal: some generator squared, inserted."""
    if strands < 2:
        return word
    letter = rng.randrange(1, strands)
    at = rng.randrange(len(word) + 1)
    return word[:at] + [letter, letter] + word[at:]


def same_sign_rewrite(rng: random.Random, word: list[int]) -> list[int]:
    """An equal word of the same sign: far commutations and braid relations."""
    out = list(word)
    for _ in range(len(out) - 1):
        i = rng.randrange(len(out) - 1)
        x, y = out[i], out[i + 1]
        if abs(abs(x) - abs(y)) >= 2:
            out[i], out[i + 1] = y, x
        elif i + 2 < len(out) and out[i + 2] == x and abs(abs(x) - abs(y)) == 1:
            out[i:i + 3] = [y, x, y]
    return out


KINDS = ["empty", "minimal", "non-minimal", "negative", "mixed", "empty-vs-negative"]


@st.composite
def pairs(draw):
    """Two words on 1-6 strands of one of KINDS, the second often a rewrite of the first."""
    strands = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    padded = kind == "non-minimal" or (kind != "minimal" and draw(st.booleans()))
    first = lift(rng, strands)
    if padded:
        first = pad(rng, first, strands)
    if draw(st.booleans()):
        second = same_sign_rewrite(rng, first)
    else:
        second = lift(rng, strands)
        if padded and draw(st.booleans()):
            second = pad(rng, second, strands)
    if kind == "empty":
        first, second = [], []
    elif kind == "negative":
        first, second = [-e for e in first], [-e for e in second]
    elif kind == "mixed" and first:
        at = rng.randrange(len(first))
        first[at] = -first[at]
    elif kind == "empty-vs-negative":
        first, second = [], [-e for e in second]
        if draw(st.booleans()):
            first, second = second, first
    return BraidWord(strands, tuple(first)), BraidWord(strands, tuple(second))


@settings(max_examples=400, deadline=None)
@given(pair=pairs())
def test_the_checker_agrees_with_the_reference(pair):
    lhs, rhs = pair
    expected = reference_braid_sides_equal(lhs, rhs)
    assert pseudocomm._sides_equal(BR, lhs, rhs) == expected
    assert braid_equal(lhs, rhs) == expected[0]
    held, tag = certify_equal(lhs, rhs)
    if held is None:
        assert tag == "fallback"
    else:
        assert (held, tag) == expected
        assert held == is_trivial(concatenate(lhs, rhs.inverse()))


def test_every_kind_and_tag_is_reached():
    rng = random.Random(1997)
    lifted = lift(rng, 5)
    padded = pad(rng, lifted, 5)
    negative = BraidWord(5, tuple(-e for e in lifted))
    cases = {
        (BraidWord(5, ()), BraidWord(5, ())): (True, "positive"),
        (BraidWord(5, tuple(lifted)), BraidWord(5, tuple(same_sign_rewrite(rng, lifted)))): (True, "positive"),
        (BraidWord(5, tuple(padded)), BraidWord(5, tuple(padded))): (True, "fallback"),
        (BraidWord(5, tuple(padded)), BraidWord(5, tuple(lifted))): (False, "positive"),
        (negative, negative): (True, "mirrored"),
        (BraidWord(5, ()), negative): (False, "fallback"),
        (BraidWord(5, (1, -2)), BraidWord(5, (-2, 1))): (False, "fallback"),
    }
    for (lhs, rhs), expected in cases.items():
        assert reference_braid_sides_equal(lhs, rhs) == expected
        assert pseudocomm._sides_equal(BR, lhs, rhs) == expected


# ------------------------------------------------------------- work


def test_an_equation_computes_each_permutation_once_and_validates_nothing(monkeypatch):
    computed = []
    validated = []
    permutation = braids.underlying_permutation
    post_init = BraidWord.__post_init__

    def counted_permutation(w):
        computed.append(tuple(abs(e) for e in w.word))
        return permutation(w)

    def counted_post_init(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(braids, "underlying_permutation", counted_permutation)
    monkeypatch.setattr(pseudocomm, "underlying_permutation", counted_permutation, raising=False)
    monkeypatch.setattr(BraidWord, "__post_init__", counted_post_init)
    for family, tag in ((t_family_braid_positive(), "positive"), (t_family_braid_negative(), "mirrored")):
        lhs, rhs = pseudocomm._grouped_sides(BR, family, 2, (2, 1), 2)
        computed.clear()
        validated.clear()
        assert pseudocomm._sides_equal(BR, lhs, rhs) == (True, tag)
        assert sorted(computed) == sorted(tuple(abs(e) for e in w.word) for w in (lhs, rhs))
        assert validated == []
