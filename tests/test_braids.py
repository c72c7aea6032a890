"""
Tests for braid words: the word problem, the projection to permutations,
block sums, cabling, operadic composition, and the t families.

Independent oracles used here:
  * strand tracing for the underlying permutation (move labelled strands
    through the crossings one at a time),
  * exponent sum and traced permutation as invariants that any correct
    rewriting of a braid word must preserve,
  * the inversion count of a permutation for minimal positive lengths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadics.braids import (
    BraidWord,
    _block_swap_word,
    block_sum_braids,
    braid_identity,
    cable,
    concatenate,
    equal,
    format_word,
    free_reduce,
    handle_reduce,
    is_minimal_positive,
    is_positive,
    is_trivial,
    mu_br,
    parse_word,
    permutation_braid,
    render_ascii,
    render_dot,
    t_negative,
    t_positive,
    underlying_permutation,
)
from operadics.permutations import (
    Permutation,
    all_permutations,
    block_lift,
    block_sum,
    compose,
    identity,
    inversions,
    mu_sigma,
    tau,
)


def traced_permutation(w: BraidWord) -> Permutation:
    """Oracle: push labelled strands through the crossings one by one."""
    at_position = list(range(1, w.strands + 1))
    for entry in w.word:
        i = abs(entry)
        at_position[i - 1], at_position[i] = at_position[i], at_position[i - 1]
    image = [0] * w.strands
    for position, strand in enumerate(at_position, start=1):
        image[strand - 1] = position
    return Permutation(tuple(image))


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if entry > 0 else -1 for entry in w.word)


def random_word(rng: random.Random, strands: int, max_len: int) -> BraidWord:
    if strands < 2:
        return braid_identity(strands)
    length = rng.randrange(max_len + 1)
    word = tuple(
        rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(length)
    )
    return BraidWord(strands, word)


# ---------------------------------------------------------------- words


def test_braid_word_validation():
    BraidWord(0, ())
    BraidWord(1, ())
    with pytest.raises(ValueError, match="entry 0 is not a generator"):
        BraidWord(3, (1, 0))
    with pytest.raises(ValueError, match="generator 3 does not exist on 3 strands"):
        BraidWord(3, (3,))
    with pytest.raises(ValueError, match="generator -5 does not exist on 2 strands"):
        BraidWord(2, (-5,))
    with pytest.raises(ValueError, match="strand count must be nonnegative"):
        BraidWord(-1, ())


def test_parse_and_format_round_trip():
    w = parse_word("1 -2 1", 3)
    assert w == BraidWord(3, (1, -2, 1))
    assert parse_word("", 4) == braid_identity(4)
    assert format_word(w) == "1 -2 1"
    assert parse_word(format_word(w), 3) == w
    assert format_word(braid_identity(5)) == ""


def test_parse_errors():
    with pytest.raises(ValueError, match="generator index|does not exist"):
        parse_word("3", 3)
    with pytest.raises(ValueError, match="entry 0 is not a generator"):
        parse_word("1 0", 3)
    with pytest.raises(ValueError, match="entry 'x' is not an integer"):
        parse_word("1 x", 3)


def test_concatenate_requires_matching_strands():
    with pytest.raises(ValueError, match="cannot multiply braids on 2 and 3 strands"):
        concatenate(braid_identity(2), braid_identity(3))


# ------------------------------------------------- underlying permutation


def test_projection_fixtures():
    assert underlying_permutation(braid_identity(4)) == identity(4)
    assert underlying_permutation(BraidWord(3, (1, -1))) == identity(3)
    assert underlying_permutation(t_positive(2, 2)) == tau(2, 2)
    assert tau(2, 2) == Permutation((1, 3, 2, 4))


def test_projection_matches_strand_tracing():
    rng = random.Random(20260819)
    for _ in range(1000):
        strands = rng.randrange(7)
        w = random_word(rng, strands, 12)
        assert underlying_permutation(w) == traced_permutation(w)


def test_projection_is_a_homomorphism():
    rng = random.Random(4242)
    for _ in range(1000):
        strands = rng.randrange(2, 7)
        w1 = random_word(rng, strands, 8)
        w2 = random_word(rng, strands, 8)
        assert underlying_permutation(concatenate(w1, w2)) == compose(
            underlying_permutation(w1), underlying_permutation(w2)
        )


# ------------------------------------------------------- free reduction


def test_free_reduce_cancels_nested_pairs():
    assert free_reduce(BraidWord(3, (1, 2, -2, -1))) == braid_identity(3)
    assert free_reduce(BraidWord(3, (1, -2, 2, 2))) == BraidWord(3, (1, 2))
    assert free_reduce(BraidWord(3, (1, 1))) == BraidWord(3, (1, 1))


@given(st.data())
@settings(max_examples=200)
def test_free_reduce_is_idempotent_and_preserves_the_braid(data):
    strands = data.draw(st.integers(min_value=0, max_value=5))
    if strands < 2:
        word = ()
    else:
        word = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=strands - 1).map(
                        lambda i: i
                    ).flatmap(
                        lambda i: st.sampled_from((i, -i))
                    ),
                    max_size=14,
                )
            )
        )
    w = BraidWord(strands, word)
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced
    assert all(
        reduced.word[k] != -reduced.word[k + 1] for k in range(len(reduced.word) - 1)
    )
    assert traced_permutation(reduced) == traced_permutation(w)
    assert exponent_sum(reduced) == exponent_sum(w)


# ------------------------------------------------------ handle reduction


def test_handle_reduction_preserves_braid_invariants():
    rng = random.Random(97)
    for _ in range(300):
        strands = rng.randrange(2, 7)
        w = random_word(rng, strands, 14)
        reduced = handle_reduce(w)
        assert traced_permutation(reduced) == traced_permutation(w)
        assert exponent_sum(reduced) == exponent_sum(w)
        assert handle_reduce(reduced) == reduced


def test_word_times_inverse_is_trivial():
    rng = random.Random(1618)
    for _ in range(1000):
        strands = rng.randrange(7)
        w = random_word(rng, strands, 20)
        assert is_trivial(concatenate(w, w.inverse()))


def test_conjugated_relators_are_trivial():
    # Words that are trivial in the group but not freely reducible, so the
    # reduction has to do real work.
    rng = random.Random(271828)
    for _ in range(400):
        strands = rng.randrange(3, 7)
        relators = [(1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1)]
        if strands >= 4:
            relators.append((1, 3, -1, -3))
        base = rng.choice(relators)
        shift = rng.randrange(strands - max(abs(e) for e in base))
        relator = tuple(e + shift if e > 0 else e - shift for e in base)
        w = random_word(rng, strands, 10)
        z = concatenate(concatenate(w, BraidWord(strands, relator)), w.inverse())
        assert is_trivial(z)


def test_nontrivial_words_stay_nontrivial():
    assert not is_trivial(BraidWord(4, (2, 2)))
    assert not is_trivial(BraidWord(3, (1, -2)))
    rng = random.Random(55)
    for _ in range(200):
        strands = rng.randrange(2, 7)
        w = random_word(rng, strands, 10)
        if underlying_permutation(w).is_identity():
            continue
        assert not is_trivial(w)


def test_equality_fixtures():
    assert equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert is_trivial(BraidWord(3, (1, -1)))
    assert not equal(BraidWord(4, (2, 2)), braid_identity(4))
    # Conjugation identity, forcing the handle-reduction path.
    assert equal(BraidWord(3, (1, 2, -1)), BraidWord(3, (-2, 1, 2)))
    # All-negative pair, exercising the mirrored fast path.
    assert equal(BraidWord(3, (-1, -2, -1)), BraidWord(3, (-2, -1, -2)))
    assert not equal(BraidWord(3, (-1, -2)), BraidWord(3, (-2, -1)))
    with pytest.raises(ValueError, match="cannot compare braids on 2 and 3 strands"):
        equal(braid_identity(2), braid_identity(3))


def test_braid_relations_at_every_index():
    for strands in range(3, 7):
        for i in range(1, strands - 1):
            lhs = BraidWord(strands, (i, i + 1, i))
            rhs = BraidWord(strands, (i + 1, i, i + 1))
            assert equal(lhs, rhs)
    for strands in range(4, 7):
        for i in range(1, strands - 1):
            for j in range(i + 2, strands):
                assert equal(BraidWord(strands, (i, j)), BraidWord(strands, (j, i)))


# ------------------------------------------------------------ block sum


def test_block_sum_fixtures():
    assert block_sum_braids([braid_identity(2), braid_identity(3)]) == braid_identity(5)
    assert block_sum_braids(
        [BraidWord(2, (1,)), BraidWord(2, (1,))]
    ) == BraidWord(4, (1, 3))
    assert block_sum_braids([]) == braid_identity(0)
    assert block_sum_braids([BraidWord(3, (-2,)), BraidWord(2, (1,))]) == BraidWord(
        5, (-2, 4)
    )


def test_block_sum_commutes_with_projection():
    rng = random.Random(31337)
    for _ in range(300):
        count = rng.randrange(4)
        braids = [random_word(rng, rng.randrange(5), 6) for _ in range(count)]
        assert underlying_permutation(block_sum_braids(braids)) == block_sum(
            [underlying_permutation(b) for b in braids]
        )


# --------------------------------------------------------------- cabling


def test_cable_fixtures():
    assert cable(braid_identity(3), [2, 0, 3]) == braid_identity(5)
    g = BraidWord(3, (1, -2, 1))
    assert cable(g, [1, 1, 1]) == g
    doubled = cable(BraidWord(2, (1,)), [2, 1])
    assert doubled == BraidWord(3, (2, 1))
    assert is_positive(doubled)
    assert underlying_permutation(doubled) == block_lift(Permutation((2, 1)), [2, 1])
    assert cable(BraidWord(2, (-1,)), [2, 1]) == BraidWord(3, (-2, -1))


def test_cable_size_mismatch():
    with pytest.raises(ValueError, match="cable needs 2 strand sizes, got 3"):
        cable(BraidWord(2, (1,)), [1, 1, 1])
    with pytest.raises(ValueError, match="cable sizes must be nonnegative"):
        cable(BraidWord(2, (1,)), [1, -1])


def test_cable_projection_and_length_contract():
    rng = random.Random(777)
    for _ in range(300):
        strands = rng.randrange(5)
        g = random_word(rng, strands, 6)
        sizes = [rng.randrange(4) for _ in range(strands)]
        cabled = cable(g, sizes)
        assert cabled.strands == sum(sizes)
        assert underlying_permutation(cabled) == block_lift(
            underlying_permutation(g), sizes
        )
        if is_positive(g):
            assert is_positive(cabled)


def test_cable_length_for_constant_sizes():
    # Every crossing of cables of a constant size s becomes s*s crossings.
    rng = random.Random(99)
    for _ in range(100):
        strands = rng.randrange(2, 5)
        g = random_word(rng, strands, 6)
        s = rng.randrange(4)
        assert len(cable(g, [s] * strands)) == s * s * len(g)


def test_cable_of_inverse_is_inverse_of_cable():
    rng = random.Random(12)
    for _ in range(200):
        strands = rng.randrange(1, 5)
        g = random_word(rng, strands, 5)
        sizes = [rng.randrange(3) for _ in range(strands)]
        lifted = underlying_permutation(g)
        sizes_after = [sizes[lifted.inverse()(j) - 1] for j in range(1, strands + 1)]
        lhs = cable(g.inverse(), sizes_after)
        rhs = cable(g, sizes).inverse()
        assert lhs == rhs


# -------------------------------------------------- operadic composition


def test_mu_br_unit_laws_exactly():
    rng = random.Random(321)
    for _ in range(200):
        strands = rng.randrange(5)
        g = random_word(rng, strands, 6)
        assert mu_br(braid_identity(1), [g]) == g
        assert mu_br(g, [braid_identity(1)] * strands) == g


def test_mu_br_with_identity_arguments_is_cabling():
    rng = random.Random(13)
    for _ in range(100):
        strands = rng.randrange(4)
        g = random_word(rng, strands, 5)
        sizes = [rng.randrange(3) for _ in range(strands)]
        args = [braid_identity(size) for size in sizes]
        assert mu_br(g, args) == cable(g, sizes)


def test_mu_br_arity_mismatch():
    with pytest.raises(ValueError, match="operadic composition needs 2 arguments, got 1"):
        mu_br(BraidWord(2, (1,)), [braid_identity(1)])


def test_projection_is_an_operad_map():
    rng = random.Random(60731)
    for _ in range(1000):
        arity = rng.randrange(5)
        g = random_word(rng, arity, 6)
        fs = [random_word(rng, rng.randrange(5), 6) for _ in range(arity)]
        lhs = underlying_permutation(mu_br(g, fs))
        rhs = mu_sigma(
            underlying_permutation(g), [underlying_permutation(f) for f in fs]
        )
        assert lhs == rhs


def test_mu_br_associativity_up_to_braid_equality():
    rng = random.Random(8128)
    for _ in range(40):
        arity = rng.randrange(1, 4)
        g = random_word(rng, arity, 3)
        fs = [random_word(rng, rng.randrange(1, 3), 3) for _ in range(arity)]
        hs = [
            [random_word(rng, rng.randrange(1, 3), 2) for _ in range(f.strands)]
            for f in fs
        ]
        flat = [h for chunk in hs for h in chunk]
        lhs = mu_br(mu_br(g, fs), flat)
        rhs = mu_br(g, [mu_br(f, chunk) for f, chunk in zip(fs, hs)])
        assert equal(lhs, rhs)


def test_group_product_interchanges_with_substitution():
    # concatenate(mu(a; us), mu(b; vs)) equals mu(a*b; pairwise products),
    # where the i-th upper argument continues as lower argument number
    # pi(a)(i), so us[i] pairs with vs at that slot.
    rng = random.Random(1729)
    for _ in range(30):
        arity = rng.randrange(1, 4)
        a = random_word(rng, arity, 3)
        b = random_word(rng, arity, 3)
        sizes = [rng.randrange(1, 3) for _ in range(arity)]
        pa = underlying_permutation(a)
        us = [random_word(rng, sizes[i - 1], 2) for i in range(1, arity + 1)]
        vs = [
            random_word(rng, sizes[pa.inverse()(j) - 1], 2)
            for j in range(1, arity + 1)
        ]
        lhs = concatenate(mu_br(a, us), mu_br(b, vs))
        rhs = mu_br(
            concatenate(a, b),
            [concatenate(us[i - 1], vs[pa(i) - 1]) for i in range(1, arity + 1)],
        )
        assert equal(lhs, rhs)


# ------------------------------------------- positive and minimal braids


def test_positivity_fixtures():
    assert is_positive(braid_identity(3))
    assert is_positive(BraidWord(4, (2, 1, 3)))
    assert not is_positive(BraidWord(4, (2, -1)))
    assert is_minimal_positive(BraidWord(4, (2,)))
    assert not is_minimal_positive(BraidWord(4, (1, 1)))
    assert is_minimal_positive(braid_identity(6))
    assert not is_minimal_positive(BraidWord(3, (-1,)))


def test_permutation_braid_exhaustive_small():
    for n in range(5):
        for p in all_permutations(n):
            w = permutation_braid(p)
            assert is_positive(w)
            assert len(w) == inversions(p)
            assert underlying_permutation(w) == p
            assert is_minimal_positive(w)


def test_permutation_braid_fixtures():
    assert permutation_braid(identity(5)) == braid_identity(5)
    assert permutation_braid(Permutation((1, 3, 2, 4))) == BraidWord(4, (2,))


# ------------------------------------------------------------ t families


def test_t_positive_fixtures():
    for n in range(1, 5):
        assert t_positive(1, n) == braid_identity(n)
        assert t_positive(n, 1) == braid_identity(n)
    assert t_positive(2, 2) == BraidWord(4, (2,))
    assert len(t_positive(2, 3)) == 3
    assert len(t_positive(2, 3)) == inversions(tau(2, 3))


def test_t_families_project_to_grid_transposition():
    for m in range(1, 5):
        for n in range(1, 5):
            pos = t_positive(m, n)
            neg = t_negative(m, n)
            assert underlying_permutation(pos) == tau(m, n)
            assert underlying_permutation(neg) == tau(m, n)
            assert is_minimal_positive(pos)
            assert all(entry < 0 for entry in neg.word)
            assert len(neg) == inversions(tau(m, n))
            assert is_trivial(concatenate(pos, pos.inverse()))


def test_t_positive_is_not_an_involution():
    # The square of the (2,2) element is a full twist of the middle strands,
    # not the identity: the braid operad is not a symmetric operad in disguise.
    square = concatenate(t_positive(2, 2), t_positive(2, 2))
    assert not equal(square, braid_identity(4))


def test_t_validation():
    with pytest.raises(ValueError, match="t_positive needs m, n >= 1"):
        t_positive(0, 2)
    with pytest.raises(ValueError, match="t_negative needs m, n >= 1"):
        t_negative(2, 0)


# ------------------------------------------------------------- rendering


def test_render_ascii_golden():
    w = BraidWord(3, (1, -2))
    assert render_ascii(w) == "\\ / |\n| / \\"
    assert render_ascii(braid_identity(3)) == "| | |"
    assert render_ascii(braid_identity(0)) == ""


def test_render_dot_mentions_every_crossing():
    text = render_dot(BraidWord(3, (1, -2)))
    assert text.startswith("graph braid {")
    assert '"+1"' in text and '"-2"' in text
    assert "c1 -- c2" in text


def test_a_word_that_is_not_a_tuple_is_rejected():
    # A list would be accepted and then fail far away, in hash or in a product.
    with pytest.raises(ValueError, match="^braid word must be a tuple, got list$"):
        BraidWord(3, [1, 2])
    with pytest.raises(ValueError, match="^braid word must be a tuple, got str$"):
        BraidWord(3, "12")


# ------------------------------------------------------- trusted kernels
# The operad-structure kernels build their words without validating them
# again; each output must pass the validating constructor unchanged, and
# the rewritten kernels must agree with the code they replaced.


def revalidates(w: BraidWord) -> bool:
    return BraidWord(w.strands, w.word) == w


@st.composite
def braid_words(draw, max_strands=5, max_len=8):
    strands = draw(st.integers(0, max_strands))
    if strands < 2:
        return braid_identity(strands)
    letters = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(strands, tuple(draw(st.lists(letters, max_size=max_len))))


def insertion_sort_block_swap(left: int, right: int) -> list[int]:
    """The earlier `_block_swap_word`: insertion-sort the block-swap image, recording swaps."""
    image = [i + right for i in range(1, left + 1)] + list(range(1, right + 1))
    word = []
    for j in range(1, len(image)):
        i = j
        while i > 0 and image[i - 1] > image[i]:
            image[i - 1], image[i] = image[i], image[i - 1]
            word.append(i)
            i -= 1
    return word


def validated_fold(w: BraidWord) -> Permutation:
    """The earlier `underlying_permutation`: one validated permutation per letter."""
    n = w.strands
    perm = Permutation(tuple(range(1, n + 1)))
    for entry in w.word:
        image = list(range(1, n + 1))
        i = abs(entry)
        image[i - 1], image[i] = image[i], image[i - 1]
        step = Permutation(tuple(image))
        perm = Permutation(tuple(step.image[value - 1] for value in perm.image))
    return perm


def test_block_swap_word_matches_the_insertion_sort():
    for left in range(12):
        for right in range(12):
            assert _block_swap_word(left, right) == insertion_sort_block_swap(left, right), (left, right)


@given(braid_words(max_strands=7, max_len=40))
@settings(max_examples=200)
def test_underlying_permutation_matches_the_validated_fold(w):
    out = underlying_permutation(w)
    assert out == validated_fold(w)
    assert Permutation(out.image) == out


@given(braid_words(), st.data())
@settings(max_examples=150)
def test_operad_kernels_revalidate(g, data):
    braids = data.draw(st.lists(braid_words(max_strands=3, max_len=4), min_size=g.strands, max_size=g.strands))
    sizes = [braid.strands for braid in braids]
    assert revalidates(block_sum_braids(braids))
    assert revalidates(cable(g, sizes))
    assert revalidates(mu_br(g, braids))


@given(st.integers(0, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=100)
def test_permutation_braid_revalidates(image):
    assert revalidates(permutation_braid(Permutation(tuple(image))))


def test_t_families_revalidate():
    for m in range(1, 5):
        for n in range(1, 5):
            assert revalidates(t_positive(m, n))
            assert revalidates(t_negative(m, n))
