"""
Tests for the permutation layer.

The composition conventions here are load-bearing for everything else, so the
expected values are produced by small independent oracles written directly in
this file (plain-array composition, block moves on explicit index lists)
rather than by the code under test.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadics.permutations import (
    Permutation,
    act_on_list,
    adjacent_transposition,
    all_permutations,
    block_lift,
    block_sum,
    compose,
    format_permutation,
    identity,
    inverse,
    inversions,
    mu_sigma,
    parse_permutation,
    tau,
)
from shared import perm


# --- independent oracles -------------------------------------------------

def composed_by_tracing(p: Permutation, q: Permutation) -> tuple[int, ...]:
    """Follow each point through p, then through q, using plain arrays."""
    return tuple(q.image[p.image[i] - 1] for i in range(p.n))


def lifted_by_block_moves(sigma: Permutation, sizes) -> tuple[int, ...]:
    """
    Move explicit index blocks around: block i is the literal list of its
    member points, and it lands in slot sigma(i) of the output arrangement.
    """
    blocks = []
    start = 1
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    slots: list = [None] * sigma.n
    for i in range(1, sigma.n + 1):
        slots[sigma.image[i - 1] - 1] = blocks[i - 1]
    flat = [point for block in slots for point in block]
    image = [0] * len(flat)
    for position, point in enumerate(flat, start=1):
        image[point - 1] = position
    return tuple(image)


def mu_by_arrays(sigma: Permutation, taus) -> tuple[int, ...]:
    """Operadic composition recomputed from the two oracles above."""
    offset = 0
    summed = []
    for t in taus:
        summed.extend(v + offset for v in t.image)
        offset += t.n
    lifted = lifted_by_block_moves(sigma, [t.n for t in taus])
    return tuple(lifted[summed[i] - 1] for i in range(len(summed)))


def small_permutations(max_arity: int):
    for n in range(max_arity + 1):
        yield from all_permutations(n)


# --- construction and basics ---------------------------------------------

def test_bijection_invariant_enforced():
    with pytest.raises(ValueError, match="duplicate value 2"):
        Permutation((2, 2, 1))
    with pytest.raises(ValueError, match="out of range"):
        Permutation((0, 1))
    with pytest.raises(ValueError, match="out of range"):
        Permutation((1, 3))


def test_arity_zero_is_legal():
    e = Permutation(())
    assert e.n == 0
    assert e.is_identity()
    assert compose(e, e) == e
    assert inverse(e) == e
    assert inversions(e) == 0
    assert act_on_list(e, []) == []


def test_compose_is_first_p_then_q():
    # (1 2) then (2 3): point 1 -> 2 -> 3, point 2 -> 1 -> 1, point 3 -> 3 -> 2.
    assert compose(perm(2, 1, 3), perm(1, 3, 2)) == perm(3, 1, 2)


def test_compose_matches_tracing_oracle_exhaustively():
    for n in range(4):
        for p in all_permutations(n):
            for q in all_permutations(n):
                assert compose(p, q).image == composed_by_tracing(p, q)


def test_compose_arity_mismatch_is_an_error():
    with pytest.raises(ValueError, match="arities 2 and 3"):
        compose(perm(2, 1), perm(1, 2, 3))


def test_inverse():
    for p in small_permutations(4):
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()


def test_act_on_list_positions():
    # result[p(i)] = items[i]
    p = perm(2, 3, 1)
    assert act_on_list(p, ["a", "b", "c"]) == ["c", "a", "b"]
    for p in all_permutations(4):
        items = ["w", "x", "y", "z"]
        moved = act_on_list(p, items)
        assert all(moved[p.image[i] - 1] == items[i] for i in range(4))


def test_act_on_list_is_a_left_action_for_diagrammatic_composition():
    for p in all_permutations(3):
        for q in all_permutations(3):
            items = ["a", "b", "c"]
            assert act_on_list(compose(p, q), items) == act_on_list(q, act_on_list(p, items))


# --- block operations -----------------------------------------------------

def test_block_sum_fixture():
    assert block_sum([perm(2, 1), perm(2, 1)]) == perm(2, 1, 4, 3)
    assert block_sum([]) == identity(0)


def test_block_lift_matches_block_move_oracle():
    for n in range(4):
        for sigma in all_permutations(n):
            for sizes in itertools.product(range(4), repeat=n):
                assert block_lift(sigma, sizes).image == lifted_by_block_moves(sigma, sizes)


def test_block_lift_wrong_size_count():
    with pytest.raises(ValueError, match="needs 2 block sizes"):
        block_lift(perm(2, 1), [1, 1, 1])


# --- operadic composition -------------------------------------------------

def test_mu_sigma_matches_array_oracle():
    for n in range(4):
        for sigma in all_permutations(n):
            for ks in itertools.product(range(3), repeat=n):
                for taus in itertools.product(*[list(all_permutations(k)) for k in ks]):
                    assert mu_sigma(sigma, taus).image == mu_by_arrays(sigma, taus)


def test_mu_sigma_unit_laws():
    for n in range(5):
        for sigma in all_permutations(n):
            assert mu_sigma(identity(1), [sigma]) == sigma
            assert mu_sigma(sigma, [identity(1)] * n) == sigma


def test_mu_sigma_associativity_exhaustive_small():
    # mu(mu(sigma; taus); rhos) == mu(sigma; [mu(tau_i; rho_i)]) with the
    # rho list split by the arities of the taus.
    for n in range(4):
        for sigma in all_permutations(n):
            for ks in itertools.product(range(3), repeat=n):
                taus = [None] * n
                for taus in itertools.product(*[list(all_permutations(k)) for k in ks]):
                    for ls in itertools.product(range(2), repeat=sum(ks)):
                        rhos = [identity(l) for l in ls]
                        lhs = mu_sigma(mu_sigma(sigma, taus), rhos)
                        pieces = []
                        position = 0
                        for t in taus:
                            pieces.append(mu_sigma(t, rhos[position:position + t.n]))
                            position += t.n
                        rhs = mu_sigma(sigma, pieces)
                        assert lhs == rhs


def test_mu_sigma_factor_order_is_forced_by_associativity():
    # The rejected convention: block moves first, twists after.  It survives
    # equal-arity samples but breaks associativity once arities mix; this is
    # the smallest witness found by exhaustive search over n <= 3, k_i <= 2.
    def mu_other(sigma, taus):
        sizes = [t.n for t in taus]
        return compose(block_lift(sigma, sizes), block_sum(taus))

    sigma = perm(2, 1)
    taus = [identity(1), perm(2, 1)]
    rhos = [identity(0), identity(1), identity(1)]
    lhs = mu_other(mu_other(sigma, taus), rhos)
    rhs = mu_other(sigma, [mu_other(taus[0], rhos[:1]), mu_other(taus[1], rhos[1:])])
    assert lhs != rhs
    # The shipped order passes the same instance.
    lhs = mu_sigma(mu_sigma(sigma, taus), rhos)
    rhs = mu_sigma(sigma, [mu_sigma(taus[0], rhos[:1]), mu_sigma(taus[1], rhos[1:])])
    assert lhs == rhs


def test_arity_count_mismatch_is_an_error():
    with pytest.raises(ValueError, match="needs 2 arguments"):
        mu_sigma(perm(2, 1), [identity(1)])


# --- the transpose-shuffle -------------------------------------------------

def test_tau_fixtures():
    assert tau(2, 3) == perm(1, 3, 5, 2, 4, 6)
    assert tau(4, 2) == perm(1, 5, 2, 6, 3, 7, 4, 8)


def test_tau_degenerate_rows_or_columns():
    for n in range(6):
        assert tau(1, n) == identity(n)
        assert tau(n, 1) == identity(n)
    assert tau(0, 3) == identity(0)
    assert tau(3, 0) == identity(0)


def test_tau_swap_is_inverse():
    for m in range(6):
        for n in range(6):
            assert tau(n, m) == tau(m, n).inverse()


def test_tau_by_matrix_transposition_oracle():
    # Lay out a matrix of labels row by row, transpose it, read column by
    # column; tau must send each label's old position to its new one.
    for m in range(1, 5):
        for n in range(1, 5):
            row_major = [(p, q) for p in range(m) for q in range(n)]
            col_major = [(p, q) for q in range(n) for p in range(m)]
            t = tau(m, n)
            for index, label in enumerate(row_major, start=1):
                assert col_major[t.image[index - 1] - 1] == label


def test_inversion_counts():
    assert inversions(tau(2, 3)) == 3
    assert inversions(tau(2, 2)) == 1
    assert inversions(identity(5)) == 0
    assert inversions(perm(3, 2, 1)) == 3


# --- the symmetric-groups action axiom ------------------------------------

def test_interchange_of_product_and_substitution_figure():
    # Two stacked operadic composites on six strands merge into one whose
    # arguments pair up through the upper block permutation.
    a = perm(3, 1, 2)          # the upper block permutation (1 -> 3 -> 2 -> 1)
    b = perm(1, 3, 2)          # the lower block permutation (2 <-> 3)
    swap = perm(2, 1)
    e2 = identity(2)
    lhs = compose(
        mu_sigma(a, [swap, e2, swap]),
        mu_sigma(b, [swap, swap, e2]),
    )
    # Upper argument i pairs with lower argument a(i): (1,3), (2,1), (3,2).
    rhs = mu_sigma(
        compose(a, b),
        [compose(swap, e2), compose(e2, swap), compose(swap, swap)],
    )
    assert lhs == rhs
    assert lhs == perm(4, 3, 2, 1, 5, 6)


def test_product_of_composites_exhaustive():
    # compose(mu(a; u), mu(b; v)) == mu(compose(a, b); [compose(u_i, v_{a(i)})])
    # where u_i has arity k_i and v_i has arity k_{a^{-1}(i)}.
    for n in range(4):
        for a in all_permutations(n):
            for b in all_permutations(n):
                for ks in itertools.product(range(3), repeat=n):
                    v_arities = [ks[a.inverse().image[i] - 1] for i in range(n)]
                    for us in itertools.product(*[list(all_permutations(k)) for k in ks]):
                        vs = [identity(k) if k < 2 else perm(2, 1) for k in v_arities]
                        lhs = compose(mu_sigma(a, us), mu_sigma(b, vs))
                        merged = [compose(us[i], vs[a.image[i] - 1]) for i in range(n)]
                        assert lhs == mu_sigma(compose(a, b), merged)


# --- text format ------------------------------------------------------------

def test_parse_format_round_trip():
    for p in small_permutations(4):
        assert parse_permutation(format_permutation(p)) == p


def test_parse_rejects_duplicates_naming_value():
    with pytest.raises(ValueError, match="duplicate value 3"):
        parse_permutation("3 3 1")


def test_parse_rejects_non_integers():
    with pytest.raises(ValueError, match="'x' is not an integer"):
        parse_permutation("1 x 2")


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_permutation("1 2 5")


@given(st.permutations(list(range(1, 8))))
@settings(max_examples=200)
def test_parse_format_round_trip_property(image):
    p = Permutation(tuple(image))
    assert parse_permutation(format_permutation(p)) == p


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
@settings(max_examples=200)
def test_compose_property_matches_oracle(img1, img2):
    p, q = Permutation(tuple(img1)), Permutation(tuple(img2))
    assert compose(p, q).image == composed_by_tracing(p, q)
    assert inversions(compose(p, p.inverse())) == 0


def test_adjacent_transposition():
    assert adjacent_transposition(4, 2) == perm(1, 3, 2, 4)
    with pytest.raises(ValueError, match="out of range"):
        adjacent_transposition(3, 3)


def test_an_image_that_is_not_a_tuple_is_rejected():
    # A list would be accepted and then fail far away, in hash.
    with pytest.raises(ValueError, match="^permutation image must be a tuple, got list$"):
        Permutation([2, 1])
    with pytest.raises(ValueError, match="^permutation image must be a tuple, got range$"):
        Permutation(range(1, 3))


# --- trusted kernel outputs ----------------------------------------------
# The kernels build their results without validating them again; each
# output must pass the validating constructor unchanged.

def revalidates(p: Permutation) -> bool:
    return Permutation(p.image) == p


small_perms = st.integers(0, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda image: Permutation(tuple(image))
)


@given(st.integers(0, 9), st.data())
@settings(max_examples=100)
def test_identity_transpositions_and_tau_revalidate(n, data):
    assert revalidates(identity(n))
    if n >= 2:
        assert revalidates(adjacent_transposition(n, data.draw(st.integers(1, n - 1))))
    assert revalidates(tau(n, data.draw(st.integers(0, 5))))


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
@settings(max_examples=100)
def test_compose_and_inverse_revalidate(img1, img2):
    p, q = Permutation(tuple(img1)), Permutation(tuple(img2))
    assert revalidates(compose(p, q))
    assert revalidates(p.inverse())
    assert revalidates(inverse(q))


@given(small_perms, st.data())
@settings(max_examples=150)
def test_block_kernels_and_substitution_revalidate(sigma, data):
    taus = data.draw(st.lists(small_perms, min_size=sigma.n, max_size=sigma.n))
    sizes = [tau_i.n for tau_i in taus]
    assert revalidates(block_sum(taus))
    assert revalidates(block_lift(sigma, sizes))
    out = mu_sigma(sigma, taus)
    assert revalidates(out)
    assert out.image == mu_by_arrays(sigma, taus)


def test_all_permutations_revalidate():
    for n in range(6):
        assert all(revalidates(p) for p in all_permutations(n))
