"""
The orbit quotients `compose_collections` and `free_algebra` against slow
references, and the two pullback criteria against each other.

Both constructions are views of one two-stage quotient, which searches the
orbits of its points along group generators and then the orbits of each
point's stabilizer on the rest; the free algebra is the arity-0 part of
the composition product with the carrier in arity 0.  The references below
are the earlier per-state loops, kept verbatim up to naming, with the
tuple-keyed union-find they ran on: every tuple is registered and related
to its mates one group element at a time, for every element.  Property
tests compare the classes exactly, and `canonical` at every state a
reference lists, on small
collections built from trivial, sign and coset orbits G(n)/K and from the
packaged operads and the unit-only operad, over the trivial and symmetric
groups, and require `cartesian_condition` and `pullback_witness_test` to
give the same verdict on the orbit collections dressed as operads and on
sub-operads of endomorphism operads generated by a few operations.  On the
orbit operads `pullback_witness_test`, which pushes classes only at the
first arity whose class counts differ, must also give the witness of the
reference that builds four free algebras and pushes every class.
"""

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadics.action_operads import instance_symmetric, instance_trivial
from operadics.free_monad import _restrict, _truncate, cartesian_condition, free_algebra, pullback_witness_test
from operadics.g_operads import (
    FiniteGCollection,
    FiniteGOperad,
    _signatures,
    change_groups,
    check_operad,
    compose_collections,
    composite_states,
    endomorphism_operad,
    load_operad,
    operad_ass,
    operad_comm,
    unit_collection,
    write_operad_document,
)
from operadics.permutations import Permutation, act_on_list, inversions
from shared import _UnionFind
from test_law_kernels import FINITE, OPERADS, outcome, reference_pullback_witness_test

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"
BOUND = 3
GROUPS = {"trivial": instance_trivial(), "symmetric": instance_symmetric()}


# ------------------------------------------------------------ references


def _compositions(total: int, parts: Sequence[int], slots: int) -> Iterator[tuple[int, ...]]:
    """All slot-tuples drawn from `parts` summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in parts:
        if first <= total:
            for rest in _compositions(total - first, parts, slots - 1):
                yield (first, *rest)


def _reference_key(group, state):
    r, ks, x, ys, g = state
    return (r, tuple(ks), x, tuple(ys), (tuple(group.project(g).image), group.describe(g)))


def reference_states(x, y, n):
    """Every composite tuple (r; ks; x; ys; g) of arity n, in the order the per-state loop registers them."""
    y_arities = [k for k in range(n + 1) if y.labels(k)]
    for r in sorted(m for m in x.levels if x.labels(m)):
        for ks in _compositions(n, y_arities, r):
            for head in x.labels(r):
                for ys in itertools.product(*(y.labels(k) for k in ks)):
                    for g in x.group.elements(n):
                        yield (r, ks, head, ys, g)


def reference_compose_collections(x, y, bound):
    """
    The per-state composition product: (classes_by_arity, canonical), with
    canonical listing each state once with its class's representative.
    """
    group = x.group
    classes_by_arity = {}
    canonical = []

    for n in range(bound + 1):
        uf = _UnionFind()
        states = {}

        def register(state):
            key = _reference_key(group, state)
            states.setdefault(key, state)
            uf.add(key)
            return key

        for state in reference_states(x, y, n):
            register(state)

        for key in list(states):
            r, ks, head, ys, g = states[key]
            for h in group.elements(r):
                pi_inv = group.project(h).inverse()
                permuted_ks = tuple(ks[pi_inv(i) - 1] for i in range(1, r + 1))
                permuted_ys = tuple(ys[pi_inv(i) - 1] for i in range(1, r + 1))
                cable = group.operad_mu(h, [group.identity(k) for k in ks])
                left = register((r, ks, x.action(r, head, h), ys, g))
                right = register((r, permuted_ks, head, permuted_ys, group.multiply(cable, g)))
                uf.unite(left, right)
            for gs in itertools.product(*(group.elements(k) for k in ks)):
                block = group.operad_mu(group.identity(r), list(gs))
                left = register((r, ks, head, ys, group.multiply(block, g)))
                acted = tuple(y.action(k, label, gi) for k, label, gi in zip(ks, ys, gs))
                right = register((r, ks, head, acted, g))
                uf.unite(left, right)

        canonical.extend((state, states[uf.find(key)]) for key, state in states.items())
        classes_by_arity[n] = [states[root] for root in sorted({uf.find(key) for key in states})]
    return classes_by_arity, canonical


def reference_free_algebra(p, carrier, bound):
    """The per-state free-algebra quotient: (classes_by_arity, canonical) as (label, items) pairs."""
    classes_by_arity = {}
    canonical = {}
    for n in range(bound + 1):
        states = [(label, xs) for label in p.labels(n) for xs in itertools.product(carrier, repeat=n)]
        uf = _UnionFind()
        for state in states:
            uf.add(state)
        for label, xs in states:
            for g in p.group.elements(n):
                mate = (p.action(n, label, g), tuple(act_on_list(p.group.project(g).inverse(), xs)))
                uf.unite((label, xs), mate)
        roots = {state: uf.find(state) for state in states}
        for state, root in roots.items():
            canonical[state] = root
        classes_by_arity[n] = sorted(set(roots.values()))
    return classes_by_arity, canonical


def assert_the_reference_product(product, x, y, bound):
    """
    The product has the reference's classes, and its canonical gives the
    reference's representative at every state the reference lists.
    """
    classes, canonical = reference_compose_collections(x, y, bound)
    assert product.classes_by_arity == classes
    for state, representative in canonical:
        assert product.canonical(state) == representative, state


def assert_the_reference_free_algebra(free, p, carrier, bound):
    """
    The free algebra has the reference's classes, and its canonical gives
    the reference's representative at every state the reference lists.
    """
    classes, canonical = reference_free_algebra(p, carrier, bound)
    assert {n: [(c.label, c.items) for c in cs] for n, cs in free.classes_by_arity.items()} == classes
    for (label, xs), root in canonical.items():
        assert free.canonical(label, xs) == root, (label, xs)


# ------------------------------------------------------------ collections


# One subgroup K of Σ_n per conjugacy class of subgroups, by the images of
# its generators: Σ_0..Σ_4 have 1, 1, 2, 4 and 11 classes.  Primes mark
# the class of the same isomorphism type that is not first listed: C2' is
# generated by a double transposition, and V4' is the non-normal Klein group.
SUBGROUPS = {
    0: {"1": []},
    1: {"1": []},
    2: {"1": [], "S2": [(2, 1)]},
    3: {"1": [], "C2": [(2, 1, 3)], "A3": [(2, 3, 1)], "S3": [(2, 1, 3), (1, 3, 2)]},
    4: {
        "1": [],
        "C2": [(2, 1, 3, 4)],
        "C2'": [(2, 1, 4, 3)],
        "C3": [(2, 3, 1, 4)],
        "C4": [(2, 3, 4, 1)],
        "V4": [(2, 1, 4, 3), (3, 4, 1, 2)],
        "V4'": [(2, 1, 3, 4), (1, 2, 4, 3)],
        "S3": [(2, 1, 3, 4), (1, 3, 2, 4)],
        "D4": [(2, 3, 4, 1), (3, 2, 1, 4)],
        "A4": [(2, 3, 1, 4), (2, 1, 4, 3)],
        "S4": [(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)],
    },
}


def _subgroup(group, n, images):
    """The subgroup of G(n) generated by the permutations with these images."""
    generators = [Permutation(image) for image in images]
    subgroup = {group.identity(n)}
    while grown := {group.multiply(k, s) for k in subgroup for s in generators} - subgroup:
        subgroup |= grown
    return frozenset(subgroup)


def _orbit(group, n, kind, prefix):
    """
    Labels and action of one orbit: 'trivial' (a point), 'sign' (two
    points), 'regular' (G(n)), or, for a name in SUBGROUPS[n] over the
    symmetric groups, G(n)/K: the right cosets K g of that subgroup, each
    labelled by its least element, on which h acts by K g -> K g h.  The
    regular orbit is G(n)/1.
    """
    if kind == "trivial":
        return (f"{prefix}",), lambda label, g: label
    if kind == "sign":
        flip = {f"{prefix}+": f"{prefix}-", f"{prefix}-": f"{prefix}+"}

        def sign(label, g):
            return flip[label] if inversions(group.project(g)) % 2 else label

        return tuple(flip), sign
    subgroup = _subgroup(group, n, SUBGROUPS[n][kind] if kind != "regular" else [])
    elements = group.elements(n)
    rank = {g: i for i, g in enumerate(elements)}
    label_of = {g: f"{prefix}{group.describe(min((group.multiply(k, g) for k in subgroup), key=rank.get))}" for g in elements}
    by_label = {label: g for g, label in label_of.items()}

    def coset(label, g):
        return label_of[group.multiply(by_label[label], g)]

    return tuple(by_label), coset


def orbit_collection(name, group, orbits):
    """A collection whose level n is the disjoint union of the orbits listed for n."""
    levels = {}
    actions = {}
    for n, kinds in orbits.items():
        labels = []
        for index, kind in enumerate(kinds):
            orbit_labels, act = _orbit(group, n, kind, f"{name}{n}{kind[0]}{index}:")
            labels.extend(orbit_labels)
            actions.update((label, act) for label in orbit_labels)
        levels[n] = tuple(labels)
    return FiniteGCollection(name, group, levels, lambda n, label, g: actions[label](label, g))


def _unit_only_document():
    """The symmetric-group operad whose only operation is its unit, I."""
    unit_only = FiniteGOperad(
        "unit", GROUPS["symmetric"], {0: (), 1: ("1",)}, unit="1",
        action=lambda n, label, g: label, compose=lambda *key: "1", max_arity=1,
    )
    return write_operad_document(unit_only)


def packaged(name):
    if name == "unit":
        return load_operad(_unit_only_document(), name=name)
    return load_operad(json.loads((DATA / f"{name}.json").read_text()), name=name)


@st.composite
def collections(draw, group, name, arities):
    # Every G(n)/K over the symmetric groups; a regular orbit of arity 3 has
    # six labels, so one orbit there and above is enough.
    orbits = {}
    for n in arities:
        cosets = sorted(SUBGROUPS[n]) if group.name == "symmetric" else []
        kinds = st.sampled_from(["trivial", "sign", "regular", *cosets])
        orbits[n] = draw(st.lists(kinds, max_size=1 if n >= 3 else 2))
    return orbit_collection(name, group, orbits)


# ------------------------------------------------------ property tests


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_compose_collections_matches_the_reference(group_name, data):
    group = GROUPS[group_name]
    x = data.draw(collections(group, "x", range(4)), label="x")
    y = data.draw(collections(group, "y", range(3)), label="y")
    bound = data.draw(st.integers(0, BOUND), label="bound")
    assert_the_reference_product(compose_collections(x, y, bound), x, y, bound)


PACKAGED_PAIRS = [
    ("ass", "ass"), ("ass", "comm"), ("comm", "ass"), ("comm", "comm"),
    ("comm_trivial", "comm_trivial"), ("unit", "ass"), ("ass", "unit"),
]


@pytest.mark.parametrize("left, right", PACKAGED_PAIRS)
def test_packaged_composites_match_the_reference(left, right):
    x, y = packaged(left), packaged(right)
    assert_the_reference_product(compose_collections(x, y, BOUND), x, y, BOUND)


@pytest.mark.parametrize("left, right", PACKAGED_PAIRS)
def test_the_state_count_is_the_number_of_states_enumerated(left, right):
    x, y = packaged(left), packaged(right)
    for bound in range(BOUND + 2):
        assert composite_states(x, y, bound) == sum(1 for n in range(bound + 1) for _ in reference_states(x, y, n))


@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_unit_composites_match_the_reference(group_name):
    group = GROUPS[group_name]
    unit = unit_collection(group)
    x = orbit_collection("x", group, {0: ["trivial"], 2: ["regular", "sign"], 3: ["sign"]})
    for left, right in ((unit, x), (x, unit)):
        assert_the_reference_product(compose_collections(left, right, BOUND), left, right, BOUND)


def _orbit_operad(collection):
    """A collection dressed as an operad for `free_algebra`, which reads only labels and actions."""
    return FiniteGOperad(
        collection.name, collection.group, collection.levels, unit="",
        action=collection.action, compose=lambda *key: "", max_arity=max(collection.levels),
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_free_algebra_matches_the_reference(group_name, data):
    group = GROUPS[group_name]
    p = _orbit_operad(data.draw(collections(group, "p", range(4)), label="p"))
    carrier = data.draw(st.permutations("abc").map(tuple), label="carrier")
    carrier = carrier[: data.draw(st.integers(0, 3), label="size")]
    bound = data.draw(st.integers(0, BOUND), label="bound")
    assert_the_reference_free_algebra(free_algebra(p, carrier, bound), p, carrier, bound)


@pytest.mark.parametrize("name", ["ass", "comm", "comm_trivial"])
def test_packaged_free_algebras_match_the_reference(name):
    p = packaged(name)
    assert_the_reference_free_algebra(free_algebra(p, ("b", "a"), BOUND), p, ("b", "a"), BOUND)


@pytest.mark.parametrize("name", FINITE)
def test_the_finite_operads_match_the_references(name):
    # Each operad of the law tests over a finite group, composed with itself
    # and freely generated on two points.
    p = OPERADS[name]()
    bound = min(p.max_arity, BOUND)
    assert_the_reference_product(compose_collections(p, p, bound), p, p, bound)
    assert_the_reference_free_algebra(free_algebra(p, ("b", "a"), bound), p, ("b", "a"), bound)


# Past arity 3, moving along generators does much less work than uniting
# along every element: n - 1 generators against n! elements.
LARGE_FREE_ALGEBRAS = {
    "comm/symmetric 5 on 3, bound 5": (lambda: operad_comm(GROUPS["symmetric"], max_arity=5), 5),
    "ass 4 on 3, bound 4": (lambda: operad_ass(4), 4),
}


@pytest.mark.parametrize("name", sorted(LARGE_FREE_ALGEBRAS))
def test_free_algebras_past_arity_three_match_the_reference(name):
    build, bound = LARGE_FREE_ALGEBRAS[name]
    p = build()
    assert_the_reference_free_algebra(free_algebra(p, ("c", "a", "b"), bound), p, ("c", "a", "b"), bound)


# ------------------------------------------------------ the cartesian theorem


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_the_pointwise_criterion_agrees_with_the_pullback_square(group_name, data):
    # An operad is cartesian iff its actions are nearly free: no label is
    # fixed by an element with a nontrivial permutation.  Both sides read
    # only labels and actions, so orbit operads cover every mix of
    # transitive G(n)-sets G(n)/K up to arity 4, and of the sign orbit.  In
    # a mix the first arity whose class counts differ need not be 2, and the
    # witness found there must be the one of the four free algebras.
    p = _orbit_operad(data.draw(collections(GROUPS[group_name], "p", range(5)), label="p"))
    found = outcome(lambda: pullback_witness_test(p))
    assert found == outcome(lambda: reference_pullback_witness_test(p))
    assert cartesian_condition(p)[0] == found[1][0]


@pytest.mark.parametrize("n, kind", [(n, kind) for n in SUBGROUPS for kind in SUBGROUPS[n]])
def test_the_pointwise_criterion_agrees_on_every_transitive_symmetric_set(n, kind):
    # Every transitive Σ_n-set is G(n)/K for one K of SUBGROUPS[n] up to
    # isomorphism.  The label K g is fixed by g^-1 K g, and the symmetric
    # groups project injectively, so the orbit is cartesian iff K is 1.
    p = _orbit_operad(orbit_collection("p", GROUPS["symmetric"], {n: [kind]}))
    found = outcome(lambda: pullback_witness_test(p))
    assert found == outcome(lambda: reference_pullback_witness_test(p))
    assert cartesian_condition(p)[0] == found[1][0] == (kind == "1")


def test_the_subgroups_are_one_per_conjugacy_class():
    # Every subgroup of Σ_n for n <= 4 is generated by two elements.
    group = GROUPS["symmetric"]
    for n, named in SUBGROUPS.items():
        elements = group.elements(n)

        def conjugacy_class(subgroup):
            return frozenset(frozenset(g.inverse() * k * g for k in subgroup) for g in elements)

        pairs = itertools.combinations_with_replacement([g.image for g in elements], 2)
        classes = {conjugacy_class(_subgroup(group, n, pair)) for pair in pairs}
        listed = [conjugacy_class(_subgroup(group, n, images)) for images in named.values()]
        assert len(listed) == len(classes) and set(listed) == classes, n


# The endomorphism operads the generated sub-operads live in, built once:
# over {a} every level holds one function, over {a,b} arity 2 holds 16.
ENDOMORPHISMS = {
    (carrier, group_name): endomorphism_operad(carrier, GROUPS[group_name], max_arity=3 if len(carrier) == 1 else 2)
    for carrier in [("a",), ("a", "b")]
    for group_name in GROUPS
}


def generated_sub_operad(e: FiniteGOperad, generators: Sequence[tuple[int, str]]) -> FiniteGOperad:
    """
    The least sub-operad of e within its bound holding the unit and the
    generators (arity, label): their closure under e's action and
    substitution, with e's tables.
    """
    group = e.group
    levels = {n: set() for n in range(e.max_arity + 1)}
    levels[1].add(e.unit)
    for n, label in generators:
        levels[n].add(label)
    size = 0
    while size != sum(map(len, levels.values())):
        size = sum(map(len, levels.values()))
        for n, labels in levels.items():
            labels.update([e.action(n, label, g) for label in labels for g in group.elements(n)])
        for n, ks in _signatures(e.max_arity, range(e.max_arity + 1)):
            found = [
                e.compose(n, ks, head, args)
                for head in levels[n]
                for args in itertools.product(*(levels[k] for k in ks))
            ]
            levels[sum(ks)].update(found)
    return FiniteGOperad(
        name=f"generated by {list(generators)} in {e.name}",
        group=group,
        levels={n: tuple(sorted(labels)) for n, labels in levels.items()},
        unit=e.unit,
        action=e.action,
        compose=e.compose,
        max_arity=e.max_arity,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("carrier", [("a",), ("a", "b")])
@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_the_pointwise_criterion_agrees_on_generated_sub_operads(group_name, carrier, data):
    # Sub-operads of an endomorphism operad mix fixed operations (constant
    # and symmetric functions) with free ones (projections) as substitution
    # and the action generate them, not as orbits are drawn.
    # Over the symmetric groups the drawn operad may also be pulled back
    # along trivial -> symmetric, which fixes nothing and so is cartesian.
    e = ENDOMORPHISMS[carrier, group_name]
    operations = [(n, label) for n in range(e.max_arity + 1) for label in e.labels(n)]
    generators = data.draw(st.lists(st.sampled_from(operations), min_size=1, max_size=3), label="generators")
    p = generated_sub_operad(e, generators)
    if group_name == "symmetric" and data.draw(st.booleans(), label="pulled back to the trivial groups"):
        p = forget_the_action(p)
    assert cartesian_condition(p)[0] == pullback_witness_test(p)[0]


def forget_the_action(p: FiniteGOperad) -> FiniteGOperad:
    """The pullback of p along the trivial groups -> the symmetric groups."""
    symmetric = GROUPS["symmetric"]
    return change_groups(symmetric.identity, GROUPS["trivial"], p)


PACKAGED = {name: json.loads((DATA / f"{name}.json").read_text()) for name in ("ass", "comm", "comm_trivial")}


@pytest.mark.parametrize(
    "name, bound, pulled_back",
    [
        (name, bound, pulled_back)
        for name, document in PACKAGED.items()
        for bound in range(document["max_arity"] + 1)
        for pulled_back in ([False, True] if document["group"] == "symmetric" else [False])
    ],
)
def test_the_pointwise_criterion_agrees_on_truncated_documents(name, bound, pulled_back):
    # Every truncation of each packaged document, and for those over the
    # symmetric groups also its pullback to the trivial groups.
    p = _truncate(load_operad(PACKAGED[name], name), bound)
    if pulled_back:
        p = forget_the_action(p)
    assert cartesian_condition(p)[0] == pullback_witness_test(p)[0]


# ------------------------------------------------------ failure modes


def _escaping(name):
    """Level 2 is {a, b}, but the swap sends a outside it, to z."""
    sym = GROUPS["symmetric"]

    def action(n, label, g):
        if sym.project(g).image == (2, 1):
            return {"a": "z", "b": "a"}[label]
        return label

    return FiniteGCollection(name, sym, {2: ("a", "b")}, action)


def test_an_action_leaving_its_level_is_an_error():
    sym = GROUPS["symmetric"]
    unit = unit_collection(sym)
    with pytest.raises(ValueError, match=r"^x: the action at arity 2 sends 'a' to 'z', outside its level$"):
        compose_collections(_escaping("x"), unit, 2)
    with pytest.raises(ValueError, match=r"^y: the action at arity 2 sends 'a' to 'z', outside its level$"):
        compose_collections(unit, _escaping("y"), 2)


def test_an_action_that_is_not_a_right_action_is_an_error():
    # A regular orbit of arity 3 whose table is wrong at one element that is
    # not a generator, the 3-cycle 2 3 1: its outputs on the first two
    # labels are swapped, so every value stays inside the level.
    sym = GROUPS["symmetric"]
    regular = orbit_collection("x", sym, {3: ["regular"]})
    labels = regular.labels(3)
    cycle = Permutation((2, 3, 1))

    def action(n, label, g):
        if g == cycle and label in labels[:2]:
            label = labels[1 - labels.index(label)]
        return regular.action(n, label, g)

    message = (
        "^{}: the action at arity 3 is not a right action: 'x3r0:1 2 3' goes to "
        "'x3r0:2 3 1' under 2 1 3 then 1 3 2, but to 'x3r0:3 2 1' under their product 2 3 1$"
    )
    unit = unit_collection(sym)
    with pytest.raises(ValueError, match=message.format("x")):
        compose_collections(FiniteGCollection("x", sym, regular.levels, action), unit, BOUND)
    with pytest.raises(ValueError, match=message.format("y")):
        compose_collections(unit, FiniteGCollection("y", sym, regular.levels, action), BOUND)


def test_an_identity_that_moves_a_label_is_an_error():
    sym = GROUPS["symmetric"]
    moved = FiniteGCollection("x", sym, {2: ("a", "b")}, lambda n, label, g: {"a": "b", "b": "a"}[label])
    with pytest.raises(
        ValueError,
        match=r"^x: the action at arity 2 is not a right action: the identity 1 2 sends 'a' to 'b'$",
    ):
        compose_collections(moved, unit_collection(sym), 2)


def test_generators_that_reach_part_of_the_group_decide_nothing():
    # With the first transposition alone, the generators of Sigma_3 reach 2
    # of its 6 elements.  Uniting along them would leave the quotient too
    # fine, and a law decided on them would be proved on that subgroup only,
    # so the quotient refuses the level and check_operad walks every element
    # at arity 3 and up.  Sigma_2 and below are still decided, since the one
    # transposition generates Sigma_2.
    sym = GROUPS["symmetric"]
    first = dataclasses.replace(sym, generators=lambda n: sym.generators(n)[:1])
    message = "^x: the action at arity 3 is not decided on generators: they reach 2 of the 6 elements$"
    x = FiniteGCollection("x", first, {3: ("*",)}, lambda n, label, g: label)
    with pytest.raises(ValueError, match=message):
        compose_collections(x, unit_collection(first), 3)

    def products(group) -> list[set]:
        """Per arity up to 4, the pairs (g, h) that check_operad multiplies on comm over group."""
        pairs: list[set] = [set() for _ in range(5)]
        counting = dataclasses.replace(group, multiply=lambda g, h: pairs[g.n].add((g, h)) or group.multiply(g, h))
        assert check_operad(operad_comm(counting, max_arity=4)).ok
        return pairs

    def cables(group) -> int:
        """The operad_mu calls of check_operad on comm up to arity 4 over group."""
        calls = []
        counting = dataclasses.replace(group, operad_mu=lambda g, fs: calls.append(g) or group.operad_mu(g, fs))
        assert check_operad(operad_comm(counting, max_arity=4)).ok
        return len(calls)

    # Action composition multiplies every pair at arities 3 and 4, as for a
    # group that lists no generators, whose laws are walked, and at arity 2
    # and below only the pairs of the precondition, as over Sigma itself.
    walked, partial, decided = products(dataclasses.replace(sym, generators=None)), products(first), products(sym)
    assert partial[3:] == walked[3:] != decided[3:]
    assert partial[:3] == decided[:3] != walked[:3]
    # The equivariance laws walk every signature that reads arity 3 or 4.
    assert cables(sym) < cables(first) < cables(dataclasses.replace(sym, generators=None))


@pytest.mark.parametrize("name", ["ass", "comm_trivial"])
@pytest.mark.parametrize("removed, duplicated", [(0, 1), (5, 5), (-1, 0)])
def test_a_missing_compose_record_is_named_despite_a_duplicate(name, removed, duplicated):
    # The duplicate keeps the record count unchanged, so only the missing
    # key can tell the table is incomplete.
    document = json.loads((DATA / f"{name}.json").read_text())
    records = document["compose"]
    gone = records.pop(removed)
    records.append(dict(records[duplicated]))
    message = f"compose: missing entry for n={gone['n']}, ks={gone['ks']}, args={gone['args']}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_operad(document)


# ------------------------------------------------------ refusals


def test_the_free_canonical_refuses_what_the_algebra_does_not_hold():
    # canonical is computed from the quotient, not looked up in a table of
    # every state, so it must refuse each outsider itself, with the message
    # of the table's missing key.
    p = packaged("ass")
    free = free_algebra(p, ("b", "a"), 2)
    small = _restrict(free, _truncate(p, 1))
    outsiders = [
        (free, "21", ("a",)),           # a label of level 2 at arity 1
        (free, "12", ("a", "c")),       # an item outside the carrier
        (free, "123", ("a", "b", "a")), # arity 3, above the bound 2
        (small, "12", ("a", "b")),      # arity 2, above the restriction's bound 1
        (small, "12", ()),              # a label of level 2 at arity 0
    ]
    for algebra, label, items in outsiders:
        with pytest.raises(ValueError) as caught:
            algebra.canonical(label, items)
        assert str(caught.value) == f"unknown free-algebra element ({label!r}; {list(items)})"
    assert free.canonical("21", ("a", "b")) == ("12", ("b", "a"))
    assert small.canonical("1", ("a",)) == ("1", ("a",))


def test_the_composite_canonical_refuses_what_the_product_does_not_hold():
    e = GROUPS["symmetric"].identity
    product = compose_collections(packaged("ass"), packaged("comm"), 2)
    outsiders = [
        (2, (1, 1), "1", ("*", "*"), e(2)),       # the head "1" of level 1 in slot 2
        (1, (2,), "1", ("12",), e(2)),            # an argument outside comm's level 2
        (1, (3,), "1", ("*",), e(3)),             # arity 3, above the bound 2
        (2, (1, 1), "12", ("*", "*"), e(3)),      # an element of G(3) at arity 2
        (2, (1, 1), "12", ("*", "*", "*"), e(2)), # more arguments than slots
        (1, (1, 1), "1", ("*", "*"), e(2)),       # more slots than the head's arity
    ]
    for state in outsiders:
        with pytest.raises(ValueError) as caught:
            product.canonical(state)
        assert str(caught.value) == f"unknown composite tuple {product.describe_state(state)}"
    assert product.canonical((2, (1, 1), "21", ("*", "*"), e(2))) in product.classes(2)


# ------------------------------------------------------ call-count guard


def test_compose_collections_cables_once_per_move():
    sym = GROUPS["symmetric"]
    calls = []

    def counted_mu(g, fs):
        calls.append(g)
        return sym.operad_mu(g, fs)

    counting = dataclasses.replace(sym, operad_mu=counted_mu)
    ass = operad_ass(3)
    x = FiniteGCollection("ass", counting, ass.levels, ass.action)
    unit = unit_collection(counting)
    calls.clear()
    compose_collections(x, unit, BOUND)
    # One cable per h in G(r) and one block per gs in prod G(k_i), for each
    # signature (r; ks) with sum(ks) <= BOUND: the per-state loop made one
    # per state and move instead.
    moves = sum(
        math.factorial(r) + math.prod(math.factorial(k) for k in ks)
        for r in x.arities()
        for ks in itertools.product(unit.arities(), repeat=r)
        if sum(ks) <= BOUND
    )
    assert 0 < len(calls) <= moves
