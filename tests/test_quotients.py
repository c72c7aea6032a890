"""
The orbit quotients `compose_collections` and `free_algebra` against slow
references, and the two pullback criteria against each other.

Both constructions are views of one quotient, which numbers its states by
mixed radix and unites them along group generators only; the free algebra
is the composition product with the carrier in arity 0.  The references
below are the earlier per-state loops, kept verbatim up to naming, with
the tuple-keyed union-find they ran on: every tuple is registered and
related to its mates one group element at a time, for every element.
Property tests compare classes and canonical maps exactly on small
collections built from regular, trivial and sign orbits and from the
packaged operads and the unit-only operad, over the trivial and symmetric
groups, and require `cartesian_condition` and `pullback_witness_test` to
give the same verdict on the orbit collections dressed as operads.
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
from operadics.free_monad import cartesian_condition, free_algebra, pullback_witness_test
from operadics.g_operads import (
    FiniteGCollection,
    FiniteGOperad,
    compose_collections,
    composite_states,
    load_operad,
    operad_ass,
    operad_comm,
    unit_collection,
    write_operad_document,
)
from operadics.permutations import Permutation, act_on_list, inversions

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"
BOUND = 3
GROUPS = {"trivial": instance_trivial(), "symmetric": instance_symmetric()}


# ------------------------------------------------------------ references


class _UnionFind:
    """Disjoint sets whose root is always the least member of its class."""

    def __init__(self):
        self._parent: dict = {}

    def add(self, item) -> None:
        self._parent.setdefault(item, item)

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def unite(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


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


def reference_compose_collections(x, y, bound):
    """The per-state composition product: (classes_by_arity, canonical)."""
    group = x.group
    y_arities = [n for n in range(bound + 1) if y.labels(n)]
    classes_by_arity = {}
    canonical = {}

    for n in range(bound + 1):
        uf = _UnionFind()
        states = {}

        def register(state):
            key = _reference_key(group, state)
            states.setdefault(key, state)
            uf.add(key)
            return key

        for r in sorted(m for m in x.levels if x.labels(m)):
            for ks in _compositions(n, y_arities, r):
                for head in x.labels(r):
                    for ys in itertools.product(*(y.labels(k) for k in ks)):
                        for g in group.elements(n):
                            register((r, ks, head, ys, g))

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

        for key in states:
            canonical[key] = states[uf.find(key)]
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


# ------------------------------------------------------------ collections


def _orbit(group, n, kind, prefix):
    """Labels and action of one orbit: 'trivial' (a point), 'sign' (two points) or 'regular' (G(n))."""
    if kind == "trivial":
        return (f"{prefix}",), lambda label, g: label
    if kind == "sign":
        flip = {f"{prefix}+": f"{prefix}-", f"{prefix}-": f"{prefix}+"}

        def sign(label, g):
            return flip[label] if inversions(group.project(g)) % 2 else label

        return tuple(flip), sign
    by_label = {f"{prefix}{group.describe(g)}": g for g in group.elements(n)}

    def regular(label, g):
        return f"{prefix}{group.describe(group.multiply(by_label[label], g))}"

    return tuple(by_label), regular


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


_KINDS = st.sampled_from(["trivial", "sign", "regular"])


@st.composite
def collections(draw, group, name, arities):
    # A regular orbit of arity 3 has six labels; one orbit there is enough.
    orbits = {n: draw(st.lists(_KINDS, max_size=1 if n == 3 else 2)) for n in arities}
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
    product = compose_collections(x, y, bound)
    classes, canonical = reference_compose_collections(x, y, bound)
    assert product.classes_by_arity == classes
    assert product._canonical == canonical


PACKAGED_PAIRS = [
    ("ass", "ass"), ("ass", "comm"), ("comm", "ass"), ("comm", "comm"),
    ("comm_trivial", "comm_trivial"), ("unit", "ass"), ("ass", "unit"),
]


@pytest.mark.parametrize("left, right", PACKAGED_PAIRS)
def test_packaged_composites_match_the_reference(left, right):
    x, y = packaged(left), packaged(right)
    product = compose_collections(x, y, BOUND)
    classes, canonical = reference_compose_collections(x, y, BOUND)
    assert product.classes_by_arity == classes
    assert product._canonical == canonical


@pytest.mark.parametrize("left, right", PACKAGED_PAIRS)
def test_the_state_count_is_the_number_of_states_enumerated(left, right):
    x, y = packaged(left), packaged(right)
    for bound in range(BOUND + 2):
        assert composite_states(x, y, bound) == len(compose_collections(x, y, bound)._canonical)


@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_unit_composites_match_the_reference(group_name):
    group = GROUPS[group_name]
    unit = unit_collection(group)
    x = orbit_collection("x", group, {0: ["trivial"], 2: ["regular", "sign"], 3: ["sign"]})
    for left, right in ((unit, x), (x, unit)):
        product = compose_collections(left, right, BOUND)
        assert (product.classes_by_arity, product._canonical) == reference_compose_collections(left, right, BOUND)


def _orbit_operad(collection):
    """A collection dressed as an operad for `free_algebra`, which reads only labels and actions."""
    return FiniteGOperad(
        collection.name, collection.group, collection.levels, unit="",
        action=collection.action, compose=lambda *key: "", max_arity=BOUND,
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
    free = free_algebra(p, carrier, bound)
    classes, canonical = reference_free_algebra(p, carrier, bound)
    assert {n: [(c.label, c.items) for c in cs] for n, cs in free.classes_by_arity.items()} == classes
    assert {state: (c.label, c.items) for state, c in free._canonical.items()} == canonical


@pytest.mark.parametrize("name", ["ass", "comm", "comm_trivial"])
def test_packaged_free_algebras_match_the_reference(name):
    p = packaged(name)
    free = free_algebra(p, ("b", "a"), BOUND)
    classes, canonical = reference_free_algebra(p, ("b", "a"), BOUND)
    assert {n: [(c.label, c.items) for c in cs] for n, cs in free.classes_by_arity.items()} == classes
    assert {state: (c.label, c.items) for state, c in free._canonical.items()} == canonical


# Past arity 3, uniting along generators does much less work than uniting
# along every element: n - 1 generators against n! elements.
LARGE_FREE_ALGEBRAS = {
    "comm/symmetric 5 on 3, bound 5": (lambda: operad_comm(GROUPS["symmetric"], max_arity=5), 5),
    "ass 4 on 3, bound 4": (lambda: operad_ass(4), 4),
}


@pytest.mark.parametrize("name", sorted(LARGE_FREE_ALGEBRAS))
def test_free_algebras_past_arity_three_match_the_reference(name):
    build, bound = LARGE_FREE_ALGEBRAS[name]
    p = build()
    free = free_algebra(p, ("c", "a", "b"), bound)
    classes, canonical = reference_free_algebra(p, ("c", "a", "b"), bound)
    assert {n: [(c.label, c.items) for c in cs] for n, cs in free.classes_by_arity.items()} == classes
    assert {state: (c.label, c.items) for state, c in free._canonical.items()} == canonical


# ------------------------------------------------------ the cartesian theorem


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group_name", ["trivial", "symmetric"])
def test_the_pointwise_criterion_agrees_with_the_pullback_square(group_name, data):
    # An operad is cartesian iff its actions are nearly free: no label is
    # fixed by an element with a nontrivial permutation.  Both sides read
    # only labels and actions, so orbit operads cover every mix of free
    # (regular), fixed (trivial) and half-fixed (sign) orbits.
    p = _orbit_operad(data.draw(collections(GROUPS[group_name], "p", range(4)), label="p"))
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
