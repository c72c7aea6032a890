"""
The law kernels of `check_operad`, `check_monad_laws`, `free_algebra`,
`pullback_witness_test` and `mu_sigma` against their earlier per-case
versions.

The kernels list each label product once per report, decide the two
associativity laws row by row and, over a finite group, the laws that range
over group elements on generators at every arity, and read each compose, action and
flattening value through a table that lives only for one call.  The
references below are the earlier loops, kept verbatim up to naming, which
redo that work for every case and walk every group element, the
collection laws and constancy on classes included; the reference
pullback test builds its four free algebras separately and pushes each
class once per pair it meets.  Hypothesis draws the packaged documents
and operads made by `operad_ass`, `operad_comm` and `endomorphism_operad`,
and changes one compose or action entry by rebinding `p.compose` or
`p.action`, so both sides see the fault.  Every law must give the same
verdict, case count and witness, or both sides the same error; the free
algebras must have the same classes and canonical maps, and the pullback
tests the same verdict and witness.  A fault that leaves no right action
inside its level (decided by `is_right_action`) must instead make
`free_algebra` and `check_monad_laws` raise a `ValueError`.  An inner
composite outside its level, which hypothesis may not draw, must raise the
same error after the same cases, and so must a composite outside its level
whose row raises while a signature is decided by rows, and on comm.json,
whose one-label levels decide every group unwalked, an entry outside its
level that a later read composes with.  Faults that only
an element outside the generators shows must be walked to the loops'
result: an action entry of a cycle, a compose entry that the operad-slot
law first reads at a rearranged signature, and a composite outside its
level that the generators fix.  Every single-entry fault of nine of the
operads, each entry answering each other label of its level or a label
outside every level, is listed with no draw and must give the loops'
outcome; those of ass.json are listed in `exhaustive_faults.py`, run by
path.  So must every action fault of those nine operads and ass.json
give `check_collection` the per-case outcome, and every single-entry fault
of the eight over a finite group but ass.json give the monad laws theirs
(ass.json's are in `exhaustive_faults.py`).  Every fault of `ACTION_FAULTS`
leaves no right action, and must make `free_algebra` and
`pullback_witness_test` raise the same located `ValueError`.
A symmetric group that lists no generators fails the right-action
precondition: the laws walk its elements to the loops' result, and the
orbit quotients refuse its first level with a `ValueError` naming the
collection and the arity.  Over the braid groups every law, in both slots, reads one distinct
sample per arity, and the reference walks the same distinct samples:
one compose or action entry of comm that `check_operad` reads answers a
label outside its level, at every key up to arity 2, at keys up to arity 3
drawn by hypothesis, and at elements the seeded draw repeats, the first new
one after a repeat and the block sum of such an argument tuple, and every
law must give the per-case walk's result; at the repeated elements the
verdicts and witnesses must also be those of a walk of every draw, repeats
included.  `_group_samples` must be the raw draw with its repeats dropped,
in first-draw order, or every element of a finite group.  Burnside's
lemma counts the free algebras' classes in exact fractions, and its
per-orbit form decides the pullback square, as an oracle for
`free_algebra` and `pullback_witness_test` that builds no quotient.
Counting wrappers pin the savings: `check_operad` reads each compose and
action key of a packaged document once and makes at most 878 `operad_mu`
and 612 `multiply` calls on comm over the braid groups, one `pullback_witness_test`
checks the action of each level of P once, and one `check_monad_laws` runs
one orbit quotient.  The one-pass
`mu_sigma` must equal the composite of its two block factors, arity 0
included.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operadics import free_monad, g_operads
from operadics.action_operads import instance_braid, instance_symmetric, instance_trivial
from operadics.cli import MAX_FREE_STATES
from operadics.free_monad import (
    FreeAlgebra,
    FreeAlgebraClass,
    check_monad_laws,
    free_algebra,
    mult_mu,
    pullback_witness_test,
)
from operadics.g_operads import (
    FiniteGOperad,
    _signatures,
    _within,
    check_collection,
    check_operad,
    compose_collections,
    endomorphism_operad,
    load_operad,
    operad_ass,
    operad_comm,
    unit_collection,
)
from operadics.permutations import (
    Permutation,
    act_on_list,
    all_permutations,
    block_lift,
    block_sum,
    compose,
    mu_sigma,
)
from operadics.reporting import Report
from shared import _UnionFind

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"


# ------------------------------------------------------------ references


def _group_elements(group, n: int, budget: int, seed: int, distinct: bool = True) -> list[Any]:
    """
    Every element for finite groups, and for infinite ones the distinct
    elements among budget seeded draws in first-draw order, or every draw,
    repeats included, if not distinct.
    """
    if group.elements is not None:
        return list(group.elements(n))
    import random

    rng = random.Random(seed * 1000003 + n)
    draws = [group.sample(rng, n) for _ in range(budget)]
    return list(dict.fromkeys(draws)) if distinct else draws


def reference_check_collection(x, bound: int, *, budget: int = 25, seed: int = 9, distinct: bool = True) -> Report:
    """The right-action laws of x up to bound, every pair of elements walked."""
    report = Report(f"collection laws: {x.name}")
    group = x.group
    samples = {n: _group_elements(group, n, budget, seed, distinct) for n in range(bound + 1)}

    def typed() -> Iterator[str | None]:
        for n, gs in samples.items():
            for label in x.labels(n):
                for g in gs:
                    if x.action(n, label, g) not in x.labels(n):
                        yield f"n={n}, x={label}, g={group.describe(g)}"
                    yield None

    def unit() -> Iterator[str | None]:
        for n in samples:
            e = group.identity(n)
            for label in x.labels(n):
                yield None if x.action(n, label, e) == label else f"n={n}, x={label}"

    def composition() -> Iterator[str | None]:
        for n, gs in samples.items():
            for label in x.labels(n):
                for g, h in itertools.product(gs, repeat=2):
                    if x.action(n, x.action(n, label, g), h) != x.action(n, label, group.multiply(g, h)):
                        yield f"n={n}, x={label}, g={group.describe(g)}, h={group.describe(h)}"
                    yield None

    report.check("action stays inside each level", typed())
    report.check("action unit law", unit())
    report.check("action composition law", composition())
    return report


def reference_check_operad(
    p: FiniteGOperad, *, budget: int = 25, seed: int = 9, laws: Sequence[str] | None = None, distinct: bool = True
) -> Report:
    """
    Exhaustively verify the operad and equivariance laws within the bound:
    every law, or only those named in `laws`, over each distinct sample of
    an infinite group, or over every draw if not distinct.
    """
    group = p.group
    bound = p.max_arity
    labels = p.labels
    mu = p.compose
    act = p.action
    signatures = list(_signatures(bound, range(bound + 1)))
    report = Report(f"operad laws: {p.name}")
    # Each arity's group elements are listed once, for both slots, and each
    # element in the operad slot comes with the order pi(g)^-1 in which it
    # permutes the slots.
    elements = {n: _group_elements(group, n, budget, seed, distinct) for n in range(bound + 1)}
    slot_elements = {
        n: [(g, [j - 1 for j in group.project(g).inverse().image]) for g in gs]
        for n, gs in elements.items()
    }

    # Well-typedness: the unit, every substitution result, every action result.
    def typed() -> Iterator[str | None]:
        if p.unit not in labels(1):
            yield f"unit {p.unit!r} not in level 1"
        for n, ks in signatures:
            total = sum(ks)
            for head in labels(n):
                for args in itertools.product(*(labels(k) for k in ks)):
                    if mu(n, ks, head, args) not in labels(total):
                        yield f"mu result escapes level {total}: n={n}, ks={list(ks)}, p={head}, qs={list(args)}"
                    yield None
        for n, gs in elements.items():
            for head in labels(n):
                for g in gs:
                    if act(n, head, g) not in labels(n):
                        yield f"action escapes level {n}: p={head}, g={group.describe(g)}"
                    yield None

    # Unit laws, two cases per label.
    def unit() -> Iterator[str | None]:
        for n in range(bound + 1):
            for head in labels(n):
                yield None if mu(1, (n,), p.unit, (head,)) == head else f"mu(unit; {head}) != {head}"
                yield None if mu(n, (1,) * n, head, (p.unit,) * n) == head else f"mu({head}; unit...) != {head}"

    def associativity() -> Iterator[str | None]:
        for n, ks in signatures:
            total = sum(ks)
            starts = list(itertools.accumulate(ks, initial=0))
            for ls in _within(bound, total, range(bound + 1)):
                splits = [ls[a:b] for a, b in zip(starts, starts[1:])]
                inner_ks = tuple(sum(split) for split in splits)
                for head in labels(n):
                    for args in itertools.product(*(labels(k) for k in ks)):
                        composite = mu(n, ks, head, args)
                        for flats in itertools.product(*(labels(l) for l in ls)):
                            lhs = mu(total, ls, composite, flats)
                            inner = [
                                mu(len(split), split, arg, flats[a:b])
                                for split, arg, a, b in zip(splits, args, starts, starts[1:])
                            ]
                            if lhs != mu(n, inner_ks, head, inner):
                                yield (
                                    f"n={n}, ks={list(ks)}, ls={list(ls)}, p={head}, "
                                    f"qs={list(args)}, rs={list(flats)}"
                                )
                            yield None

    # Equivariance in the operad slot (the acting element cables up).
    def slot() -> Iterator[str | None]:
        for n, ks in signatures:
            total = sum(ks)
            for g, order in slot_elements[n]:
                permuted_ks = tuple(ks[j] for j in order)
                cable = group.operad_mu(g, [group.identity(k) for k in ks])
                for head in labels(n):
                    acted = act(n, head, g)
                    for args in itertools.product(*(labels(k) for k in ks)):
                        lhs = mu(n, ks, acted, args)
                        permuted_args = tuple(args[j] for j in order)
                        if lhs != act(total, mu(n, permuted_ks, head, permuted_args), cable):
                            yield (
                                f"n={n}, ks={list(ks)}, p={head}, qs={list(args)}, "
                                f"g={group.describe(g)}"
                            )
                        yield None

    # Equivariance in the argument slots (the acting elements block-sum up).
    def argument_slots() -> Iterator[str | None]:
        for n, ks in signatures:
            total = sum(ks)
            e = group.identity(n)
            blocks = [
                (gs, group.operad_mu(e, list(gs)))
                for gs in itertools.product(*(elements[k] for k in ks))
            ]
            for head in labels(n):
                for args in itertools.product(*(labels(k) for k in ks)):
                    composite = mu(n, ks, head, args)
                    for gs, block in blocks:
                        acted_args = tuple(act(k, arg, g) for k, arg, g in zip(ks, args, gs))
                        if mu(n, ks, head, acted_args) != act(total, composite, block):
                            yield (
                                f"n={n}, ks={list(ks)}, p={head}, qs={list(args)}, "
                                f"gs=[{', '.join(group.describe(g) for g in gs)}]"
                            )
                        yield None

    for law, cases in [
        ("tables are well-typed", typed),
        ("operad unit", unit),
        ("operad associativity", associativity),
        ("equivariance in the operad slot", slot),
        ("equivariance in the argument slots", argument_slots),
    ]:
        if laws is None or law in laws:
            report.check(law, cases())

    # The per-level right-action laws.
    collection_report = reference_check_collection(p, bound, budget=budget, seed=seed, distinct=distinct)
    report.results.extend(r for r in collection_report.results if laws is None or r.law in laws)
    return report


def reference_free_algebra(p: FiniteGOperad, carrier: Sequence[str], max_arity: int | None = None) -> tuple[dict, dict]:
    """
    The classes [p; x1..xn] for n up to the arity bound, by arity, and each
    state (label, items) with its class, by a union-find over every state.
    """
    if p.group.elements is None:
        raise ValueError("free-algebra classes need a finite group of equivariance")
    carrier = tuple(carrier)
    if len(set(carrier)) != len(carrier):
        raise ValueError("carrier elements must be distinct")
    bound = p.max_arity if max_arity is None else max_arity
    if bound > p.max_arity:
        raise ValueError(f"arity bound {bound} exceeds the operad's bound {p.max_arity}")

    classes_by_arity: dict[int, list[FreeAlgebraClass]] = {}
    canonical: dict[tuple[str, tuple[str, ...]], FreeAlgebraClass] = {}
    for n in range(bound + 1):
        labels = p.labels(n)
        tuples = list(itertools.product(carrier, repeat=n))
        states = [(label, xs) for label in labels for xs in tuples]
        uf = _UnionFind()
        for state in states:
            uf.add(state)
        # (p.g; xs) ~ (p; xs moved by pi(g)^-1), whose j-th entry is xs[pi(g)(j)].
        for g in p.group.elements(n):
            order = [i - 1 for i in p.group.project(g).image]
            moved = [tuple(xs[i] for i in order) for xs in tuples]
            for label in labels:
                acted = p.action(n, label, g)
                for xs, mate in zip(tuples, moved):
                    uf.unite((label, xs), (acted, mate))

        # A class is represented by its least member, which is its root.
        roots = {state: uf.find(state) for state in states}
        representatives = {root: FreeAlgebraClass(*root) for root in sorted(set(roots.values()))}
        for state, root in roots.items():
            canonical[state] = representatives[root]
        classes_by_arity[n] = list(representatives.values())

    return classes_by_arity, canonical


def free_algebra_by_state(p: FiniteGOperad, carrier: Sequence[str], max_arity: int | None = None) -> tuple[dict, dict]:
    """`free_algebra`'s classes, and its canonical at every state `reference_free_algebra` lists."""
    free = free_algebra(p, carrier, max_arity)
    _, canonical = reference_free_algebra(p, carrier, max_arity)
    return free.classes_by_arity, {state: free.canonical(*state) for state in canonical}


def is_right_action(p: FiniteGOperad, bound: int) -> bool:
    """
    Whether the action on every level up to bound stays inside it, fixes
    every label under the identity and satisfies x.(gh) = (x.g).h for all
    g and h: the precondition `free_algebra` checks and refuses with a
    `ValueError`.
    """
    group = p.group
    for n in range(bound + 1):
        labels = p.labels(n)
        elements = group.elements(n)
        for label in labels:
            if p.action(n, label, group.identity(n)) != label:
                return False
            for g in elements:
                acted = p.action(n, label, g)
                if acted not in labels:
                    return False
                if any(p.action(n, acted, h) != p.action(n, label, group.multiply(g, h)) for h in elements):
                    return False
    return True


def reference_monad_constancy(p: FiniteGOperad, free: FreeAlgebra) -> Iterator[str | None]:
    """The cases of "multiplication is constant on classes" on a free algebra of p, element by element."""
    group = p.group
    for n, label, inner in free_monad._nestings(free):
        value = mult_mu(free, label, inner)
        for g in group.elements(n):
            moved = tuple(act_on_list(group.project(g).inverse(), inner))
            if mult_mu(free, p.action(n, label, g), moved) != value:
                yield f"label={label}, inner={[str(c) for c in inner]}, g={group.describe(g)}"
            yield None


def reference_monad_associativity(p: FiniteGOperad, free: FreeAlgebra) -> Iterator[str | None]:
    """The associativity cases of `check_monad_laws` on a free algebra of p."""
    bound = free.max_arity

    # Associativity: a three-level nesting [q; [p_i; classes_i]] flattens
    # either middle-first (each [p_i; classes_i] collapses to one class)
    # or outer-first (q and the p_i merge, then one flattening).
    def associativity() -> Iterator[str | None]:
        pool = free.all_classes()
        arities = [c.arity for c in pool]
        for n, rs in _signatures(bound, range(bound + 1)):
            starts = list(itertools.accumulate(rs, initial=0))
            flats = _within(bound, starts[-1], pool, arities)
            for q in p.labels(n):
                for ps in itertools.product(*(p.labels(r) for r in rs)):
                    for flat in flats:
                        middle_first = mult_mu(
                            free,
                            q,
                            tuple(
                                mult_mu(free, head, flat[a:b])
                                for head, a, b in zip(ps, starts, starts[1:])
                            ),
                        )
                        outer_first = mult_mu(free, p.compose(n, rs, q, ps), flat)
                        if middle_first != outer_first:
                            yield f"q={q}, ps={list(ps)}, classes={[str(c) for c in flat]}"
                        yield None

    return associativity()


def reference_pullback_witness_test(p: FiniteGOperad, max_arity: int | None = None) -> tuple[bool, str]:
    """
    The transformation-level criterion on one concrete square: apply the
    free construction to the pullback of two two-element sets over a
    point and check, arity by arity, that classes of pairs biject with
    pairs of classes.  Returns (True, "") or (False, witness).
    """
    left = ("x1", "x2")
    right = ("y1", "y2")
    pairs = tuple(f"{u}{v}" for u in left for v in right)
    first = {f"{u}{v}": u for u in left for v in right}
    second = {f"{u}{v}": v for u in left for v in right}

    free_pairs = free_algebra(p, pairs, max_arity)
    free_left = free_algebra(p, left, max_arity)
    free_right = free_algebra(p, right, max_arity)
    free_point = free_algebra(p, ("z",), max_arity)

    def push(free_target, mapping, cls):
        return free_target.canonical(cls.label, tuple(mapping[x] for x in cls.items))

    collapse_left = {x: "z" for x in left}
    collapse_right = {y: "z" for y in right}

    for n in range(free_pairs.max_arity + 1):
        images = {}
        for cls in free_pairs.classes(n):
            image = (push(free_left, first, cls), push(free_right, second, cls))
            if image in images:
                return False, (
                    f"classes {images[image]} and {cls} both map to "
                    f"({image[0]}, {image[1]})"
                )
            images[image] = cls
        fiber_pairs = [
            (a, b)
            for a in free_left.classes(n)
            for b in free_right.classes(n)
            if push(free_point, collapse_left, a) == push(free_point, collapse_right, b)
        ]
        for pair in fiber_pairs:
            if pair not in images:
                return False, f"pair ({pair[0]}, {pair[1]}) has no class of pairs above it"
        if len(fiber_pairs) != len(images):
            return False, f"arity {n}: {len(images)} classes vs {len(fiber_pairs)} fiber pairs"
    return True, ""


def reference_mu_sigma(sigma: Permutation, taus: Sequence[Permutation]) -> Permutation:
    """
    Operadic composition in the symmetric groups: substitute tau_i into the
    i-th strand of sigma.  Twists first, block moves second.
    """
    if len(taus) != sigma.n:
        raise ValueError(f"operadic composition needs {sigma.n} arguments, got {len(taus)}")
    sizes = [tau.n for tau in taus]
    return compose(block_sum(taus), block_lift(sigma, sizes))


# ------------------------------------------------------------ operads

DOCUMENTS = {name: json.loads((DATA / f"{name}.json").read_text()) for name in ("ass", "comm", "comm_trivial")}

# Each factory builds a fresh operad, so a rebound entry never outlives its example.
OPERADS: dict[str, Callable[[], FiniteGOperad]] = {
    "ass.json": lambda: load_operad(DOCUMENTS["ass"], "ass"),
    "comm.json": lambda: load_operad(DOCUMENTS["comm"], "comm"),
    "comm_trivial.json": lambda: load_operad(DOCUMENTS["comm_trivial"], "comm_trivial"),
    "ass2": lambda: operad_ass(2),
    "comm/symmetric 3": lambda: operad_comm(instance_symmetric(), max_arity=3),
    "comm/symmetric 4": lambda: operad_comm(instance_symmetric(), max_arity=4),
    "comm/trivial 3": lambda: operad_comm(instance_trivial(), max_arity=3),
    "comm/braid 2": lambda: operad_comm(instance_braid(), max_arity=2),
    "endo {a} 2": lambda: endomorphism_operad(("a",), instance_symmetric(), max_arity=2),
    "endo {a,b} 1": lambda: endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=1),
}
# The operads over a finite group, which have free algebras.
FINITE = [name for name in OPERADS if "braid" not in name]


def entries(p: FiniteGOperad) -> tuple[list[tuple], list[tuple]]:
    """
    The compose entries of p, and the action entries if its group lists its
    elements, each as (key, level of its value), in signature and element
    order.
    """
    substitutions = [
        ((n, ks, head, args), p.labels(sum(ks)))
        for n, ks in _signatures(p.max_arity, range(p.max_arity + 1))
        for head in p.labels(n)
        for args in itertools.product(*(p.labels(k) for k in ks))
    ]
    actions = []
    if p.group.elements is not None:
        actions = [
            ((n, label, g), p.labels(n))
            for n in range(p.max_arity + 1)
            for label in p.labels(n)
            for g in p.group.elements(n)
        ]
    return substitutions, actions


@st.composite
def faulty_operads(draw, names: Sequence[str] = tuple(OPERADS), foreign: bool = True) -> FiniteGOperad:
    """
    An operad with one compose entry, or one action entry of a finite group,
    answering another label of its level, or with `foreign` also a label
    from outside every level.
    """
    p = OPERADS[draw(st.sampled_from(sorted(names)))]()
    substitutions, actions = entries(p)
    kinds = ["compose"] + (["action"] if actions else [])
    key, level = draw(st.sampled_from(substitutions if draw(st.sampled_from(kinds)) == "compose" else actions))
    value = draw(st.sampled_from([*level, "foreign"] if foreign else level))
    return rebind(p, key, value)


def single_entry_faults(name: str) -> list[tuple[tuple, str]]:
    """
    Every single-entry fault of OPERADS[name], listed with no draw: each
    entry of `entries`, answering in turn each other label of its level and
    then "foreign".
    """
    p = OPERADS[name]()
    substitutions, actions = entries(p)
    faults = []
    for read, listed in ((p.compose, substitutions), (p.action, actions)):
        for key, level in listed:
            right = read(*key)
            faults += [(key, value) for value in (*level, "foreign") if value != right]
    return faults


def rebind(p: FiniteGOperad, key: tuple, value: str) -> FiniteGOperad:
    """p with its compose entry (n, ks, head, args), or its action entry (n, label, g), answering value."""
    if len(key) == 4:
        original = p.compose

        def faulty_compose(n, ks, head, args):
            return value if (n, tuple(ks), head, tuple(args)) == key else original(n, ks, head, args)

        p.compose = faulty_compose
    else:
        original_action = p.action

        def faulty_action(n, label, g):
            return value if (n, label, g) == key else original_action(n, label, g)

        p.action = faulty_action
    return p


def outcome(run: Callable[[], Any]) -> tuple:
    """The value of run(), or the type and text of the error it raised."""
    try:
        return ("value", run())
    except (ValueError, KeyError, TypeError) as exc:
        return ("error", type(exc).__name__, str(exc))


def results(report: Report) -> list[tuple]:
    return [(r.law, r.passed, r.witness, r.checked) for r in report.results]


# ------------------------------------------------------------ the laws


@settings(max_examples=40, deadline=None)
@given(p=faulty_operads())
def test_check_operad_matches_the_per_case_loops(p):
    assert outcome(lambda: results(check_operad(p))) == outcome(
        lambda: results(reference_check_operad(p))
    )


def check_every_single_entry_fault(name: str) -> int:
    """
    Require, at every single-entry fault of OPERADS[name], the per-case
    loops' outcome from `check_operad`: each law's verdict, count and
    witness, or the same error.  Returns the number of faults.
    """
    faults = single_entry_faults(name)
    for key, value in faults:
        fast = outcome(lambda: results(check_operad(rebind(OPERADS[name](), key, value))))
        assert fast == outcome(lambda: results(reference_check_operad(rebind(OPERADS[name](), key, value)))), key
    return len(faults)


# The single-entry faults of each operad but ass.json, whose 1,735 take
# too long for Tier-1 and are run by `exhaustive_faults.py`.
SINGLE_ENTRY_FAULTS = {
    "comm.json": 160,
    "comm_trivial.json": 39,
    "ass2": 43,
    "comm/symmetric 3": 45,
    "comm/symmetric 4": 160,
    "comm/trivial 3": 39,
    "comm/braid 2": 10,
    "endo {a} 2": 14,
    "endo {a,b} 1": 104,
}


@pytest.mark.parametrize("name", SINGLE_ENTRY_FAULTS)
def test_every_single_entry_fault_is_reported_as_the_per_case_loops_report_it(name):
    # A decision on generators is exactly where one fault at one element
    # outside the generators could hide, so every fault is listed, not drawn.
    assert check_every_single_entry_fault(name) == SINGLE_ENTRY_FAULTS[name]


def reference_monad_laws(p: FiniteGOperad, carrier: Sequence[str], bound: int) -> list[tuple]:
    """Constancy on classes and associativity, as `check_monad_laws` reports them, by the per-case loops."""
    free = free_algebra(p, carrier, bound)
    reference = Report("reference")
    reference.check("multiplication is constant on classes", reference_monad_constancy(p, free))
    reference.check("associativity", reference_monad_associativity(p, free))
    return results(reference)


def monad_laws(p: FiniteGOperad, carrier: Sequence[str], bound: int) -> list[tuple]:
    """Constancy on classes and associativity as `check_monad_laws` reports them."""
    laws = ("multiplication is constant on classes", "associativity")
    return [result for result in results(check_monad_laws(p, carrier, max_arity=bound)) if result[0] in laws]


@settings(max_examples=25, deadline=None)
@given(p=faulty_operads(FINITE, foreign=False), carrier=st.sampled_from([("a",), ("a", "b"), ("b", "a")]))
def test_monad_laws_match_the_per_case_loops(p, carrier):
    bound = min(p.max_arity, 2 if len(carrier) > 1 else 3)
    if not is_right_action(p, bound):
        with pytest.raises(ValueError, match="not a right action"):
            check_monad_laws(p, carrier, max_arity=bound)
        return
    assert monad_laws(p, carrier, bound) == reference_monad_laws(p, carrier, bound)


# The action faults among the single-entry faults of each operad over a finite group.
ACTION_FAULTS = {
    "ass.json": 226,
    "comm.json": 34,
    "comm_trivial.json": 4,
    "ass2": 10,
    "comm/symmetric 3": 10,
    "comm/symmetric 4": 34,
    "comm/trivial 3": 4,
    "endo {a} 2": 4,
    "endo {a,b} 1": 20,
}


@pytest.mark.parametrize("name", ACTION_FAULTS)
def test_every_action_fault_gives_the_collection_laws_of_the_per_case_loops(name):
    # Action composition is decided on generators, so, as for check_operad,
    # every action fault is listed, not drawn.
    faults = [(key, value) for key, value in single_entry_faults(name) if len(key) == 3]
    for key, value in faults:
        fast = outcome(lambda: results(check_collection(rebind(OPERADS[name](), key, value))))
        p = rebind(OPERADS[name](), key, value)
        assert fast == outcome(lambda: results(reference_check_collection(p, p.max_arity))), key
    assert len(faults) == ACTION_FAULTS[name]


def check_every_single_entry_fault_of_the_monad_laws(name: str) -> int:
    """
    Require, at every single-entry fault of OPERADS[name], the per-case
    loops' monad laws on ("a", "b") at bound min(max_arity, 2), and a
    `ValueError` where the fault leaves no right action inside its level.
    Returns the number of faults.
    """
    bound = min(OPERADS[name]().max_arity, 2)
    faults = single_entry_faults(name)
    for key, value in faults:
        fast = outcome(lambda: monad_laws(rebind(OPERADS[name](), key, value), ("a", "b"), bound))
        reference = outcome(lambda: reference_monad_laws(rebind(OPERADS[name](), key, value), ("a", "b"), bound))
        assert fast == reference, key
        if not is_right_action(rebind(OPERADS[name](), key, value), bound):
            assert fast[:2] == ("error", "ValueError"), key
    return len(faults)


@pytest.mark.parametrize("name", [name for name in FINITE if name != "ass.json"])
def test_every_single_entry_fault_gives_the_monad_laws_of_the_per_case_loops(name):
    # Constancy on classes is decided on generators; a fault that leaves no
    # right action inside its level must be refused instead.  ass.json's
    # faults are run by `exhaustive_faults.py`.
    assert check_every_single_entry_fault_of_the_monad_laws(name) == SINGLE_ENTRY_FAULTS[name]


@pytest.mark.parametrize("name", [name for name in FINITE if OPERADS[name]().group.name == "symmetric"])
def test_a_group_that_lists_no_generators_is_walked_and_refused_by_the_quotients(name):
    # The laws walk every element, to the per-case loops' result; the orbit
    # quotients, which unite only along generators, refuse the first level.
    def unlisted() -> FiniteGOperad:
        p = OPERADS[name]()
        p.group = dataclasses.replace(p.group, generators=None)
        return p

    p = unlisted()
    assert results(check_operad(p)) == results(reference_check_operad(p))
    assert results(check_collection(p)) == results(reference_check_collection(p, p.max_arity))
    first = p.arities()[0]
    fault = "is not decided on generators: the group lists no generators"
    message = f"^{re.escape(p.name)}: the action at arity {first} {fault}$"
    for run in (
        lambda p: compose_collections(p, unit_collection(p.group), p.max_arity),
        lambda p: free_algebra(p, ("a", "b"), min(p.max_arity, 2)),
        lambda p: check_monad_laws(p, ("a", "b"), max_arity=min(p.max_arity, 2)),
        pullback_witness_test,
    ):
        with pytest.raises(ValueError, match=message):
            run(unlisted())


@settings(max_examples=40, deadline=None)
@given(p=faulty_operads(FINITE), carrier=st.sampled_from([("a",), ("a", "b"), ("b", "a"), ("y", "x", "z")]))
def test_free_algebra_matches_the_tuple_keyed_union_find(p, carrier):
    bound = min(p.max_arity, 2)
    if not is_right_action(p, bound):
        with pytest.raises(ValueError, match="outside its level|not a right action"):
            free_algebra(p, carrier, bound)
        return
    expected = outcome(lambda: reference_free_algebra(p, carrier, bound))
    assert outcome(lambda: free_algebra_by_state(p, carrier, bound)) == expected


@pytest.mark.parametrize("name", sorted(OPERADS))
def test_the_unchanged_operads_match_the_per_case_loops(name):
    p = OPERADS[name]()
    assert results(check_operad(p)) == results(reference_check_operad(p))
    if name in FINITE:
        bound = min(p.max_arity, 2)
        assert monad_laws(p, ("a", "b"), bound) == reference_monad_laws(p, ("a", "b"), bound)


@settings(max_examples=40, deadline=None)
@given(p=faulty_operads(FINITE))
def test_pullback_witness_test_matches_four_separate_free_algebras(p):
    assert outcome(lambda: pullback_witness_test(p)) == outcome(lambda: reference_pullback_witness_test(p))


@pytest.mark.parametrize("name", ACTION_FAULTS)
def test_every_action_fault_gives_the_free_algebra_and_pullback_test_of_the_per_case_loops(name):
    """
    `free_algebra` on ("a", "b") and `pullback_witness_test` at every action
    fault: where it leaves no right action, both raise the located
    `ValueError` of the first level it breaks, and elsewhere they equal
    `reference_free_algebra` and `reference_pullback_witness_test`.  Each g
    of a right action acts by a bijection, so one changed entry always
    leaves none, and all 346 faults take the first branch.  Compose faults
    are not run, since neither function reads compose.
    """
    located = rf"{re.escape(OPERADS[name]().name)}: the action at arity \d+ (sends .* outside its level|is not a right action)"
    faults = [(key, value) for key, value in single_entry_faults(name) if len(key) == 3]
    for key, value in faults:
        def run(call: Callable[[FiniteGOperad], Any]) -> tuple:
            return outcome(lambda: call(rebind(OPERADS[name](), key, value)))

        free = run(lambda p: free_algebra_by_state(p, ("a", "b")))
        pullback = run(pullback_witness_test)
        p = rebind(OPERADS[name](), key, value)
        if is_right_action(p, p.max_arity):
            assert free == run(lambda p: reference_free_algebra(p, ("a", "b"))), key
            assert pullback == run(reference_pullback_witness_test), key
        else:
            assert free[:2] == ("error", "ValueError") and re.match(located, free[2]), (key, free)
            assert pullback == free, key
    assert len(faults) == ACTION_FAULTS[name]


def cycles(perm: Permutation) -> int:
    """The number of cycles of perm, fixed points included."""
    seen: set[int] = set()
    count = 0
    for start in range(1, perm.n + 1):
        count += start not in seen
        i = start
        while i not in seen:
            seen.add(i)
            i = perm(i)
    return count


# Per operad, the largest carrier `operad free` admits at a bound: the
# states sum_n |P(n)| * |X|^n, n <= bound, stay within MAX_FREE_STATES, and
# one more point passes it.
LARGE_CARRIERS = {
    "ass.json": (32, 3),
    "comm.json": (58, 3),
    "comm_trivial.json": (58, 3),
    "ass2": (315, 2),
    "comm/symmetric 3": (58, 3),
    "comm/symmetric 4": (20, 4),
    "comm/trivial 3": (58, 3),
    "endo {a} 2": (446, 2),
    "endo {a,b} 1": (49_999, 1),
}


@pytest.mark.parametrize("name", FINITE)
def test_class_counts_and_the_pullback_verdict_follow_burnside(name):
    """
    Burnside's lemma counts the classes of the free algebra without building
    them: at arity n,

        |F(X)(n)| = (1/|G(n)|) * sum over g in G(n) of |Fix_P(n)(g)| * |X|^c(pi(g)),

    with c the number of cycles, fixed points included.  Split by the orbits O
    of P(n), each with stabilizer S, the orbit's share of that count is

        c_O(k) = (1/|S|) * sum over g in S of k^c(pi(g)),   k = |X|.

    The classes of F(1)(n) are the orbits, so over the square of two
    two-element sets over a point there are sum_O c_O(4) classes of pairs and
    sum_O c_O(2)^2 fiber pairs.  The comparison map between them is always
    onto: a pair ([q; xs], [q.g; ys]) is the image of [q; (x_i, y'_i)], with
    y' the ys permuted by pi(g).  So the square is a bijection exactly when
    the two counts agree at every arity, which must be the verdict of
    `pullback_witness_test` (comm at arity 2 reads 10 against 9, a NO).

    The counts are checked on 1-3 points up to the operad's bound, and on
    the largest carrier `operad free` admits at the bound of
    LARGE_CARRIERS: 32 points at bound 3 for ass.json (198,689 states), 58
    at bound 3 for comm.json, comm_trivial.json and both comm up to arity
    3 (198,535 each), 20 at bound 4 for comm over the symmetric groups up
    to arity 4 (168,421), 315 at bound 2 for ass2 (198,766), 446 at bound 2
    for the endomorphisms of {a} (199,363) and 49,999 at bound 1 for those
    of {a,b} (199,998).
    """
    p = OPERADS[name]()
    group = p.group
    points, top = LARGE_CARRIERS[name]

    def states(size: int) -> int:
        return sum(len(p.labels(n)) * size ** n for n in range(top + 1))

    assert states(points) <= MAX_FREE_STATES < states(points + 1)
    carriers = [(("a",), p.max_arity), (("a", "b"), p.max_arity), (("a", "b", "c"), p.max_arity)]
    for carrier, bound in [*carriers, (tuple(f"x{i}" for i in range(points)), top)]:
        free = free_algebra(p, carrier, bound)
        for n in range(bound + 1):
            burnside = Fraction(
                sum(
                    sum(p.action(n, label, g) == label for label in p.labels(n)) * len(carrier) ** cycles(group.project(g))
                    for g in group.elements(n)
                ),
                len(group.elements(n)),
            )
            assert len(free.classes(n)) == burnside, (carrier, n)

    bijective = True
    for n in range(p.max_arity + 1):
        pairs = fibers = Fraction(0)
        unseen = set(p.labels(n))
        while unseen:
            label = min(unseen)
            unseen -= {p.action(n, label, g) for g in group.elements(n)}
            stabilizer = [g for g in group.elements(n) if p.action(n, label, g) == label]

            def share(k: int) -> Fraction:
                return Fraction(sum(k ** cycles(group.project(g)) for g in stabilizer), len(stabilizer))

            pairs += share(4)
            fibers += share(2) ** 2
        bijective = bijective and pairs == fibers
    assert bijective == pullback_witness_test(p)[0]


# ------------------------------------------------------------ generators

# The laws `check_operad` decides on generators over a finite group.
GROUP_LAWS = ("equivariance in the operad slot", "equivariance in the argument slots", "action composition law")


@pytest.mark.parametrize(
    "build, key, value",
    [
        (OPERADS["ass.json"], (3, "123", Permutation((2, 3, 1))), "312"),
        (lambda: operad_ass(4), (4, "1234", Permutation((2, 3, 4, 1))), "4321"),
    ],
    ids=["3-cycle on ass.json", "4-cycle on ass4"],
)
def test_an_action_fault_at_a_cycle_is_reported_as_the_walk_reports_it(build, key, value):
    # One action entry of a cycle, which is no generator, answers another
    # label of its level.  The laws decided on generators must see that the
    # action is no longer a right one and walk, to the per-case loops'
    # verdict, count and witness.  The reference checks only the group laws,
    # since on ass4 its associativity alone takes seconds.
    fast = [result for result in results(check_operad(rebind(build(), key, value))) if result[0] in GROUP_LAWS]
    assert fast == results(reference_check_operad(rebind(build(), key, value), laws=GROUP_LAWS))
    # Argument slots pass: where they read the entry, both sides read it.
    assert [passed for _, passed, _, _ in fast] == [False, True, False]
    p = rebind(build(), key, value)
    assert results(check_collection(p)) == results(reference_check_collection(p, p.max_arity))
    assert not is_right_action(p, p.max_arity)
    with pytest.raises(ValueError, match="not a right action"):
        check_monad_laws(p, ("a",), max_arity=p.max_arity)


def test_a_compose_fault_is_reported_at_the_earliest_rearranged_signature():
    # mu(123; 12, e, 1) at ks=(2,0,1) answers 213 instead of 123.  The
    # operad-slot law first reads that entry at the earlier signature
    # ks=(0,1,2), under the 3-cycle that permutes it into (2,0,1), so a
    # decision for one signature must cover every rearrangement of it.
    key = (3, (2, 0, 1), "123", ("12", "e", "1"))
    law = "equivariance in the operad slot"
    fast = check_operad(rebind(OPERADS["ass.json"](), key, "213")).result(law)
    reference = reference_check_operad(rebind(OPERADS["ass.json"](), key, "213"), laws=(law,)).result(law)
    assert fast == reference
    assert fast.witness == "n=3, ks=[0, 1, 2], p=123, qs=['e', '1', '12'], g=2 3 1"


def test_a_composite_outside_its_level_is_walked():
    # On comm up to arity 3, mu(*; *, *, *) answers a label outside level 3
    # that the identity and the generators of Sigma_3 fix and the 3-cycles
    # move, and substituting into or with it answers *, so no earlier law
    # raises.  Every case at a generator holds, so only the requirement that
    # composites lie in their level keeps the operad-slot law from being
    # decided; walked, it fails at the first 3-cycle, as the loops do.
    def build() -> FiniteGOperad:
        p = operad_comm(instance_symmetric(), max_arity=3)
        key = (3, (1, 1, 1), "*", ("*", "*", "*"))
        p.compose = lambda n, ks, head, args: "foreign" if (n, tuple(ks), head, tuple(args)) == key else "*"
        for cycle in (Permutation((2, 3, 1)), Permutation((3, 1, 2))):
            p = rebind(p, (3, "foreign", cycle), "other")
        return p

    law = "equivariance in the operad slot"
    fast = check_operad(build()).result(law)
    assert fast == reference_check_operad(build(), laws=(law,)).result(law)
    assert fast.witness == "n=3, ks=[1, 1, 1], p=*, qs=['*', '*', '*'], g=2 3 1"


# ------------------------------------------------------------ samples


def braid_comm(max_arity: int = 3) -> FiniteGOperad:
    """
    comm over the braid groups up to max_arity, composing by its rule
    without the signature check, so that a label outside its level composes
    to * and a fault gives every law a verdict rather than an error.
    """
    p = operad_comm(instance_braid(), max_arity=max_arity)
    p.compose = p.compose_rule
    return p


def read_keys(p: FiniteGOperad) -> list[tuple]:
    """The compose and action keys `check_operad` reads on p, in first-read order."""
    keys: dict[tuple, None] = {}
    compose, action = p.compose, p.action

    def recorded_compose(n, ks, head, args):
        keys[n, tuple(ks), head, tuple(args)] = None
        return compose(n, ks, head, args)

    def recorded_action(n, label, g):
        keys[n, label, g] = None
        return action(n, label, g)

    p.compose, p.action = recorded_compose, recorded_action
    check_operad(p)
    return list(keys)


def first_new_after_a_repeat(gs: Sequence) -> Any:
    """The first element of gs met for the first time after some element was met again."""
    seen, repeated = set(), False
    for g in gs:
        if g in seen:
            repeated = True
        elif repeated:
            return g
        seen.add(g)
    raise AssertionError("the sample repeats no element")


BRAID = instance_braid()
# The seeded draws of the laws over B_0..B_3, repeats included, which every
# law reads in every slot.
RAW_SAMPLES = {n: _group_elements(BRAID, n, 25, 9, distinct=False) for n in range(4)}
# The action keys at elements the seeded draw repeats: the identity of B_1,
# which all 25 draws there are, a nontrivial word that B_2's draw repeats,
# the first word of that draw met after a repeat, and the block sum of the
# argument-slot law's first such tuple.  In the signature (2; 2, 1) each
# draw of B_2 meets the identity of B_1 25 times; the identity of B_2 is
# left out, since earlier signatures read its block sum, the identity of B_3.
REPEATED_KEYS = [
    (1, "*", RAW_SAMPLES[1][0]),
    (2, "*", next(g for g in RAW_SAMPLES[2] if g.word and RAW_SAMPLES[2].count(g) > 1)),
    (2, "*", first_new_after_a_repeat(RAW_SAMPLES[2])),
    (
        3,
        "*",
        BRAID.operad_mu(
            BRAID.identity(2),
            [first_new_after_a_repeat([g for g in RAW_SAMPLES[2] for _ in RAW_SAMPLES[1] if g.word]),
             BRAID.identity(1)],
        ),
    ),
]
BRAID_KEYS = read_keys(braid_comm())


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(BRAID_KEYS))
@example(key=REPEATED_KEYS[0])
@example(key=REPEATED_KEYS[1])
@example(key=REPEATED_KEYS[2])
@example(key=REPEATED_KEYS[3])
def test_a_fault_at_a_sampled_key_is_reported_as_the_listed_walk_reports_it(key):
    # One compose or action entry that check_operad reads answers a label
    # outside its level; every law must give the per-case walk's verdict,
    # count and witness over the distinct samples.
    assert key in BRAID_KEYS
    fast = results(check_operad(rebind(braid_comm(), key, "foreign")))
    assert fast == results(reference_check_operad(rebind(braid_comm(), key, "foreign")))
    if key in REPEATED_KEYS:
        # A repeated draw's cases equal its first draw's, which every walk
        # meets first, so walking every draw, repeats included, gives the
        # same verdicts and witnesses; only its counts weigh the repeats.
        # An equivariance law reads the entry as a cable or a block sum.
        raw = results(reference_check_operad(rebind(braid_comm(), key, "foreign"), distinct=False))
        assert [result[:3] for result in fast] == [result[:3] for result in raw]
        failed = {law for law, passed, _, _ in fast if not passed}
        assert failed & {"equivariance in the operad slot", "equivariance in the argument slots"}


def test_every_fault_at_a_read_key_of_comm_over_the_braid_groups_is_reported_as_the_walk_reports_it():
    # Each compose and action key that check_operad reads on comm over the
    # braid groups up to arity 2 answers a label outside its level in turn:
    # 125 action keys at the samples, their cables and block sums, and the
    # 10 compose keys.  Every law must give the per-case walk's outcome.
    keys = read_keys(braid_comm(2))
    assert (len(keys), sum(len(key) == 3 for key in keys)) == (135, 125)
    for key in keys:
        fast = outcome(lambda: results(check_operad(rebind(braid_comm(2), key, "foreign"))))
        assert fast == outcome(lambda: results(reference_check_operad(rebind(braid_comm(2), key, "foreign")))), key


@settings(max_examples=40, deadline=None)
@given(budget=st.integers(1, 40), seed=st.integers(0, 100), inhabited=st.sets(st.integers(0, 5)))
def test_group_samples_are_the_distinct_draws_or_every_element(budget, seed, inhabited):
    # The sample at each inhabited arity is the raw seeded draw with each
    # repeat dropped, in first-draw order; a finite group lists every element.
    def labels(n: int) -> tuple[str, ...]:
        return ("*",) if n in inhabited else ()

    with mock.patch.multiple(g_operads, GROUP_SAMPLE_BUDGET=budget, GROUP_SAMPLE_SEED=seed):
        braids = g_operads._group_samples(BRAID, labels, 5)
        permutations = g_operads._group_samples(instance_symmetric(), labels, 5)
    arities = sorted(inhabited)
    raw = {n: _group_elements(BRAID, n, budget, seed, distinct=False) for n in arities}
    assert braids == {n: list(dict.fromkeys(raw[n])) for n in arities}
    assert permutations == {n: list(all_permutations(n)) for n in arities}


def test_the_sampled_braid_laws_are_decided_once_per_distinct_sample():
    # A law that walked every draw, repeats included, would still give every
    # verdict, only slower.  The operad-slot law cables each sample onto its
    # signature and the argument-slot law block-sums each tuple of samples,
    # both by operad_mu, and action composition multiplies each pair: comm
    # up to arity 3 makes 878 and 612 such calls on the distinct samples,
    # and 319,726 and 2,500 walking the 25 draws at each arity.
    group = instance_braid()
    cables, products = [], []
    p = operad_comm(group, max_arity=3)
    p.group = dataclasses.replace(
        group,
        operad_mu=lambda g, fs: cables.append(g) or group.operad_mu(g, fs),
        multiply=lambda g, h: products.append(g) or group.multiply(g, h),
    )
    assert check_operad(p).ok
    assert len(cables) <= 878 and len(products) <= 612


# ------------------------------------------------------------ reads


@pytest.mark.parametrize("name", ["ass.json", "comm.json", "comm_trivial.json"])
def test_check_operad_reads_each_table_entry_once(name):
    p = OPERADS[name]()
    reads: collections.Counter = collections.Counter()
    compose, action = p.compose, p.action

    def counted_compose(n, ks, head, args):
        reads["compose", n, tuple(ks), head, tuple(args)] += 1
        return compose(n, ks, head, args)

    def counted_action(n, label, g):
        reads["action", n, label, g] += 1
        return action(n, label, g)

    p.compose, p.action = counted_compose, counted_action
    assert check_operad(p).ok
    assert reads and max(reads.values()) == 1


@pytest.mark.parametrize("name", FINITE)
def test_one_pullback_test_checks_each_level_of_p_once(monkeypatch, name):
    p = OPERADS[name]()
    checked: collections.Counter = collections.Counter()
    right_action_fault = g_operads._right_action_fault

    def counted(group, n, labels, read):
        if labels is p.labels(n):
            checked[n] += 1
        return right_action_fault(group, n, labels, read)

    monkeypatch.setattr(g_operads, "_right_action_fault", counted)
    pullback_witness_test(p)
    assert checked == {n: 1 for n in range(p.max_arity + 1) if p.labels(n)}


def count_preconditions(monkeypatch) -> collections.Counter:
    """
    Count the right-action precondition per level from here on, a level
    keyed by its arity and the id of the label tuple its collection keeps.
    """
    counts: collections.Counter = collections.Counter()
    right_action_fault = g_operads._right_action_fault

    def counted(group, n, labels, read):
        counts[n, id(labels)] += 1
        return right_action_fault(group, n, labels, read)

    monkeypatch.setattr(g_operads, "_right_action_fault", counted)
    return counts


PRECONDITION_CALLS: dict[str, Callable[[FiniteGOperad], Any]] = {
    "check_operad": check_operad,
    "check_collection": check_collection,
    "check_monad_laws": lambda p: check_monad_laws(p, ("a", "b"), max_arity=min(p.max_arity, 3)),
    "compose_collections": lambda p: compose_collections(p, p, p.max_arity),
    "compose_collections with the unit": lambda p: compose_collections(p, unit_collection(p.group), p.max_arity),
    "pullback_witness_test": pullback_witness_test,
}


@pytest.mark.parametrize("call", PRECONDITION_CALLS)
@pytest.mark.parametrize("name", FINITE)
def test_each_call_decides_each_level_once(monkeypatch, name, call):
    p = OPERADS[name]()
    counts = count_preconditions(monkeypatch)
    PRECONDITION_CALLS[call](p)
    assert max(counts.values(), default=1) == 1


@pytest.mark.parametrize("make", [OPERADS["comm.json"], lambda: operad_ass(3)], ids=["comm.json", "ass3"])
def test_the_monad_laws_share_the_checked_levels_of_their_free_algebra(monkeypatch, make):
    # Constancy on classes is decided on generators at every arity, under
    # the precondition the free algebra's quotient already decided there.
    # The quotient reads P's levels only: the carrier is its rest, on which
    # a stabilizer acts through the projection, not a collection of its own.
    p = make()
    counts = count_preconditions(monkeypatch)
    assert check_monad_laws(p, ("a", "b"), max_arity=3).ok
    assert counts.keys() and max(counts.values()) == 1
    assert collections.Counter(n for n, _ in counts) == {0: 1, 1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("name", FINITE)
def test_monad_laws_run_one_orbit_quotient(monkeypatch, name):
    # The algebra correspondence reads its classes from the free algebra
    # the laws were checked on, truncated to its bound: one quotient per
    # inhabited arity, each with one block, the labels of that level.
    p = OPERADS[name]()
    bound = min(p.max_arity, 2)
    quotients = []
    orbit_quotient = free_monad._orbit_quotient

    def counted(blocks, *args):
        quotients.append([count for _, count, _ in blocks])
        return orbit_quotient(blocks, *args)

    monkeypatch.setattr(free_monad, "_orbit_quotient", counted)
    check_monad_laws(p, ("a", "b"), max_arity=bound)
    assert quotients == [[len(p.labels(n))] for n in range(bound + 1) if p.labels(n)]


def test_an_inner_composite_outside_its_level_raises_at_the_same_case(monkeypatch):
    # mu(21; 1, 21) answers a label outside level 3.  Associativity first
    # reads it as an inner composite at n=1, ks=[2], ls=[1, 2], p=1, qs=[21],
    # rs=[1, 21], the second case of that (ls, p, qs), where substituting it
    # into the head raises; the 39 cases before it hold.
    key = (2, (1, 2), "21", ("1", "21"))

    def faulty() -> FiniteGOperad:
        p = OPERADS["ass.json"]()
        original = p.compose

        def compose(n, ks, head, args):
            return "foreign" if (n, tuple(ks), head, tuple(args)) == key else original(n, ks, head, args)

        p.compose = compose
        return p

    def run(check) -> tuple:
        # Each law's cases as counted up to its verdict or the error.
        counts = []

        def counted(self, law, cases):
            def counting():
                for case in cases:
                    counts[-1][1] += case if isinstance(case, int) else 1
                    yield case

            counts.append([law, 0])
            report_check(self, law, counting())

        monkeypatch.setattr(Report, "check", counted)
        try:
            return outcome(lambda: results(check(faulty()))), counts
        finally:
            monkeypatch.setattr(Report, "check", report_check)

    report_check = Report.check
    fast, reference = run(check_operad), run(reference_check_operad)
    assert fast == reference
    assert fast[0][:2] == ("error", "ValueError") and "foreign" in fast[0][2]
    assert fast[1][-1] == ["operad associativity", 39]


def test_a_read_that_raises_inside_the_rows_raises_at_the_same_case(monkeypatch):
    # On the endomorphisms of {a,b}, mu(a,a; b) answers a label outside
    # level 0.  The typed law reports it; associativity then reads the row of
    # that composite while deciding the signature n=1, ks=[0] by rows, and
    # the read raises.  Replayed case by case, the composite before it,
    # mu(a,a; a), holds first, and the error comes at the next case, as in
    # the per-case loop.
    key = (1, (0,), "a,a", ("b",))
    cases: list[list] = []
    report_check = Report.check

    def counted(self, law, stream):
        def counting():
            for case in stream:
                cases[-1][1] += case if isinstance(case, int) else 1
                yield case

        cases.append([law, 0])
        report_check(self, law, counting())

    def run(check) -> tuple:
        p = OPERADS["endo {a,b} 1"]()
        original = p.compose
        p.compose = lambda n, ks, head, args: (
            "foreign" if (n, tuple(ks), head, tuple(args)) == key else original(n, ks, head, args)
        )
        cases.clear()
        monkeypatch.setattr(Report, "check", counted)
        try:
            return outcome(lambda: results(check(p))), [list(entry) for entry in cases]
        finally:
            monkeypatch.setattr(Report, "check", report_check)

    fast, reference = run(check_operad), run(reference_check_operad)
    assert fast == reference
    assert fast[0][:2] == ("error", "ValueError") and "foreign" in fast[0][2]
    # Two cases of the signature n=0 and the one that holds before the error.
    assert fast[1][-1] == ["operad associativity", 3]


@pytest.mark.parametrize(
    "key, counts",
    [
        # The 3-cycle's action answers "foreign", so level 3 is no right
        # action; associativity, the earlier operad-slot groups and the
        # earlier argument-slot groups are decided by the one-label rule, and
        # the signature (1; 3), walked, composes with the foreign argument.
        ((3, "*", Permutation((2, 3, 1))), [["operad associativity", 5500],
                                            ["equivariance in the operad slot", 28],
                                            ["equivariance in the argument slots", 8]]),
        # mu(*; *, *) answers "foreign", so no composite-typed group is
        # decided; associativity's rows read the foreign composite and raise,
        # and the replay raises at the per-case loop's case.
        ((2, (1, 1), "*", ("*", "*")), [["operad associativity", 13]]),
    ],
    ids=["action", "compose"],
)
def test_a_read_that_raises_inside_a_one_label_group_raises_at_the_same_case(monkeypatch, key, counts):
    # On comm.json every level has one label, so every group of cases would
    # be decided unwalked.  One entry answers a label outside its level, and
    # the read that composes with it raises.  The one-label rule must not
    # skip that read: each law's cases up to the error are the per-case
    # loops'.
    cases: list[list] = []
    report_check = Report.check

    def counted(self, law, stream):
        def counting():
            for case in stream:
                cases[-1][1] += case if isinstance(case, int) else 1
                yield case

        cases.append([law, 0])
        report_check(self, law, counting())

    def run(check) -> tuple:
        cases.clear()
        monkeypatch.setattr(Report, "check", counted)
        try:
            return outcome(lambda: results(check(rebind(OPERADS["comm.json"](), key, "foreign")))), [
                list(entry) for entry in cases
            ]
        finally:
            monkeypatch.setattr(Report, "check", report_check)

    fast, reference = run(check_operad), run(reference_check_operad)
    assert fast == reference
    assert fast[0] == ("error", "ValueError", f"unknown label 'foreign' at arity {key[0]}")
    assert fast[1][2:] == counts


# ------------------------------------------------------------ mu_sigma


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 5))
def test_mu_sigma_equals_its_two_block_factors(data, n):
    sigma = data.draw(st.sampled_from(list(all_permutations(n))))
    sizes = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    taus = [data.draw(st.sampled_from(list(all_permutations(k)))) for k in sizes]
    expected = compose(block_sum(taus), block_lift(sigma, sizes))
    assert mu_sigma(sigma, taus) == reference_mu_sigma(sigma, taus) == expected
