"""
The backtracking model search against the brute force it replaced.

`enumerate_algebra_structures` searches its tables with
`g_operads._backtrack`.  The reference below is the earlier brute-force
enumerator, kept verbatim up to naming: it builds every candidate table
in `itertools.product` order and keeps those `check_algebra` accepts.
Hypothesis draws small operads (builders, the packaged documents cut to
arity 2, the braid group's comm, whose equivariance is sampled, and
copies with one substitution corrupted) and small carriers in any order;
both sides must return the same tables in the same order, or raise the
same error.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadics import g_operads
from operadics.action_operads import instance_braid, instance_symmetric, instance_trivial
from operadics.free_monad import _truncate
from operadics.g_operads import (
    FiniteGOperad,
    _signatures,
    check_algebra,
    endomorphism_operad,
    enumerate_algebra_structures,
    enumerate_operad_maps,
    load_operad,
    operad_ass,
    operad_comm,
    table_algebra,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"


# ------------------------------------------------------------ references


def reference_enumerate_algebra_structures(p, carrier, limit=1 << 20):
    """Brute-force every algebra structure on the carrier, within the bound."""
    carrier = tuple(carrier)
    slots = [
        (n, label, xs)
        for n in range(p.max_arity + 1)
        for label in p.labels(n)
        for xs in itertools.product(carrier, repeat=n)
    ]
    count = len(carrier) ** len(slots)
    if count > limit:
        raise ValueError(f"{count} candidate tables exceed the enumeration limit {limit}")
    found = []
    for values in itertools.product(carrier, repeat=len(slots)):
        algebra = table_algebra(carrier, dict(zip(slots, values)))
        if check_algebra(p, algebra).ok:
            found.append(algebra)
    return found


# ------------------------------------------------------------- operads


def _document(name, bound):
    return _truncate(load_operad(json.loads((DATA / f"{name}.json").read_text()), name), bound)


# Each builder takes an arity bound up to 2 (the endomorphisms of {a, b}
# only up to 1, beyond which one table has 2^74 candidates).
BUILDERS = {
    "comm": lambda bound: operad_comm(max_arity=bound),
    "commT": lambda bound: operad_comm(instance_trivial(), max_arity=bound),
    "commB": lambda bound: operad_comm(instance_braid(), max_arity=bound),
    "ass": operad_ass,
    "endoA": lambda bound: endomorphism_operad(("a",), instance_symmetric(), bound),
    "endoAB": lambda bound: endomorphism_operad(("a", "b"), instance_symmetric(), min(bound, 1)),
    "ass.json": lambda bound: _document("ass", bound),
    "comm.json": lambda bound: _document("comm", bound),
    "comm_trivial.json": lambda bound: _document("comm_trivial", bound),
}


def corrupted(p, key, result):
    """p with the substitution at key = (n, ks, head, args) answering result."""
    return FiniteGOperad(
        name=f"{p.name} corrupted",
        group=p.group,
        levels=p.levels,
        unit=p.unit,
        action=p.action,
        compose=lambda *at: result if at == key else p.compose(*at),
        max_arity=p.max_arity,
    )


@st.composite
def operads(draw):
    """A builder's operad at a bound 0-2, possibly with one substitution corrupted."""
    p = BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))](draw(st.integers(0, 2)))
    keys = [
        (n, ks, head, args)
        for n, ks in _signatures(p.max_arity, range(p.max_arity + 1))
        for head in p.labels(n)
        for args in itertools.product(*(p.labels(k) for k in ks))
        if len(p.labels(sum(ks))) > 1
    ]
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        honest = p.compose(*key)
        p = corrupted(p, key, draw(st.sampled_from([x for x in p.labels(sum(key[1])) if x != honest])))
    return p


carriers = st.sampled_from(["", "a", "ab", "ba", "abc", "cab"]).map(tuple)


def outcome(enumerate_, *args):
    """The result, or the type and text of the error, which both sides must share."""
    try:
        return ("found", enumerate_(*args))
    except (ValueError, KeyError) as exc:
        return ("error", type(exc).__name__, str(exc))


def algebra_tables(p, found):
    """Each algebra as its carrier and its values over the slots, in order."""
    return [
        (
            algebra.carrier,
            [
                algebra.maps(n, label, xs)
                for n in range(p.max_arity + 1)
                for label in p.labels(n)
                for xs in itertools.product(algebra.carrier, repeat=n)
            ],
        )
        for algebra in found
    ]


# ------------------------------------------------------ differential tests


@settings(max_examples=80, deadline=None)
@given(p=operads(), carrier=carriers)
def test_algebra_search_returns_the_brute_force_tables_in_order(p, carrier):
    # The limit keeps the brute force small; a larger space is the same
    # limit error on both sides.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g_operads, "ALGEBRA_TABLE_LIMIT", 2048)
        ours = outcome(enumerate_algebra_structures, p, carrier)
    theirs = outcome(reference_enumerate_algebra_structures, p, carrier, 2048)
    if ours[0] == "found":
        ours, theirs = ("found", algebra_tables(p, ours[1])), ("found", algebra_tables(p, theirs[1]))
    assert ours == theirs


def test_the_algebra_search_finding_nothing_agrees_with_the_brute_force():
    # No corruption of the tables can leave an operad without algebras on a
    # non-empty carrier: evaluating every operation as the join of its
    # arguments in a semilattice reads no label, so it satisfies every
    # instance.  The empty carrier has none once level 0 is inhabited.
    ass = operad_ass(2)
    assert enumerate_algebra_structures(ass, ()) == reference_enumerate_algebra_structures(ass, ()) == []


def test_the_algebra_search_refuses_a_repeated_carrier_element():
    # As free_algebra and endomorphism_operad do; it used to return 8
    # copies of the one algebra on a single point.
    p = operad_comm(instance_trivial(), max_arity=1)
    with pytest.raises(ValueError, match="carrier elements must be distinct"):
        enumerate_algebra_structures(p, ("a", "a"))


def test_braid_comm_algebras_agree_with_the_brute_force():
    # The braid groups are infinite, so equivariance is checked on samples.
    p = operad_comm(instance_braid(), max_arity=2)
    ours = enumerate_algebra_structures(p, ("a", "b"))
    assert len(ours) == 4
    assert algebra_tables(p, ours) == algebra_tables(p, reference_enumerate_algebra_structures(p, ("a", "b")))


def braid_comm_without_constants():
    comm = operad_comm(instance_braid(), max_arity=2)
    return FiniteGOperad("braid comm without constants", comm.group, {0: (), 1: comm.labels(1), 2: comm.labels(2)},
                         comm.unit, comm.action, comm.compose, 2)


def test_the_algebra_search_prunes_on_the_samples_it_confirms_with(monkeypatch):
    # Without constants, braid comm's binary operation on {a, b} commutes
    # only by equivariance: 8 of the 16 tables pass all 25 samples.  The
    # one sample drawn with seed 0 is the empty braid, which forces
    # nothing, so the search must then keep all 16 tables.
    p = braid_comm_without_constants()
    assert len(enumerate_algebra_structures(p, ("a", "b"))) == 8
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_BUDGET", 1)
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_SEED", 0)
    # `check_algebra` reads the same constants, so the reference confirms on that one sample too.
    ours = enumerate_algebra_structures(p, ("a", "b"))
    assert len(ours) == 16
    assert algebra_tables(p, ours) == algebra_tables(p, reference_enumerate_algebra_structures(p, ("a", "b")))


def test_algebras_and_operad_maps_into_the_endomorphisms_read_the_same_samples(monkeypatch):
    # An algebra on {a, b} is an operad map into its endomorphism operad, so
    # both must number the same on any one sample of the braid groups: 8 on
    # the default sample, and all 16 on the empty braid that seed 0 draws.
    p = braid_comm_without_constants()
    endo = endomorphism_operad(("a", "b"), instance_braid(), max_arity=2)
    assert len(enumerate_algebra_structures(p, ("a", "b"))) == len(enumerate_operad_maps(p, endo)) == 8
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_BUDGET", 1)
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_SEED", 0)
    assert len(enumerate_algebra_structures(p, ("a", "b"))) == len(enumerate_operad_maps(p, endo)) == 16


# ----------------------------------------------------------- work guards


def test_the_algebra_search_confirms_only_surviving_tables(monkeypatch):
    checked = []
    original = g_operads.check_algebra
    monkeypatch.setattr(g_operads, "check_algebra", lambda *a, **k: checked.append(1) or original(*a, **k))
    assert len(enumerate_algebra_structures(operad_ass(2), ("a", "b"))) == 4
    # The brute force checks all 2^11 = 2,048 tables.  The search checks
    # the four algebras and the four tables that pass every instance
    # decided before the last slot: an associativity instance whose head
    # slot was still unset waits for `check_algebra`.
    assert len(checked) <= 8


def test_the_searches_walk_each_distinct_braid_sample_once(monkeypatch):
    # On comm over the braid groups up to arity 2, B_2's 25 draws hold 13
    # distinct words, 4 of them odd; each odd one equates two slots of the
    # binary label on {a, b}, at xs = (a, b) and (b, a).  With the repeats,
    # 8 odd draws built 16 tests.  `check_algebra` walks each distinct
    # sample once: 1 + 2 + 13 * 4 = 55 cases over arities 0..2, against 175
    # with the repeats.
    p = operad_comm(instance_braid(), max_arity=2)
    built = []
    equal_slots = g_operads._equal_slots
    monkeypatch.setattr(g_operads, "_equal_slots", lambda a, b: built.append((a, b)) or equal_slots(a, b))
    found = enumerate_algebra_structures(p, ("a", "b"))
    assert len(found) == 4 and len(built) == 8
    assert check_algebra(p, found[0]).result("algebra equivariance").checked == 55
    # The map search reads the action at most once per candidate table,
    # label and distinct sample: 16 tables, one label at each of arity 1 and
    # 2, under 1 and 13 distinct words (with the repeats, 25 and 25).
    q = braid_comm_without_constants()
    reads = []
    action = q.action
    q.action = lambda n, label, g: reads.append(n) or action(n, label, g)
    assert len(enumerate_operad_maps(q, endomorphism_operad(("a", "b"), instance_braid(), max_arity=2))) == 8
    assert len(reads) <= 16 * (1 + 13)


def test_operad_maps_need_one_group():
    p = operad_comm(instance_trivial(), max_arity=2)
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)
    with pytest.raises(ValueError, match="^operad maps need one group of equivariance, got trivial and symmetric$"):
        enumerate_operad_maps(p, endo)


def test_operad_maps_refuse_more_candidates_than_the_limit():
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=3)
    with pytest.raises(ValueError, match="^candidate map count exceeds the enumeration limit 1048576$"):
        enumerate_operad_maps(operad_ass(3), endo)
