"""
Tests for the free-algebra monad.

Expected class counts come from two independent countings: multisets for
the one-operation operad (orbits of tuples under all permutations) and
plain tuple counting for operads whose action is free (each orbit has full
group size).  Both are computed in comments beside the assertions.
"""

import json
import re
from pathlib import Path

import pytest

from operadics.action_operads import instance_braid, instance_trivial
from operadics.free_monad import (
    ArityOverflowError,
    cartesian_condition,
    check_monad_laws,
    free_algebra,
    mult_mu,
    pullback_witness_test,
    unit_eta,
)
from operadics.g_operads import change_groups, load_operad, operad_ass, operad_comm
from operadics.permutations import Permutation

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"


# ------------------------------------------------------------ enumeration


def test_comm_classes_are_multisets():
    free = free_algebra(operad_comm(max_arity=3), ("a", "b"))
    # Orbits of ("*"; x1..xn) under all of Sigma_n are multisets over
    # {a, b}: n+1 of them at arity n.
    assert [len(free.classes(n)) for n in range(4)] == [1, 2, 3, 4]
    assert [str(c) for c in free.classes(2)] == ["[*; a,a]", "[*; a,b]", "[*; b,b]"]
    assert str(free.classes(0)[0]) == "[*;]"


def test_ass_classes_count_by_free_action():
    free = free_algebra(operad_ass(3), ("a", "b"))
    # Right multiplication is free, so each orbit has |Sigma_n| members:
    # |Sigma_n| * 2^n / |Sigma_n| = 2^n classes.
    assert [len(free.classes(n)) for n in range(4)] == [1, 2, 4, 8]


def test_relabeling_stability():
    comm = operad_comm(max_arity=3)
    counts = lambda carrier: [len(free_algebra(comm, carrier).classes(n)) for n in range(4)]
    assert counts(("a", "b")) == counts(("u", "v")) == counts(("b", "c"))
    # Renaming the carrier renames the representatives verbatim.
    renamed = free_algebra(comm, ("u", "v"))
    assert [str(c) for c in renamed.classes(2)] == ["[*; u,u]", "[*; u,v]", "[*; v,v]"]


def test_empty_carrier_keeps_only_constants():
    free = free_algebra(operad_comm(max_arity=3), ())
    assert [len(free.classes(n)) for n in range(4)] == [1, 0, 0, 0]


def test_free_algebra_needs_finite_group():
    br = instance_braid()
    braided = change_groups(lambda g: g, br, operad_comm(max_arity=2))
    # A braided operad's free algebra would quotient by an infinite group.
    braided.group = br
    with pytest.raises(ValueError, match="finite group"):
        free_algebra(braided, ("a", "b"))


def test_classes_are_label_items_tuples():
    # Classes of two separately built algebras are equal values with equal
    # hashes, the hash of the pair (label, items).
    first, second = (free_algebra(operad_ass(2), ("a", "b")) for _ in range(2))
    assert first.all_classes() == second.all_classes()
    pair = first.canonical("21", ("a", "b"))
    assert pair is not second.canonical("21", ("a", "b"))
    assert pair == second.canonical("21", ("a", "b"))
    assert hash(pair) == hash(second.canonical("21", ("a", "b"))) == hash(("12", ("b", "a")))
    assert len({*first.all_classes(), *second.all_classes()}) == len(first.all_classes())
    assert (pair.label, pair.items, pair.arity) == ("12", ("b", "a"), 2)
    assert str(pair) == "[12; b,a]"
    assert str(first.canonical("e", ())) == "[e;]"
    assert repr(pair) == "FreeAlgebraClass(label='12', items=('b', 'a'))"
    # A class is the tuple (label, items), and equals it as a plain tuple.
    assert pair == ("12", ("b", "a"))
    assert pair != ("21", ("a", "b"))


def test_canonical_rejects_unknown_points():
    free = free_algebra(operad_comm(max_arity=2), ("a", "b"))
    with pytest.raises(ValueError, match="unknown free-algebra element"):
        free.canonical("*", ("a", "c"))


# ---------------------------------------------------------- unit and mult


def test_unit_wraps_carrier_elements():
    free = free_algebra(operad_comm(max_arity=2), ("a", "b"))
    assert str(unit_eta(free, "a")) == "[*; a]"
    with pytest.raises(ValueError, match="not a carrier element"):
        unit_eta(free, "c")


def test_mult_flattens_and_canonicalizes():
    comm = free_algebra(operad_comm(max_arity=3), ("a", "b"))
    merged = mult_mu(
        comm, "*", (comm.canonical("*", ("a",)), comm.canonical("*", ("a", "b")))
    )
    assert str(merged) == "[*; a,a,b]"

    ass = free_algebra(operad_ass(2), ("a", "b"))
    # Substituting units into the transposition gives the class of
    # ("21"; a,b), whose lexicographically least representative rewrites
    # the label to "12" and swaps the items.
    flipped = mult_mu(
        ass, "21", (ass.canonical("1", ("a",)), ass.canonical("1", ("b",)))
    )
    assert str(flipped) == "[12; b,a]"


def test_arity_overflow_is_reported_distinctly():
    free = free_algebra(operad_comm(max_arity=2), ("a", "b"))
    pair = free.canonical("*", ("a", "b"))
    with pytest.raises(ArityOverflowError, match="beyond the bound"):
        mult_mu(free, "*", (pair, pair))
    # Domain errors stay ValueError; the overflow is its own type.
    assert not issubclass(ArityOverflowError, ValueError)
    with pytest.raises(ValueError, match="unknown label"):
        mult_mu(free, "**", (pair,))


# ------------------------------------------------------------- monad laws


def test_monad_laws_comm():
    report = check_monad_laws(operad_comm(max_arity=3), ("a", "b"))
    assert report.ok, report.render()


def test_monad_laws_ass():
    report = check_monad_laws(operad_ass(3), ("a", "b"))
    assert report.ok, report.render()
    assert report.result("associativity").checked > 10_000


def test_monad_laws_nonsymmetric():
    report = check_monad_laws(operad_comm(instance_trivial(), max_arity=3), ("a", "b"))
    assert report.ok, report.render()


def test_corrupted_substitution_is_caught():
    ass = operad_ass(2)
    honest = ass.compose

    def corrupted(n, ks, head, args):
        if (n, tuple(ks), head, tuple(args)) == (2, (1, 1), "21", ("1", "1")):
            return "12"
        return honest(n, ks, head, args)

    ass.compose = corrupted
    report = check_monad_laws(ass, ("a", "b"))
    assert not report.ok
    failure = report.result("multiplication is constant on classes")
    assert not failure.passed
    assert "21" in failure.witness or "12" in failure.witness


def test_monad_associativity_reports_the_earliest_failing_nesting():
    # With mu(unit; 12) reversed, flattening [1; [1; [12; a,b]]] middle-first
    # applies the swap twice and outer-first once.  Associativity runs
    # n = 0 (one case), then n = 1 with rs = (0,) (one case) and rs = (1,)
    # over the classes [e;], [1; a], [1; b], [12; a,a], [12; a,b]; the
    # first four are fixed by the swap, so the seventh case is the first
    # failure.
    document = json.loads((DATA / "ass.json").read_text())
    for record in document["compose"]:
        if record["n"] == 1 and record["args"] == ["1", "12"]:
            record["result"] = "21"
    report = check_monad_laws(load_operad(document, name="corrupted ass"), ("a", "b"))
    failure = report.result("associativity")
    assert not failure.passed
    assert failure.witness == "q=1, ps=['1'], classes=['[12; a,b]']"
    assert failure.checked == 7


def test_well_definedness_reports_the_first_class_an_action_fault_splits():
    # Level 3 is acted on trivially: still a right action, so the free
    # algebra is built, but one the substitutions are not equivariant for.
    # The nestings run by n and then in product order over the classes;
    # witness and count were taken from the per-element quotient that
    # uniting along generators replaced.
    p = load_operad(json.loads((DATA / "ass.json").read_text()), name="faulty ass")
    honest = p.action
    p.action = lambda n, label, g: label if n == 3 else honest(n, label, g)
    failure = check_monad_laws(p, ("a", "b")).result("multiplication is constant on classes")
    assert not failure.passed
    assert failure.witness == "label=12, inner=['[1; a]', '[12; a,a]'], g=2 1"
    assert failure.checked == 170
    # Fixing 213 under the transposition 2 1 3 alone leaves no right action,
    # which the quotient refuses before any law runs.
    swap = next(g for g in p.group.elements(3) if p.group.describe(g) == "2 1 3")
    p.action = lambda n, label, g: label if (n, label, g) == (3, "213", swap) else honest(n, label, g)
    message = (
        "faulty ass: the action at arity 3 is not a right action: '231' goes to '213' "
        "under 1 3 2 then 2 1 3, but to '123' under their product 3 1 2"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_monad_laws(p, ("a", "b"))


# ------------------------------------------------------ pullback behaviour


def test_pointwise_criterion_fails_for_comm_with_witness():
    held, witness = cartesian_condition(operad_comm(max_arity=3))
    assert not held
    n, label, g = witness
    assert (n, label, g) == (2, "*", Permutation((2, 1)))


def test_pointwise_criterion_holds_for_free_actions():
    assert cartesian_condition(operad_ass(3)) == (True, None)
    assert cartesian_condition(operad_comm(instance_trivial(), max_arity=3)) == (True, None)


def test_pointwise_criterion_needs_finite_group():
    br = instance_braid()
    braided = change_groups(lambda g: g, br, operad_comm(max_arity=2))
    braided.group = br
    with pytest.raises(ValueError, match="finite group"):
        cartesian_condition(braided)


def test_pullback_square_agrees_with_pointwise_criterion():
    for operad in (operad_comm(max_arity=2), operad_ass(2), operad_comm(instance_trivial(), max_arity=2)):
        preserved, witness = pullback_witness_test(operad)
        held, _ = cartesian_condition(operad)
        assert preserved == held, f"{operad.name}: {witness}"


def test_pullback_failure_names_the_colliding_classes():
    preserved, witness = pullback_witness_test(operad_comm(max_arity=2))
    assert not preserved
    # The two interleaved diagonals of the square are distinct classes of
    # pairs with the same image on both sides.
    assert "x1y1,x2y2" in witness and "x1y2,x2y1" in witness
