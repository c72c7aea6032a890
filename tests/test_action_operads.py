"""
Tests for the action-operad instances and the axiom checker.

The checker itself is exercised both positively (all shipped instances pass
every law) and negatively (a deliberately corrupted instance must fail with
a counterexample), so a silent always-pass checker cannot sneak through.
"""

import dataclasses
import itertools
import random

import pytest

from operadics.action_operads import (
    check_axioms,
    instance_braid,
    instance_symmetric,
    instance_trivial,
    map_of_action_operads,
)
from operadics.braids import braid_identity, underlying_permutation
from operadics.permutations import Permutation, all_permutations, identity


def test_trivial_instance_passes_all_laws():
    report = check_axioms(instance_trivial())
    assert report.ok, report.render()


def test_symmetric_instance_passes_all_laws():
    report = check_axioms(instance_symmetric(), budget=300)
    assert report.ok, report.render()
    # The small-arity case spaces fit the budget, so those laws really were
    # checked exhaustively rather than sampled.
    assert report.result("group identity").checked == sum(
        len(list(all_permutations(n))) for n in range(4)
    )


def test_braid_instance_passes_all_laws():
    report = check_axioms(instance_braid(), budget=40, seed=7)
    assert report.ok, report.render()


def test_shipped_instances_delegate_as_expected():
    trivial = instance_trivial()
    assert trivial.project(3) == identity(3)
    symmetric = instance_symmetric()
    p = Permutation((2, 1))
    assert symmetric.operad_mu(p, [p, p]) == symmetric.multiply(
        symmetric.operad_mu(p, [identity(2), identity(2)]), Permutation((2, 1, 4, 3))
    )
    braid = instance_braid()
    w = braid.sample(random.Random(0), 3)
    assert braid.project(w) == underlying_permutation(w)


def test_finite_families_count_their_elements_without_listing_them():
    for group in (instance_trivial(), instance_symmetric()):
        assert [group.order(n) for n in range(7)] == [len(group.elements(n)) for n in range(7)], group.name
    assert instance_braid().order is None


def test_corrupted_projection_fails_compatibility():
    braid = instance_braid()
    corrupted = dataclasses.replace(
        braid,
        name="braid-with-forgetful-projection",
        project=lambda g: identity(g.strands),
    )
    report = check_axioms(corrupted, budget=60, seed=11)
    assert not report.ok
    failure = report.result("compatibility of product and substitution")
    assert not failure.passed
    assert "g=" in failure.witness and "f's=" in failure.witness


def test_failing_law_counts_cases_up_to_the_first_failure():
    # `equal` is wrong only about the 3-cycle 2 3 1, so "group identity"
    # passes its early cases and fails at that element's position in the
    # exhaustive enumeration, which is not the last one.
    symmetric = instance_symmetric()
    target = Permutation((2, 3, 1))
    lying = dataclasses.replace(symmetric, equal=lambda g, h: g == h and g != target)
    failure = check_axioms(lying).result("group identity")
    cases = [g for n in range(4) for g in all_permutations(n)]
    assert not failure.passed
    assert failure.witness == "g=2 3 1"
    assert failure.checked == cases.index(target) + 1 < len(cases)


def test_mixing_arities_is_an_error():
    trivial = instance_trivial()
    with pytest.raises(ValueError, match="arities 2 and 3"):
        trivial.multiply(2, 3)
    symmetric = instance_symmetric()
    with pytest.raises(ValueError, match="cannot compose"):
        symmetric.multiply(identity(2), identity(3))


def test_map_from_trivial_is_well_behaved_into_both_targets():
    trivial = instance_trivial()
    for target in (instance_symmetric(), instance_braid()):
        report = map_of_action_operads(
            lambda g, t=target: t.identity(g), trivial, target, budget=60
        )
        assert report.ok, report.render()


def test_projection_is_a_map_of_action_operads():
    report = map_of_action_operads(
        underlying_permutation, instance_braid(), instance_symmetric(), budget=80
    )
    assert report.ok, report.render()


def test_identity_map_on_symmetric_passes():
    symmetric = instance_symmetric()
    report = map_of_action_operads(lambda g: g, symmetric, symmetric)
    assert report.ok, report.render()


def test_map_checker_reports_violations_with_witness():
    symmetric = instance_symmetric()

    def reverse(p: Permutation) -> Permutation:
        return p.inverse()

    report = map_of_action_operads(reverse, symmetric, symmetric)
    assert not report.ok
    assert any("g=" in failure.witness for failure in report.failures())


# ----------------------------------------------- the block-sum monoid


def block_add(inst, g, h):
    """The arity-summing monoid product: substitution into a two-slot identity."""
    return inst.operad_mu(inst.identity(2), [g, h])


def test_block_add_is_associative_exhaustively_for_permutations():
    symmetric = instance_symmetric()
    small = [p for n in range(3) for p in all_permutations(n)]
    for f, g, h in itertools.product(small, repeat=3):
        assert block_add(symmetric, block_add(symmetric, f, g), h) == block_add(
            symmetric, f, block_add(symmetric, g, h)
        )


def test_block_add_preserves_identity_and_multiplication():
    symmetric = instance_symmetric()
    assert block_add(symmetric, identity(2), identity(3)) == identity(5)
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randrange(4), rng.randrange(4)
        g, gp = symmetric.sample(rng, m), symmetric.sample(rng, m)
        h, hp = symmetric.sample(rng, n), symmetric.sample(rng, n)
        lhs = symmetric.multiply(block_add(symmetric, g, h), block_add(symmetric, gp, hp))
        rhs = block_add(symmetric, symmetric.multiply(g, gp), symmetric.multiply(h, hp))
        assert lhs == rhs


def test_block_add_monoid_for_braids_by_sampling():
    braid = instance_braid()
    rng = random.Random(23)
    for _ in range(40):
        f = braid.sample(rng, rng.randrange(4))
        g = braid.sample(rng, rng.randrange(4))
        h = braid.sample(rng, rng.randrange(4))
        lhs = block_add(braid, block_add(braid, f, g), h)
        rhs = block_add(braid, f, block_add(braid, g, h))
        assert braid.equal(lhs, rhs)
        e = braid_identity(braid.arity(f))
        assert braid.equal(block_add(braid, f, braid_identity(0)), f)
        assert braid.equal(
            block_add(braid, braid_identity(0), f), f
        )
        assert braid.equal(block_add(braid, e, e), braid_identity(2 * braid.arity(f)))


# ---------------------------------------------------- report rendering


def test_report_renders_one_line_per_law():
    report = check_axioms(instance_trivial(), max_arity=2, budget=20)
    text = report.render()
    lines = text.splitlines()
    assert lines[0].startswith("==")
    body = lines[1:-1]
    assert len(body) == len(report.results)
    assert all(line.startswith(("PASS", "FAIL")) for line in body)
    assert lines[-1].startswith("OK")
