"""Tests for the interchange families over permutations and braids."""

import pytest

from operadics import pseudocomm
from operadics.action_operads import instance_braid, instance_symmetric
from operadics.braids import BraidWord, t_positive
from operadics.permutations import Permutation, tau
from operadics.pseudocomm import (
    RESOLVED_ORIENTATION,
    FamilyOrientation,
    Orientation,
    TFamily,
    braid_theorem_report,
    resolve_orientation,
    symmetric_theorem_report,
    t_family_braid_negative,
    t_family_braid_positive,
    t_family_symmetric,
    verify_interchange,
    verify_interchange_dual,
    verify_symmetry,
)

SYM = instance_symmetric()
BR = instance_braid()


def test_symmetric_interchange_holds_everywhere_at_bound_three():
    tf = t_family_symmetric()
    assert all(verify_interchange(SYM, tf, l, ms, n) for l, ms, n in pseudocomm._grouped_parameters(3))
    assert all(verify_interchange_dual(SYM, tf, l, m, ns) for l, m, ns in pseudocomm._split_parameters(3))


@pytest.mark.parametrize("family", [t_family_braid_positive, t_family_braid_negative])
def test_braid_interchange_holds_everywhere_at_bound_three(family):
    tf = family()
    assert all(verify_interchange(BR, tf, l, ms, n) for l, ms, n in pseudocomm._grouped_parameters(3))
    assert all(verify_interchange_dual(BR, tf, l, m, ns) for l, m, ns in pseudocomm._split_parameters(3))


def test_corrupted_family_member_is_detected():
    def corrupted(m, n):
        if (m, n) == (2, 2):
            return BraidWord(4, (1,))
        return t_positive(m, n)

    tf = TFamily("corrupted", corrupted)
    # Parameters chosen so t(2,2) enters the left side but not the right.
    assert not verify_interchange(BR, tf, 2, [2, 2], 2)
    assert verify_interchange(BR, t_family_braid_positive(), 2, [2, 2], 2)


@pytest.mark.parametrize("family", [t_family_braid_positive, t_family_braid_negative])
def test_braid_projections_match_grid_transpositions(family):
    tf = family()
    for m in range(1, 6):
        for n in range(1, 6):
            assert BR.project(tf(m, n)) == tau(m, n)


def test_unit_families():
    holds = [None] * 6
    assert list(pseudocomm._unit_family_cases(SYM, t_family_symmetric(), 6)) == holds
    assert list(pseudocomm._unit_family_cases(BR, t_family_braid_positive(), 6)) == holds
    assert list(pseudocomm._unit_family_cases(BR, t_family_braid_negative(), 6)) == holds


def test_symmetry_holds_for_permutations_and_fails_for_braids():
    assert verify_symmetry(SYM, t_family_symmetric(), bound=4) == (True, None)
    assert verify_symmetry(BR, t_family_braid_positive(), bound=3) == (False, (2, 2))
    assert verify_symmetry(BR, t_family_braid_negative(), bound=3) == (False, (2, 2))


def test_a_broken_unit_family_is_reported_with_its_witness(monkeypatch):
    def broken(m, n):
        return Permutation((2, 1)) if (m, n) == (1, 2) else tau(m, n)

    cases = pseudocomm._unit_family_cases(SYM, TFamily("broken", broken), 6)
    assert list(cases) == [None, "n=2", None, None, None, None]
    assert verify_symmetry(SYM, TFamily("broken", broken), bound=4) == (False, (1, 2))
    # The orientation is resolved against the real tau family, as before.
    monkeypatch.setattr(pseudocomm, "resolve_orientation", lambda *args, **kwargs: RESOLVED_ORIENTATION)
    monkeypatch.setattr(
        pseudocomm, "t_family_symmetric",
        lambda orientation=RESOLVED_ORIENTATION: TFamily("tau", broken, orientation),
    )
    report = symmetric_theorem_report(bound=3)
    lines = report.render().splitlines()
    # Both laws stop at their first failing case and name it.
    assert "FAIL unit family t(1,n) = e = t(n,1) [2 cases]: n=2" in lines
    assert "FAIL the family is symmetric: t(m,n) inverts t(n,m) [2 cases]: (m,n)=(1, 2)" in lines


def test_smallest_nonsymmetric_member_is_a_single_crossing():
    assert t_positive(2, 2) == BraidWord(4, (2,))


def test_resolved_orientation_is_the_unique_survivor():
    assert resolve_orientation() == RESOLVED_ORIENTATION
    # A bound of 2 leaves ties (many 2x2 grid transpositions are
    # involutions); the resolver must extend the bound and land on the
    # same answer.
    assert resolve_orientation(bound=2) == RESOLVED_ORIENTATION


def test_both_reports_resolve_the_orientation_at_bound_three(monkeypatch):
    # Resolution at bound 3 already leaves one survivor per family; a larger
    # report bound only adds equations, which the report's own laws check.
    bounds = []
    monkeypatch.setattr(pseudocomm, "resolve_orientation", lambda bound: bounds.append(bound) or RESOLVED_ORIENTATION)
    assert symmetric_theorem_report(bound=4).ok
    assert braid_theorem_report(bound=3).ok
    assert bounds == [3, 3]


def test_rejected_orientations_fail_on_small_grids():
    wrong_grouped = Orientation(
        grouped=FamilyOrientation(flip_small=False, flip_target=False),
        split=RESOLVED_ORIENTATION.split,
    )
    assert not verify_interchange(SYM, t_family_symmetric(wrong_grouped), 1, [3], 2)

    wrong_split = Orientation(
        grouped=RESOLVED_ORIENTATION.grouped,
        split=FamilyOrientation(flip_small=True, flip_target=False),
    )
    assert not verify_interchange_dual(SYM, t_family_symmetric(wrong_split), 2, 1, [3])


def test_braid_theorem_report_passes_and_carries_notes():
    report = braid_theorem_report(bound=3)
    assert report.ok
    assert len(report.results) == 12
    rendered = report.render()
    assert 'note: recorded value: t_positive(2,2) = "2"' in rendered
    assert "symmetry witness (m,n)=(2,2)" in rendered
    assert 'note: positive family: symmetry witness (m,n)=(2,2): t(2,2)*t(2,2) = "2 2" != e' in rendered
    assert 'note: negative family: symmetry witness (m,n)=(2,2): t(2,2)*t(2,2) = "-2 -2" != e' in rendered
    assert "coherence 2-cells reduce" in rendered
    minimal = [r for r in report.results if "minimal lift" in r.law]
    assert len(minimal) == 2
    assert all(r.passed and r.checked == 234 for r in minimal)


def test_a_non_minimal_left_side_fails_its_equation_law(monkeypatch):
    # Pad one grouped left-hand side of the positive family with the
    # cancelling pair 1 -1: the same braid, but no longer a minimal lift.
    # The certificate must refuse it, so its equation law fails there, and
    # the minimal-lift law counts only the equations that passed.
    honest = pseudocomm._grouped_sides

    def padded(group, tf, l, ms, n):
        lhs, rhs = honest(group, tf, l, ms, n)
        if tf.name == "positive" and (l, ms, n) == (2, (2, 1), 2):
            lhs = lhs * BraidWord(lhs.strands, (1, -1))
        return lhs, rhs

    monkeypatch.setattr(pseudocomm, "_grouped_sides", padded)
    report = braid_theorem_report(bound=3)
    failure = report.result("positive family: grouped interchange equations")
    assert not failure.passed
    assert failure.witness == "l=2, ms=[2, 1], n=2 (fallback)"
    assert failure.checked == list(pseudocomm._grouped_parameters(3)).index((2, (2, 1), 2)) + 1
    split = report.result("positive family: split interchange equations")
    lifts = report.result("positive family: every left-hand composite is a minimal lift")
    assert lifts.passed and lifts.checked == failure.checked - 1 + split.checked
    assert report.result("negative family: grouped interchange equations").passed
    assert report.result("negative family: every left-hand composite is a minimal lift").checked == 234


def test_braid_theorem_report_rejects_degenerate_bounds():
    with pytest.raises(ValueError, match="at least 3"):
        braid_theorem_report(bound=2)


def test_symmetric_theorem_report_passes():
    report = symmetric_theorem_report(bound=3)
    assert report.ok
    assert len(report.results) == 5
    rendered = report.render()
    assert "the family is symmetric" in rendered
    assert "grouped interchange: t(n,m_i) blocks and a t(n,l) cable multiply to t(n,M)" in rendered


def test_orientation_lines_describe_both_families():
    lines = RESOLVED_ORIENTATION.lines()
    assert len(lines) == 2
    assert lines[0].startswith("grouped interchange:")
    assert lines[1].startswith("split interchange:")
