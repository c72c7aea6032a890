"""
Tests for finite operads with a group of equivariance.

The law checkers are exhaustive within each operad's arity bound, so most
tests here assert reports rather than re-deriving the algebra.  Expected
counts (endomorphism level sizes, algebra-structure counts, composite class
counts) are frozen from independent first-principles enumerations spelled
out in comments next to each assertion.
"""

import copy
import dataclasses
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from operadics import free_monad, g_operads
from operadics.action_operads import instance_braid, instance_symmetric, instance_trivial
from operadics.cli import main
from operadics.g_operads import (
    AlgebraStructure,
    FiniteGCollection,
    FiniteGOperad,
    _signatures,
    _substitutions,
    _within,
    change_groups,
    check_algebra,
    check_collection,
    check_operad,
    compose_collections,
    endomorphism_operad,
    enumerate_algebra_structures,
    enumerate_operad_maps,
    load_operad,
    operad_ass,
    operad_comm,
    table_algebra,
    unit_collection,
    write_operad_document,
)
from operadics.permutations import Permutation
from shared import _constant_collection, _swap_collection

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"


# ------------------------------------------------------------ law checks


def test_comm_passes_all_laws():
    report = check_operad(operad_comm(max_arity=4))
    assert report.ok, report.render()


def test_ass_passes_all_laws():
    report = check_operad(operad_ass(3))
    assert report.ok, report.render()
    # The associativity sweep really is exhaustive, not a token sample.
    assert report.result("operad associativity").checked > 10_000


def test_comm_over_trivial_group_passes():
    report = check_operad(operad_comm(instance_trivial(), max_arity=3))
    assert report.ok, report.render()


def test_unit_law_mutation_is_caught():
    ass = operad_ass(2)
    honest = ass.compose

    def corrupted(n, ks, head, args):
        if n == 1 and head == ass.unit and tuple(ks) == (2,) and tuple(args) == ("12",):
            return "21"
        return honest(n, ks, head, args)

    ass.compose = corrupted
    report = check_operad(ass)
    assert not report.ok
    failure = report.result("operad unit")
    assert not failure.passed
    assert "12" in failure.witness


def test_operad_laws_report_the_first_counterexample():
    # Two mu(unit; x) entries changed, at arities 2 and 3: the unit law
    # stops at the earlier one, and the count stops with it.
    document = json.loads((DATA / "ass.json").read_text())
    for record in document["compose"]:
        if record["n"] == 1 and record["args"] in (["1", "12"], ["1", "123"]):
            record["result"] = record["result"][::-1]
    report = check_operad(load_operad(document, name="twice corrupted ass"))
    failure = report.result("operad unit")
    assert not failure.passed
    assert failure.witness == "mu(unit; 12) != 12"
    # Arities 0 and 1 pass with two cases per label; "12" is the first label of arity 2.
    assert failure.checked == 2 * 2 + 1


def test_operad_associativity_reports_the_first_counterexample():
    # mu(21; 1, 12) changed from 312 to 123.  Associativity first meets it
    # as the inner substitution of n=2, ks=(1,2) at ls=(0,1,2), several
    # arity tuples into that signature; witness and count were taken from
    # the product-then-filter enumeration that `_within` replaced.
    document = json.loads((DATA / "ass.json").read_text())
    for record in document["compose"]:
        if (record["n"], record["ks"], record["args"]) == (2, [1, 2], ["21", "1", "12"]):
            record["result"] = "123"
    report = check_operad(load_operad(document, name="corrupted ass"))
    failure = report.result("operad associativity")
    assert not failure.passed
    assert failure.witness == "n=2, ks=[1, 2], ls=[0, 1, 2], p=12, qs=['1', '21'], rs=['e', '1', '12']"
    assert failure.checked == 1089


@pytest.mark.parametrize(
    "build, carrier, bound",
    [
        (lambda: load_operad(json.loads((DATA / "ass.json").read_text()), "ass"), ("a", "b"), 2),
        (lambda: load_operad(json.loads((DATA / "ass.json").read_text()), "ass"), ("a",), 3),
        (lambda: operad_comm(instance_symmetric(), max_arity=4), ("a", "b"), 4),
        (lambda: operad_comm(instance_symmetric(), max_arity=5), ("a", "b"), 4),
        (lambda: operad_ass(4), ("a",), 4),
        (lambda: endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2), ("a",), 2),
    ],
    ids=["ass.json {a,b}", "ass.json {a}", "comm/symmetric 4", "comm/symmetric 5", "ass4", "endo {a,b} 2"],
)
def test_lawful_associativity_is_decided_by_rows_alone(monkeypatch, build, carrier, bound):
    # Every law decided by rows or on generators falls back to a case-by-case
    # replay whenever its decision fails, so a decision that never held (rows
    # gathered at the wrong positions, a generator check that raises) would
    # still give the right verdict, only slower.  Over a group that lists its
    # elements and generators, every group of cases of the six laws that run
    # through `_rows_or_replay` has a decision, and on a lawful operad each
    # must hold: both associativity laws decide by rows, and the four group
    # laws (operad slot, argument slots, action composition, constancy on
    # classes) on generators at every arity, Sigma_0..Sigma_2 included, or
    # in `check_operad`, on comm's one-label levels, by the one-label rule.
    laws: list[list[int]] = []

    def rows_only(groups):
        laws.append([])
        for size, agree, replay in groups:
            assert agree is not None and agree()
            laws[-1].append(size)
            yield size

    monkeypatch.setattr(g_operads, "_rows_or_replay", rows_only)
    monkeypatch.setattr(free_monad, "_rows_or_replay", rows_only)
    p = build()
    assert check_operad(p).ok
    assert free_monad.check_monad_laws(p, carrier, max_arity=bound).ok
    # check_operad: associativity, the two slot laws, action composition;
    # check_monad_laws: constancy on classes, associativity.
    assert len(laws) == 6 and all(laws)


def test_equivariance_laws_report_the_first_counterexample():
    # The action is made to fix 213 under the transposition 2 1 3.
    # Witnesses and counts were taken from the checker that listed the
    # group elements and their projections once per signature.
    p = load_operad(json.loads((DATA / "ass.json").read_text()), name="faulty ass")
    swap = next(g for g in p.group.elements(3) if p.group.describe(g) == "2 1 3")
    honest = p.action
    p.action = lambda n, label, g: label if (n, label, g) == (3, "213", swap) else honest(n, label, g)
    report = check_operad(p)
    slot = report.result("equivariance in the operad slot")
    assert (slot.passed, slot.checked) == (False, 1130)
    assert slot.witness == "n=3, ks=[1, 1, 0], p=213, qs=['1', '1', 'e'], g=2 1 3"
    arguments = report.result("equivariance in the argument slots")
    assert (arguments.passed, arguments.checked) == (False, 151)
    assert arguments.witness == "n=2, ks=[2, 1], p=12, qs=['21', '1'], gs=[2 1, 1]"


@pytest.mark.parametrize(
    "build, projected, counts",
    [
        (lambda: operad_comm(instance_symmetric(), max_arity=3), 0, [45, 8, 428, 145, 79, 10, 4, 42]),
        (lambda: operad_ass(3), 0 + 0 + 1 + 2, [365, 20, 11680, 1691, 1139, 42, 10, 226]),
        (lambda: operad_comm(instance_braid(), max_arity=3), 1 + 1 + 13 + 21, [71, 8, 428, 555, 323, 36, 4, 612]),
    ],
    ids=["comm/symmetric 3", "ass3", "comm/braid 3"],
)
def test_check_operad_projects_each_group_element_once(build, projected, counts):
    # Only the operad-slot law projects, each element it reads at most once.
    # Comm over Sigma_0..Sigma_3 has one label per level, so every group of
    # cases is decided by the one-label rule and nothing is projected; ass3
    # is decided on the generators of Sigma_0..Sigma_3; the braids are walked
    # over the distinct words among 25 draws per arity, which every law and
    # slot reads.  The case counts were taken from the per-signature checker,
    # the ass3 and braid ones from `test_law_kernels`'s per-case reference,
    # the braid ones on its distinct samples.
    p = build()
    group = p.group
    calls = []
    p.group = dataclasses.replace(group, project=lambda g: calls.append(g) or group.project(g))
    assert [r.checked for r in check_operad(p).results] == counts
    assert len(calls) == projected


@pytest.mark.parametrize(
    "build, cables",
    [(lambda: operad_comm(instance_symmetric(), max_arity=5), 0), (lambda: operad_ass(3), 76)],
    ids=["comm/symmetric 5", "ass3"],
)
def test_check_operad_decides_the_group_laws_on_generators(build, cables):
    # A decision that silently fell back to walking every element would
    # still give every verdict, only slower.  The operad-slot law cables
    # each element onto its signature and the argument-slot law block-sums
    # each tuple of elements, both by operad_mu.  Comm up to arity 5 would
    # make 2,318 such calls deciding Sigma_0..Sigma_5 on generators and
    # 38,420 walking every element; its levels have one label each, so the
    # one-label rule decides every group with none.  ass3 makes 76 on
    # generators and 224 walking every element.
    p = build()
    group = p.group
    calls = []
    p.group = dataclasses.replace(group, operad_mu=lambda g, fs: calls.append(g) or group.operad_mu(g, fs))
    assert check_operad(p).ok
    assert len(calls) == cables


def test_collection_unit_law_reports_the_first_counterexample():
    swap = {"p": "q", "q": "p", "u": "v", "v": "u"}
    x = FiniteGCollection("swapped", instance_symmetric(), {1: ("p", "q"), 2: ("u", "v")},
                          lambda n, label, g: swap[label])
    failure = check_collection(x).result("action unit law")
    assert not failure.passed
    assert (failure.witness, failure.checked) == ("n=1, x=p", 1)


def test_signatures_enumeration():
    # Signatures (n; k_1..k_n) with n, sum(k) <= 2, counted by hand:
    # n=0: (); n=1: (0),(1),(2); n=2: (0,0),(0,1),(1,0),(0,2),(2,0),(1,1).
    assert sum(1 for _ in _signatures(2, range(3))) == 10


@given(
    weights=st.lists(st.integers(0, 6), max_size=5),
    ascending=st.booleans(),
    slots=st.integers(0, 4),
    bound=st.integers(0, 6),
)
def test_within_is_the_filtered_product_in_order(weights, ascending, slots, bound):
    # The reference builds every tuple and drops those over the bound.
    # Callers list items by ascending weight; other orders work too.
    if ascending:
        weights.sort()
    arities = list(itertools.product(weights, repeat=slots))
    assert list(_within(bound, slots, weights)) == [ls for ls in arities if sum(ls) <= bound]
    items = [f"c{i}" for i in range(len(weights))]
    weight = dict(zip(items, weights))
    assert list(_within(bound, slots, items, weights)) == [
        cs for cs in itertools.product(items, repeat=slots) if sum(map(weight.get, cs)) <= bound
    ]


@given(bound=st.integers(0, 5), sizes=st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_substitutions_are_the_filtered_loop_over_every_signature(bound, sizes):
    # The reference walks every signature and lists no case where a level is empty.
    levels = {n: tuple(f"{n}.{i}" for i in range(size)) for n, size in enumerate(sizes)}
    labels = levels.__getitem__
    assert list(_substitutions(labels, bound)) == [
        (n, ks, head, args)
        for n, ks in _signatures(bound, range(bound + 1))
        for head in labels(n)
        for args in itertools.product(*(labels(k) for k in ks))
    ]


@given(bound=st.integers(0, 4), sizes=st.lists(st.integers(0, 3), min_size=5, max_size=5))
def test_associativity_cases_count_the_cases_the_law_lists(bound, sizes):
    # The reference lists, for every substitution, its flat arity tuples ls
    # with sum(ls) <= bound and counts their label tuples rs, as the
    # associativity law walks them.
    levels = {n: tuple(f"{n}.{i}" for i in range(size)) for n, size in enumerate(sizes)}
    p = operad_comm(max_arity=bound)
    p.levels = levels
    flats = [
        sum(math.prod(map(sizes.__getitem__, ls)) for ls in _within(bound, total, range(bound + 1)))
        for total in range(bound + 1)
    ]
    assert g_operads.associativity_cases(p) == sum(
        flats[sum(ks)] for _, ks, _, _ in _substitutions(p.labels, bound)
    )


@pytest.mark.parametrize(
    "build, cases",
    [
        (lambda: operad_ass(3), 11680),
        (lambda: operad_comm(instance_braid(), max_arity=3), 428),
        (lambda: endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=1), 106),
    ],
    ids=["ass3", "comm/braid 3", "endo {a,b} 1"],
)
def test_associativity_cases_equal_the_count_a_lawful_check_reports(build, cases):
    p = build()
    assert g_operads.associativity_cases(p) == check_operad(p).result("operad associativity").checked == cases


def test_no_law_lists_the_group_elements_of_an_empty_level():
    # Only level 1 of this operad has a label, so no law may list G(n) for
    # another n; listing G(9) alone would take 362,880 elements.  The free
    # algebra of the monad laws is P o X with the carrier X in arity 0, so
    # it also lists G(0), the group of that inhabited level.
    sym = instance_symmetric()
    allowed = {1}

    def elements(n):
        assert n in allowed, f"G({n}) listed"
        return sym.elements(n)

    group = dataclasses.replace(sym, elements=elements)
    p = FiniteGOperad("unit only", group, {1: ("e",)}, "e", lambda n, label, g: label,
                      lambda n, ks, head, args: "e", max_arity=9)
    assert check_operad(p).ok
    assert check_collection(p, bound=9).ok
    assert check_algebra(p, AlgebraStructure(("a", "b"), lambda n, label, xs: xs[0])).ok
    assert len(enumerate_algebra_structures(p, ("a", "b"))) == 1
    assert len(enumerate_operad_maps(p, p)) == 1
    assert write_operad_document(p)["compose"] == [{"n": 1, "ks": [1], "args": ["e", "e"], "result": "e"}]
    allowed.add(0)
    assert free_monad.check_monad_laws(p, ("a", "b")).ok


# ----------------------------------------------------- endomorphism operads


def test_endomorphism_level_sizes_and_laws():
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)
    # |X|^(|X|^n) functions X^n -> X: 2^1, 2^2, 2^4.
    assert [len(endo.labels(n)) for n in range(3)] == [2, 4, 16]
    assert endo.unit == "a,b"
    report = check_operad(endo)
    assert report.ok, report.render()


def test_endomorphism_action_permutes_inputs():
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)
    swap = Permutation((2, 1))
    # The projection function (x, y) -> x becomes (x, y) -> y under the swap.
    first = ",".join("ab"[xs // 2] for xs in range(4))   # a,a,b,b
    second = ",".join("ab"[xs % 2] for xs in range(4))   # a,b,a,b
    assert endo.action(2, first, swap) == second
    assert endo.action(2, second, swap) == first


@pytest.mark.parametrize(
    "carrier, n, label",
    [(("a", "b"), 1, "a"), (("a", "b"), 0, "a,b"), (("a", "b"), 1, "foreign"), (("a",), 1, "foreign")],
    ids=["level 0 at arity 1", "level 1 at arity 0", "foreign on {a,b}", "foreign on {a}"],
)
def test_endomorphism_action_refuses_a_label_outside_its_level(carrier, n, label):
    # A label of another level, read by position, would index past its
    # outputs or be taken for a function it is not; "foreign" over {a} would
    # act as a constant function.
    endo = endomorphism_operad(carrier, instance_symmetric(), max_arity=1)
    with pytest.raises(ValueError, match=f"^unknown label '{label}' at arity {n}$"):
        endo.action(n, label, instance_symmetric().identity(n))


def test_endomorphism_size_guard():
    with pytest.raises(ValueError, match="more than the limit"):
        endomorphism_operad(("a", "b", "c"), instance_symmetric(), max_arity=2)


def test_endomorphism_level_limit_names_the_level_and_the_limit():
    # Level 3 of {a,b} holds 2^8 = 256 functions; level 4 would hold 2^16.
    assert len(endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=3).labels(3)) == 256
    message = "endomorphism level 4 would hold 65536 functions, more than the limit 4096"
    with pytest.raises(ValueError, match=f"^{message}$"):
        endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=4)


# ------------------------------------------------------ algebras and maps


def test_algebra_structures_match_operad_maps_comm():
    # Algebras for the one-operation operad on a 2-element set are the
    # commutative unital magmas: pick the unit (2 ways) and the value of
    # f(b, b) for b the non-unit (2 ways) -> 4 structures.  Each should
    # correspond to exactly one equivariant operad map into endomorphisms.
    comm = operad_comm(max_arity=2)
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)
    algebras = enumerate_algebra_structures(comm, ("a", "b"))
    maps = enumerate_operad_maps(comm, endo)
    assert len(algebras) == 4
    assert len(maps) == 4
    for algebra in algebras:
        assert algebra.maps(2, "*", ("a", "b")) == algebra.maps(2, "*", ("b", "a"))


def test_algebra_structures_match_operad_maps_ass():
    # Unital magmas on two elements with a free f(b, b): again 4.
    ass = operad_ass(2)
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)
    assert len(enumerate_algebra_structures(ass, ("a", "b"))) == 4
    assert len(enumerate_operad_maps(ass, endo)) == 4


def test_check_algebra_catches_non_equivariant_table():
    comm = operad_comm(max_arity=2)
    table = {}
    for n in range(3):
        for xs in [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]:
            if len(xs) == n:
                table[(n, "*", xs)] = xs[0] if xs else "a"
    # f(a, b) = a but f(b, a) = b: incompatible with the swap acting trivially.
    report = check_algebra(comm, table_algebra(("a", "b"), table))
    failure = report.result("algebra equivariance")
    assert not failure.passed
    assert "n=2" in failure.witness


def test_tautological_endomorphism_algebra_passes():
    endo = endomorphism_operad(("a", "b"), instance_symmetric(), max_arity=2)

    def evaluate(n, label, xs):
        import itertools
        inputs = list(itertools.product(("a", "b"), repeat=n))
        return dict(zip(inputs, label.split(",")))[tuple(xs)]

    report = check_algebra(endo, AlgebraStructure(("a", "b"), evaluate))
    assert report.ok, report.render()


# ------------------------------------------------------- change of groups


def test_change_groups_forgets_symmetry():
    sym = instance_symmetric()
    ass = operad_ass(3)
    forgetful = change_groups(lambda n: sym.identity(n), instance_trivial(), ass)
    report = check_operad(forgetful)
    assert report.ok, report.render()


def test_change_groups_braid_pullback(monkeypatch):
    br = instance_braid()
    comm_br = change_groups(br.project, br, operad_comm(max_arity=3))
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_BUDGET", 6)
    monkeypatch.setattr(g_operads, "GROUP_SAMPLE_SEED", 11)
    report = check_operad(comm_br)
    assert report.ok, report.render()


# -------------------------------------------------------- document format


def test_document_roundtrip_is_stable():
    ass = operad_ass(3)
    document = write_operad_document(ass)
    assert len(document["compose"]) == 323
    loaded = load_operad(document, name="ass from tables")
    assert write_operad_document(loaded) == document
    assert json.loads(json.dumps(document)) == document
    report = check_operad(loaded)
    assert report.ok, report.render()


def test_loaded_action_composes_generators_correctly():
    # The document only stores generator columns; acting by an arbitrary
    # permutation must agree with the builder's action.
    ass = operad_ass(3)
    loaded = load_operad(write_operad_document(ass))
    sym = instance_symmetric()
    for n in range(4):
        for label in ass.labels(n):
            for g in sym.elements(n):
                assert loaded.action(n, label, g) == ass.action(n, label, g)


def _broken(document, mutate):
    document = copy.deepcopy(document)
    mutate(document)
    return document


def test_document_validation_errors():
    document = write_operad_document(operad_ass(2))
    cases = [
        (lambda d: d.update(group="cyclic"), "expected 'trivial' or 'symmetric'"),
        (lambda d: d.update(max_arity=-1), "max_arity"),
        (lambda d: d["levels"].pop("2"), "levels: missing arity 2"),
        (lambda d: d["levels"]["1"].append("1"), "levels\\[1\\]: duplicate"),
        (lambda d: d["action"]["2"].append(["12", "21"]), "action\\[2\\]: expected 1 generator rows, got 2"),
        (lambda d: d["action"]["2"][0].__setitem__(0, "12"), "action\\[2\\]\\[0\\]: not a permutation"),
        (lambda d: d.update(unit="21"), "unit: '21' is not a label of arity 1"),
        (lambda d: d["compose"].pop(0), "compose: missing entry"),
        (lambda d: d["compose"][0].pop("result"), "compose\\[0\\]: needs the keys"),
        (lambda d: d["compose"][-1].update(result="nope"), "is not in level"),
    ]
    for mutate, message in cases:
        with pytest.raises(ValueError, match=message):
            load_operad(_broken(document, mutate))


@pytest.mark.parametrize(
    "malform, message",
    [
        (lambda d: list(d), "document: expected a JSON object"),
        (lambda d: {**d, "action": {"0": 5}}, "action[0]: expected a list of generator rows"),
        (
            lambda d: {**d, "compose": [{**d["compose"][0], "args": 7}, *d["compose"][1:]]},
            "compose[0]: args must hold the head label plus 0 arguments",
        ),
    ],
    ids=["json-list", "action-level-not-a-list", "compose-args-not-a-list"],
)
def test_malformed_document_shapes_exit_two(tmp_path, capsys, malform, message):
    # A wrong JSON shape is a malformed document (exit 2), not a crash that
    # would exit 1 as if a law had failed.
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(malform(write_operad_document(operad_ass(2)))))
    assert main(["operad", "check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "malform, message",
    [
        (lambda d: d.update(max_arity=True), "max_arity: expected a nonnegative integer, got True"),
        (lambda d: d["compose"][2].update(n=True), "compose[2]: n must be an integer, got True"),
        (lambda d: d["compose"][2].update(ks=[True]), "compose[2]: ks must list 1 arities"),
    ],
    ids=["max_arity", "n", "ks"],
)
def test_booleans_are_not_arities(tmp_path, capsys, malform, message):
    # JSON true decodes to a bool, which Python also counts as the int 1.
    document = write_operad_document(operad_comm(instance_trivial(), max_arity=1))
    assert document["compose"][2] == {"n": 1, "ks": [1], "args": ["*", "*"], "result": "*"}
    malform(document)
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(document))
    assert main(["operad", "check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_document_duplicate_conflict():
    document = write_operad_document(operad_ass(2))
    record = copy.deepcopy(document["compose"][-1])
    record["result"] = "21" if record["result"] != "21" else "12"
    document["compose"].append(record)
    with pytest.raises(ValueError, match="conflicting duplicate"):
        load_operad(document)


def test_braid_operads_are_not_serializable():
    br = instance_braid()
    comm_br = change_groups(br.project, br, operad_comm(max_arity=2))
    with pytest.raises(ValueError, match="only trivial and symmetric"):
        write_operad_document(comm_br)


# ---------------------------------------------------- composition product


def test_composition_product_class_counts():
    sym = instance_symmetric()
    x = _constant_collection("x", {1: 1, 2: 1}, sym)
    y = _constant_collection("y", {1: 1, 2: 1}, sym)
    xy = compose_collections(x, y, 3)
    # By hand: arity 1 has the single tuple (x1; y1; e).  Arity 2 has
    # (x1; y2; g) with g ~ hg collapsing Sigma_2, and (x2; y1,y1; g)
    # likewise.  Arity 3: only r=2 contributes; the block relation glues
    # Sigma_3 into 3 cosets and the operad-slot relation glues the two
    # argument orders, leaving 3 classes.
    assert [len(xy.classes(n)) for n in range(4)] == [0, 1, 2, 3]
    report = check_collection(xy.collection(), bound=3)
    assert report.ok, report.render()


def test_composition_product_respects_nontrivial_actions():
    sym = instance_symmetric()
    x = _constant_collection("x", {1: 1, 2: 1}, sym)
    y = _swap_collection(sym)
    xy = compose_collections(x, y, 2)
    # The four tuples (x1; u|v; g) glue in pairs — (x1; v; g) ~ (x1; u; hg)
    # by the block relation — and (x2; s1,s1; g) glues across Sigma_2,
    # leaving three classes, every glued representative written with u.
    assert len(xy.classes(2)) == 3
    labels = {xy.describe_state(s) for s in xy.classes(2)}
    assert not any("v" in label for label in labels)
    report = check_collection(xy.collection(), bound=2)
    assert report.ok, report.render()


def test_unit_collection_is_left_and_right_unit():
    sym = instance_symmetric()
    y = _swap_collection(sym)
    unit = unit_collection(sym)

    left = compose_collections(unit, y, 2)
    for n in range(3):
        # [e; y; g] -> y.g is a bijection of classes onto Y(n) ...
        values = {}
        for state in left.classes(n):
            _, _, _, ys, g = state
            values[left.describe_state(state)] = y.action(n, ys[0], g)
        assert sorted(values.values()) == sorted(y.labels(n))
        # ... commuting with the group actions on both sides.
        for state in left.classes(n):
            for gamma in sym.elements(n):
                acted = left.act(state, gamma)
                _, _, _, ys, g = acted
                assert y.action(n, ys[0], g) == y.action(
                    n, values[left.describe_state(state)], gamma
                )

    right = compose_collections(y, unit, 2)
    for n in range(3):
        values = {}
        for state in right.classes(n):
            _, _, head, _, g = state
            values[right.describe_state(state)] = y.action(n, head, g)
        assert sorted(values.values()) == sorted(y.labels(n))
        for state in right.classes(n):
            for gamma in sym.elements(n):
                acted = right.act(state, gamma)
                _, _, head, _, g = acted
                assert y.action(n, head, g) == y.action(
                    n, values[right.describe_state(state)], gamma
                )


def test_composition_product_associativity_counts():
    sym = instance_symmetric()
    x = _constant_collection("x", {1: 1, 2: 1}, sym)
    y = _swap_collection(sym)
    z = _constant_collection("z", {1: 1, 2: 1}, sym)
    left = compose_collections(compose_collections(x, y, 3).collection(), z, 3)
    right = compose_collections(x, compose_collections(y, z, 3).collection(), 3)
    counts_left = [len(left.classes(n)) for n in range(4)]
    counts_right = [len(right.classes(n)) for n in range(4)]
    assert counts_left == counts_right


def test_composed_collection_labels_every_class_distinctly():
    # describe_state leaves out ks: at arity 2 of ass o comm, the heads 12
    # and 21 with the arguments *,* come with ks = (0,2), (1,1) and (2,0),
    # so 14 classes have only 12 descriptions.
    ass = load_operad(json.loads((DATA / "ass.json").read_text()), name="ass")
    comm = load_operad(json.loads((DATA / "comm.json").read_text()), name="comm")
    xy = compose_collections(ass, comm, 2)
    assert len(xy.classes(2)) == 14
    assert len(set(map(xy.describe_state, xy.classes(2)))) == 12
    labelled = xy.collection()
    for n in range(3):
        assert len(set(labelled.labels(n))) == len(xy.classes(n))
    assert check_collection(labelled, bound=2).ok
    # Labels that merged classes would lose them in a product with the unit.
    unit = unit_collection(instance_symmetric())
    nested = compose_collections(labelled, unit, 2)
    assert [len(nested.classes(n)) for n in range(3)] == [len(xy.classes(n)) for n in range(3)]


def test_composition_product_over_trivial_group():
    trivial = instance_trivial()
    x = _constant_collection("x", {1: 2}, trivial)
    y = _constant_collection("y", {1: 3}, trivial)
    xy = compose_collections(x, y, 2)
    # No relations over the trivial group: plain tuple counting gives 2*3.
    assert len(xy.classes(1)) == 6


def test_composition_product_needs_enumerable_group():
    br = instance_braid()
    x = _constant_collection("x", {1: 1}, br)
    with pytest.raises(ValueError, match="finite group of equivariance"):
        compose_collections(x, x, 2)


def test_the_state_count_refuses_a_group_that_lists_no_elements_as_the_product_does():
    # The count reads |G(n)|, which a group family that lists no elements,
    # as the braids, cannot give, so it refuses the group as the product
    # does, with the same located error.
    p = operad_comm(instance_braid(), max_arity=2)
    errors = []
    for run in (g_operads.composite_states, compose_collections):
        with pytest.raises(ValueError, match="^composition product needs a finite group of equivariance") as caught:
            run(p, p, 2)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_the_state_count_reads_the_family_order_not_its_name():
    # A trivial family renamed "symmetric" still has one element per arity,
    # so over it every composite tuple is its own class.  Counting |G(n)|
    # as n! for that name would give 14 tuples for these 10 classes.
    renamed = dataclasses.replace(instance_trivial(), name="symmetric")
    p = operad_comm(renamed, max_arity=2)
    classes = sum(len(compose_collections(p, p, 2).classes(n)) for n in range(3))
    assert g_operads.composite_states(p, p, 2) == classes == 10


def test_class_action_closes_on_canonical_representatives():
    sym = instance_symmetric()
    x = _constant_collection("x", {1: 1, 2: 1}, sym)
    y = _swap_collection(sym)
    xy = compose_collections(x, y, 3)
    for n in range(4):
        reps = set(map(xy.describe_state, xy.classes(n)))
        for state in xy.classes(n):
            for gamma in sym.elements(n):
                assert xy.describe_state(xy.act(state, gamma)) in reps
