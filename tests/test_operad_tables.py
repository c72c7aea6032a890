"""
Property tests of the table-backed finite operads against slow references.

Every finite operad answers `compose` and `action` from tables that fill
from a generating rule (builders) or from a document (the loader).  The
references below recompute each answer from first principles: the
permutation operations for `ass`, function composition for endomorphism
operads, folding the stored generator rows for loaded documents, and the
constant label for `comm`.  The `reference_*` rules compute every entry
per call, straight from its definition, so whole documents written from
them can be compared byte for byte with those written from the tables.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from operadics.action_operads import instance_braid, instance_symmetric, instance_trivial
from operadics.braids import BraidWord, permutation_braid
from operadics.g_operads import (
    _signatures,
    change_groups,
    endomorphism_operad,
    load_operad,
    operad_ass,
    operad_comm,
    write_operad_document,
)
from operadics.permutations import Permutation, act_on_list, all_permutations, compose, mu_sigma

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"
PACKAGED = ("ass", "comm", "comm_trivial")

SETTINGS = settings(max_examples=60, deadline=None)


def packaged(name):
    return json.loads((DATA / f"{name}.json").read_text())


# ------------------------------------------------------------ references


def _label_perm(label):
    return Permutation(()) if label == "e" else Permutation(tuple(int(c) for c in label))


def _perm_label(p):
    return "".join(map(str, p.image)) if p.n else "e"


def reference_ass_compose(n, ks, head, args):
    return _perm_label(mu_sigma(_label_perm(head), [_label_perm(a) for a in args]))


def reference_ass_action(n, label, g):
    # The classical product label * g: g first, then the label's permutation.
    return _perm_label(compose(g, _label_perm(label)))


def _endo_closures(alphabet, group):
    """Labels decoded into dicts over the lexicographic input tuples, then encoded back."""

    def inputs(n):
        return list(itertools.product(alphabet, repeat=n))

    def decode(n, label):
        return dict(zip(inputs(n), label.split(",")))

    def encode(n, table):
        return ",".join(table[xs] for xs in inputs(n))

    def action(n, label, g):
        fn = decode(n, label)
        pi = group.project(g)
        return encode(n, {xs: fn[tuple(act_on_list(pi, xs))] for xs in inputs(n)})

    def compose_(n, ks, head, args):
        fn = decode(n, head)
        arg_fns = [decode(k, a) for k, a in zip(ks, args)]
        table = {}
        for xs in inputs(sum(ks)):
            values, start = [], 0
            for k, arg_fn in zip(ks, arg_fns):
                values.append(arg_fn[tuple(xs[start:start + k])])
                start += k
            table[xs] = fn[tuple(values)]
        return encode(sum(ks), table)

    return action, compose_


def reference_loaded_action(document, n, label, g):
    """Fold the document's generator rows along the positive word of g, last factor first."""
    rows = [dict(zip(document["levels"][str(n)], row)) for row in document["action"][str(n)]]
    for i in reversed(permutation_braid(g).word):
        label = rows[i - 1][label]
    return label


def reference_loaded_compose(document, n, ks, head, args):
    for record in document["compose"]:
        if (record["n"], tuple(record["ks"]), tuple(record["args"])) == (n, tuple(ks), (head, *args)):
            return record["result"]
    raise AssertionError("document has no such entry")


def reference_document(group, max_arity, levels, unit, action, compose_):
    """The document format, tabulated straight from per-call rules."""
    document = {
        "group": group.name,
        "max_arity": max_arity,
        "levels": {str(n): list(levels[n]) for n in range(max_arity + 1)},
        "action": {
            str(n): [[action(n, label, gen) for label in levels[n]] for gen in group.generators(n)]
            for n in range(max_arity + 1)
        },
        "unit": unit,
        "compose": [],
    }
    for n, ks in _signatures(max_arity, range(max_arity + 1)):
        for head in levels[n]:
            for args in itertools.product(*(levels[k] for k in ks)):
                document["compose"].append(
                    {"n": n, "ks": list(ks), "args": [head, *args], "result": compose_(n, ks, head, args)}
                )
    return document


# ------------------------------------------------------------- strategies


@st.composite
def substitutions(draw, p):
    """A signature within the bound, with labels drawn from the matching levels."""
    signatures = [(n, ks) for n, ks in _signatures(p.max_arity, range(p.max_arity + 1))
                  if p.labels(n) and all(p.labels(k) for k in ks)]
    n, ks = draw(st.sampled_from(signatures))
    head = draw(st.sampled_from(p.labels(n)))
    args = tuple(draw(st.sampled_from(p.labels(k))) for k in ks)
    return n, ks, head, args


@st.composite
def permutations(draw, n):
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def braids(draw, n):
    letters = st.integers(1, max(n - 1, 1)).flatmap(lambda i: st.sampled_from((i, -i)))
    word = draw(st.lists(letters, max_size=6)) if n >= 2 else []
    return BraidWord(n, tuple(word))


@st.composite
def actions(draw, p, elements):
    """An arity with labels, one of its labels and a group element of that arity."""
    n = draw(st.sampled_from([n for n in range(p.max_arity + 1) if p.labels(n)]))
    return n, draw(st.sampled_from(p.labels(n))), draw(elements(n))


def _trivial(n):
    return st.just(n)


# ------------------------------------------------------------------- ass


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_ass_compose_matches_mu_sigma(bound, data):
    p = operad_ass(bound)
    for _ in range(5):
        n, ks, head, args = data.draw(substitutions(p))
        assert p.compose(n, ks, head, args) == reference_ass_compose(n, ks, head, args)
        assert p.compose(n, list(ks), head, list(args)) == reference_ass_compose(n, ks, head, args)


@SETTINGS
@given(data=st.data())
def test_ass_action_matches_right_multiplication(data):
    p = operad_ass(3)
    for _ in range(5):
        n, label, g = data.draw(actions(p, permutations))
        assert p.action(n, label, g) == reference_ass_action(n, label, g)


# ----------------------------------------------------------- endomorphism


@pytest.mark.parametrize("carrier, bound", [(("a",), 3), (("a", "b"), 2)])
@SETTINGS
@given(data=st.data())
def test_endomorphism_tables_match_function_composition(carrier, bound, data):
    sym = instance_symmetric()
    p = endomorphism_operad(carrier, sym, max_arity=bound)
    action, compose_ = _endo_closures(carrier, sym)
    for _ in range(5):
        n, ks, head, args = data.draw(substitutions(p))
        assert p.compose(n, ks, head, args) == compose_(n, ks, head, args)
        n, label, g = data.draw(actions(p, permutations))
        assert p.action(n, label, g) == action(n, label, g)


# ------------------------------------------------------- loaded documents


@pytest.mark.parametrize("name", PACKAGED)
@SETTINGS
@given(data=st.data())
def test_loaded_tables_match_the_document(name, data):
    document = packaged(name)
    p = load_operad(document, name)
    elements = permutations if document["group"] == "symmetric" else _trivial
    for _ in range(5):
        n, ks, head, args = data.draw(substitutions(p))
        assert p.compose(n, ks, head, args) == reference_loaded_compose(document, n, ks, head, args)
        n, label, g = data.draw(actions(p, elements))
        expected = reference_loaded_action(document, n, label, p.group.project(g))
        assert p.action(n, label, g) == expected


@pytest.mark.parametrize("name", PACKAGED)
def test_packaged_documents_round_trip(name):
    document = packaged(name)
    assert write_operad_document(load_operad(document, name)) == document


def test_loaded_action_tables_are_complete():
    p = load_operad(packaged("ass"), "ass")
    sym = instance_symmetric()
    expected = {(n, label, g) for n in range(4) for label in p.labels(n) for g in sym.elements(n)}
    assert set(p.action_table) == expected
    with pytest.raises(ValueError, match="unknown label 'nope' at arity 2"):
        p.action(2, "nope", Permutation((2, 1)))


# ------------------------------------------------------------------- comm


@pytest.mark.parametrize(
    "group, elements",
    [(instance_trivial(), _trivial), (instance_symmetric(), permutations), (instance_braid(), braids)],
    ids=["trivial", "symmetric", "braid"],
)
@SETTINGS
@given(data=st.data())
def test_comm_tables_are_constant(group, elements, data):
    p = operad_comm(group, max_arity=3)
    for _ in range(5):
        assert p.compose(*data.draw(substitutions(p))) == "*"
        n, label, g = data.draw(actions(p, elements))
        assert p.action(n, label, g) == "*"


# ------------------------------------------------------------------ errors


BAD_SIGNATURES = [
    ((2, (1,), "12", ("1",)), "substitution needs 2 arities and arguments, got 1 and 1"),
    ((1, (4,), "1", ("1234",)), "substitution result arity 4 exceeds the bound 3"),
    ((1, (2,), "21x", ("12",)), "unknown label '21x' at arity 1"),
    ((2, (1, 1), "12", ("1", "2")), "unknown label '2' at arity 1"),
]


@pytest.mark.parametrize("build", [
    lambda: operad_ass(3),
    lambda: load_operad(write_operad_document(operad_ass(3))),
    lambda: change_groups(lambda g: g, instance_symmetric(), operad_ass(3)),
], ids=["built", "loaded", "changed"])
@pytest.mark.parametrize("call, message", BAD_SIGNATURES)
def test_bad_signatures_raise_on_every_call(build, call, message):
    p = build()
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            p.compose(*call)
        assert str(caught.value) == message
    assert (call[0], tuple(call[1]), call[2], tuple(call[3])) not in p.compose_table


# -------------------------------------------------------------- documents


def _ass_levels(bound):
    return {n: tuple(sorted(_perm_label(q) for q in all_permutations(n))) for n in range(bound + 1)}


def _endo_levels(alphabet, bound):
    return {
        n: tuple(",".join(out) for out in itertools.product(alphabet, repeat=len(alphabet) ** n))
        for n in range(bound + 1)
    }


def test_builder_documents_match_the_per_call_rules():
    sym, trivial = instance_symmetric(), instance_trivial()
    for bound in range(4):
        assert write_operad_document(operad_ass(bound)) == reference_document(
            sym, bound, _ass_levels(bound), "1", reference_ass_action, reference_ass_compose
        )
    for group in (sym, trivial):
        assert write_operad_document(operad_comm(group, max_arity=4)) == reference_document(
            group, 4, {n: ("*",) for n in range(5)}, "*",
            lambda n, label, g: label, lambda n, ks, head, args: "*",
        )
    for carrier, bound in ((("a",), 3), (("a", "b"), 2)):
        action, compose_ = _endo_closures(carrier, sym)
        assert write_operad_document(endomorphism_operad(carrier, sym, max_arity=bound)) == reference_document(
            sym, bound, _endo_levels(carrier, bound), ",".join(carrier), action, compose_
        )
    forgetful = change_groups(lambda n: sym.identity(n), trivial, operad_ass(3))
    assert write_operad_document(forgetful) == reference_document(
        trivial, 3, _ass_levels(3), "1",
        lambda n, label, g: reference_ass_action(n, label, sym.identity(n)), reference_ass_compose,
    )
