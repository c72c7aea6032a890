"""
Document loading against the earlier per-record loader.

`load_operad` accepts a well-formed compose record by a few lookups in
per-signature maps onto each level's own objects, and checks only the
records that fail that test field by field.  The reference below is the
earlier loader, kept verbatim up to naming, which checks every record
field by field; its label checks test the type first, as the loader's do,
so that a list or an object where a label belongs is reported instead of
failing a set lookup.  Hypothesis mutates one record of a built document,
or one value of it, and both loaders must raise the same `ValueError` text
or build equal tables, down to the types of the keys.  The reference's
fold of the generator rows along each element's word
(`reference_action_table`) is the oracle for the loader's tabulation
along word prefixes, and enumerating signatures is the oracle for
counting substitutions.
"""

import copy
import dataclasses
import gc
import itertools
import json
import math
from pathlib import Path
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadics import cli, g_operads
from operadics.action_operads import instance_symmetric, instance_trivial
from operadics.braids import permutation_braid
from operadics.free_monad import cartesian_condition
from operadics.g_operads import (
    FiniteGOperad,
    _signatures,
    endomorphism_operad,
    load_operad,
    operad_ass,
    operad_comm,
    write_operad_document,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "operadics" / "data"


# ------------------------------------------------------------ references


def reference_arity_signatures(bound):
    for n in range(bound + 1):
        for ks in itertools.product(range(bound + 1), repeat=n):
            if sum(ks) <= bound:
                yield n, ks


def reference_load_operad(document: Mapping, name: str = "loaded operad") -> FiniteGOperad:
    """The per-record loader: every compose record checked field by field."""
    if not isinstance(document, Mapping):
        raise ValueError("document: expected a JSON object")
    group_name = document.get("group")
    if group_name == "trivial":
        group = instance_trivial()
    elif group_name == "symmetric":
        group = instance_symmetric()
    else:
        raise ValueError(f"group: expected 'trivial' or 'symmetric', got {group_name!r}")

    max_arity = document.get("max_arity")
    if type(max_arity) is not int or max_arity < 0:
        raise ValueError(f"max_arity: expected a nonnegative integer, got {max_arity!r}")

    raw_levels = document.get("levels")
    if not isinstance(raw_levels, Mapping):
        raise ValueError("levels: expected a mapping from arity to label lists")
    levels: dict[int, tuple[str, ...]] = {}
    for n in range(max_arity + 1):
        if str(n) not in raw_levels:
            raise ValueError(f"levels: missing arity {n}")
        entries = raw_levels[str(n)]
        if not isinstance(entries, list) or not all(isinstance(x, str) for x in entries):
            raise ValueError(f"levels[{n}]: expected a list of strings")
        if len(set(entries)) != len(entries):
            raise ValueError(f"levels[{n}]: duplicate labels")
        levels[n] = tuple(entries)
    arities = [str(n) for n in range(max_arity + 1)]
    for key in raw_levels:
        if key not in arities:
            raise ValueError(f"levels: unexpected key {key!r}, not an arity from 0 to {max_arity}")

    raw_action = document.get("action")
    if not isinstance(raw_action, Mapping):
        raise ValueError("action: expected a mapping from arity to generator rows")
    action_rows: dict[int, list[dict[str, str]]] = {}
    for n in range(max_arity + 1):
        generators = group.generators(n)
        rows = raw_action.get(str(n))
        if rows is None:
            raise ValueError(f"action: missing arity {n}")
        if not isinstance(rows, list):
            raise ValueError(f"action[{n}]: expected a list of generator rows")
        if len(rows) != len(generators):
            raise ValueError(
                f"action[{n}]: expected {len(generators)} generator rows, got {len(rows)}"
            )
        table = []
        for index, row in enumerate(rows):
            if (
                not isinstance(row, list)
                or not all(isinstance(label, str) for label in row)
                or sorted(row) != sorted(levels[n])
            ):
                raise ValueError(f"action[{n}][{index}]: not a permutation of the labels")
            table.append(dict(zip(levels[n], row)))
        action_rows[n] = table
    for key in raw_action:
        if key not in arities:
            raise ValueError(f"action: unexpected key {key!r}, not an arity from 0 to {max_arity}")

    unit = document.get("unit")
    if unit not in levels.get(1, ()):
        raise ValueError(f"unit: {unit!r} is not a label of arity 1")

    label_sets = {n: frozenset(labels) for n, labels in levels.items()}

    compose_table: dict[tuple, str] = {}
    entries = document.get("compose")
    if not isinstance(entries, list):
        raise ValueError("compose: expected a list of records")
    for position, record in enumerate(entries):
        where = f"compose[{position}]"
        try:
            n, ks, args, result = record["n"], record["ks"], record["args"], record["result"]
        except (KeyError, TypeError):
            raise ValueError(f"{where}: needs the keys n, ks, args, result") from None
        if type(n) is not int:
            raise ValueError(f"{where}: n must be an integer, got {n!r}")
        if not isinstance(ks, list) or len(ks) != n or not all(type(k) is int for k in ks):
            raise ValueError(f"{where}: ks must list {n} arities")
        if sum(ks) > max_arity:
            raise ValueError(f"{where}: result arity {sum(ks)} exceeds the bound {max_arity}")
        if not isinstance(args, list) or len(args) != n + 1:
            raise ValueError(f"{where}: args must hold the head label plus {n} arguments")
        head, rest = args[0], args[1:]
        if type(head) is not str or head not in label_sets.get(n, ()):
            raise ValueError(f"{where}: head label {head!r} is not in level {n}")
        for k, arg in zip(ks, rest):
            if type(arg) is not str or arg not in label_sets.get(k, ()):
                raise ValueError(f"{where}: argument {arg!r} is not in level {k}")
        if type(result) is not str or result not in label_sets.get(sum(ks), ()):
            raise ValueError(f"{where}: result {result!r} is not in level {sum(ks)}")
        key = (n, tuple(ks), head, tuple(rest))
        if key in compose_table and compose_table[key] != result:
            raise ValueError(f"{where}: conflicting duplicate for n={n}, ks={ks}, args={args}")
        compose_table[key] = result

    substitutions = sum(
        len(levels[n]) * math.prod(len(levels[k]) for k in ks)
        for n, ks in reference_arity_signatures(max_arity)
    )
    if len(compose_table) != substitutions:
        for n, ks in reference_arity_signatures(max_arity):
            for head in levels[n]:
                for rest in itertools.product(*(levels[k] for k in ks)):
                    if (n, ks, head, rest) not in compose_table:
                        raise ValueError(
                            f"compose: missing entry for n={n}, ks={list(ks)}, args={[head, *rest]}"
                        )

    action_table = reference_action_table(group, levels, action_rows)

    def missing_action(n: int, label: str, g: Any) -> str:
        if label not in levels.get(n, ()):
            raise ValueError(f"unknown label {label!r} at arity {n}")
        raise ValueError(f"{g!r} is not a group element of arity {n}")

    operad = FiniteGOperad(
        name=name,
        group=group,
        levels=levels,
        unit=unit,
        action=missing_action,
        compose=lambda *key: compose_table[key],
        max_arity=max_arity,
    )
    operad.action_table = action_table
    operad.compose_table = compose_table
    return operad


def reference_action_table(group, levels, action_rows) -> dict[tuple[int, str, Any], str]:
    """Every element's action on each level, folding the generator rows along its positive word."""
    action_table: dict[tuple[int, str, Any], str] = {}
    for n in levels:
        for g in group.elements(n):
            word = permutation_braid(group.project(g)).word[::-1]
            for start in levels[n]:
                label = start
                for i in word:
                    label = action_rows[n][i - 1][label]
                action_table[(n, start, g)] = label
    return action_table


def outcome(loader, document):
    """The error text, or everything the loaded operad holds, with exact key types."""
    try:
        p = loader(copy.deepcopy(document), "mutant")
    except ValueError as exc:
        return ("error", str(exc))
    return (
        "loaded", p.name, p.group.name, p.max_arity, p.unit, p.levels,
        sorted(map(repr, p.compose_table.items())),
        sorted(map(repr, p.action_table.items())),
    )


# ------------------------------------------------------------ signatures


@pytest.mark.parametrize("bound", range(7))
def test_arity_signatures_match_product_and_filter(bound):
    assert list(_signatures(bound, range(bound + 1))) == list(reference_arity_signatures(bound))


_SIZES = st.lists(st.integers(0, 2), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(sizes=_SIZES)
def test_the_substitution_count_equals_the_enumeration(sizes):
    # sizes[n] labels at arity n, max_arity = len(sizes) - 1 <= 7.
    max_arity = len(sizes) - 1
    levels = dict(enumerate(sizes))
    inhabited = [n for n, size in levels.items() if size]
    enumerated = sum(
        levels[n] * math.prod(levels[k] for k in ks)
        for n, ks in g_operads._signatures(max_arity, inhabited)
    )
    assert sum(g_operads._signature_counts(levels, levels, max_arity)) == enumerated


@settings(max_examples=200, deadline=None)
@given(heads=_SIZES, arguments=_SIZES, bound=st.integers(0, 6))
def test_the_count_by_arity_equals_the_enumeration(heads, arguments, bound):
    # Head arities may exceed the bound: arity-0 arguments keep sum(ks) down.
    heads, arguments = dict(enumerate(heads)), dict(enumerate(arguments))
    enumerated = [0] * (bound + 1)
    argument_arities = [k for k in range(bound + 1) if arguments.get(k)]
    for r, size in heads.items():
        for ks in g_operads._within(bound, r, argument_arities):
            enumerated[sum(ks)] += size * math.prod(arguments[k] for k in ks)
    assert g_operads._signature_counts(heads, arguments, bound) == enumerated


# ------------------------------------------------------------- mutations


def unit_only_document(max_arity: int) -> dict:
    """The trivial-group operad with one label, the unit, and every other level empty."""
    return {
        "group": "trivial",
        "max_arity": max_arity,
        "levels": {str(n): ["e"] if n == 1 else [] for n in range(max_arity + 1)},
        "action": {str(n): [] for n in range(max_arity + 1)},
        "unit": "e",
        "compose": [{"n": 1, "ks": [1], "args": ["e", "e"], "result": "e"}],
    }


BASES = {
    "ass2": write_operad_document(operad_ass(2)),
    "ass3": json.loads((DATA / "ass.json").read_text()),
    "comm3": write_operad_document(operad_comm(instance_symmetric(), max_arity=3)),
    "commT2": write_operad_document(operad_comm(instance_trivial(), max_arity=2)),
    "endoAB1": write_operad_document(endomorphism_operad(("a", "b"), instance_symmetric(), 1)),
    "unitT4": unit_only_document(4),
}


def _all_labels(document):
    return sorted({label for labels in document["levels"].values() for label in labels})


@st.composite
def mutants(draw):
    """A base document with one compose record changed, added, dropped or replaced."""
    document = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    records = document["compose"]
    position = draw(st.integers(0, len(records) - 1))
    record = records[position]
    n = record["n"]
    foreign = draw(st.sampled_from([*_all_labels(document), "nope", ""]))
    kind = draw(st.sampled_from([
        "n-bool", "n-float", "n-other", "ks-bool", "ks-float", "ks-length", "ks-tuple",
        "args-short", "args-long", "args-string", "args-tuple", "args-foreign", "result",
        "duplicate-conflicting", "duplicate-consistent", "drop", "not-a-dict",
        "field-value", "slot-value", "document-value", "stray-arity",
    ]))

    def odd(value):
        """A JSON value of another shape than a label or an arity."""
        return draw(st.sampled_from([[value], {"label": value}, None, True, 1.5]))

    if kind == "n-bool":
        record["n"] = draw(st.booleans())
    elif kind == "n-float":
        record["n"] = float(n)
    elif kind == "n-other":
        record["n"] = draw(st.sampled_from([n - 1, n + 1]))
    elif kind in ("ks-bool", "ks-float") and n:
        slot = draw(st.integers(0, n - 1))
        k = record["ks"][slot]
        record["ks"][slot] = bool(k) if kind == "ks-bool" else float(k)
    elif kind == "ks-length":
        if n and draw(st.booleans()):
            record["ks"].pop()
        else:
            record["ks"].append(draw(st.integers(0, 2)))
    elif kind == "ks-tuple":
        # A Python caller may pass a tuple where the JSON list belongs.
        record["ks"] = tuple(record["ks"])
    elif kind == "args-short":
        record["args"].pop()
    elif kind == "args-long":
        record["args"].append(foreign)
    elif kind == "args-string":
        record["args"] = ",".join(record["args"])
    elif kind == "args-tuple":
        record["args"] = tuple(record["args"])
    elif kind == "args-foreign":
        record["args"][draw(st.integers(0, n))] = foreign
    elif kind == "result":
        record["result"] = foreign
    elif kind.startswith("duplicate"):
        twin = copy.deepcopy(record)
        if kind == "duplicate-conflicting":
            twin["result"] = foreign
        records.insert(draw(st.integers(0, len(records))), twin)
    elif kind == "drop":
        records.pop(position)
    elif kind == "not-a-dict":
        records[position] = draw(st.sampled_from([list(record.values()), "record", None, 7]))
    elif kind == "field-value":
        field = draw(st.sampled_from(["n", "ks", "args", "result"]))
        record[field] = odd(record[field])
    elif kind == "slot-value":
        field = draw(st.sampled_from(["ks", "args"] if n else ["args"]))
        slot = draw(st.integers(0, len(record[field]) - 1))
        record[field][slot] = odd(record[field][slot])
    elif kind == "document-value":
        key = draw(st.sampled_from(["group", "max_arity", "levels", "action", "unit", "compose"]))
        document[key] = odd(document[key])
    elif kind == "stray-arity":
        # A lower max_arity leaves its old top arity stray in both mappings.
        key = draw(st.sampled_from(["max_arity", "levels", "action"]))
        if key == "max_arity":
            document["max_arity"] = max(document["max_arity"] - 1, 0)
        else:
            stray = draw(st.sampled_from([str(document["max_arity"] + 1), "x", "01"]))
            document[key][stray] = draw(st.sampled_from([[], ["zz"], "garbage"]))
    return document


@settings(max_examples=300, deadline=None)
@given(document=mutants())
def test_loader_agrees_with_the_per_record_reference(document):
    assert outcome(load_operad, document) == outcome(reference_load_operad, document)


@pytest.mark.parametrize("name", sorted(BASES))
def test_unmutated_documents_load_as_before(name):
    loaded = outcome(load_operad, BASES[name])
    assert loaded[0] == "loaded"
    assert loaded == outcome(reference_load_operad, BASES[name])


PACKAGED = {
    name: json.loads((DATA / f"{name}.json").read_text()) for name in ("ass", "comm", "comm_trivial")
}


@pytest.mark.parametrize("document", [*BASES.values(), *PACKAGED.values()], ids=[*BASES, *PACKAGED])
def test_the_compose_table_is_made_of_the_levels_own_objects(document):
    # Decoded afresh, every label of a record is a string of its own, equal
    # to a level's label but not that object (one-character strings aside).
    p = load_operad(json.loads(json.dumps(document)))
    own = {n: dict(zip(labels, labels)) for n, labels in p.levels.items()}
    shared: dict[tuple, tuple] = {}
    for (n, ks, head, rest), result in p.compose_table.items():
        assert shared.setdefault(ks, ks) is ks
        assert shared.setdefault((ks, rest), rest) is rest
        assert head is own[n][head]
        assert all(arg is own[k][arg] for k, arg in zip(ks, rest))
        assert result is own[sum(ks)][result]


@pytest.mark.parametrize(
    "change, error",
    [
        ({"levels": {"9": ["zz"]}}, "levels: unexpected key '9', not an arity from 0 to 4"),
        ({"action": {"9": "garbage"}}, "action: unexpected key '9', not an arity from 0 to 4"),
        ({"levels": {"9": ["zz"]}, "action": {"9": "garbage"}}, "levels: unexpected key '9', not an arity from 0 to 4"),
        ({"max_arity": 3}, "levels: unexpected key '4', not an arity from 0 to 3"),
    ],
    ids=["levels", "action", "both", "lower max_arity"],
)
def test_a_stray_arity_key_is_refused(tmp_path, capsys, change, error):
    # comm.json with a key beyond its arities, which would otherwise be
    # ignored, is refused at its first such key; through the CLI, with exit 2.
    document = copy.deepcopy(PACKAGED["comm"])
    for key, value in change.items():
        document[key] = {**document[key], **value} if isinstance(value, dict) else value
    with pytest.raises(ValueError, match=f"^{error}$"):
        load_operad(copy.deepcopy(document))
    assert outcome(reference_load_operad, document) == ("error", error)
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(document))
    assert cli.main(["operad", "check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {error}\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "text, code, error",
    [
        (json.dumps(BASES["ass2"]), 0, ""),
        ('{"group": ', 2, ":1:11: Expecting value"),
        (json.dumps({**BASES["ass2"], "unit": "nope"}), 2, ": unit: 'nope' is not a label of arity 1"),
    ],
    ids=["loaded", "json-error", "located-error"],
)
def test_loading_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled, text, code, error):
    path = tmp_path / "document.json"
    path.write_text(text)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["operad", "cartesian", str(path)]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert capsys.readouterr().err == (f"error: {path}{error}\n" if error else "")


def test_a_short_document_never_builds_the_signature_table(monkeypatch):
    # The table holds one argument tuple per substitution at most, so it is
    # only worth building, and only bounded by the input, when there are at
    # least as many records as substitutions.
    built = []
    original = g_operads._record_signatures
    monkeypatch.setattr(
        g_operads, "_record_signatures", lambda *a: built.append(1) or original(*a)
    )
    document = copy.deepcopy(BASES["ass2"])
    load_operad(copy.deepcopy(document))
    assert built == [1]
    gone = document["compose"].pop()
    with pytest.raises(ValueError, match="missing entry") as caught:
        load_operad(document)
    assert built == [1]
    assert str(caught.value) == (
        f"compose: missing entry for n={gone['n']}, ks={gone['ks']}, args={gone['args']}"
    )


@pytest.mark.parametrize("value", [["12"], {"label": "12"}])
def test_an_unhashable_label_is_a_located_error_with_exit_2(tmp_path, capsys, value):
    document = write_operad_document(operad_ass(2))
    head = document["compose"][3]["args"][0]
    document["compose"][3]["args"][0] = value
    path = tmp_path / "ass2.json"
    path.write_text(json.dumps(document))
    assert cli.main(["operad", "check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: compose[3]: head label {value!r} is not in level {document['compose'][3]['n']}\n"
    )
    document["compose"][3]["args"][0] = head
    document["compose"][3]["result"] = value
    with pytest.raises(ValueError, match=r"^compose\[3\]: result "):
        load_operad(document)


def test_loading_enumerates_only_signatures_over_non_empty_levels(monkeypatch):
    visited = []
    original = g_operads._signatures

    def counted(bound, arities):
        for signature in original(bound, arities):
            visited.append(signature)
            yield signature

    monkeypatch.setattr(g_operads, "_signatures", counted)
    document = unit_only_document(11)
    p = load_operad(copy.deepcopy(document))
    assert p.compose_table == {(1, (1,), "e", ("e",)): "e"}
    # The substitutions are counted without enumerating signatures; the
    # per-signature table is built once.
    assert visited == [(1, (1,))]
    visited.clear()
    document["compose"] = []
    with pytest.raises(ValueError, match=r"^compose: missing entry for n=1, ks=\[1\], args=\['e', 'e'\]$"):
        load_operad(document)
    # Only naming the first gap enumerates; no table for a short document.
    assert visited == [(1, (1,))]


@st.composite
def table_mutants(draw):
    """
    A base document with one value inside ``levels`` or ``action`` -- a
    label, a whole level, a row entry, a whole row or a whole arity's rows --
    wrapped in a list or an object, or replaced by null, a bool or a float;
    with the start of the location the error must name.
    """
    document = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    levels, action = document["levels"], document["action"]
    targets = [("level", n) for n in levels] + [("rows", n) for n in action]
    targets += [("label", n) for n, labels in levels.items() if labels]
    targets += [("row", n) for n, rows in action.items() if rows]
    kind, n = draw(st.sampled_from(targets))
    if kind == "level":
        container, key, location = levels, n, f"levels[{n}]: "
    elif kind == "label":
        container, key, location = levels[n], draw(st.integers(0, len(levels[n]) - 1)), f"levels[{n}]: "
    elif kind == "rows":
        container, key, location = action, n, f"action[{n}]"
    else:
        index = draw(st.integers(0, len(action[n]) - 1))
        container, key, location = action[n], index, f"action[{n}][{index}]: "
        if action[n][index] and draw(st.booleans()):
            container, key = action[n][index], draw(st.integers(0, len(action[n][index]) - 1))
    value = draw(st.sampled_from([[container[key]], {"label": container[key]}, None, True, 1.5]))
    container[key] = value
    if kind == "rows" and value is None:
        location = f"action: missing arity {n}"
    return document, location


@settings(max_examples=300, deadline=None)
@given(mutant=table_mutants())
def test_a_foreign_value_in_the_tables_is_a_located_error(mutant):
    document, location = mutant
    result = outcome(load_operad, document)
    assert result[0] == "error" and result[1].startswith(location)
    assert result == outcome(reference_load_operad, document)


def one_label_per_level(max_arity: int) -> dict:
    """A trivial-group document with the label pn at every arity n and no compose records."""
    return {
        "group": "trivial",
        "max_arity": max_arity,
        "levels": {str(n): [f"p{n}"] for n in range(max_arity + 1)},
        "action": {str(n): [] for n in range(max_arity + 1)},
        "unit": "p1",
        "compose": [],
    }


def test_a_short_document_is_refused_without_enumerating_its_signatures():
    # The substitutions number about 10^22 at max_arity 40; enumerating
    # them took 0.98 s at max_arity 10 and 24.7 s at 12.
    message = r"^compose: missing entry for n=0, ks=\[\], args=\['p0'\]$"
    assert outcome(load_operad, one_label_per_level(5)) == outcome(
        reference_load_operad, one_label_per_level(5)
    )
    with pytest.raises(ValueError, match=message):
        load_operad(one_label_per_level(40))


def test_a_short_document_at_max_arity_400_is_refused_by_the_capped_count():
    # Counting every substitution exactly, with big ints at each of the 400
    # head arities, took 8.96 s on a 2-vCPU machine.  The count stops at one
    # more than the number of records, so this refusal is as cheap as at 40.
    with pytest.raises(ValueError) as refusal:
        load_operad(one_label_per_level(400))
    assert str(refusal.value) == "compose: missing entry for n=0, ks=[], args=['p0']"


@settings(max_examples=200, deadline=None)
@given(heads=_SIZES, arguments=_SIZES, bound=st.integers(0, 6), cap=st.integers(0, 60))
def test_the_capped_count_is_exact_below_the_cap_and_none_from_it(heads, arguments, bound, cap):
    # None stands for min(exact total, cap) == cap: the tuples number cap or more.
    heads, arguments = dict(enumerate(heads)), dict(enumerate(arguments))
    exact = g_operads._signature_counts(heads, arguments, bound)
    capped = g_operads._signature_counts(heads, arguments, bound, cap)
    assert capped == (exact if sum(exact) < cap else None)


# ------------------------------------------------------- empty levels, size


def symmetric_document(max_arity: int, top: int = 0) -> dict:
    """
    A symmetric-group operad with the unit and, if `top`, that many labels
    at arity max_arity acted on trivially; every other level is empty.
    """
    labels = [f"x{i}" for i in range(top)]
    levels = {str(n): [] for n in range(max_arity + 1)}
    levels["1"] = ["e"]
    if top:
        levels[str(max_arity)] = labels
    compose = [{"n": 1, "ks": [1], "args": ["e", "e"], "result": "e"}]
    if top:
        compose += [{"n": 1, "ks": [max_arity], "args": ["e", x], "result": x} for x in labels]
        compose += [
            {"n": max_arity, "ks": [1] * max_arity, "args": [x] + ["e"] * max_arity, "result": x}
            for x in labels
        ]
    return {
        "group": "symmetric",
        "max_arity": max_arity,
        "levels": levels,
        "action": {str(n): [list(levels[str(n)])] * max(n - 1, 0) for n in range(max_arity + 1)},
        "unit": "e",
        "compose": compose,
    }


def test_empty_levels_list_no_group_elements(monkeypatch):
    # The earlier loader folded a word for each of the sum of n! = 874
    # elements of G(0)..G(6), and the pointwise criterion listed them all.
    words = []
    monkeypatch.setattr(
        g_operads, "permutation_braid", lambda p: words.append(p) or permutation_braid(p)
    )
    p = load_operad(symmetric_document(6))
    assert len(words) == 1
    listed = []
    group = p.group
    p.group = dataclasses.replace(group, elements=lambda n: listed.extend(group.elements(n)) or group.elements(n))
    assert cartesian_condition(p) == (True, None)
    assert len(listed) == 1


def test_the_action_size_guard_at_its_limit(tmp_path, capsys, monkeypatch):
    # Eight labels at arity 7 make 8 * 7! = 40,320 action entries, the limit.
    assert g_operads.MAX_ACTION_ENTRIES == 8 * math.factorial(7)
    p = load_operad(symmetric_document(7, top=8))
    assert len(p.action_table) == 1 + 8 * math.factorial(7)
    # A ninth label fails before any group element is listed.
    monkeypatch.setattr(g_operads, "permutation_braid", None)
    monkeypatch.setattr(g_operads, "_signatures", None)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(symmetric_document(7, top=9)))
    assert cli.main(["operad", "check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: action[7]: 9 labels under 7! permutations make 45360 action entries, "
        f"more than the limit 40320\n"
    )


@pytest.mark.parametrize("group", ["symmetric", "trivial"])
def test_generator_rows_are_counted_without_listing_generators(monkeypatch, group):
    # The row count of arity n is n - 1 for a symmetric document and 0 for
    # a trivial one; listing the generators built n - 1 permutations per
    # arity, cubic in max_arity.
    listed = []
    for name, build in (("instance_symmetric", instance_symmetric), ("instance_trivial", instance_trivial)):
        monkeypatch.setattr(
            g_operads,
            name,
            lambda build=build: dataclasses.replace(
                build(), generators=lambda n: listed.append(n) or build().generators(n)
            ),
        )
    document = symmetric_document(40) if group == "symmetric" else unit_only_document(40)
    assert load_operad(copy.deepcopy(document)).max_arity == 40
    rows = document["action"]["40"]
    document["action"]["40"] = rows[1:] if rows else [[]]
    expected = 39 if group == "symmetric" else 0
    with pytest.raises(ValueError) as caught:
        load_operad(document)
    assert str(caught.value) == (
        f"action[40]: expected {expected} generator rows, got {len(document['action']['40'])}"
    )
    assert listed == []


def assert_tabulated_as_the_fold(document):
    loaded = load_operad(copy.deepcopy(document))
    # The reference loader's fold, without its enumeration of every signature.
    rows = {
        m: [dict(zip(labels, row)) for row in document["action"][str(m)]]
        for m, labels in loaded.levels.items()
    }
    assert loaded.action_table == reference_action_table(loaded.group, loaded.levels, rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_action_tables_built_along_prefix_words_equal_the_fold(data):
    # Random generator rows need not satisfy the Coxeter relations (a row
    # may be a 3-cycle), so the tabulated "action" need not be one; the
    # tables must still equal the reference's fold along each element's word.
    # Arity 8 costs 8! words per example, so it is the fixed case below.
    n = data.draw(st.integers(2, 7), label="arity")
    document = symmetric_document(n, top=data.draw(st.integers(1, 3), label="labels"))
    labels = document["levels"][str(n)]
    document["action"][str(n)] = [
        data.draw(st.permutations(labels), label=f"row {i}") for i in range(n - 1)
    ]
    assert_tabulated_as_the_fold(document)


def test_action_tables_at_arity_8_equal_the_fold(monkeypatch):
    # Three labels at arity 8 make 3 * 8! entries, past the size guard.  The
    # seven rows run through all six permutations of the labels: the
    # identity, the transpositions and both 3-cycles.
    monkeypatch.setattr(g_operads, "MAX_ACTION_ENTRIES", 3 * math.factorial(8))
    document = symmetric_document(8, top=3)
    orders = list(itertools.permutations(document["levels"]["8"]))
    document["action"]["8"] = [list(orders[i % len(orders)]) for i in range(7)]
    assert_tabulated_as_the_fold(document)
