"""
Finite operads with a group of equivariance, at desk scale.

A collection assigns to each arity a finite set of labels with a right
action of the corresponding group: x.e = x and (x.g).h = x.(gh), where gh
is the classical product exposed by the ActionOperad instances.  An operad
adds a unit label and a substitution map, subject (beyond unit and
associativity) to two equivariance axioms tying substitution to the group
structure:

    mu(x; y_1.g_1, ..., y_n.g_n) = mu(x; ys) . mu_G(e; g_1, ..., g_n)
    mu(x.g; y_1, ..., y_n)       = mu(x; y_{pi(g)^-1(1)}, ...) . mu_G(g; e_{k_1}, ..., e_{k_n})

with k_i the arity of y_i as listed on the left-hand side.  The checkers
in this module decide all of these up to the operad's arity bound
(sampling group elements when the group is infinite) and report one
PASS/FAIL line per law, each stopping at its first counterexample.
The laws that range over group elements follow the one policy stated at
GROUP_SAMPLE_BUDGET: a group of cases is decided on generators exactly when
`_right_action_fault` holds at the levels it reads, and walked over the
listed elements otherwise.  That precondition is that the action is a
right one decided on generators: the group lists its elements and
generators, every x.g lies inside the level, x.e = x, x.(g s) = (x.g).s for
every element g and generator s, and those products reach all of G(n) from
e.  A group that lists no elements or no generators, as the braid groups,
fails it before any action is read.  `_right_action_fault` tabulates a
level's action and decides it, at most once per collection and arity in a
call, whose laws and orbit quotients share one memo of checked levels
(`_checked_levels`).  Given it and the action-operad axioms, each law
below holds at every element once it holds at the generators, by
induction on a word in the generators:
  - action composition follows from the precondition alone;
  - equivariance in the operad slot is walked at each generator of G(n),
    for all signatures of head arity n together, since the law at g s
    reads the law at g on the signature that s permutes ks into;
  - equivariance in the argument slots is walked per signature with one
    slot at a generator and the others at the identity;
  - constancy on classes in `free_monad` is walked at each generator.
`check_operad` has one typing fact: the verdict of its first law, "tables
are well-typed", which reads every composite and the action of every
listed element.  Neither equivariance law is decided on generators unless
that law passed.  When it passed, a group is decided with no walk at all
if every level its two sides land in has one label (the one-label rule):
both equivariance laws land in level sum(ks), and operad associativity in
level sum(ls).  Two values in a level with one label are equal, and every
read of such a group was already made by the typing law, so a fault there
is a label outside its level, which fails that law and leaves the group
to the walk.  Associativity's rows need no typing fact.  A group of cases
so decided counts its listed size, counted from the level sizes without
listing a case, and one whose decision fails or raises is walked case by
case as listed, so verdicts, counts, witnesses and errors are those of
the listed walk.
Every law, the loader, the document writer and the searches list their
cases the same way.  Only arities whose level has a label (`_inhabited`)
are walked, since no case reads an empty level: `_substitutions` lists
every (n; ks; head; args) through them, and `_group_samples` lists their
group elements, each once, by the policy stated at GROUP_SAMPLE_BUDGET.
Every bounded space of arity tuples they walk is listed by `_within`,
which builds only the tuples within the bound, in `itertools.product` order.
A law report reads its compose and action values through `_ReadThrough`
tables that live for one call: the first read of a key goes through
`p.compose` or `p.action`, so rebinding either still injects a fault, and
every later read is a dict subscript.  Reads are taken to depend on the key
alone, so a law may decide a group of cases by rows, or on generators, and
replay the group case by case only when that fails (`_rows_or_replay`).  Both
associativity laws, here and in `free_monad`, have one row shape: a list
per label over the flat tuples of a length, read at position columns.

One representation serves every finite operad: `FiniteGOperad` holds a
compose table keyed by (n, ks, head, args) and an action table keyed by
(n, label, g), and `FiniteGCollection` is its action-only part.
`load_operad` fills both tables completely while validating the document;
builders and direct construction fill an entry from their generating rule
the first time it is asked for (a substitution's signature is validated
first).  Errors are never stored, so a bad call raises every time.
Operads round-trip through a JSON document format for the command-line
tools.

Loading validates every compose record.  Once per document it decides
that every n is an int and every ks a list of ints, all of exact type,
and tabulates, for each signature ks within the bound, one tuple: n, ks,
and maps sending each head label, valid argument tuple and result label
to the level's own object.  A well-formed record is then accepted by
three lookups in these maps, and is entered from their values only, so
the table shares the level's labels, one ks tuple per signature and one
tuple per argument tuple, and keeps no string of the document.  A record
that fails a lookup (a tuple where the argument list belongs, a label
missing from its map, one argument too many), and every record of a
document whose arities are not all exact ints, is checked field by field
in a fixed order, and the first fault is reported with its position.  The table is complete exactly when it holds
sum |P(n)| * prod |P(k_i)| keys.  `_signature_counts` counts these
by a dynamic program over arity sums, listing no signature and stopping
once the count passes the number of records, so a short document is
refused without enumerating its signatures or counting them all.  The
action of each group element is tabulated from the row of the element
whose positive word is its own minus the last letter.

One orbit quotient, `_orbit_quotient`, serves the composition product and
`free_monad`, whose free algebra is the arity-0 part of P o X with the
carrier X in arity 0.  It works in two stages, orbit-stabilizer with
Schreier generators (Sims 1970).  A state is a point p, its significant
coordinate, with a member z of the rest: for the composition product the
points are the prefixes (r; ks; x; ys) of each arity n and the rest is
G(n), and for the free algebra the points are the labels of P(r) and the
rest is X^r.  A prefix's id is the offset of its signature (r; ks) + head
rank * argument tuples + argument-tuple rank, labels ranked sorted and
elements by `_element_key`, so ids run in key order with the point more
significant than the rest.  For right actions the identifications are
orbits of group actions, so states are related only along generators:
those of G(r) in the x slot and those of each G(k_i) in its argument slot.
Each generator relates the states over one point to those over another,
changing z by what the generator and the signature alone fix: left
multiplication in G(n) by a cable or block sum, or a permutation of the r
positions of xs.  Stage 1 searches the orbits of the points along these
moves from each orbit's least point, and records for each point its carry,
the transversal element that takes its states to those over that root; an
edge that closes a cycle gives a Schreier generator of the root's
stabilizer K.  Stage 2 finds the orbits of K on the rest, the cosets K.g
or K's orbits on X^r, along those generators, once per set of generators
in a call.  A class is represented by its root, its least id: the orbit's
least point with the least member of its stage-2 class, which is its least
key.  Neither product keeps anything per state: `canonical` computes a
state's class on demand from its point's root and carry and the stage-2
table, and refuses a state the product does not enumerate.  The quotient
reads the precondition above from its caller's memo, and a level that
fails it is a `ValueError` naming the collection and the arity.
`composite_states` counts the tuples the composition product enumerates
from the level sizes and the family's `order` alone, so a caller can
refuse a product too large to build before listing anything, and
`associativity_cases` counts the cases of operad associativity the same
way, so a caller can refuse a check.

Algebra structures are found by finite-model search (`_backtrack`, in
the style of SEM and Mace4) rather than by checking every candidate
table.  The table's slots are set in order, each value tried in carrier
order, and every unit, equivariance and associativity instance is tested
as soon as the last slot it reads is set, so a failing prefix drops every
table that extends it.  An instance whose slot depends on computed values
is tested only if that slot is already set.  Each complete table is
confirmed by `check_algebra`, drawing the same equivariance samples as
the search, so the search returns exactly the tables, in
`itertools.product` order, that checking every candidate would.  Operad
maps are still found by checking every candidate table.
A document is refused before its action is tabulated when one level
would hold more than MAX_ACTION_ENTRIES entries |G(n)| * |P(n)|.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .action_operads import ActionOperad, instance_symmetric, instance_trivial
from .braids import permutation_braid
from .permutations import Permutation, act_on_list, all_permutations
from .reporting import Report


class FiniteGCollection:
    """
    Finite label sets per arity with a right group action on each.

    `action(n, label, g)` answers from `action_table` and computes a missing
    entry once from the rule given at construction.  It is an ordinary
    attribute, so it can be rebound (for instance to inject a fault).
    """

    def __init__(
        self,
        name: str,
        group: ActionOperad,
        levels: Mapping[int, Iterable[str]],
        action: Callable[[int, str, Any], str],
    ):
        self.name = name
        self.group = group
        self.levels = {n: tuple(labels) for n, labels in levels.items()}
        self.action_rule = action
        self.action_table: dict[tuple[int, str, Any], str] = {}

    def action(self, n: int, label: str, g: Any) -> str:
        key = (n, label, g)
        try:
            return self.action_table[key]
        except KeyError:
            pass
        result = self.action_table[key] = self.action_rule(n, label, g)
        return result

    def labels(self, n: int) -> tuple[str, ...]:
        return self.levels.get(n, ())

    def arities(self) -> list[int]:
        return sorted(n for n, labels in self.levels.items() if labels)


class FiniteGOperad(FiniteGCollection):
    """
    A finite collection with unit and substitution, bounded in arity.

    `compose(n, ks, head, args)` answers from `compose_table`; a missing
    entry has its signature validated and is then computed once from the
    rule given at construction.  Like `action`, it can be rebound.
    """

    def __init__(
        self,
        name: str,
        group: ActionOperad,
        levels: Mapping[int, Iterable[str]],
        unit: str,
        action: Callable[[int, str, Any], str],
        compose: Callable[[int, Sequence[int], str, Sequence[str]], str],
        max_arity: int,
    ):
        super().__init__(name, group, levels, action)
        self.unit = unit
        self.max_arity = max_arity
        self.compose_rule = compose
        self.compose_table: dict[tuple[int, tuple[int, ...], str, tuple[str, ...]], str] = {}

    def compose(self, n: int, ks: Sequence[int], head: str, args: Sequence[str]) -> str:
        key = (n, tuple(ks), head, tuple(args))
        try:
            return self.compose_table[key]
        except (KeyError, TypeError):
            _require_signature(n, ks, head, args, self.levels, self.max_arity)
        result = self.compose_table[key] = self.compose_rule(*key)
        return result


class _ReadThrough(dict):
    """
    The values one call reads from `read`, keyed by its argument tuples: a
    missing key is read through read(*key) and stored, so a later read of
    it is a plain subscript.  An error is raised, never stored.
    """

    __slots__ = ("read",)

    def __init__(self, read: Callable[..., Any]):
        super().__init__()
        self.read = read

    def __missing__(self, key: tuple) -> Any:
        value = self[key] = self.read(*key)
        return value


def _rows_or_replay(
    groups: Iterable[tuple[int, Callable[[], bool], Callable[[], Iterator[str | None]]]]
) -> Iterator[int | str | None]:
    """
    The cases of a law for `Report.check`, from groups (size, agree, replay):
    agree() decides the group's size cases at once, by rows of values or on
    generators, and replay() lists them case by case.  A group whose agree()
    holds counts as size passing cases.  Any other is replayed, as is one
    where a read raises in agree(), so the case that reaches that read raises
    again.  As reads depend on their key alone, the verdict, count, first
    witness and error are those of the per-case loop.
    """
    for size, agree, replay in groups:
        try:
            passed = agree()
        except Exception:
            passed = False
        if passed:
            yield size
        else:
            yield from replay()


@dataclass
class AlgebraStructure:
    """A finite carrier together with one evaluation map per arity."""

    carrier: tuple[str, ...]
    maps: Callable[[int, str, Sequence[str]], str]


# ----------------------------------------------------------- signatures


def _signatures(bound: int, arities: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """
    The substitution signatures (n; k_1..k_n) with n and sum(k) within
    bound whose n and every k_i are among the ascending `arities`: by n,
    then lexicographically in ks.
    """
    for n in arities:
        for ks in _within(bound, n, arities):
            yield n, ks


def _inhabited(labels: Callable[[int], Sequence[str]], bound: int) -> list[int]:
    """The arities n <= bound whose level has a label, ascending."""
    return [n for n in range(bound + 1) if labels(n)]


def _substitutions(labels: Callable[[int], Sequence[str]], bound: int) -> Iterator[tuple]:
    """
    Every substitution (n, ks, head, args) within bound: by signature (by n,
    then lexicographically in ks), through the inhabited arities only, then by
    head, then by argument tuple in product order.  A signature with an
    empty level has no substitution, so it is never listed.
    """
    for n, ks in _signatures(bound, _inhabited(labels, bound)):
        for head in labels(n):
            for args in itertools.product(*map(labels, ks)):
                yield n, ks, head, args


def _within(bound: int, slots: int, items: Sequence, weights: Sequence[int] | None = None) -> list[tuple]:
    """
    The tuples of `itertools.product(items, repeat=slots)` whose weights sum
    to at most bound, in product order.  Slot by slot, each kept prefix is
    extended in order by every item that still fits, so no tuple over the
    bound is built.  An arity weighs itself (the default), a class its arity.
    """
    pairs = list(zip(items, items if weights is None else weights))
    level = [((), bound)]
    for _ in range(slots):
        level = [(t + (item,), left - w) for t, left in level for item, w in pairs if w <= left]
    return [t for t, _ in level]


def _signature_counts(
    heads: Mapping[int, int], arguments: Mapping[int, int], bound: int, cap: float = math.inf
) -> list[int] | None:
    """
    Per arity n <= bound, the substitution tuples (head; args) over the
    signatures (r; k_1..k_r) with sum(ks) = n: the sum over r of heads[r]
    times the sum over ks of prod arguments[k_i].  Counted by a dynamic
    program over arity sums, in exact ints; no signature is listed.  It
    stops with None as soon as the tuples total cap or more, and no
    intermediate count exceeds cap, so a caller that needs the total only
    up to cap does work bounded by cap, not by the size of the count.
    """
    weights = [(k, arguments[k]) for k in range(bound + 1) if arguments.get(k)]
    counts = [0] * (bound + 1)
    total = 0
    # ways[s]: the argument tuples of r slots whose arities sum to s, or cap
    # if there are more; such a value ends the count at the next head arity.
    ways = [1] + [0] * bound
    top = max((r for r, size in heads.items() if size), default=-1)
    for r in range(top + 1):
        if heads.get(r):
            counts = [count + heads[r] * tuples for count, tuples in zip(counts, ways)]
            total += heads[r] * sum(ways)
            if total >= cap:
                return None
        ways = [min(cap, sum(w * ways[s - k] for k, w in weights if k <= s)) for s in range(bound + 1)]
    return counts if total < cap else None


def _require_finite_product(group: ActionOperad) -> None:
    """Refuse a composition product over a group family that lists no elements or states no order."""
    if group.elements is None or group.order is None:
        raise ValueError("composition product needs a finite group of equivariance (trivial or symmetric)")


# The one group-element policy of every law, at each inhabited arity n.  A
# law's cases are decided on generators exactly when `_right_action_fault`
# holds at the levels they read, as the module docstring states, and then
# count and replay all of G(n).  Otherwise they are walked over one list per
# arity, read by every law and slot: all of G(n) if the group lists it, and
# otherwise the distinct elements among GROUP_SAMPLE_BUDGET draws with
# GROUP_SAMPLE_SEED, in first-draw order.  Draws are the same when they are
# equal objects, for braids the same word, never by the word problem.
GROUP_SAMPLE_BUDGET = 25
GROUP_SAMPLE_SEED = 9


def _group_samples(group: ActionOperad, labels: Callable, bound: int) -> dict[int, list]:
    """The group elements the laws read at each inhabited arity n <= bound, by the policy above."""
    if group.elements is not None:
        return {n: list(group.elements(n)) for n in _inhabited(labels, bound)}
    rngs = {n: random.Random(GROUP_SAMPLE_SEED * 1000003 + n) for n in _inhabited(labels, bound)}
    draws = range(GROUP_SAMPLE_BUDGET)
    return {n: list(dict.fromkeys(group.sample(rng, n) for _ in draws)) for n, rng in rngs.items()}


def _right_action_fault(
    group: ActionOperad, m: int, labels: Sequence[str], read: Callable[[int, str, Any], str]
) -> tuple[str | None, list[tuple[Any, dict[str, str]]]]:
    """
    The precondition of the module docstring on level m, `labels`: what keeps
    the action read(m, label, g) from being a right action decided on the
    generators of G(m), as the end of "the action at arity m ...", or None,
    with each generator s and its table {label: label.s}.  The action of
    every element of G(m) is read once, by element in listed order, and the
    decision costs |G(m)| * generators * |labels| lookups.  A group that
    lists no elements or no generators fails at once, naming what it lacks,
    with no generator, and no action is read.
    """
    for listing in ("elements", "generators"):
        if getattr(group, listing) is None:
            return f"is not decided on generators: the group lists no {listing}", []
    tables = {g: {label: read(m, label, g) for label in labels} for g in group.elements(m)}
    generators = group.generators(m)

    def fault() -> str | None:
        for table in tables.values():
            for label, result in table.items():
                if result not in table:
                    return f"sends {label!r} to {result!r}, outside its level"
        describe = group.describe
        identity = group.identity(m)
        for label, result in tables[identity].items():
            if result != label:
                return f"is not a right action: the identity {describe(identity)} sends {label!r} to {result!r}"
        # The tables of the products g s by the id of g's table: each element has
        # its own table, so its id names the element without hashing it again.
        successors = {}
        for g, table in tables.items():
            successors[id(table)] = products = []
            for s in generators:
                product = group.multiply(g, s)
                combined, step = tables[product], tables[s]
                products.append(combined)
                for label, acted in table.items():
                    if combined[label] != step[acted]:
                        return (
                            f"is not a right action: {label!r} goes to {step[acted]!r} under {describe(g)} "
                            f"then {describe(s)}, but to {combined[label]!r} under their product {describe(product)}"
                        )
        reached = [tables[identity]]
        seen = {id(reached[0])}
        for table in reached:
            for combined in successors[id(table)]:
                if id(combined) not in seen:
                    seen.add(id(combined))
                    reached.append(combined)
        if len(reached) < len(tables):
            return f"is not decided on generators: they reach {len(reached)} of the {len(tables)} elements"
        return None

    return fault(), [(s, tables[s]) for s in generators]


def _checked_levels(group: ActionOperad, act: _ReadThrough | None = None) -> _ReadThrough:
    """
    One call's memo of checked levels: (c, m) -> `_right_action_fault` on
    level m of collection c, reading through the call's action table act, or
    c.action if act is None, at the first read of the key, so the laws and
    quotients that share it decide each level once per call.
    """
    read = None if act is None else lambda *key: act[key]
    return _ReadThrough(lambda c, m: _right_action_fault(group, m, c.labels(m), read or c.action))


# --------------------------------------------------------------- checkers


def check_collection(x: FiniteGCollection, *, bound: int | None = None) -> Report:
    """The right-action laws of x up to bound, or on every level if bound is None."""
    bound = max(x.levels, default=0) if bound is None else bound
    act = _ReadThrough(x.action)
    return _check_collection(x, act, _group_samples(x.group, x.labels, bound), _checked_levels(x.group, act))


def _check_collection(
    x: FiniteGCollection, act: _ReadThrough, samples: dict[int, list], checked: _ReadThrough
) -> Report:
    """
    The right-action laws of x at the arities and group elements of
    `samples`, read through act.  By the policy at GROUP_SAMPLE_BUDGET, the
    composition law at each arity is decided on generators exactly when
    `_right_action_fault` holds there, read from `checked`: it is then the
    precondition itself (see the module docstring).
    """
    report = Report(f"collection laws: {x.name}")
    group = x.group

    def typed() -> Iterator[str | None]:
        for n, gs in samples.items():
            for label in x.labels(n):
                for g in gs:
                    if act[n, label, g] not in x.labels(n):
                        yield f"n={n}, x={label}, g={group.describe(g)}"
                    yield None

    def unit() -> Iterator[str | None]:
        for n in samples:
            e = group.identity(n)
            for label in x.labels(n):
                yield None if act[n, label, e] == label else f"n={n}, x={label}"

    def walk(n: int, gs: list) -> Iterator[str | None]:
        # Each pair (g, h) with its product, formed once per arity.
        pairs = [(g, h, group.multiply(g, h)) for g, h in itertools.product(gs, repeat=2)]
        for label in x.labels(n):
            for g, h, gh in pairs:
                if act[n, act[n, label, g], h] != act[n, label, gh]:
                    yield f"n={n}, x={label}, g={group.describe(g)}, h={group.describe(h)}"
                yield None

    def decide(n: int) -> bool:
        return checked[x, n][0] is None

    def composition() -> Iterator[tuple]:
        for n, gs in samples.items():
            yield len(x.labels(n)) * len(gs) ** 2, functools.partial(decide, n), functools.partial(walk, n, gs)

    report.check("action stays inside each level", typed())
    report.check("action unit law", unit())
    report.check("action composition law", _rows_or_replay(composition()))
    return report


def check_operad(p: FiniteGOperad) -> Report:
    """
    Decide the operad and equivariance laws on every case within the bound.

    Every law lists its cases in a fixed order.  The compose and action
    values are read through two `_ReadThrough` tables of this call, shared
    by all its laws: the first read of a key calls `p.compose` or
    `p.action`, and every later read of that key is a subscript.  The work
    that depends only on arities is also done once per call: the label
    product of each arity tuple, the flat cases (ls, rs) of each length,
    each associativity position column and the identities of each
    signature, each on first use.  Nothing is kept after the call returns.
    Only the inhabited arities are walked, and only their group elements
    listed, once for every law and slot.

    Both equivariance laws and action composition follow the policy at
    GROUP_SAMPLE_BUDGET: decided on generators, with the counts of the
    listed walk, exactly when `_right_action_fault` holds at the levels a
    group of cases reads, and walked over the listed elements otherwise.
    Neither equivariance law is decided on generators, and no group by the
    one-label rule, unless "tables are well-typed" passed, the call's one
    typing fact.  When it passed, a group whose two sides land only in
    levels with one label is decided with nothing walked or cabled, by the
    one-label rule of the module docstring; the flat cases, columns and
    rows of associativity are built only for a group that is not.
    """
    group = p.group
    bound = p.max_arity
    labels = p.labels
    mu = _ReadThrough(p.compose)
    act = _ReadThrough(p.action)
    inhabited = _inhabited(labels, bound)
    signatures = list(_signatures(bound, inhabited))
    report = Report(f"operad laws: {p.name}")
    # Each inhabited arity's group elements, listed once for every law.
    elements = _group_samples(group, labels, bound)
    checked = _checked_levels(group, act)

    def right(m: int) -> bool:
        return checked[p, m][0] is None

    # The label tuples of each arity tuple, listed once for this report.
    product = _ReadThrough(lambda *ks: list(itertools.product(*map(labels, ks)))).__getitem__

    # Well-typedness: the unit, every substitution result, every action result.
    def typed() -> Iterator[str | None]:
        if p.unit not in labels(1):
            yield f"unit {p.unit!r} not in level 1"
        for n, ks, head, args in _substitutions(labels, bound):
            total = sum(ks)
            if mu[n, ks, head, args] not in labels(total):
                yield f"mu result escapes level {total}: n={n}, ks={list(ks)}, p={head}, qs={list(args)}"
            yield None
        for n, gs in elements.items():
            for head in labels(n):
                for g in gs:
                    if act[n, head, g] not in labels(n):
                        yield f"action escapes level {n}: p={head}, g={group.describe(g)}"
                    yield None

    # Unit laws, two cases per label.
    def unit() -> Iterator[str | None]:
        for n in inhabited:
            for head in labels(n):
                yield None if mu[1, (n,), p.unit, (head,)] == head else f"mu(unit; {head}) != {head}"
                yield None if mu[n, (1,) * n, head, (p.unit,) * n] == head else f"mu({head}; unit...) != {head}"

    sizes = [len(labels(m)) for m in range(bound + 1)]

    def one_label(levels: Iterable[int]) -> bool:
        return all(sizes[m] == 1 for m in levels)

    def associativity() -> Iterator[tuple]:
        # Per length t: the number of flat cases (ls, rs), and whether every
        # level sum(ls) that their two sides land in has one label, counted
        # from the level sizes without listing a case.  counts[m] counts the
        # cases with sum(ls) = m.
        flat_counts = []
        counts = [1] + [0] * bound
        for _ in range(bound + 1):
            flat_counts.append((sum(counts), one_label(m for m, count in enumerate(counts) if count)))
            counts = [sum(sizes[k] * counts[m - k] for k in range(m + 1)) for m in range(bound + 1)]
        # The arity tuples ls of each length over the inhabited arities with
        # their label tuples, listed on first use.  The flat cases of a length
        # are the tuples zip(ls, rs), so slicing one slices ls and rs.
        flat_arities = functools.cache(lambda total: [(ls, product(ls)) for ls in _within(bound, total, inhabited)])
        cases = functools.cache(
            lambda total: [tuple(zip(ls, rs)) for ls, flats in flat_arities(total) for rs in flats]
        )
        positions = functools.cache(lambda k: {case: i for i, case in enumerate(cases(k))})
        # Column (total, a, b): the position of each flat case's slice [a:b]
        # among the cases of length b - a, over the flat cases of length total.
        def column_of(total: int, a: int, b: int) -> list[int]:
            position = positions(b - a)
            return [position[case[a:b]] for case in cases(total)]

        column = _ReadThrough(column_of)
        # Rows of compose values, read once through mu: a composite c of
        # level total over the flat cases of that length, an argument q of
        # arity k as (sum(split), mu(k; split; q; rs)) over those of length
        # k, and a head of arity n over every (js, qs), keyed by zip(js, qs).
        composite_rows = _ReadThrough(
            lambda total, c: [mu[total, ls, c, rs] for ls, flats in flat_arities(total) for rs in flats]
        )
        argument_rows = _ReadThrough(
            lambda k, arg: [(sum(split), mu[k, split, arg, rs]) for split, flats in flat_arities(k) for rs in flats]
        )
        head_rows = _ReadThrough(
            lambda n, head: {
                tuple(zip(js, qs)): mu[n, js, head, qs] for m, js in signatures if m == n for qs in product(js)
            }
        )

        def holds(n: int, ks: tuple[int, ...]) -> bool:
            """
            Whether every case of the signature holds.  If the tables are
            well-typed, both sides of a case are composites of level sum(ls),
            so where each such level has one label, they agree.
            Otherwise, for every (head, args), the composite's row equals the
            head's row read at the inner composites, which column i gathers
            from the row of args[i] at the position of each flat case's slice
            for slot i among the cases of length k_i.  The head's row reads
            None at an inner composite outside its level, so it differs there.
            """
            offsets = list(itertools.accumulate(ks, initial=0))
            total = offsets[-1]
            if well_typed and flat_counts[total][1]:
                return True
            columns = [column[total, a, b] for a, b in zip(offsets, offsets[1:])]
            for args in product(ks):
                getters = [argument_rows[key].__getitem__ for key in zip(ks, args)]
                inner = list(zip(*map(map, getters, columns))) if ks else [()]
                for head in labels(n):
                    if composite_rows[total, mu[n, ks, head, args]] != list(map(head_rows[n, head].get, inner)):
                        return False
            return True

        def replay(n: int, ks: tuple[int, ...]) -> Iterator[str | None]:
            # Each (head, args) with its composite, which every ls reads.
            composites = [(head, args, mu[n, ks, head, args]) for head in labels(n) for args in product(ks)]
            offsets = list(itertools.accumulate(ks, initial=0))
            spans = list(zip(offsets, offsets[1:]))
            total = offsets[-1]
            for ls, flats in flat_arities(total):
                splits = [ls[a:b] for a, b in spans]
                inner_ks = tuple(map(sum, splits))
                for head, args, composite in composites:
                    for rs in flats:
                        lhs = mu[total, ls, composite, rs]
                        inner = tuple(map(mu.__getitem__, zip(ks, splits, args, [rs[a:b] for a, b in spans])))
                        if lhs != mu[n, inner_ks, head, inner]:
                            yield (
                                f"n={n}, ks={list(ks)}, ls={list(ls)}, p={head}, "
                                f"qs={list(args)}, rs={list(rs)}"
                            )
                        yield None

        for n, ks in signatures:
            size = sizes[n] * len(product(ks)) * flat_counts[sum(ks)][0]
            if size:
                yield size, functools.partial(holds, n, ks), functools.partial(replay, n, ks)

    # Equivariance in the operad slot (the acting element cables up), by
    # head arity n: the signatures with n slots under the elements gs, each
    # with the order pi(g)^-1 in which it permutes the slots.
    def slot_walk(n: int, sigs: list[tuple[int, ...]], gs: list) -> Iterator[str | None]:
        pairs = [(g, [j - 1 for j in group.project(g).inverse().image]) for g in gs]
        for ks in sigs:
            total = sum(ks)
            identities = [group.identity(k) for k in ks]
            arguments = product(ks)
            for g, order in pairs:
                permuted_ks = tuple(ks[j] for j in order)
                cable = group.operad_mu(g, identities)
                permuted = [tuple(args[j] for j in order) for args in arguments]
                for head in labels(n):
                    acted = act[n, head, g]
                    for args, permuted_args in zip(arguments, permuted):
                        lhs = mu[n, ks, acted, args]
                        if lhs != act[total, mu[n, permuted_ks, head, permuted_args], cable]:
                            yield (
                                f"n={n}, ks={list(ks)}, p={head}, qs={list(args)}, "
                                f"g={group.describe(g)}"
                            )
                        yield None

    # Both equivariance laws read each side in level sum(ks), so on
    # well-typed tables and under the precondition a group whose such levels
    # have one label holds unwalked.
    def slot_decided(n: int, sigs: list[tuple[int, ...]]) -> bool:
        if not (well_typed and right(n) and all(right(sum(ks)) for ks in sigs)):
            return False
        return one_label(map(sum, sigs)) or not any(slot_walk(n, sigs, group.generators(n)))

    def slot() -> Iterator[tuple]:
        for n, same_head in itertools.groupby(signatures, key=lambda signature: signature[0]):
            sigs = [ks for _, ks in same_head]
            size = len(elements[n]) * sizes[n] * sum(len(product(ks)) for ks in sigs)
            yield size, functools.partial(slot_decided, n, sigs), functools.partial(slot_walk, n, sigs, elements[n])

    # Equivariance in the argument slots (the acting elements block-sum up),
    # by signature, under the tuples gs.
    def argument_walk(n: int, ks: tuple[int, ...], tuples: Iterable[tuple]) -> Iterator[str | None]:
        total = sum(ks)
        e = group.identity(n)
        blocks = [(gs, group.operad_mu(e, list(gs))) for gs in tuples]
        # Each args acted on by each gs, formed once for every head.
        acted = {args: [tuple(map(act.__getitem__, zip(ks, args, gs))) for gs, _ in blocks] for args in product(ks)}
        for head in labels(n):
            for args in product(ks):
                composite = mu[n, ks, head, args]
                for (gs, block), acted_args in zip(blocks, acted[args]):
                    if mu[n, ks, head, acted_args] != act[total, composite, block]:
                        yield (
                            f"n={n}, ks={list(ks)}, p={head}, qs={list(args)}, "
                            f"gs=[{', '.join(group.describe(g) for g in gs)}]"
                        )
                    yield None

    def arguments_decided(n: int, ks: tuple[int, ...]) -> bool:
        if not (well_typed and all(map(right, (*ks, sum(ks))))):
            return False
        if sizes[sum(ks)] == 1:
            return True
        # One slot at a generator of its group, the others at the identity.
        identities = [group.identity(k) for k in ks]
        tuples = [(*identities[:i], s, *identities[i + 1:]) for i, k in enumerate(ks) for s in group.generators(k)]
        return not any(argument_walk(n, ks, tuples))

    def argument_slots() -> Iterator[tuple]:
        for n, ks in signatures:
            tuples = itertools.product(*(elements[k] for k in ks))
            size = sizes[n] * len(product(ks)) * math.prod(len(elements[k]) for k in ks)
            yield size, functools.partial(arguments_decided, n, ks), functools.partial(argument_walk, n, ks, tuples)

    report.check("tables are well-typed", typed())
    # The call's one typing fact, read by both equivariance laws' decisions and by the one-label rule.
    well_typed = report.results[-1].passed
    report.check("operad unit", unit())
    report.check("operad associativity", _rows_or_replay(associativity()))
    report.check("equivariance in the operad slot", _rows_or_replay(slot()))
    report.check("equivariance in the argument slots", _rows_or_replay(argument_slots()))

    # The per-level right-action laws, on the same action table.
    collection_report = _check_collection(p, act, elements, checked)
    report.results.extend(collection_report.results)
    return report


# ------------------------------------------------------------- builders


def operad_comm(group: ActionOperad | None = None, max_arity: int = 4) -> FiniteGOperad:
    """One operation per arity, any group acting trivially: the terminal operad."""
    group = group if group is not None else instance_symmetric()
    return FiniteGOperad(
        name=f"comm/{group.name}",
        group=group,
        levels={n: ("*",) for n in range(max_arity + 1)},
        unit="*",
        action=lambda n, label, g: label,
        compose=lambda n, ks, head, args: "*",
        max_arity=max_arity,
    )


def _perm_label(p: Permutation) -> str:
    return "".join(str(i) for i in p.image) if p.n else "e"


def _label_perm(label: str) -> Permutation:
    if label == "e":
        return Permutation(())
    return Permutation(tuple(int(c) for c in label))


def operad_ass(max_arity: int = 3) -> FiniteGOperad:
    """
    All permutations at each arity, acting on themselves by right
    multiplication, with block substitution: the associative operad.
    """
    if max_arity > 9:
        raise ValueError("digit labels support arities up to 9 only")
    group = instance_symmetric()
    return FiniteGOperad(
        name="ass",
        group=group,
        levels={
            n: tuple(sorted(_perm_label(p) for p in all_permutations(n)))
            for n in range(max_arity + 1)
        },
        unit="1",
        action=lambda n, label, g: _perm_label(group.multiply(_label_perm(label), g)),
        compose=lambda n, ks, head, args: _perm_label(
            group.operad_mu(_label_perm(head), [_label_perm(a) for a in args])
        ),
        max_arity=max_arity,
    )


def _require_signature(n, ks, head, args, levels, max_arity):
    if len(ks) != n or len(args) != n:
        raise ValueError(f"substitution needs {n} arities and arguments, got {len(ks)} and {len(args)}")
    if sum(ks) > max_arity:
        raise ValueError(f"substitution result arity {sum(ks)} exceeds the bound {max_arity}")
    if head not in levels.get(n, ()):
        raise ValueError(f"unknown label {head!r} at arity {n}")
    for k, arg in zip(ks, args):
        if arg not in levels.get(k, ()):
            raise ValueError(f"unknown label {arg!r} at arity {k}")


def endomorphism_operad(
    carrier: Sequence[str],
    group: ActionOperad,
    max_arity: int = 2,
) -> FiniteGOperad:
    """
    All functions X^n -> X as the labels of arity n.  A label lists the
    outputs over the lexicographically ordered input tuples, joined by
    commas; substitution is composition of functions, and a group element
    acts by permuting the inputs through its underlying permutation.
    """
    alphabet = tuple(sorted(carrier))
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("carrier elements must be distinct")
    if not alphabet:
        raise ValueError("carrier must be nonempty")

    levels: dict[int, tuple[str, ...]] = {}
    for n in range(max_arity + 1):
        size = len(alphabet) ** (len(alphabet) ** n)
        if size > MAX_ENDOMORPHISM_LEVEL:
            raise ValueError(
                f"endomorphism level {n} would hold {size} functions, "
                f"more than the limit {MAX_ENDOMORPHISM_LEVEL}"
            )
        levels[n] = tuple(
            ",".join(outputs) for outputs in itertools.product(alphabet, repeat=len(alphabet) ** n)
        )

    position = {x: i for i, x in enumerate(alphabet)}
    members = {n: set(labels) for n, labels in levels.items()}

    def rank(xs: Iterable[str]) -> int:
        """The index of an input tuple in lexicographic order, i.e. in a label."""
        index = 0
        for x in xs:
            index = index * len(alphabet) + position[x]
        return index

    def action(n: int, label: str, g: Any) -> str:
        if label not in members.get(n, ()):
            raise ValueError(f"unknown label {label!r} at arity {n}")
        outputs = label.split(",")
        pi = group.project(g)
        return ",".join(
            outputs[rank(act_on_list(pi, xs))] for xs in itertools.product(alphabet, repeat=n)
        )

    def compose(n: int, ks: Sequence[int], head: str, args: Sequence[str]) -> str:
        outer = head.split(",")
        inner = [arg.split(",") for arg in args]
        starts = list(itertools.accumulate(ks, initial=0))
        return ",".join(
            outer[rank(fn[rank(xs[a:b])] for fn, a, b in zip(inner, starts, starts[1:]))]
            for xs in itertools.product(alphabet, repeat=starts[-1])
        )

    return FiniteGOperad(
        name=f"endomorphisms of {{{','.join(alphabet)}}}",
        group=group,
        levels=levels,
        unit=",".join(alphabet),
        action=action,
        compose=compose,
        max_arity=max_arity,
    )


def change_groups(
    f: Callable[[Any], Any], new_group: ActionOperad, p: FiniteGOperad
) -> FiniteGOperad:
    """
    Pull an operad back along a map of action operads: same labels and
    substitution, with the new group acting through f.
    """
    return FiniteGOperad(
        name=f"{p.name} over {new_group.name}",
        group=new_group,
        levels=p.levels,
        unit=p.unit,
        action=lambda n, label, g: p.action(n, label, f(g)),
        compose=p.compose,
        max_arity=p.max_arity,
    )


# ------------------------------------------------------------- algebras


# The most candidate tables `enumerate_algebra_structures` will search.
ALGEBRA_TABLE_LIMIT = 1 << 20
# The most candidate tables `enumerate_operad_maps` will check.
OPERAD_MAP_LIMIT = 1 << 20


def check_algebra(p: FiniteGOperad, algebra: AlgebraStructure) -> Report:
    """Verify the unit, associativity, and equivariance laws of an algebra."""
    report = Report(f"algebra laws on {{{','.join(algebra.carrier)}}} for {p.name}")
    carrier = algebra.carrier
    bound = p.max_arity
    evaluate = algebra.maps

    def unit() -> Iterator[str | None]:
        for x in carrier:
            yield None if evaluate(1, p.unit, (x,)) == x else f"x={x}"

    def associativity() -> Iterator[str | None]:
        for n, ks, head, args in _substitutions(p.labels, bound):
            total = sum(ks)
            starts = list(itertools.accumulate(ks, initial=0))
            composite = p.compose(n, ks, head, args)
            for xs in itertools.product(carrier, repeat=total):
                lhs = evaluate(total, composite, xs)
                values = tuple(evaluate(k, arg, xs[a:b]) for k, arg, a, b in zip(ks, args, starts, starts[1:]))
                if lhs != evaluate(n, head, values):
                    yield f"n={n}, ks={list(ks)}, p={head}, qs={list(args)}, xs={list(xs)}"
                yield None

    def equivariance() -> Iterator[str | None]:
        for n, gs in _group_samples(p.group, p.labels, bound).items():
            for g in gs:
                pi = p.group.project(g)
                for head in p.labels(n):
                    acted = p.action(n, head, g)
                    for xs in itertools.product(carrier, repeat=n):
                        if evaluate(n, acted, xs) != evaluate(n, head, tuple(act_on_list(pi, xs))):
                            yield f"n={n}, p={head}, g={p.group.describe(g)}, xs={list(xs)}"
                        yield None

    report.check("algebra unit", unit())
    report.check("algebra associativity", associativity())
    report.check("algebra equivariance", equivariance())
    return report


def table_algebra(carrier: Sequence[str], table: Mapping[tuple[int, str, tuple[str, ...]], str]) -> AlgebraStructure:
    """An algebra backed by an explicit evaluation table."""
    def maps(n: int, label: str, xs: Sequence[str]) -> str:
        key = (n, label, tuple(xs))
        if key not in table:
            raise ValueError(f"algebra table has no entry for arity {n}, label {label!r}, xs={list(xs)}")
        return table[key]

    return AlgebraStructure(tuple(carrier), maps)


# A test of the model search: reads the assigned prefix of a table and
# answers False only if no table extending it can be accepted.
_Test = Callable[[list], bool]


def _backtrack(
    domains: Sequence[Sequence[Any]],
    tests: Sequence[Sequence[_Test]],
    accept: Callable[[tuple], Any],
) -> Iterator[Any]:
    """
    Finite-model search: the non-None results of `accept` on the complete
    assignments of a value from domains[i] to each slot i, in
    `itertools.product` order.  Slots are set in order and each takes its
    domain's values in order.  Once slot i is set, every test in tests[i]
    reads the assigned prefix, and one that answers False drops every
    assignment extending it.  A test may answer False only where `accept`
    would reject every such assignment, so the tests decide how many
    assignments reach `accept`, never what comes out.
    """
    values: list = []
    if not domains:
        result = accept(())
        if result is not None:
            yield result
        return
    last = len(domains) - 1
    stack = [iter(domains[0])]
    while stack:
        slot = len(values)
        for value in stack[-1]:
            values.append(value)
            if all(test(values) for test in tests[slot]):
                break
            values.pop()
        else:
            stack.pop()
            if values:
                values.pop()
            continue
        if slot < last:
            stack.append(iter(domains[slot + 1]))
            continue
        result = accept(tuple(values))
        if result is not None:
            yield result
        values.pop()


def _equal_slots(a: int, b: int) -> _Test:
    return lambda values: values[a] == values[b]


def _equal_value(slot: int, value: Any) -> _Test:
    return lambda values: values[slot] == value


def _equal_at_read_slot(lhs: int, reads: tuple[int, ...], slot_of: Mapping[tuple, int]) -> _Test:
    """
    values[lhs] equals the value at the slot that `slot_of` assigns to the
    values read at `reads`; the test holds while that slot is still unset.
    """
    def test(values: list) -> bool:
        at = slot_of[tuple([values[i] for i in reads])]
        return at >= len(values) or values[lhs] == values[at]

    return test


def enumerate_algebra_structures(p: FiniteGOperad, carrier: Sequence[str]) -> list[AlgebraStructure]:
    """
    Every algebra structure on the carrier, within the bound, in the
    `itertools.product` order of its value tables over the slots
    (n, label, xs).  The tables are searched by `_backtrack`: each unit,
    equivariance and associativity instance is tested once the last slot
    it reads is set.  An associativity instance also reads the head's slot
    at the computed arguments; it is tested there only if that slot is
    already set, and otherwise left to `check_algebra`, which confirms
    every complete table.  A repeated carrier element is refused with a
    `ValueError`, as by `free_algebra` and `endomorphism_operad`.
    """
    carrier = tuple(carrier)
    if len(set(carrier)) != len(carrier):
        raise ValueError("carrier elements must be distinct")
    slots = [
        (n, label, xs)
        for n in range(p.max_arity + 1)
        for label in p.labels(n)
        for xs in itertools.product(carrier, repeat=n)
    ]
    count = len(carrier) ** len(slots)
    if count > ALGEBRA_TABLE_LIMIT:
        raise ValueError(f"{count} candidate tables exceed the enumeration limit {ALGEBRA_TABLE_LIMIT}")
    index = {slot: i for i, slot in enumerate(slots)}
    tests: list[list[_Test]] = [[] for _ in slots]
    bound = p.max_arity

    # A label outside its level has no slot; `check_algebra` meets it instead.
    if p.unit in p.labels(1):
        for x in carrier:
            at = index[(1, p.unit, (x,))]
            tests[at].append(_equal_value(at, x))
    for n, gs in _group_samples(p.group, p.labels, bound).items():
        for g in gs:
            pi = p.group.project(g)
            for head in p.labels(n):
                acted = p.action(n, head, g)
                for xs in itertools.product(carrier, repeat=n):
                    a = index.get((n, acted, xs))
                    b = index[(n, head, tuple(act_on_list(pi, xs)))]
                    if a is not None and a != b:
                        tests[max(a, b)].append(_equal_slots(a, b))
    # The slot of each head's value at each xs, formed once per head.
    slot_of = _ReadThrough(
        lambda n, head: {xs: index[(n, head, xs)] for xs in itertools.product(carrier, repeat=n)}
    )
    for n, ks, head, args in _substitutions(p.labels, bound):
        total = sum(ks)
        starts = list(itertools.accumulate(ks, initial=0))
        composite = p.compose(n, ks, head, args)
        for xs in itertools.product(carrier, repeat=total):
            lhs = index.get((total, composite, xs))
            reads = tuple(index[(k, arg, xs[a:b])] for k, arg, a, b in zip(ks, args, starts, starts[1:]))
            if lhs is not None:
                tests[max((lhs, *reads))].append(_equal_at_read_slot(lhs, reads, slot_of[n, head]))

    def accept(values: tuple[str, ...]) -> AlgebraStructure | None:
        algebra = table_algebra(carrier, dict(zip(slots, values)))
        return algebra if check_algebra(p, algebra).ok else None

    return list(_backtrack([carrier] * len(slots), tests, accept))


def enumerate_operad_maps(p: FiniteGOperad, q: FiniteGOperad) -> list[dict[tuple[int, str], str]]:
    """
    Brute-force every equivariant operad map from p to q (same group, same
    bound): unit-preserving, substitution-preserving, action-preserving
    per-arity label functions, returned as {(arity, label): image} tables.
    """
    if q.group is not p.group and q.group.name != p.group.name:
        raise ValueError(f"operad maps need one group of equivariance, got {p.group.name} and {q.group.name}")
    if p.max_arity != q.max_arity:
        raise ValueError("operad maps need matching arity bounds")
    bound = p.max_arity
    domain = [(n, label) for n in range(bound + 1) for label in p.labels(n)]
    spaces = [q.labels(n) for n, _ in domain]
    count = 1
    for space in spaces:
        count *= len(space)
        if count > OPERAD_MAP_LIMIT:
            raise ValueError(f"candidate map count exceeds the enumeration limit {OPERAD_MAP_LIMIT}")

    group_samples = _group_samples(p.group, p.labels, bound)
    substitutions = list(_substitutions(p.labels, bound))

    def is_map(table: dict[tuple[int, str], str]) -> bool:
        return (
            table[(1, p.unit)] == q.unit
            and all(
                table[(sum(ks), p.compose(n, ks, head, args))]
                == q.compose(n, ks, table[(n, head)], [table[(k, a)] for k, a in zip(ks, args)])
                for n, ks, head, args in substitutions
            )
            and all(
                table[(n, p.action(n, head, g))] == q.action(n, table[(n, head)], g)
                for n, gs in group_samples.items() for head in p.labels(n) for g in gs
            )
        )

    tables = (dict(zip(domain, images)) for images in itertools.product(*spaces))
    return [table for table in tables if is_map(table)]


# ------------------------------------------------------ document format


def write_operad_document(p: FiniteGOperad) -> dict:
    """Tabulate an operad into the JSON-compatible document format."""
    if p.group.name not in ("trivial", "symmetric"):
        raise ValueError(f"only trivial and symmetric groups can be serialized, not {p.group.name}")
    if p.group.generators is None or p.group.elements is None:
        raise ValueError("document format needs an enumerable group")
    return {
        "group": p.group.name,
        "max_arity": p.max_arity,
        "levels": {str(n): list(p.labels(n)) for n in range(p.max_arity + 1)},
        "action": {
            str(n): [
                [p.action(n, label, gen) for label in p.labels(n)]
                for gen in p.group.generators(n)
            ]
            for n in range(p.max_arity + 1)
        },
        "unit": p.unit,
        "compose": [
            {"n": n, "ks": list(ks), "args": [head, *args], "result": p.compose(n, ks, head, args)}
            for n, ks, head, args in _substitutions(p.labels, p.max_arity)
        ],
    }


# The most action entries |G(n)| * |P(n)| one level of a symmetric
# document may tabulate: 8!, one label at arity 8 or eight at arity 7.
MAX_ACTION_ENTRIES = 40_320
# The most functions X^n -> X one level of `endomorphism_operad` may hold.
MAX_ENDOMORPHISM_LEVEL = 4096


def _refuse_stray_arities(raw: Mapping, max_arity: int, where: str) -> None:
    """Refuse the first key of raw other than "0".."max_arity", all of which raw holds."""
    if len(raw) > max_arity + 1:
        arities = {str(n) for n in range(max_arity + 1)}
        stray = next(key for key in raw if key not in arities)
        raise ValueError(f"{where}: unexpected key {stray!r}, not an arity from 0 to {max_arity}")


def load_operad(document: Mapping, name: str = "loaded operad") -> FiniteGOperad:
    """
    Build a table-backed operad from a document, validating structure as it
    goes; every failure names the offending location.  Law checking is a
    separate step (`check_operad`) — this only rejects malformed tables.
    The exact types of the compose records' arities are decided once per
    document (`_exact_arities`); when they hold, a record is accepted by
    lookups alone, and otherwise every record is checked in order.
    """
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
    # Arities are exact ints: `type(...) is int` also turns away the bools
    # that JSON true/false decode to, which isinstance(..., int) accepts.
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
    _refuse_stray_arities(raw_levels, max_arity, "levels")

    raw_action = document.get("action")
    if not isinstance(raw_action, Mapping):
        raise ValueError("action: expected a mapping from arity to generator rows")
    action_rows: dict[int, list[dict[str, str]]] = {}
    for n in range(max_arity + 1):
        # Only a non-empty level is tabulated, so only its n! is computed.
        if group_name == "symmetric" and levels[n]:
            entries = len(levels[n]) * math.factorial(n)
            if entries > MAX_ACTION_ENTRIES:
                raise ValueError(
                    f"action[{n}]: {len(levels[n])} labels under {n}! permutations make "
                    f"{entries} action entries, more than the limit {MAX_ACTION_ENTRIES}"
                )
        # One row per generator: the n - 1 adjacent transpositions of a
        # symmetric group, none for a trivial one.  Counted, not built.
        generators = max(n - 1, 0) if group_name == "symmetric" else 0
        rows = raw_action.get(str(n))
        if rows is None:
            raise ValueError(f"action: missing arity {n}")
        if not isinstance(rows, list):
            raise ValueError(f"action[{n}]: expected a list of generator rows")
        if len(rows) != generators:
            raise ValueError(
                f"action[{n}]: expected {generators} generator rows, got {len(rows)}"
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
    _refuse_stray_arities(raw_action, max_arity, "action")

    unit = document.get("unit")
    if unit not in levels.get(1, ()):
        raise ValueError(f"unit: {unit!r} is not a label of arity 1")

    label_sets = {n: frozenset(labels) for n, labels in levels.items()}
    # A signature with an empty head or argument level has no substitutions,
    # so only the non-empty arities are ever enumerated; the substitutions
    # are counted without enumerating anything.
    inhabited = _inhabited(levels.__getitem__, max_arity)
    sizes = {n: len(labels) for n, labels in levels.items()}

    compose_table: dict[tuple, str] = {}
    entries = document.get("compose")
    if not isinstance(entries, list):
        raise ValueError("compose: expected a list of records")
    # Both tests below compare the count with the number of records, so it
    # is counted only up to one more than that: a document with fewer
    # records than substitutions is refused without counting them all.
    counts = _signature_counts(sizes, sizes, max_arity, len(entries) + 1)
    substitutions = len(entries) + 1 if counts is None else sum(counts)
    # The fast test holds one argument tuple per substitution at most, so it
    # is built only for a document with at least that many records, a
    # shorter one being incomplete, and whose arities are all exact ints.
    # Every record of any other document takes the checked path, which names
    # the first fault in document order.
    fast = (
        _record_signatures(levels, max_arity, inhabited)
        if len(entries) >= substitutions and _exact_arities(entries)
        else {}
    )
    fields = operator.itemgetter("n", "ks", "args", "result")
    for position, record in enumerate(entries):
        try:
            n, ks, args, result = fields(record)
            # A tuple or a string where the argument list belongs is refused
            # by the checked path, so it goes there.
            if type(args) is list:
                arity, signature, heads, arguments, results = fast[tuple(ks)]
                if n == arity:
                    value = results[result]
                    key = (arity, signature, heads[args[0]], arguments[tuple(args[1:])])
                    # A consistent duplicate finds the same level object; any
                    # other value is a conflict for the checked path to name.
                    if compose_table.setdefault(key, value) is value:
                        continue
        except (KeyError, TypeError, IndexError):
            pass
        _check_compose_record(position, record, max_arity, label_sets, compose_table)

    # Every validated key is a well-formed substitution, so the table is
    # complete exactly when it holds as many keys as there are substitutions,
    # sum |P(n)| * prod |P(k_i)|; only a shortfall is worth the enumeration
    # that names the first gap.
    if len(compose_table) != substitutions:
        for n, ks, head, rest in _substitutions(levels.__getitem__, max_arity):
            if (n, ks, head, rest) not in compose_table:
                raise ValueError(f"compose: missing entry for n={n}, ks={list(ks)}, args={[head, *rest]}")

    # Tabulate the action of every element on a non-empty level by folding
    # the generator rows along its positive word; a right action applies
    # the factors from the last to the first.  The insertion-sort words are
    # prefix-closed, so the row of a word is the row of its prefix after the
    # generator row of its last letter, and each element costs one step.
    action_table: dict[tuple[int, str, Any], str] = {}
    for n in inhabited:
        elements = group.elements(n)
        words = [permutation_braid(group.project(g)).word for g in elements]
        rows = {(): {label: label for label in levels[n]}}
        for word in sorted(words, key=len):
            if word:
                prefix, last = rows[word[:-1]], action_rows[n][word[-1] - 1]
                rows[word] = {label: prefix[last[label]] for label in levels[n]}
        for g, word in zip(elements, words):
            row = rows[word]
            for start in levels[n]:
                action_table[(n, start, g)] = row[start]

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
        compose=lambda *key: compose_table[key],   # complete: reached by no valid signature
        max_arity=max_arity,
    )
    operad.action_table = action_table
    operad.compose_table = compose_table
    return operad


def _exact_arities(entries: list) -> bool:
    """
    Whether every compose record is an object whose n is an int and whose
    ks is a list of ints, all of exact type: True == 1 and 1.0 == 1, so a
    bool or a float would find the signature of the int it equals.  The
    n and ks columns are read by C-level iterators, one set of types per
    column and none per record; a record that is no object, or lacks those
    keys, raises, and means no.
    """
    n, ks = operator.itemgetter("n"), operator.itemgetter("ks")
    try:
        # The list test comes first, so the last pass iterates lists only.
        return (
            set(map(type, map(ks, entries))) <= {list}
            and set(map(type, map(n, entries))) <= {int}
            and set(map(type, itertools.chain.from_iterable(map(ks, entries)))) <= {int}
        )
    except (KeyError, TypeError):
        return False


def _record_signatures(
    levels: Mapping[int, tuple[str, ...]], max_arity: int, inhabited: Sequence[int]
) -> dict[tuple[int, ...], tuple]:
    """
    Per signature ks within max_arity that admits a record: n, ks itself,
    and maps sending each head label, valid argument tuple and result label
    to the level's own object.  A record of exact int arities
    (`_exact_arities`) whose fields these maps all find is valid without
    further checks, and its table entry is made of the maps' values, so the
    table shares them and keeps no string of the document.  Only signatures
    over the `inhabited` (non-empty) arities can admit one.
    """
    own = {n: dict(zip(levels[n], levels[n])) for n in inhabited}
    table = {}
    for n, ks in _signatures(max_arity, inhabited):
        results = own.get(sum(ks))
        if results:
            # Measured faster than dict(zip(...)) over a list of the tuples:
            # most signatures of a document have one or a few tuples.
            arguments = {t: t for t in itertools.product(*map(levels.__getitem__, ks))}
            table[ks] = (n, ks, own[n], arguments, results)
    return table


def _check_compose_record(
    position: int,
    record: Any,
    max_arity: int,
    label_sets: Mapping[int, frozenset[str]],
    compose_table: dict[tuple, str],
) -> None:
    """Validate one compose record in order, naming the first fault, and enter it."""
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
    # Labels are strings; the type test comes first because a list or an
    # object from the document cannot be looked up in a set.
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


# ------------------------------------------------- composition product


def _element_key(group: ActionOperad, g: Any) -> tuple:
    """The lookup and ordering key of a group element: its permutation image, then its name."""
    return (tuple(group.project(g).image), group.describe(g))


def _state_key(group: ActionOperad, state: tuple) -> tuple:
    """The lookup and ordering key of a composite tuple (r; ks; x; ys; g)."""
    r, ks, x, ys, g = state
    return (r, tuple(ks), x, tuple(ys), _element_key(group, g))


def _mixed_radix(columns: Sequence[Sequence[int]]) -> list[int]:
    """columns[0][d_0] + columns[1][d_1] + ... for every digit tuple (d_0, d_1, ...), in product order."""
    sums = [0]
    for column in columns:
        sums = [total + value for total in sums for value in column]
    return sums


def _rank(digits: Iterable[int], radices: Iterable[int]) -> int:
    """The mixed-radix number of digits over radices, most significant first."""
    index = 0
    for digit, radix in zip(digits, radices):
        index = index * radix + digit
    return index


def _digits(index: int, radices: Sequence[int]) -> list[int]:
    """The mixed-radix digits of index over radices, most significant first."""
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits[::-1]


def _sorted_level(checked: _ReadThrough, c: FiniteGCollection, m: int) -> tuple[list[str], dict[str, int], list]:
    """
    Level m of c sorted, the rank of each label, and each generator s of
    G(m) with the rank of label.s by label rank, read from `checked`, the
    caller's memo of checked levels.  A level that fails the precondition
    is a `ValueError` naming the collection and the arity.
    """
    fault, generators = checked[c, m]
    if fault is not None:
        raise ValueError(f"{c.name}: the action at arity {m} {fault}")
    labels = sorted(c.labels(m))
    rank = {label: i for i, label in enumerate(labels)}
    return labels, rank, [(s, [rank[table[label]] for label in labels]) for s, table in generators]


class _Quotient(NamedTuple):
    """
    One arity of the two-stage quotient `_orbit_quotient`: `root[p]` is the
    least point of p's stage-1 orbit and `carry[p]` the transversal element
    that takes the states over p to those over that root.  `orbits` maps
    each root, ascending, to its block and to `least`, the least member of
    each point's stage-2 class in the rest, or None where the stabilizer
    acts trivially and every point of the rest is its own class.
    """

    root: list[int]
    carry: list[Any]
    orbits: dict[int, tuple[int, list[int] | None]]


def _least_in_orbits(size: int, moves: list[list[int]]) -> list[int]:
    """The least member of the orbit of each of range(size) under the permutations `moves`, found along them."""
    least = [-1] * size
    for start in range(size):
        if least[start] < 0:
            least[start] = start
            orbit = [start]
            for point in orbit:
                for move in moves:
                    image = move[point]
                    if least[image] < 0:
                        least[image] = start
                        orbit.append(image)
    return least


def _orbit_quotient(
    blocks: list[tuple[int, int, list[tuple[list[int], Callable[[Any], Any], int]]]],
    start: Any,
    schreier: Callable[[Any, Any], Any],
    mates: Callable[[Any], list[int]],
    size: int,
) -> _Quotient:
    """
    The two-stage quotient of the states (p, z), p a point of `blocks` and z
    one of the rest, range(size), as the module docstring describes.  Block
    (base, count, moves) holds the points from base on; a move (targets,
    step, block) relates each state over its point base + i to a state over
    targets[i], a point of that block, and carries the transversal element
    c of the first point to step(c).  Stage 1 searches the orbits of the
    points along the moves, least point first, from the carry `start`; an
    edge whose end already holds another carry c' closes a cycle whose
    Schreier generator is schreier(c', step(c)).  Stage 2 finds the orbits
    of each orbit's generators on the rest, moving along mates(generator),
    once per set of generators in a call.
    """
    total = sum(count for _, count, _ in blocks)
    root = [-1] * total
    carry: list[Any] = [None] * total
    generator = _ReadThrough(schreier)
    tables: dict[frozenset, list[int] | None] = {}
    orbits = {}
    for first, (base, count, _) in enumerate(blocks):
        for p0 in range(base, base + count):
            if root[p0] >= 0:
                continue
            root[p0], carry[p0] = p0, start
            pairs = set()
            queue = [(p0, first)]
            for p, block in queue:
                at, _, moves = blocks[block]
                i, c = p - at, carry[p]
                for targets, step, to in moves:
                    q, moved = targets[i], step(c)
                    if root[q] < 0:
                        root[q], carry[q] = p0, moved
                        queue.append((q, to))
                    elif moved != carry[q]:
                        pairs.add((carry[q], moved))
            generators = frozenset(generator[pair] for pair in pairs)
            if generators not in tables:
                tables[generators] = _least_in_orbits(size, [mates(s) for s in generators]) if generators else None
            orbits[p0] = (first, tables[generators])
    return _Quotient(root, carry, orbits)


class _Composites(NamedTuple):
    """
    One arity n of a composition product, as `canonical` reads it: G(n) in
    key order, each element's rank by the element and by its key, the
    quotient of the prefixes, and each block's signature as (r, ks, base,
    the sorted labels of the head slot and of each argument slot, and
    their ranks).
    """

    elements: list[Any]
    rank: dict[Any, int]
    keyed: dict[tuple, int]
    quotient: _Quotient
    signatures: list[tuple[int, tuple[int, ...], int, list[list[str]], list[dict[str, int]]]]

    def prefix(self, p0: int) -> tuple:
        """The prefix (r; ks; x; ys) of the orbit whose least point is p0."""
        r, ks, base, labels, _ = self.signatures[self.quotient.orbits[p0][0]]
        head, *ys = (slot[d] for slot, d in zip(labels, _digits(p0 - base, list(map(len, labels)))))
        return r, ks, head, tuple(ys)


@dataclass
class ComposedCollection:
    """
    The composition product of two collections over a finite group: for
    each arity, equivalence classes of tuples (x; y_1..y_r; g) under the
    relations that move a group element out of x (cabling it) or out of
    the y_i (block-summing them), with the right action multiplying onto
    the final coordinate.  `canonical` computes a tuple's class on demand
    from the two-stage quotient of its arity, keyed by signature (r, ks).
    """

    name: str
    group: ActionOperad
    bound: int
    classes_by_arity: dict[int, list[tuple]]
    _signatures: dict[tuple[int, tuple[int, ...]], tuple[_Composites, int]]

    def classes(self, n: int) -> list[tuple]:
        return list(self.classes_by_arity.get(n, []))

    def canonical(self, state: tuple) -> tuple:
        """
        The representative of state's class: its prefix's orbit root with
        the least element of the coset K.(s g), s the prefix's carry and K
        the root's stabilizer.  A tuple the product does not enumerate is a
        `ValueError`.
        """
        r, ks, x, ys, key = _state_key(self.group, state)
        arity, block = self._signatures.get((r, ks), (None, 0))
        if arity is not None and len(ys) == r:
            _, _, base, labels, ranks = arity.signatures[block]
            digits = [rank.get(label) for rank, label in zip(ranks, (x, *ys))]
            e = arity.keyed.get(key)
            if e is not None and None not in digits:
                quotient = arity.quotient
                p = base + _rank(digits, map(len, labels))
                p0 = quotient.root[p]
                e = arity.rank[self.group.multiply(arity.elements[quotient.carry[p]], arity.elements[e])]
                least = quotient.orbits[p0][1]
                return (*arity.prefix(p0), arity.elements[e if least is None else least[e]])
        raise ValueError(f"unknown composite tuple {self.describe_state(state)}")

    def act(self, state: tuple, gamma: Any) -> tuple:
        r, ks, x, ys, g = state
        return self.canonical((r, ks, x, ys, self.group.multiply(g, gamma)))

    def describe_state(self, state: tuple) -> str:
        _, _, x, ys, g = state
        return f"[{x}; {','.join(ys)}; {self.group.describe(g)}]"

    def collection(self) -> FiniteGCollection:
        """
        The classes as a collection.  A class is labelled by the repr of its
        state key, which holds ks as well as x, ys and g, so distinct classes
        get distinct labels.
        """
        labels: dict[int, tuple[str, ...]] = {}
        label_of: dict[tuple, str] = {}
        by_label: dict[tuple[int, str], tuple] = {}
        for n, states in self.classes_by_arity.items():
            keys = [_state_key(self.group, state) for state in states]
            names = [repr(key) for key in keys]
            labels[n] = tuple(names)
            label_of.update(zip(keys, names))
            by_label.update(((n, name), state) for name, state in zip(names, states))

        def action(n: int, label: str, gamma: Any) -> str:
            return label_of[_state_key(self.group, self.act(by_label[(n, label)], gamma))]

        return FiniteGCollection(self.name, self.group, labels, action)


def composite_states(
    x: FiniteGCollection, y: FiniteGCollection, bound: int, cap: float = math.inf
) -> int | None:
    """
    The number of composite tuples (x; y_1..y_r; g) with n = sum(ks) <= bound
    that `compose_collections` enumerates, sum_n |G(n)| * sum_(r; ks)
    |X(r)| * prod |Y(k_i)|, counted without listing a tuple or a group
    element: |G(n)| is the family's own `order`.  None if the tuples
    (x; y_1..y_r) alone number cap or more, in which case so do the
    composite tuples.  A group that lists no elements is refused, as
    `compose_collections` refuses it.
    """
    _require_finite_product(x.group)
    heads = {r: len(x.labels(r)) for r in x.levels}
    arguments = {k: len(y.labels(k)) for k in range(bound + 1)}
    counts = _signature_counts(heads, arguments, bound, cap)
    if counts is None:
        return None
    return sum(x.group.order(n) * count for n, count in enumerate(counts) if count)


def associativity_cases(p: FiniteGOperad) -> int:
    """
    The number of cases `check_operad` lists for operad associativity,
    counted from the level sizes without listing a case or a signature: each
    substitution (n; ks; head; args) with sum(ks) = t meets every flat case
    (ls; rs) of length t, so the count is the substitutions, taken as heads
    of arity t, times their argument tuples rs over the arities ls with
    sum(ls) <= bound.
    """
    bound = p.max_arity
    sizes = {n: len(p.labels(n)) for n in range(bound + 1)}
    return sum(_signature_counts(dict(enumerate(_signature_counts(sizes, sizes, bound))), sizes, bound))


def compose_collections(
    x: FiniteGCollection, y: FiniteGCollection, bound: int
) -> ComposedCollection:
    """
    Enumerate and quotient the composite tuples (x; y_1..y_r; g), n <= bound,
    by `_orbit_quotient`: first the orbits of the prefixes (r; ks; x; ys)
    under G(r) acting through the x slot and prod G(k_i) through the
    argument slots, then the cosets K.g in G(n) of each orbit's stabilizer
    K.  An action that is not a right one, or that leaves its level, is a
    `ValueError` naming the collection and the arity.
    """
    group = x.group
    _require_finite_product(group)
    if y.group is not x.group and y.group.name != group.name:
        raise ValueError(
            f"collections live over different groups: {x.group.name} and {y.group.name}"
        )
    levels = _ReadThrough(functools.partial(_sorted_level, _checked_levels(group)))
    y_arities = _inhabited(y.labels, bound)
    # The signatures (r; ks) within the bound by arity n = sum(ks), each by r, then ks.
    by_arity: dict[int, list[tuple[int, tuple[int, ...]]]] = {n: [] for n in range(bound + 1)}
    for r in x.arities():
        for ks in _within(bound, r, y_arities):
            by_arity[sum(ks)].append((r, ks))

    classes_by_arity: dict[int, list[tuple]] = {}
    signatures: dict[tuple[int, tuple[int, ...]], tuple[_Composites, int]] = {}
    for n, found in by_arity.items():
        classes_by_arity[n] = classes = []
        if not found:
            continue
        elements = sorted(group.elements(n), key=lambda g: _element_key(group, g))
        rank = {g: e for e, g in enumerate(elements)}
        order = group.order(n)

        def right(factor: Any) -> list[int]:
            """The rank of multiply(g, factor) for every g in G(n), in key order."""
            return [rank[group.multiply(g, factor)] for g in elements]

        # Prefix ids run by signature, then head rank, then argument-tuple rank.
        offsets = {}
        total = 0
        for block, (r, ks) in enumerate(found):
            offsets[r, ks] = block, total
            total += len(x.labels(r)) * math.prod(len(y.labels(k)) for k in ks)
        blocks = []
        described = []
        for r, ks in found:
            block, base = offsets[r, ks]
            slots = [levels[x, r], *(levels[y, k] for k in ks)]
            radices = [len(labels) for labels, _, _ in slots[1:]]
            arguments = math.prod(radices)
            heads = range(base, base + len(slots[0][0]) * arguments, arguments)
            identities = [group.identity(k) for k in ks]
            moves = []
            # Moving a generator h out of the x slot permutes the arguments
            # and multiplies the carry by the inverse of h's cable: argument
            # slot j lands at position pi(j) of the permuted signature, with
            # its stride.
            for h, acted in slots[0][2]:
                pi = group.project(h)
                landed = act_on_list(pi, radices)
                weights = [math.prod(landed[p:]) for p in pi.image]
                target_block, target = offsets[r, tuple(act_on_list(pi, ks))]
                mates = [0] * len(acted)
                for a, b in enumerate(acted):
                    mates[b] = target + a * arguments
                targets = _mixed_radix([mates, *(range(0, m * w, w) for m, w in zip(radices, weights))])
                cable = group.invert(group.operad_mu(h, identities))
                moves.append((targets, right(cable).__getitem__, target_block))
            # Moving a generator s out of argument slot i multiplies the
            # carry by its block sum, with identities elsewhere.
            strides = [math.prod(radices[i + 1:]) for i in range(r)]
            columns = [range(0, m * stride, stride) for m, stride in zip(radices, strides)]
            for i, k in enumerate(ks):
                for s, acted in slots[i + 1][2]:
                    targets = _mixed_radix([heads, *columns[:i], [d * strides[i] for d in acted], *columns[i + 1:]])
                    blocked = group.operad_mu(group.identity(r), [*identities[:i], s, *identities[i + 1:]])
                    moves.append((targets, right(blocked).__getitem__, block))
            blocks.append((base, len(heads) * arguments, moves))
            described.append((r, ks, base, [labels for labels, _, _ in slots], [ranks for _, ranks, _ in slots]))

        quotient = _orbit_quotient(
            blocks,
            rank[group.identity(n)],
            lambda kept, moved: rank[group.multiply(elements[kept], group.invert(elements[moved]))],
            lambda s: [rank[group.multiply(elements[s], g)] for g in elements],
            order,
        )
        keyed = {_element_key(group, g): e for e, g in enumerate(elements)}
        arity = _Composites(elements, rank, keyed, quotient, described)
        for p0, (_, least) in quotient.orbits.items():
            prefix = arity.prefix(p0)
            cosets = range(order) if least is None else [e for e in range(order) if least[e] == e]
            classes.extend((*prefix, elements[e]) for e in cosets)
        signatures.update((signature, (arity, block)) for signature, (block, _) in offsets.items())

    return ComposedCollection(
        name=f"{x.name} o {y.name}",
        group=group,
        bound=bound,
        classes_by_arity=classes_by_arity,
        _signatures=signatures,
    )


def unit_collection(group: ActionOperad) -> FiniteGCollection:
    """The composition unit: the arity-1 group acting on itself on the right."""
    if group.elements is None:
        raise ValueError("the unit collection needs an enumerable group")
    elements = {group.describe(g): g for g in group.elements(1)}

    def action(n: int, label: str, gamma: Any) -> str:
        return group.describe(group.multiply(elements[label], gamma))

    return FiniteGCollection(
        name="unit",
        group=group,
        levels={1: tuple(sorted(elements))},
        action=action,
    )
