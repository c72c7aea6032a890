"""
Free algebras over a finite operad with a group of equivariance.

For an operad P over a finite group and a finite carrier X, the free
algebra collects the tuples (p; x_1..x_n) with p of arity n and entries
from X, identified whenever one is carried to the other by a group
element:

    (p . g; x_1..x_n)  ~  (p; x_{pi(g)^-1(1)}, ..., x_{pi(g)^-1(n)})

Classes are stored by their lexicographically least representative, a
`FreeAlgebraClass`: the named tuple (label, items), which hashes and
compares as that tuple, rendered as "[p; x1,...,xn]".  The construction is
a monad: `unit_eta` wraps a carrier element as [unit; x], and `mult_mu`
flattens a class whose items are themselves classes.  `check_monad_laws`
verifies the monad laws and the correspondence between algebra structures
and monad algebras, drawing its tuples of classes by `g_operads._within`
(a class weighs its arity), so only those that flatten within the bound
are built.
Its laws read each flattening [label; classes] and each action value
through `g_operads._ReadThrough` tables that live only for that call, so
each is computed once per report.  Associativity has the row shape of
operad associativity in `g_operads`: one row per label, its flattenings
over the class tuples of its arity, and the positions and slice columns of
`g_operads._slice_columns`, each built once per call.  It decides each
(q, ps) by two rows over the tuples of one length
(`g_operads._rows_or_replay`): the row of q's composite with the p_i, and
q's row read at the position of each middle tuple, which the columns
gather from the rows of the p_i.  Constancy on classes at arity n is
decided on the generators of G(n) exactly when
`g_operads._right_action_fault` holds at n, and walked over the listed
elements otherwise, by the one group-element policy of `g_operads`.
The correspondence reads its classes from the free algebra the laws were
checked on, truncated to its bound, so one call runs one quotient per arity.
`free_algebra` keeps no quotient of its own: the free algebra is the
arity-0 part of the composition product P o X with the carrier X in arity
0, so it runs the two-stage `g_operads._orbit_quotient` at each arity r
up to the bound.  Its points are the labels of P(r) and its rest is X^r:
stage 1 finds the orbits of G(r) on P(r) along the generators, carrying
each label to its orbit's least label h by a permutation of the r
positions, and stage 2 the orbits on X^r of the stabilizer of h, acting
through the projection.  Each class is represented by its least state, h
with the least member of its stage-2 orbit, and `canonical` computes a
class on demand from those two stages, with no table over the states.  The
action must be a right action that keeps every level, or the quotient
raises a `ValueError`.
The algebra structures of that correspondence are found by the
backtracking search of `g_operads.enumerate_algebra_structures`, the
monad algebras by checking every candidate map (at most 2^7 for the
packaged operads over {a, b} at the correspondence bound).
`cartesian_condition` and `pullback_witness_test` decide, in two
independent ways, whether the construction preserves pullbacks.  Over a
point the comparison map is always onto, so the latter compares class
counts, per orbit of P(n) read from the class labels, and pushes classes
only at the first arity whose counts differ, to name the witness.  The
laws and quotients of one call share one memo of checked levels
(`g_operads._checked_levels`), so one call decides each level of P once.
As in `g_operads`, every law here walks, and lists group elements for,
only P's inhabited arities.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Sequence

from .g_operads import (
    FiniteGOperad,
    _checked_levels,
    _group_samples,
    _inhabited,
    _mixed_radix,
    _orbit_quotient,
    _ReadThrough,
    _require_bound,
    _rows_or_replay,
    _signatures,
    _slice_columns,
    _sorted_level,
    _within,
    enumerate_algebra_structures,
)
from .permutations import act_on_list
from .reporting import Report


class ArityOverflowError(Exception):
    """Raised when flattening nested classes would exceed the arity bound."""


class FreeAlgebraClass(NamedTuple):
    """
    A canonical representative (operation label; carrier items).  As a named
    tuple it hashes and compares as the plain tuple (label, items), which it
    equals.
    """

    label: str
    items: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        return f"[{self.label}; {','.join(self.items)}]" if self.items else f"[{self.label};]"


@dataclass
class FreeAlgebra:
    """
    All classes of the free algebra on a carrier, up to the arity bound.
    `canonical` computes an element's class on demand from the two-stage
    quotient of its arity, kept per label of arity r as `_heads[r, label]`
    = (places, classes, offset): the class of [label; xs] is classes[offset
    + sum_i places[i][xs_i]], each place mapping a carrier element to its
    rank times the weight of position i once the carry has moved it.
    """

    operad: FiniteGOperad
    carrier: tuple[str, ...]
    max_arity: int
    classes_by_arity: dict[int, list[FreeAlgebraClass]]
    _heads: dict[tuple[int, str], tuple[tuple[dict[str, int], ...], list[FreeAlgebraClass], int]] = field(
        repr=False, default_factory=dict
    )

    def classes(self, n: int) -> list[FreeAlgebraClass]:
        return list(self.classes_by_arity.get(n, []))

    def all_classes(self) -> list[FreeAlgebraClass]:
        return [c for n in sorted(self.classes_by_arity) for c in self.classes_by_arity[n]]

    def canonical(self, label: str, items: Sequence[str]) -> FreeAlgebraClass:
        """
        The representative of [label; items]: the least label h of label's
        orbit, with the items moved by the carry to h and then to the least
        member of their orbit under h's stabilizer.  An element outside the
        algebra, or above its bound, is a `ValueError`.
        """
        items = tuple(items)
        found = self._heads.get((len(items), label))
        if found is not None:
            places, classes, offset = found
            try:
                return classes[offset + sum(map(operator.getitem, places, items))]
            except KeyError:
                pass
        raise ValueError(f"unknown free-algebra element ({label!r}; {list(items)})")


def free_algebra(p: FiniteGOperad, carrier: Sequence[str], max_arity: int | None = None) -> FreeAlgebra:
    """
    Enumerate the classes [p; x1..xn] for n up to the arity bound.  An action
    that is not a right action, or that leaves its level, is a `ValueError`.
    """
    return _free_algebra(p, carrier, max_arity, _checked_levels(p.group))


def _inverse(image: Sequence[int]) -> list[int]:
    """The inverse of a permutation of range(len(image)) given by its images."""
    inverse = [0] * len(image)
    for j, i in enumerate(image):
        inverse[i] = j
    return inverse


def _free_algebra(p: FiniteGOperad, carrier: Sequence[str], max_arity: int | None, checked: _ReadThrough) -> FreeAlgebra:
    """`free_algebra`, deciding each level through `checked`, the caller's memo of checked levels."""
    if p.group.elements is None:
        raise ValueError("free-algebra classes need a finite group of equivariance")
    carrier = tuple(carrier)
    if len(set(carrier)) != len(carrier):
        raise ValueError("carrier elements must be distinct")
    bound = p.max_arity if max_arity is None else max_arity
    _require_bound(bound)
    if bound > p.max_arity:
        raise ValueError(f"arity bound {bound} exceeds the operad's bound {p.max_arity}")

    # At arity r the points are the labels of P(r), and the rest is X^r
    # numbered by mixed radix over the sorted carrier.  (label; xs) ~
    # (label.s; xs o pi(s)) for each generator s of G(r), with (xs o t)[j] =
    # xs[t[j]], and a carry is the t with (label; xs) ~ (root; xs o t).  With
    # no carrier element, only the constants have states.
    items = sorted(carrier)
    classes_by_arity: dict[int, list[FreeAlgebraClass]] = {n: [] for n in range(bound + 1)}
    heads = {}

    def step(inverse: list[int], carry: tuple[int, ...]) -> tuple[int, ...]:
        """The carry inverse o carry of the target of the move (label; xs) ~ (label.s; xs o q), q = inverse^-1."""
        return tuple(map(inverse.__getitem__, carry))

    def schreier(kept: tuple[int, ...], moved: tuple[int, ...]) -> tuple[int, ...]:
        return step(_inverse(moved), kept)

    for r in _inhabited(p.labels, bound if items else 0):
        labels, _, generators = _sorted_level(checked, p, r)
        weights = [len(items) ** (r - 1 - j) for j in range(r)]
        places = {w: {x: i * w for i, x in enumerate(items)} for w in weights}

        def mates(s: tuple[int, ...]) -> list[int]:
            """The rank of xs o s for every xs in X^r, in rank order."""
            return _mixed_radix([range(0, len(items) * w, w) for w in (weights[j] for j in _inverse(s))])

        moves = [
            (acted, functools.partial(step, _inverse([i - 1 for i in p.group.project(s).image])), 0)
            for s, acted in generators
        ]
        found = _orbit_quotient([(0, len(labels), moves)], tuple(range(r)), schreier, mates, len(items) ** r)
        # Each root h's class of (h; xs) by the rank of xs: where h's
        # stabilizer moves no xs, h's run of classes_by_arity[r] itself.
        classes = classes_by_arity[r]
        tables = {}
        for h, (_, least) in found.orbits.items():
            tuples = itertools.product(items, repeat=r)
            if least is None:
                tables[h] = (classes, len(classes))
                classes.extend(FreeAlgebraClass(labels[h], xs) for xs in tuples)
                continue
            members = [
                FreeAlgebraClass(labels[h], xs) if a == b else None for a, (b, xs) in enumerate(zip(least, tuples))
            ]
            classes.extend(filter(None, members))
            tables[h] = ([members[b] for b in least], 0)
        # The rank of xs o t weighs xs[t[j]] by weights[j].
        for label, h, carry in zip(labels, found.root, found.carry):
            heads[r, label] = (tuple(places[weights[j]] for j in _inverse(carry)), *tables[h])
    return FreeAlgebra(p, carrier, bound, classes_by_arity, heads)


def unit_eta(free: FreeAlgebra, x: str) -> FreeAlgebraClass:
    """The monad unit: a carrier element wrapped under the operad unit."""
    if x not in free.carrier:
        raise ValueError(f"{x!r} is not a carrier element")
    return free.canonical(free.operad.unit, (x,))


def mult_mu(free: FreeAlgebra, label: str, inner: Sequence[FreeAlgebraClass]) -> FreeAlgebraClass:
    """
    The monad multiplication: flatten a class-of-classes [label; inner]
    into a single class by substituting the inner labels and concatenating
    their items.
    """
    n = len(inner)
    if label not in free.operad.labels(n):
        raise ValueError(f"unknown label {label!r} at arity {n}")
    ks = tuple(c.arity for c in inner)
    total = sum(ks)
    if total > free.max_arity:
        raise ArityOverflowError(
            f"flattening needs arity {total}, beyond the bound {free.max_arity}"
        )
    flat_label = free.operad.compose(n, ks, label, [c.label for c in inner])
    items = tuple(itertools.chain.from_iterable(c.items for c in inner))
    return free.canonical(flat_label, items)


def _nestings(free: FreeAlgebra) -> Iterator[tuple[int, str, tuple[FreeAlgebraClass, ...]]]:
    """All (n, label, inner classes) with the flattened arity in bounds."""
    pool = free.all_classes()
    arities = [c.arity for c in pool]
    for n in _inhabited(free.operad.labels, free.max_arity):
        for inner in _within(free.max_arity, n, pool, arities):
            for label in free.operad.labels(n):
                yield n, label, inner


def _restrict(free: FreeAlgebra, p: FiniteGOperad) -> FreeAlgebra:
    """
    The free algebra over p, a truncation of free's operad, on the same
    carrier: free's classes and canonical map up to p's bound, which are
    exactly those its own quotient would find.
    """
    bound = p.max_arity
    classes_by_arity = {n: free.classes_by_arity[n] for n in range(bound + 1)}
    heads = {key: head for key, head in free._heads.items() if key[0] <= bound}
    return FreeAlgebra(p, free.carrier, bound, classes_by_arity, heads)


def _truncate(p: FiniteGOperad, bound: int) -> FiniteGOperad:
    if bound >= p.max_arity:
        return p
    return FiniteGOperad(
        name=f"{p.name} (arity <= {bound})",
        group=p.group,
        levels={n: p.labels(n) for n in range(bound + 1)},
        unit=p.unit,
        action=p.action,
        compose=p.compose,
        max_arity=bound,
    )


# The arity bound of the algebra/monad-algebra correspondence, which enumerates whole tables.
CORRESPONDENCE_BOUND = 2


def check_monad_laws(
    p: FiniteGOperad, carrier: Sequence[str], *, max_arity: int | None = None
) -> Report:
    """
    Verify that the free construction really is a monad on finite sets:
    well-definedness of the flattening, both unit laws, associativity, and
    the correspondence between operad algebras and monad algebras (the
    latter up to CORRESPONDENCE_BOUND, on this free algebra's classes).

    Flattenings and actions are read through tables of this call, each key
    once.  "Multiplication is constant on classes" follows the policy at
    `g_operads.GROUP_SAMPLE_BUDGET`: decided on generators exactly when
    `g_operads._right_action_fault` holds at an arity, with the counts the
    `g_operads` module docstring states, reading the precondition from the
    memo its free algebra's quotient filled.
    """
    group = p.group
    # One memo of checked levels for the free algebra's quotient and the laws.
    checked = _checked_levels(group)
    free = _free_algebra(p, carrier, max_arity, checked)
    bound = free.max_arity
    report = Report(f"monad laws: {p.name} on {{{','.join(free.carrier)}}}")
    # The flattenings [label; classes] and actions every law reads, each
    # computed at its first read in this call and never kept after it.
    flatten = _ReadThrough(functools.partial(mult_mu, free))
    act = _ReadThrough(p.action)

    # The elements of G(n), listed once per inhabited arity.
    elements = _group_samples(group, p.labels, bound)

    # Constancy on classes, by arity n: each (label, inner) under each g in gs, moving inner by pi(g)^-1.
    def constancy_walk(n: int, cases: list[tuple], gs: list) -> Iterator[str | None]:
        steps = [(g, group.project(g).inverse()) for g in gs]
        for label, inner in cases:
            value = flatten[label, inner]
            for g, pi_inv in steps:
                if flatten[act[n, label, g], tuple(act_on_list(pi_inv, inner))] != value:
                    yield f"label={label}, inner={[str(c) for c in inner]}, g={group.describe(g)}"
                yield None

    def constant_on_generators(n: int, cases: list[tuple]) -> bool:
        return checked[p, n][0] is None and not any(constancy_walk(n, cases, group.generators(n)))

    def well_defined() -> Iterator[tuple]:
        for n, nestings in itertools.groupby(_nestings(free), key=lambda nesting: nesting[0]):
            cases = [(label, inner) for _, label, inner in nestings]
            agree = functools.partial(constant_on_generators, n, cases)
            yield len(cases) * len(elements[n]), agree, functools.partial(constancy_walk, n, cases, elements[n])

    def left_unit() -> Iterator[str | None]:
        for cls in free.all_classes():
            yield None if flatten[p.unit, (cls,)] == cls else str(cls)

    def right_unit() -> Iterator[str | None]:
        for cls in free.all_classes():
            wrapped = tuple(unit_eta(free, x) for x in cls.items)
            yield None if flatten[cls.label, wrapped] == cls else str(cls)

    # Associativity: a three-level nesting [q; [p_i; classes_i]] flattens
    # either middle-first (each [p_i; classes_i] collapses to one class)
    # or outer-first (q and the p_i merge, then one flattening).
    def replay(q: str, ps: tuple[str, ...], outer: str, spans: list, flats: list[tuple]) -> Iterator[str | None]:
        for flat in flats:
            slices = [flat[a:b] for a, b in spans]
            middle_first = flatten[q, tuple(map(flatten.__getitem__, zip(ps, slices)))]
            outer_first = flatten[outer, flat]
            if middle_first != outer_first:
                yield f"q={q}, ps={list(ps)}, classes={[str(c) for c in flat]}"
            yield None

    def associativity() -> Iterator[tuple]:
        # The class tuples of each length, numbered in `_within` order, and
        # each label's row of flattenings over the tuples of its arity.
        pool = free.all_classes()
        tuples = {m: _within(bound, m, pool, [c.arity for c in pool]) for m in range(bound + 1)}
        rows = _ReadThrough(lambda r, label: [flatten[label, flat] for flat in tuples[r]])
        positions, column = _slice_columns(tuples.__getitem__)

        def rows_agree(q: str, ps: tuple[str, ...], outer: str, rs: tuple[int, ...], columns: list[list[int]]) -> bool:
            """
            Whether q's row, read at the position of each middle tuple (the
            p_i's rows read at the columns), gives the outer label's row.
            """
            getters = [rows[key].__getitem__ for key in zip(rs, ps)]
            places = map(positions(len(rs)).__getitem__, zip(*map(map, getters, columns)) if rs else [()])
            return list(map(rows[len(rs), q].__getitem__, places)) == rows[sum(rs), outer]

        for n, rs in _signatures(bound, _inhabited(p.labels, bound)):
            starts = list(itertools.accumulate(rs, initial=0))
            spans = list(zip(starts, starts[1:]))
            flats = tuples[starts[-1]]
            columns = [column[starts[-1], a, b] for a, b in spans]
            for q in p.labels(n):
                for ps in itertools.product(*(p.labels(r) for r in rs)):
                    outer = p.compose(n, rs, q, ps)
                    agree = functools.partial(rows_agree, q, ps, outer, rs, columns)
                    yield len(flats), agree, functools.partial(replay, q, ps, outer, spans, flats)

    report.check("multiplication is constant on classes", _rows_or_replay(well_defined()))
    report.check("left unit law", left_unit())
    report.check("right unit law", right_unit())
    report.check("associativity", _rows_or_replay(associativity()))

    truncated = _truncate(p, min(CORRESPONDENCE_BOUND, bound))
    algebras = enumerate_algebra_structures(truncated, free.carrier)
    small = _restrict(free, truncated)
    monad_maps = _monad_algebra_maps(small)
    induced = {
        tuple(algebra.maps(c.arity, c.label, c.items) for c in small.all_classes())
        for algebra in algebras
    }
    corr_ok = len(algebras) == len(monad_maps) and induced == set(monad_maps)
    corr_witness = "" if corr_ok else (
        f"{len(algebras)} algebra structures vs {len(monad_maps)} monad algebras"
    )
    report.record(
        "algebra structures correspond to monad algebras",
        corr_ok,
        corr_witness,
        len(algebras) + len(monad_maps),
    )
    return report


def _monad_algebra_maps(free: FreeAlgebra) -> list[tuple[str, ...]]:
    """
    Enumerate every map h from the free-algebra classes to the carrier
    satisfying the monad-algebra laws, as value tuples over all_classes().
    """
    classes = free.all_classes()
    # The units and flattenings every candidate reads, each computed once,
    # and the classes [label; h(inner)] they read, each at its first read.
    units = [(unit_eta(free, x), x) for x in free.carrier]
    nestings = [(label, inner, mult_mu(free, label, inner)) for _, label, inner in _nestings(free)]
    canonical = _ReadThrough(free.canonical)
    found = []
    for values in itertools.product(free.carrier, repeat=len(classes)):
        h = dict(zip(classes, values))
        if any(h[eta] != x for eta, x in units):
            continue
        if all(h[flat] == h[canonical[label, tuple(h[c] for c in inner)]] for label, inner, flat in nestings):
            found.append(values)
    return found


# ----------------------------------------------------- pullback behaviour


def cartesian_condition(p: FiniteGOperad) -> tuple[bool, tuple[int, str, Any] | None]:
    """
    The pointwise criterion: no operation may be fixed by a group element
    with a nontrivial underlying permutation.  Returns (True, None) or
    (False, (arity, label, group element)).
    """
    if p.group.elements is None:
        raise ValueError("the pointwise criterion needs a finite group of equivariance")
    for n in _inhabited(p.labels, p.max_arity):
        for g in p.group.elements(n):
            if p.group.project(g).is_identity():
                continue
            for label in p.labels(n):
                if p.action(n, label, g) == label:
                    return False, (n, label, g)
    return True, None


def pullback_witness_test(p: FiniteGOperad) -> tuple[bool, str]:
    """
    The transformation-level criterion on one concrete square: apply the
    free construction to the pullback of two two-element sets over a
    point and check, arity by arity, that classes of pairs biject with
    pairs of classes.  Returns (True, "") or (False, witness).

    Over a point the comparison map is always onto: a pair ([q; xs], [q.g; ys])
    is the image of [q; (x_i, y'_i)], with y' the ys permuted by pi(g).  So it
    is a bijection at arity n exactly when |F(pairs)(n)| equals the size of
    the fiber product, the sum over the orbits O of P(n) of
    |F(left)_O(n)| * |F(right)_O(n)|.  A class carries its orbit's least
    label, so a count of class labels gives each |F(left)_O(n)|, and the
    right carrier, of two points too, has the same counts.  Only the free
    algebras on pairs and on left are built, sharing one memo of checked
    levels, and no class is pushed, until the first arity whose counts
    differ: there the right algebra is built and each class of pairs is
    pushed forward until two meet, which names the witness.
    """
    left = ("x1", "x2")
    right = ("y1", "y2")
    pairs = tuple(f"{u}{v}" for u in left for v in right)
    first = {f"{u}{v}": u for u in left for v in right}
    second = {f"{u}{v}": v for u in left for v in right}

    checked = _checked_levels(p.group)
    free_pairs = _free_algebra(p, pairs, None, checked)
    free_left = _free_algebra(p, left, None, checked)

    def push(free_target, mapping, cls):
        return free_target.canonical(cls.label, tuple(mapping[x] for x in cls.items))

    for n in range(free_pairs.max_arity + 1):
        orbits = collections.Counter(cls.label for cls in free_left.classes_by_arity[n])
        if len(free_pairs.classes_by_arity[n]) == sum(count * count for count in orbits.values()):
            continue
        free_right = _free_algebra(p, right, None, checked)
        images = {}
        for cls in free_pairs.classes_by_arity[n]:
            image = (push(free_left, first, cls), push(free_right, second, cls))
            if image in images:
                return False, (
                    f"classes {images[image]} and {cls} both map to "
                    f"({image[0]}, {image[1]})"
                )
            images[image] = cls
    return True, ""
