"""
Action operads: families of groups G(n) that carry an operad structure
together with a projection onto the symmetric groups, such that group
multiplication and operadic substitution interact by the compatibility law

    multiply(mu(g; f_1..f_n), mu(g'; f'_1..f'_n))
        = mu(multiply(g, g'); ..., multiply(f_{pi(g')(i)}, f'_i), ...).

`multiply` here is the classical product: multiply(g, h) is "h drawn first
(at the top of a diagram), then g below it", matching composition order of
functions.  The diagrammatic building blocks (perm.compose, braid
concatenation) read the other way round, so the instances wrap them with
the arguments swapped; collections acted on by these groups then satisfy
the usual right-action law (x.g).h = x.(gh) on the nose.

Instances are capability records of pure functions over arity-tagged
elements; three are shipped: the trivial groups, the symmetric groups, and
the braid groups.  `check_axioms` runs the full law battery on an instance
and reports one PASS/FAIL line per law; finite instances are checked
exhaustively whenever the case space fits the budget, infinite ones by
seeded sampling.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import braids
from .braids import BraidWord, braid_identity, format_word, mu_br, underlying_permutation
from .permutations import (
    Permutation,
    adjacent_transposition,
    all_permutations,
    compose,
    format_permutation,
    identity as identity_permutation,
    inverse,
    mu_sigma,
)
from .reporting import Report


@dataclass(frozen=True)
class ActionOperad:
    """
    A family of groups with operad structure and projection to permutations.

    Group elements must be hashable: finite operads key their action tables
    by (arity, label, element).  `Permutation`, `BraidWord` and the `int`
    arities of the trivial groups all are.
    """

    name: str
    identity: Callable[[int], Any]
    multiply: Callable[[Any, Any], Any]
    invert: Callable[[Any], Any]
    equal: Callable[[Any, Any], bool]
    project: Callable[[Any], Permutation]
    operad_mu: Callable[[Any, Sequence[Any]], Any]
    arity: Callable[[Any], int]
    describe: Callable[[Any], str]
    sample: Callable[[random.Random, int], Any]
    elements: Callable[[int], list[Any]] | None = None
    generators: Callable[[int], list[Any]] | None = None
    # |G(n)| of a finite family, len(elements(n)) counted without listing
    # them; None for an infinite one.
    order: Callable[[int], int] | None = None


def instance_trivial() -> ActionOperad:
    """One element per arity; the projection lands on identity permutations."""

    def multiply(g: int, h: int) -> int:
        if g != h:
            raise ValueError(f"cannot multiply trivial-group elements of arities {g} and {h}")
        return g

    def operad_mu(g: int, fs: Sequence[int]) -> int:
        if len(fs) != g:
            raise ValueError(f"operadic composition needs {g} arguments, got {len(fs)}")
        return sum(fs)

    return ActionOperad(
        name="trivial",
        identity=lambda n: n,
        multiply=multiply,
        invert=lambda g: g,
        equal=lambda g, h: g == h,
        project=identity_permutation,
        operad_mu=operad_mu,
        arity=lambda g: g,
        describe=lambda g: f"e_{g}",
        sample=lambda rng, n: n,
        elements=lambda n: [n],
        generators=lambda n: [],
        order=lambda n: 1,
    )


def instance_symmetric() -> ActionOperad:
    """The symmetric groups with block substitution; projection is the identity."""

    def sample(rng: random.Random, n: int) -> Permutation:
        image = list(range(1, n + 1))
        rng.shuffle(image)
        return Permutation(tuple(image))

    return ActionOperad(
        name="symmetric",
        identity=identity_permutation,
        multiply=lambda g, h: compose(h, g),
        invert=inverse,
        equal=lambda g, h: g == h,
        project=lambda g: g,
        operad_mu=mu_sigma,
        arity=lambda g: g.n,
        describe=format_permutation,
        sample=sample,
        elements=lambda n: list(all_permutations(n)),
        generators=lambda n: [adjacent_transposition(n, i) for i in range(1, n)],
        order=math.factorial,
    )


# Sampled braid words have at most this many letters.
MAX_SAMPLE_LENGTH = 4


def instance_braid() -> ActionOperad:
    """The braid groups with strand substitution; projection forgets crossings."""

    def sample(rng: random.Random, n: int) -> BraidWord:
        if n < 2:
            return braid_identity(n)
        length = rng.randrange(MAX_SAMPLE_LENGTH + 1)
        word = tuple(
            rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(length)
        )
        return BraidWord(n, word)

    return ActionOperad(
        name="braid",
        identity=braid_identity,
        multiply=lambda g, h: braids.concatenate(h, g),
        invert=lambda g: g.inverse(),
        equal=braids.equal,
        project=underlying_permutation,
        operad_mu=mu_br,
        arity=lambda g: g.strands,
        describe=lambda g: f'"{format_word(g)}" on {g.strands} strands',
        sample=sample,
        elements=None,
        generators=lambda n: [BraidWord(n, (i,)) for i in range(1, n)],
    )


def _cases(
    enumerated: Iterator[tuple] | None,
    sample_one: Callable[[], tuple],
    budget: int,
) -> list[tuple]:
    """All cases if the space fits the budget, otherwise `budget` sampled ones."""
    if enumerated is not None:
        head = list(itertools.islice(enumerated, budget + 1))
        if len(head) <= budget:
            return head
    return [sample_one() for _ in range(budget)]


def _element_tuples(
    inst: ActionOperad,
    rng: random.Random,
    arities: range,
    budget: int,
    width: int,
) -> list[tuple]:
    """Tuples of `width` elements of one arity: all of them if they fit the budget, else drawn."""
    enumerated = None if inst.elements is None else (
        tup for n in arities for tup in itertools.product(inst.elements(n), repeat=width)
    )

    def sample_one() -> tuple:
        n = rng.choice(arities)
        return tuple(inst.sample(rng, n) for _ in range(width))

    return _cases(enumerated, sample_one, budget)


def _mu_cases(inst: ActionOperad, rng: random.Random, max_arity: int, budget: int) -> list[tuple]:
    """`budget` drawn substitution cases (g; fs), each arity up to max_arity."""
    cases = []
    for _ in range(budget):
        n = rng.randrange(max_arity + 1)
        g = inst.sample(rng, n)
        cases.append((g, [inst.sample(rng, rng.randrange(max_arity + 1)) for _ in range(n)]))
    return cases


def _arity_tuples(max_arity: int) -> Iterable[tuple[int, tuple[int, ...]]]:
    for n in range(max_arity + 1):
        for ks in itertools.product(range(max_arity + 1), repeat=n):
            yield n, ks


def check_axioms(
    inst: ActionOperad,
    *,
    max_arity: int = 3,
    budget: int = 200,
    seed: int = 20260819,
) -> Report:
    """Run the full action-operad law battery on one instance."""
    rng = random.Random(seed)
    draw = inst.sample
    report = Report(f"action operad laws: {inst.name}")
    arities = range(max_arity + 1)
    eq = inst.equal
    tuples = functools.partial(_element_tuples, inst, rng, arities, budget)

    # Each check returns None when its case holds and the witness otherwise.
    # --- group laws, one arity at a time -------------------------------
    def check_assoc(g, h, k):
        lhs = inst.multiply(inst.multiply(g, h), k)
        rhs = inst.multiply(g, inst.multiply(h, k))
        if not eq(lhs, rhs):
            return f"g={inst.describe(g)}, h={inst.describe(h)}, k={inst.describe(k)}"

    report.check("group associativity", itertools.starmap(check_assoc, tuples(3)))

    def check_identity(g):
        e = inst.identity(inst.arity(g))
        if not (eq(inst.multiply(e, g), g) and eq(inst.multiply(g, e), g)):
            return f"g={inst.describe(g)}"

    report.check("group identity", itertools.starmap(check_identity, tuples(1)))

    def check_inverses(g):
        e = inst.identity(inst.arity(g))
        gi = inst.invert(g)
        if not (eq(inst.multiply(g, gi), e) and eq(inst.multiply(gi, g), e)):
            return f"g={inst.describe(g)}"

    report.check("group inverses", itertools.starmap(check_inverses, tuples(1)))

    # --- operad unit laws: the arity-1 group identity is the unit ------
    def check_left_unit(f):
        if not eq(inst.operad_mu(inst.identity(1), [f]), f):
            return f"f={inst.describe(f)}"

    report.check("operad left unit", itertools.starmap(check_left_unit, tuples(1)))

    def check_right_unit(g):
        if not eq(inst.operad_mu(g, [inst.identity(1)] * inst.arity(g)), g):
            return f"g={inst.describe(g)}"

    report.check("operad right unit", itertools.starmap(check_right_unit, tuples(1)))

    # --- operad associativity ------------------------------------------
    inner_cap = min(2, max_arity)

    def draw_assoc_case() -> tuple:
        n = rng.randrange(1, max_arity + 1)
        g = draw(rng, n)
        ks = [rng.randrange(inner_cap + 1) for _ in range(n)]
        fs = [draw(rng, k) for k in ks]
        hss = [[draw(rng, rng.randrange(inner_cap + 1)) for _ in range(k)] for k in ks]
        return g, fs, hss

    def check_operad_assoc(g, fs, hss):
        flat = [h for chunk in hss for h in chunk]
        lhs = inst.operad_mu(inst.operad_mu(g, fs), flat)
        rhs = inst.operad_mu(g, [inst.operad_mu(f, chunk) for f, chunk in zip(fs, hss)])
        if not eq(lhs, rhs):
            return (
                f"g={inst.describe(g)}, fs=[{', '.join(inst.describe(f) for f in fs)}], "
                f"hs=[{', '.join(inst.describe(h) for h in flat)}]"
            )

    assoc_cases = [draw_assoc_case() for _ in range(budget)]
    report.check("operad associativity", itertools.starmap(check_operad_assoc, assoc_cases))

    # --- the projection ------------------------------------------------
    def check_hom(g, h):
        got = inst.project(inst.multiply(g, h))
        # The classical product of the projections: h first, then g.
        if got != compose(inst.project(h), inst.project(g)):
            return f"g={inst.describe(g)}, h={inst.describe(h)}"

    report.check("projection is a group homomorphism", itertools.starmap(check_hom, tuples(2)))

    def check_operad_map(g, fs):
        got = inst.project(inst.operad_mu(g, fs))
        if got != mu_sigma(inst.project(g), [inst.project(f) for f in fs]):
            return f"g={inst.describe(g)}, fs=[{', '.join(inst.describe(f) for f in fs)}]"

    mu_cases = _mu_cases(inst, rng, max_arity, budget)
    report.check("projection is an operad map", itertools.starmap(check_operad_map, mu_cases))

    # --- compatibility of the two structures ---------------------------
    # multiply(mu(g; fs), mu(g'; f's)) = mu(multiply(g, g'); pairwise),
    # where the i-th pair is multiply(fs[pi(g')(i)], f's[i]); the arity of
    # fs[j] therefore has to be the arity of f's at slot pi(g')^{-1}(j).
    def draw_compat_case() -> tuple:
        n = rng.randrange(1, max_arity + 1)
        g = draw(rng, n)
        gp = draw(rng, n)
        ks = [rng.randrange(inner_cap + 1) for _ in range(n)]
        pgp = inst.project(gp)
        fps = [draw(rng, k) for k in ks]
        fs = [draw(rng, ks[pgp.inverse()(j) - 1]) for j in range(1, n + 1)]
        return g, gp, fs, fps

    def check_compatibility(g, gp, fs, fps):
        pgp = inst.project(gp)
        lhs = inst.multiply(inst.operad_mu(g, fs), inst.operad_mu(gp, fps))
        rhs = inst.operad_mu(
            inst.multiply(g, gp),
            [inst.multiply(fs[pgp(i) - 1], fps[i - 1]) for i in range(1, len(fps) + 1)],
        )
        if not eq(lhs, rhs):
            return (
                f"g={inst.describe(g)}, g'={inst.describe(gp)}, "
                f"fs=[{', '.join(inst.describe(u) for u in fs)}], "
                f"f's=[{', '.join(inst.describe(v) for v in fps)}]"
            )

    compat_cases = [draw_compat_case() for _ in range(budget)]
    report.check(
        "compatibility of product and substitution",
        itertools.starmap(check_compatibility, compat_cases),
    )

    # --- consequences worth checking on their own ----------------------
    def check_identities_compose(n, ks):
        got = inst.operad_mu(inst.identity(n), [inst.identity(k) for k in ks])
        if not eq(got, inst.identity(sum(ks))):
            return f"n={n}, ks={list(ks)}"

    def draw_arity_tuple() -> tuple:
        n = rng.randrange(max_arity + 1)
        return n, tuple(rng.randrange(max_arity + 1) for _ in range(n))

    arity_cases = _cases(iter(_arity_tuples(max_arity)), draw_arity_tuple, budget)
    report.check(
        "identities compose to identities",
        itertools.starmap(check_identities_compose, arity_cases),
    )

    def check_abelian(g, h):
        if not eq(inst.multiply(g, h), inst.multiply(h, g)):
            return f"g={inst.describe(g)}, h={inst.describe(h)}"

    arity_one_pairs = (
        [(g, h) for g in inst.elements(1) for h in inst.elements(1)]
        if inst.elements is not None
        else [(draw(rng, 1), draw(rng, 1)) for _ in range(budget)]
    )
    report.check("arity-1 group is abelian", itertools.starmap(check_abelian, arity_one_pairs))

    return report


def map_of_action_operads(
    f: Callable[[Any], Any],
    src: ActionOperad,
    dst: ActionOperad,
    *,
    max_arity: int = 3,
    budget: int = 200,
    seed: int = 20260819,
) -> Report:
    """
    Check that a per-arity function is simultaneously a group homomorphism,
    an operad map, and compatible with the two projections.
    """
    rng = random.Random(seed)
    report = Report(f"map of action operads: {src.name} -> {dst.name}")
    arities = range(max_arity + 1)
    tuples = functools.partial(_element_tuples, src, rng, arities, budget)

    def check_identities(n):
        if not dst.equal(f(src.identity(n)), dst.identity(n)):
            return f"n={n}"

    report.check("preserves identities", map(check_identities, arities))

    def check_hom(g, h):
        if not dst.equal(f(src.multiply(g, h)), dst.multiply(f(g), f(h))):
            return f"g={src.describe(g)}, h={src.describe(h)}"

    report.check("group homomorphism per arity", itertools.starmap(check_hom, tuples(2)))

    def check_operad_map(g, fs):
        got = f(src.operad_mu(g, fs))
        if not dst.equal(got, dst.operad_mu(f(g), [f(x) for x in fs])):
            return f"g={src.describe(g)}, fs=[{', '.join(src.describe(x) for x in fs)}]"

    mu_cases = _mu_cases(src, rng, max_arity, budget)
    report.check("operad map", itertools.starmap(check_operad_map, mu_cases))

    def check_projections(g):
        if dst.project(f(g)) != src.project(g):
            return f"g={src.describe(g)}"

    report.check("commutes with projections", itertools.starmap(check_projections, tuples(1)))

    return report
