"""
Acceptance suite: fourteen criteria, one verdict line each.

Every test prints — past pytest's capture, so the line is visible in the
live run — exactly one line of the form

    ACCEPTANCE nn PASS  <what was checked> [measured figures]

and then asserts the same condition, so a regression flips both the line
and the test.  Stated time bounds are checked against the best of a few
repeats for the sub-millisecond computations and against a single wall
measurement for the large sweeps.
"""

import json
import random
import time

from operadics.action_operads import instance_braid, instance_symmetric, instance_trivial
from operadics.braids import (
    BraidWord,
    braid_identity,
    concatenate,
    equal as braid_equal,
    is_trivial,
    mu_br,
    t_positive,
    underlying_permutation,
)
from operadics.free_monad import (
    cartesian_condition,
    check_monad_laws,
    free_algebra,
    pullback_witness_test,
)
from operadics.g_operads import (
    _signatures,
    compose_collections,
    endomorphism_operad,
    enumerate_algebra_structures,
    enumerate_operad_maps,
    operad_ass,
    operad_comm,
    unit_collection,
)
from operadics.permutations import (
    Permutation,
    compose,
    identity,
    mu_sigma,
    tau,
)
from operadics.pseudocomm import (
    braid_theorem_report,
    symmetric_theorem_report,
    t_family_symmetric,
    verify_symmetry,
)
from shared import _constant_collection, _swap_collection, perm

SEED = 20260819


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def _best_ms(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def test_criterion_01_grid_equality_in_sigma_9(capsys):
    def both_sides():
        lhs = mu_sigma(perm(2, 3, 1), [perm(2, 1), perm(2, 1, 4, 3), perm(3, 2, 1)])
        rhs = mu_sigma(
            perm(2, 3, 4, 1), [perm(2, 1), perm(2, 1), perm(2, 1), perm(3, 2, 1)]
        )
        return lhs, rhs

    lhs, rhs = both_sides()
    ms = _best_ms(lambda: both_sides())
    ok = lhs == rhs and lhs.n == 9 and ms < 1.0
    _verdict(
        capsys, 1, ok,
        f"two bracketings of the arity-9 composite agree ({ms:.3f} ms < 1 ms)",
    )


def test_criterion_02_product_of_composites_figure_in_sigma_6(capsys):
    a = perm(3, 1, 2)
    b = perm(1, 3, 2)
    swap = perm(2, 1)
    e2 = identity(2)

    def both_sides():
        lhs = compose(
            mu_sigma(a, [swap, e2, swap]),
            mu_sigma(b, [swap, swap, e2]),
        )
        rhs = mu_sigma(
            compose(a, b),
            [compose(swap, e2), compose(e2, swap), compose(swap, swap)],
        )
        return lhs, rhs

    lhs, rhs = both_sides()
    ms = _best_ms(lambda: both_sides())
    ok = lhs == rhs and lhs == perm(4, 3, 2, 1, 5, 6) and ms < 1.0
    _verdict(
        capsys, 2, ok,
        f"product of two arity-6 composites merges into one ({ms:.3f} ms < 1 ms)",
    )


def test_criterion_03_grid_transposition_fixtures(capsys):
    def sweep():
        fixtures = (
            tau(2, 3).image == (1, 3, 5, 2, 4, 6)
            and tau(4, 2).image == (1, 5, 2, 6, 3, 7, 4, 8)
        )
        inverses = all(
            tau(m, n) == tau(n, m).inverse()
            for m in range(6)
            for n in range(6)
        )
        return fixtures and inverses

    ok_values = sweep()
    ms = _best_ms(sweep)
    ok = ok_values and ms < 10.0
    _verdict(
        capsys, 3, ok,
        f"tau fixtures and tau(m,n) = tau(n,m)^-1 for m,n <= 5 ({ms:.3f} ms < 10 ms)",
    )


def test_criterion_04_braid_interchange_suite(capsys):
    start = time.perf_counter()
    report = braid_theorem_report(bound=3)
    seconds = time.perf_counter() - start
    equations = sum(
        result.checked for result in report.results if "interchange" in result.law
    )
    minimal = sum(
        result.checked for result in report.results if "minimal" in result.law
    )
    ok = report.ok and equations == 468 and minimal == 468 and seconds < 60.0
    _verdict(
        capsys, 4, ok,
        f"both interchange families hold for positive and negative lifts, "
        f"indices <= 3 ({equations} equations, {minimal} minimality "
        f"certificates, {seconds:.2f} s < 60 s)",
    )


def test_criterion_05_non_symmetry_witness(capsys):
    start = time.perf_counter()
    single_crossing = t_positive(2, 2) == BraidWord(4, (2,))
    square = concatenate(t_positive(2, 2), t_positive(2, 2))
    not_involutive = not braid_equal(square, braid_identity(4))
    seconds = time.perf_counter() - start
    ok = single_crossing and not_involutive and seconds < 1.0
    _verdict(
        capsys, 5, ok,
        f"the 2x2 lift is one crossing and its square is nontrivial "
        f"({seconds * 1000:.2f} ms < 1 s)",
    )


def test_criterion_06_symmetric_corollary(capsys):
    start = time.perf_counter()
    report = symmetric_theorem_report(bound=3)
    symmetric = verify_symmetry(
        instance_symmetric(), t_family_symmetric(), bound=4
    ) == (True, None)
    seconds = time.perf_counter() - start
    ok = report.ok and symmetric and seconds < 10.0
    _verdict(
        capsys, 6, ok,
        f"with grid transpositions the interchange families hold and the "
        f"family is symmetric for m,n <= 4 ({seconds:.2f} s < 10 s)",
    )


def _random_word(rng: random.Random, strands: int, max_length: int) -> BraidWord:
    if strands < 2:
        return BraidWord(strands, ())
    length = rng.randint(0, max_length)
    letters = tuple(
        rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(length)
    )
    return BraidWord(strands, letters)


def test_criterion_07_projection_is_an_operad_map(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    cases, failures = 1000, 0
    for _ in range(cases):
        n = rng.randint(1, 4)
        head = _random_word(rng, n, 6)
        ks = [rng.randint(1, 4) for _ in range(n)]
        arguments = [_random_word(rng, k, 6) for k in ks]
        projected_composite = underlying_permutation(mu_br(head, arguments))
        composed_projections = mu_sigma(
            underlying_permutation(head),
            [underlying_permutation(argument) for argument in arguments],
        )
        if projected_composite != composed_projections:
            failures += 1
    seconds = time.perf_counter() - start
    ok = failures == 0 and seconds < 30.0
    _verdict(
        capsys, 7, ok,
        f"projection commutes with substitution on {cases} seeded instances, "
        f"{failures} failures ({seconds:.2f} s < 30 s)",
    )


def test_criterion_08_word_problem_soundness(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    cases, failures = 1000, 0
    for _ in range(cases):
        strands = rng.randint(2, 6)
        word = _random_word(rng, strands, 20)
        if not is_trivial(concatenate(word, word.inverse())):
            failures += 1
    yang_baxter = braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    far_commute = braid_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    seconds = time.perf_counter() - start
    ok = failures == 0 and yang_baxter and far_commute and seconds < 60.0
    _verdict(
        capsys, 8, ok,
        f"w * w^-1 is trivial on {cases} seeded words and both generator "
        f"relations hold, {failures} failures ({seconds:.2f} s < 60 s)",
    )


def test_criterion_09_unit_lemma_suite(capsys):
    rng = random.Random(SEED)
    failures = 0
    checked = 0
    for instance in (instance_symmetric(), instance_braid()):
        for n, ks in _signatures(3, range(4)):
            checked += 1
            composite = instance.operad_mu(
                instance.identity(n), [instance.identity(k) for k in ks]
            )
            if not instance.equal(composite, instance.identity(sum(ks))):
                failures += 1
        for _ in range(50):
            n = rng.randint(0, 4)
            element = instance.sample(rng, n)
            checked += 2
            if not instance.equal(
                instance.operad_mu(element, [instance.identity(1)] * n), element
            ):
                failures += 1
            if n == 1 and not instance.equal(
                instance.operad_mu(instance.identity(1), [element]), element
            ):
                failures += 1
        for _ in range(50):
            left, right = instance.sample(rng, 1), instance.sample(rng, 1)
            checked += 1
            if not instance.equal(
                instance.multiply(left, right), instance.multiply(right, left)
            ):
                failures += 1
    ok = failures == 0
    _verdict(
        capsys, 9, ok,
        f"identity composites collapse, the arity-1 identity is the operadic "
        f"unit, and arity-1 groups commute ({checked} checks, {failures} failures)",
    )


def test_criterion_10_free_monad_laws(capsys):
    start = time.perf_counter()
    carrier = ("a", "b")
    comm_report = check_monad_laws(operad_comm(max_arity=3), carrier, max_arity=3)
    ass_report = check_monad_laws(operad_ass(max_arity=3), carrier, max_arity=3)
    comm_classes = len(free_algebra(operad_comm(max_arity=3), carrier).classes(2))
    ass_classes = len(free_algebra(operad_ass(max_arity=3), carrier).classes(2))
    seconds = time.perf_counter() - start
    ok = (
        comm_report.ok
        and ass_report.ok
        and comm_classes == 3
        and ass_classes == 4
        and seconds < 30.0
    )
    _verdict(
        capsys, 10, ok,
        f"monad laws hold exhaustively at bound 3 on a 2-element carrier; "
        f"arity-2 class counts {comm_classes} (unordered) and {ass_classes} "
        f"(ordered) ({seconds:.2f} s < 30 s)",
    )


def test_criterion_11_cartesian_criterion(capsys):
    unordered = operad_comm(max_arity=3)
    ordered = operad_ass(max_arity=3)
    trivial = operad_comm(instance_trivial(), max_arity=3)

    unordered_free, witness = cartesian_condition(unordered)
    ordered_free, _ = cartesian_condition(ordered)
    trivial_free, _ = cartesian_condition(trivial)
    verdicts = (
        unordered_free is False
        and witness == (2, "*", Permutation((2, 1)))
        and ordered_free is True
        and trivial_free is True
    )
    agreement = all(
        pullback_witness_test(p)[0] == cartesian_condition(p)[0]
        for p in (unordered, ordered, trivial)
    )
    ok = verdicts and agreement
    _verdict(
        capsys, 11, ok,
        "stabilizers decide the criterion (NO with witness / YES / YES) and "
        "the pullback test agrees on all three operads",
    )


def test_criterion_12_composition_product(capsys):
    start = time.perf_counter()
    sym = instance_symmetric()
    unit = unit_collection(sym)
    swap = _swap_collection(sym)

    left_unit = compose_collections(unit, swap, bound=3)
    right_unit = compose_collections(swap, unit, bound=3)
    swap_counts = [len(swap.labels(n)) for n in range(4)]
    units_ok = (
        [len(left_unit.classes(n)) for n in range(4)] == swap_counts
        and [len(right_unit.classes(n)) for n in range(4)] == swap_counts
    )

    x = _constant_collection("x", {1: 1, 2: 1}, sym)
    z = _constant_collection("z", {1: 1, 2: 1}, sym)
    nested_left = compose_collections(compose_collections(x, swap, 3).collection(), z, 3)
    nested_right = compose_collections(x, compose_collections(swap, z, 3).collection(), 3)
    left_counts = [len(nested_left.classes(n)) for n in range(4)]
    right_counts = [len(nested_right.classes(n)) for n in range(4)]
    seconds = time.perf_counter() - start
    ok = units_ok and left_counts == right_counts and seconds < 60.0
    _verdict(
        capsys, 12, ok,
        f"unit collections compose without collapse and both bracketings of "
        f"a triple product have class counts {left_counts} ({seconds:.2f} s < 60 s)",
    )


def test_criterion_13_algebra_structures_match_operad_maps(capsys):
    carrier = ("a", "b")
    p = operad_comm(max_arity=2)
    structures = enumerate_algebra_structures(p, carrier)
    endo = endomorphism_operad(carrier, instance_symmetric(), max_arity=2)
    maps = enumerate_operad_maps(p, endo)
    ok = len(structures) == len(maps) and len(structures) > 0
    _verdict(
        capsys, 13, ok,
        f"{len(structures)} algebra structures on a 2-element carrier equal "
        f"{len(maps)} operad maps into its endomorphism operad",
    )


def test_criterion_14_cli_golden_invocations(capsys, tmp_path, cli_process):
    # The invocations with a golden file are the manifest's, which
    # tests/test_cli.py runs; these are the ones without.
    failures = []

    def expect(label, result, code, stdout=None):
        if result.returncode != code:
            failures.append(f"{label}: exit {result.returncode} != {code}")
        elif stdout is not None and result.stdout != stdout:
            failures.append(f"{label}: output diverged")

    expect(
        "braid eq",
        cli_process("braid", "eq", "-n", "3", "1", "2", "1", "--", "2", "1", "2"),
        0, "equal\n",
    )
    expect("braid pi", cli_process("braid", "pi", "-n", "4", "2"), 0, "1 3 2 4\n")
    expect("perm tau 2 3", cli_process("perm", "tau", "2", "3"), 0, "1 3 5 2 4 6\n")
    expect("perm tau 4 2", cli_process("perm", "tau", "4", "2"), 0, "1 5 2 6 3 7 4 8\n")
    expect(
        "perm compose",
        cli_process("perm", "compose", "2", "3", "1", "--", "3", "1", "2"),
        0, "1 2 3\n",
    )
    expect("tmn", cli_process("tmn", "--family", "positive", "2", "2"), 0, "2\n")
    expect(
        "operad cartesian comm",
        cli_process("operad", "cartesian", "comm.json", cwd=tmp_path),
        1, 'CARTESIAN: NO  witness: arity 2, label "*", fixed by 2 1\n',
    )
    expect(
        "operad cartesian ass",
        cli_process("operad", "cartesian", "ass.json", cwd=tmp_path),
        0, "CARTESIAN: YES\n",
    )
    ok = not failures
    _verdict(
        capsys, 14, ok,
        "8 documented invocations byte-identical with the exit-code contract"
        if ok
        else "; ".join(failures),
    )
