"""
Command-line interface: batch computation and verification.

Every subcommand is deterministic given the same inputs; only ``verify
all`` samples, and its ``--seed``/``--budget`` flags have defaults, so runs
are reproducible without any flags.  Exit codes are uniform:

    0   success / the queried relation holds
    1   semantic negative — words unequal, a law fails, criterion says NO
    2   usage or parse error (reported on standard error)

Input formats are the module text formats: braid words are space-separated
nonzero letters (``1 -2 1``), permutations are space-separated image lines
(``2 3 1``), and operad files are the JSON documents produced by
``write_operad_document``.  Operad file arguments resolve against the
packaged examples (``comm.json``, ``ass.json``, ``comm_trivial.json``)
when no file of that name exists in the working directory; ``verify all``
always reads the packaged examples, whatever the working directory holds.

The argument parser is built once per process, on the first call of
`main`, and reused by every later call.  `_load_document` holds the cycle
collector off while it decodes and loads a document, and restores its
state after: the decoded tree and the loaded tables hold no reference
cycle, so the collector's passes over them would free nothing.

Oversize input is refused by `_at_most` before anything is built: the
tuples `operad compose` and `operad free` would enumerate
(`MAX_COMPOSITE_STATES`, `MAX_FREE_STATES`), the associativity cases of
a document given to `operad check` (`MAX_CHECK_CASES`),
the letters `braid cable` and `braid mu` would write (`MAX_CABLE_LETTERS`),
the strands of every braid word and `tmn` grid (`MAX_STRANDS`), a word
given to `braid eq`, `reduce`, `pi` or `render` (`MAX_WORD_LETTERS`) and
the grid of `perm tau`.  `verify pscomm` refuses an index bound above
`MAX_PSCOMM_BOUND`, `verify all` a sample budget below 1, and `operad
compose` an arity bound above both the default 3 and X's max_arity times
Y's, where no composite lies, with messages of their own.  A refused
argument value is named first, in `_at_most`'s shape ``SUBJECT: ...``: a
grid dimension as ``M``/``N``, a bound as ``--bound B``, a carrier with an
empty or a repeated element as ``--carrier ...``.  An empty ``--carrier``
is the empty carrier.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import braids
from .action_operads import (
    ActionOperad,
    check_axioms,
    instance_braid,
    instance_symmetric,
    instance_trivial,
)
from .braids import BraidWord, format_word, parse_word
from .free_monad import (
    cartesian_condition,
    check_monad_laws,
    free_algebra,
    pullback_witness_test,
)
from .g_operads import (
    FiniteGCollection,
    FiniteGOperad,
    associativity_cases,
    check_operad,
    compose_collections,
    composite_states,
    load_operad,
    operad_comm,
    unit_collection,
)
from .permutations import (
    Permutation,
    compose,
    format_permutation,
    inverse,
    mu_sigma,
    parse_permutation,
    tau,
)
from .pseudocomm import (
    braid_theorem_report,
    symmetric_theorem_report,
    t_family_braid_negative,
    t_family_braid_positive,
    verify_symmetry,
)
from .reporting import Report

DATA_DIR = Path(__file__).parent / "data"
PACKAGED = ("comm", "ass", "comm_trivial")

DEFAULT_SEED = 20260819
DEFAULT_BUDGET = 200
# The largest arity `operad compose` lists when no --bound is given.
DEFAULT_COMPOSE_BOUND = 3

# The most points `perm tau M N` prints: its image has m * n entries.
MAX_TAU_POINTS = 1 << 20
# The most strands a braid word (given to any `braid` subcommand or on a line
# of a `braid mu` argument file) or a `tmn M N` grid may have, checked before
# any letter is parsed.  Each letter's permutation has one entry per strand
# and the certificate counts inversions in quadratic time: at this limit and
# 4,096 letters, `braid eq` on two positive words took 0.98 s CPU at a
# 21.5 MB peak, `braid pi` 0.58 s and `braid render` 0.66 s (8.4 MB written,
# 36 MB peak).  The `tmn` word has C(m,2) * C(n,2) letters, at most
# C(32,2)^2 = 246,016 within this limit (0.32 s, 43 MB).  All on a 2-vCPU
# machine with Python 3.11.
MAX_STRANDS = 1024
# The most letters `braid cable` or `braid mu` writes, counted from the word
# and the cable sizes (and for `mu` the letters of its arguments) before any
# is built: a crossing of cables of k and l strands becomes k * l letters.
# 262,144 of them took 0.19 s CPU and peaked at 48 MB on a 2-vCPU machine,
# about what `tmn` does at its limit.
MAX_CABLE_LETTERS = 1 << 18
# The most letters a word of `braid eq`, `reduce`, `pi` or `render` may have,
# checked after parsing and before any reduction.  Handle reduction of random
# words on 4 and 8 strands grows faster than linearly in the length while its
# memory stays flat: at 4,096 letters `braid reduce` took 0.65-0.91 s CPU,
# and `braid eq` on two unequal words (which reduces their 8,192-letter
# quotient) 3.0-3.3 s, both peaking at 19.5 MB on a 2-vCPU machine; at
# 16,000 letters `braid reduce` alone took 5.2 s.
MAX_WORD_LETTERS = 4096
# The highest index bound `verify pscomm` sweeps.  Bound 5 over the braid
# groups took 342-403 s CPU and peaked at 20.2-20.3 MB, and over the
# symmetric groups 2.2-4.5 s at 19.6 MB, on a 2-vCPU machine; bound 6 has
# never been run.
MAX_PSCOMM_BOUND = 5
# The most composite tuples (x; y_1..y_r; g) `operad compose` enumerates,
# counted before any is listed.  156,573 of them (ass at arity 4 composed
# with itself) took 0.25-0.28 s CPU and peaked at 26 MB on a 2-vCPU
# machine, of which starting the command takes 0.17 s and 20 MB.  The
# quotient keeps nothing per tuple: ass at arity 5 composed with itself
# (28,652,493 tuples, 290,923 prefixes) took 1.6 s at an 89 MB peak as a
# library call.  The limit stays where it was; raising it would change
# what is refused.
MAX_COMPOSITE_STATES = 200_000
# The most tuples (p; x_1..x_n) `operad free` enumerates, sum over n <= bound
# of |P(n)| * |X|^n, counted before any is listed.  198,535 of them (comm on
# 58 carrier elements at bound 3) took 0.30-0.47 s CPU and peaked at 37 MB,
# and 168,421 (comm on 20 at bound 4) 0.29-0.32 s and 39 MB, on a 2-vCPU
# machine, starting the command included; the classes and the stabilizers'
# tables over X^n are most of that memory.  The limit stays where it was.
MAX_FREE_STATES = 200_000
# The most cases operad associativity may list in `operad check`, counted
# from the level sizes of the loaded document before any case is listed.
# On a 2-vCPU machine, ass up to arity 4 (2,051,104 cases, the largest
# golden) took 0.30-0.38 s CPU and peaked at 25 MB, starting the command
# included, and comm up to arity 6 (1,010,478) 0.78 s, while comm up to
# arity 7 (14,163,676) took 9.1 s.
MAX_CHECK_CASES = 4_000_000


class CliError(Exception):
    """A user-facing error; `code` follows the exit-code contract."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ------------------------------------------------------------ input parsing


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CliError(f"{what} {token!r} is not an integer") from None


def _parse_word_tokens(tokens: Sequence[str], strands: int) -> BraidWord:
    """Parse word letters given as separate arguments, locating errors."""
    if strands < 0:
        raise CliError(f"strand count must be nonnegative, got {strands}")
    _at_most(strands, MAX_STRANDS, f"-n {strands}: the word", "strands")
    for position, token in enumerate(tokens, 1):
        try:
            parse_word(token, strands)
        except ValueError as exc:
            raise CliError(f"word position {position}: {exc}") from None
    return parse_word(" ".join(tokens), strands)


def _parse_perm_tokens(tokens: Sequence[str]) -> Permutation:
    for position, token in enumerate(tokens, 1):
        try:
            int(token)
        except ValueError:
            raise CliError(
                f"permutation position {position}: entry {token!r} is not an integer"
            ) from None
    try:
        return parse_permutation(" ".join(tokens))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _at_most(count: int | None, limit: int, subject: str, noun: str) -> None:
    """Refuse an input whose `count` exceeds `limit`, before it is built; None means it is known to."""
    if count is None:
        raise CliError(f"{subject} has more {noun} than the limit {limit}")
    if count > limit:
        raise CliError(f"{subject} has {count} {noun}, more than the limit {limit}")


def _grid_at_least(m: int, n: int, floor: int, rule: str) -> None:
    """Refuse the first grid dimension below floor, naming it as M or N."""
    for name, value in (("M", m), ("N", n)):
        if value < floor:
            raise CliError(f"{name} {value}: {rule}")


def _split_on_separator(tokens: list[str], usage: str) -> tuple[list[str], list[str]]:
    if tokens.count("--") != 1:
        raise CliError(f"expected exactly one '--' separator; {usage}")
    cut = tokens.index("--")
    return tokens[:cut], tokens[cut + 1 :]


def _resolve_document_path(argument: str) -> Path:
    path = Path(argument)
    if path.exists():
        return path
    if "/" not in argument:
        packaged = DATA_DIR / argument
        if packaged.exists():
            return packaged
    raise CliError(f"{argument}: no such operad file (and no packaged file by that name)")


def _read_text(path: Path, shown: str) -> str:
    """The file as UTF-8 text; an unreadable or undecodable file is a located error."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{shown}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{shown}: not UTF-8 text ({exc})") from None


def _load_document(argument: str) -> FiniteGOperad:
    path = _resolve_document_path(argument)
    text = _read_text(path, str(path))
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        try:
            return load_operad(document, name=path.stem)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
    finally:
        if enabled:
            gc.enable()


def _read_lines(path_text: str, parse: Callable[[str], object]) -> list:
    """Parse each nonblank line of a file, locating errors as ``path:lineno: message``."""
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"{path_text}: no such file")
    parsed = []
    for lineno, line in enumerate(_read_text(path, path_text).splitlines(), 1):
        if not line.strip():
            continue
        try:
            parsed.append(parse(line))
        except (ValueError, CliError) as exc:
            raise CliError(f"{path_text}:{lineno}: {exc}") from None
    return parsed


def _parse_word_line(line: str) -> BraidWord:
    """A word-file line ``STRANDS: LETTERS``, e.g. ``3: 1 -2``."""
    head, colon, tail = line.partition(":")
    if not colon:
        raise ValueError("expected 'STRANDS: LETTERS'")
    strands = int(head.strip())
    _at_most(strands, MAX_STRANDS, "the word", "strands")
    return parse_word(tail, strands)


# -------------------------------------------------- `--`-separated commands


def _braid_eq(tokens: list[str]) -> int:
    usage = "usage: operadics braid eq -n N W1 -- W2"
    if tokens[:1] in (["-h"], ["--help"]):
        print(usage)
        print("Decide whether two braid words on N strands are equal;")
        print("exits 0 when equal, 1 when unequal.")
        return 0
    if len(tokens) < 2 or tokens[0] != "-n":
        raise CliError(usage)
    strands = _parse_int(tokens[1], "strand count")
    left_tokens, right_tokens = _split_on_separator(tokens[2:], usage)
    left = _parse_word_tokens(left_tokens, strands)
    right = _parse_word_tokens(right_tokens, strands)
    _at_most(len(left), MAX_WORD_LETTERS, "W1", "letters")
    _at_most(len(right), MAX_WORD_LETTERS, "W2", "letters")
    if braids.equal(left, right):
        print("equal")
        return 0
    print("unequal")
    return 1


def _perm_compose(tokens: list[str]) -> int:
    usage = "usage: operadics perm compose P1 -- P2"
    if tokens[:1] in (["-h"], ["--help"]):
        print(usage)
        print("Compose two permutations left to right (first P1, then P2)")
        print("and print the image of the composite.")
        return 0
    left_tokens, right_tokens = _split_on_separator(tokens, usage)
    first = _parse_perm_tokens(left_tokens)
    second = _parse_perm_tokens(right_tokens)
    if first.n != second.n:
        raise CliError(f"cannot compose arity {first.n} with arity {second.n}")
    print(format_permutation(compose(first, second)))
    return 0


# ----------------------------------------------------------- braid handlers


def _cmd_braid_reduce(args) -> int:
    word = _parse_word_tokens(args.word, args.strands)
    _at_most(len(word), MAX_WORD_LETTERS, "the word", "letters")
    print(format_word(braids.handle_reduce(word)))
    return 0


def _cmd_braid_pi(args) -> int:
    word = _parse_word_tokens(args.word, args.strands)
    _at_most(len(word), MAX_WORD_LETTERS, "the word", "letters")
    print(format_permutation(braids.underlying_permutation(word)))
    return 0


def _cable_letters(word: BraidWord, sizes: Sequence[int]) -> int:
    """
    The letters `braids.cable(word, sizes)` writes, and `braids.mu_br` with
    arguments of these sizes writes besides theirs: k * l for each letter
    crossing cables of k and l strands, the cables swapping as they cross.
    """
    current = list(sizes)
    letters = 0
    for entry in word.word:
        i = abs(entry)
        letters += current[i - 1] * current[i]
        current[i - 1], current[i] = current[i], current[i - 1]
    return letters


def _cmd_braid_cable(args) -> int:
    word = _parse_word_tokens(args.word, args.strands)
    # An empty --sizes is the empty size list, which a 0-strand word needs.
    sizes = [_parse_int(part, "cable size") for part in args.sizes.split(",")] if args.sizes else []
    # Sizes `braids.cable` refuses are left to its own located message.
    if len(sizes) == word.strands and min(sizes, default=0) >= 0:
        _at_most(_cable_letters(word, sizes), MAX_CABLE_LETTERS, f"--sizes {args.sizes}: the cabled word", "letters")
    try:
        result = braids.cable(word, sizes)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(format_word(result))
    return 0


def _cmd_braid_mu(args) -> int:
    word = _parse_word_tokens(args.word, args.strands)
    arguments = _read_lines(args.args, _parse_word_line)
    if len(arguments) != args.strands:
        raise CliError(
            f"operadic substitution on {args.strands} strands needs "
            f"{args.strands} argument words, got {len(arguments)}"
        )
    letters = _cable_letters(word, [argument.strands for argument in arguments])
    letters += sum(len(argument) for argument in arguments)
    _at_most(letters, MAX_CABLE_LETTERS, f"--args {args.args}: the substituted word", "letters")
    print(format_word(braids.mu_br(word, arguments)))
    return 0


def _cmd_braid_render(args) -> int:
    word = _parse_word_tokens(args.word, args.strands)
    _at_most(len(word), MAX_WORD_LETTERS, "the word", "letters")
    if args.format == "dot":
        print(braids.render_dot(word))
    else:
        print(braids.render_ascii(word))
    return 0


# ------------------------------------------------------------ perm handlers


def _cmd_perm_tau(args) -> int:
    _grid_at_least(args.m, args.n, 0, "grid dimensions must be nonnegative")
    _at_most(args.m * args.n, MAX_TAU_POINTS, f"a {args.m}x{args.n} grid", "points")
    print(format_permutation(tau(args.m, args.n)))
    return 0


def _cmd_perm_inv(args) -> int:
    print(format_permutation(inverse(_parse_perm_tokens(args.image))))
    return 0


def _cmd_perm_mu(args) -> int:
    head = _parse_perm_tokens(args.image)
    arguments = _read_lines(args.args, parse_permutation)
    if len(arguments) != head.n:
        raise CliError(
            f"operadic substitution into an arity-{head.n} permutation "
            f"needs {head.n} argument permutations, got {len(arguments)}"
        )
    print(format_permutation(mu_sigma(head, arguments)))
    return 0


# ------------------------------------------------------------- tmn handler


def _cmd_tmn(args) -> int:
    _grid_at_least(args.m, args.n, 1, "grid dimensions must be at least 1")
    _at_most(args.m * args.n, MAX_STRANDS, f"a {args.m}x{args.n} grid", "strands")
    family = t_family_braid_positive() if args.family == "positive" else t_family_braid_negative()
    print(format_word(family(args.m, args.n)))
    return 0


# ---------------------------------------------------------- verify handlers


def _cmd_verify_pscomm(args) -> int:
    if args.bound < 1:
        raise CliError(f"--bound {args.bound}: the index bound must be at least 1")
    if args.bound > MAX_PSCOMM_BOUND:
        raise CliError(
            f"--bound {args.bound}: the interchange sweep to index bound {args.bound} is "
            f"more than the limit {MAX_PSCOMM_BOUND}"
        )
    if args.group == "symmetric":
        report = symmetric_theorem_report(bound=args.bound)
        print(report.render())
        symmetric = report.result("the family is symmetric: t(m,n) inverts t(n,m)").passed
        print("SYMMETRY: HOLDS" if symmetric else "SYMMETRY: FAILS (unexpected)")
        return 0 if report.ok else 1
    try:
        report = braid_theorem_report(bound=args.bound)
    except ValueError as exc:
        raise CliError(f"--bound {args.bound}: {exc}") from None
    print(report.render())
    holds, witness = verify_symmetry(instance_braid(), t_family_braid_positive(), bound=3)
    if holds:
        print("SYMMETRY: HOLDS (unexpected)")
    else:
        m, n = witness
        print(f"SYMMETRY: FAILS (expected)  witness m={m}, n={n}")
    return 0 if report.ok else 1


def _constant_collection(name: str, sizes: dict[int, int], group: ActionOperad) -> FiniteGCollection:
    levels = {
        n: tuple(f"{name}{n}_{i}" for i in range(count)) for n, count in sizes.items()
    }
    return FiniteGCollection(name, group, levels, lambda n, label, g: label)


def _composition_product_report() -> Report:
    report = Report("composition product of collections")
    sym = instance_symmetric()
    comm = operad_comm(max_arity=3)
    unit = unit_collection(sym)

    def class_counts(product) -> list[int]:
        return [len(product.classes(n)) for n in range(4)]

    def counts_agree(law: str, first: list[int], second: list[int]) -> None:
        report.record(law, first == second, f"{first} vs {second}", checked=4)

    comm_counts = [len(comm.labels(n)) for n in range(4)]
    counts_agree(
        "composing the unit on the left preserves class counts",
        class_counts(compose_collections(unit, comm, bound=3)),
        comm_counts,
    )
    counts_agree(
        "composing the unit on the right preserves class counts",
        class_counts(compose_collections(comm, unit, bound=3)),
        comm_counts,
    )

    x, y, z = (_constant_collection(name, {1: 1, 2: 1}, sym) for name in "xyz")
    counts_agree(
        "the two triple-composite bracketings have equal class counts",
        class_counts(compose_collections(compose_collections(x, y, 3).collection(), z, 3)),
        class_counts(compose_collections(x, compose_collections(y, z, 3).collection(), 3)),
    )
    return report


def _cartesian_report(operads: dict[str, FiniteGOperad]) -> Report:
    report = Report("pullback criterion for the free-algebra monad")
    expected = {"comm": False, "ass": True, "comm_trivial": True}
    for name, p in operads.items():
        free_action, witness = cartesian_condition(p)
        report.record(
            f"{name}: pointwise criterion gives {'YES' if expected[name] else 'NO'}",
            free_action == expected[name],
            "" if free_action == expected[name] else f"got {free_action}, witness {witness}",
            checked=1,
        )
        pullback_ok, pull_witness = pullback_witness_test(p)
        report.record(
            f"{name}: pullback test agrees with the pointwise criterion",
            pullback_ok == free_action,
            "" if pullback_ok == free_action else pull_witness,
            checked=1,
        )
    return report


def _cmd_verify_all(args) -> int:
    if args.budget < 1:
        raise CliError(f"--budget {args.budget}: the sample budget per law must be at least 1")
    operads = {name: _load_document(str(DATA_DIR / f"{name}.json")) for name in PACKAGED}
    reports: list[Report] = []
    for instance in (instance_trivial(), instance_symmetric(), instance_braid()):
        reports.append(
            check_axioms(instance, max_arity=3, budget=args.budget, seed=args.seed)
        )
    reports.append(symmetric_theorem_report(bound=3))
    reports.append(braid_theorem_report(bound=3))
    for name, p in operads.items():
        reports.append(check_operad(p))
    for name in ("comm", "comm_trivial"):
        reports.append(check_monad_laws(operads[name], ("a", "b"), max_arity=3))
    reports.append(check_monad_laws(operads["ass"], ("a", "b"), max_arity=2))
    reports.append(_cartesian_report(operads))
    reports.append(_composition_product_report())

    print("\n\n".join(report.render() for report in reports))
    failing = [report for report in reports if not report.ok]
    print()
    verdict = "OK" if not failing else f"FAILED ({len(failing)} failing)"
    print(f"VERIFY ALL: {verdict} [{len(reports)} suites]")
    return 0 if not failing else 1


# ---------------------------------------------------------- operad handlers


def _cmd_operad_check(args) -> int:
    p = _load_document(args.file)
    _at_most(associativity_cases(p), MAX_CHECK_CASES, f"{args.file}: operad associativity", "cases")
    report = check_operad(p)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_operad_free(args) -> int:
    p = _load_document(args.file)
    # An empty --carrier is the empty carrier, as an empty --sizes is the empty size list.
    carrier = args.carrier.split(",") if args.carrier else []
    if "" in carrier:
        raise CliError(f"--carrier {args.carrier}: element {carrier.index('') + 1} is empty")
    if args.bound < 0:
        raise CliError(f"--bound {args.bound}: the arity bound must be nonnegative")
    if args.bound > p.max_arity:
        raise CliError(f"--bound {args.bound}: the arity bound must be at most {args.file}'s, {p.max_arity}")
    states = sum(len(p.labels(n)) * len(carrier) ** n for n in range(args.bound + 1))
    subject = f"--bound {args.bound}: {args.file} on {len(carrier)} carrier elements"
    _at_most(states, MAX_FREE_STATES, subject, "states")
    repeated = [x for x, count in collections.Counter(carrier).items() if count > 1]
    if repeated:
        raise CliError(f"--carrier {args.carrier}: element {repeated[0]!r} is listed twice")
    free = free_algebra(p, carrier, max_arity=args.bound)
    total = 0
    for n in range(args.bound + 1):
        classes = free.classes(n)
        total += len(classes)
        if classes:
            listing = "  ".join(str(cls) for cls in classes)
            print(f"n={n}: {listing}")
        else:
            print(f"n={n}: (none)")
    print(f"total: {total} classes")
    return 0


def _cmd_operad_cartesian(args) -> int:
    p = _load_document(args.file)
    free_action, witness = cartesian_condition(p)
    if free_action:
        print("CARTESIAN: YES")
        return 0
    n, label, g = witness
    print(
        f'CARTESIAN: NO  witness: arity {n}, label "{label}", '
        f"fixed by {p.group.describe(g)}"
    )
    return 1


def _cmd_operad_compose(args) -> int:
    x = _load_document(args.file_x)
    y = _load_document(args.file_y)
    if x.group.name != y.group.name:
        raise CliError(
            f"cannot compose: {args.file_x} is over {x.group.name}, "
            f"{args.file_y} over {y.group.name}"
        )
    if args.bound < 0:
        raise CliError(f"--bound {args.bound}: the arity bound must be nonnegative")
    # No composite state has arity above X's max_arity times Y's; the
    # default bound stays accepted where that product is smaller.
    limit = x.max_arity * y.max_arity
    if args.bound > max(limit, DEFAULT_COMPOSE_BOUND):
        raise CliError(
            f"--bound {args.bound}: the arity bound must be at most "
            f"{args.file_x}'s max_arity times {args.file_y}'s, {limit}"
            + ("" if limit >= DEFAULT_COMPOSE_BOUND else f", or the default {DEFAULT_COMPOSE_BOUND}")
        )
    _at_most(
        composite_states(x, y, args.bound, MAX_COMPOSITE_STATES + 1),
        MAX_COMPOSITE_STATES,
        f"--bound {args.bound}: {args.file_x} o {args.file_y}",
        "composite states",
    )
    product = compose_collections(x, y, bound=args.bound)
    for n in range(args.bound + 1):
        classes = product.classes(n)
        if classes:
            listing = "  ".join(product.describe_state(state) for state in classes)
            print(f"n={n} ({len(classes)} classes): {listing}")
        else:
            print(f"n={n} (0 classes)")
    return 0


def _cmd_operad_example(args) -> int:
    path = DATA_DIR / f"{args.name}.json"
    print(path.read_text(), end="")
    return 0


# ------------------------------------------------------------------ parser


def _add_word_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", dest="strands", type=int, required=True, metavar="N",
                        help="number of strands")
    parser.add_argument("word", nargs="*", metavar="LETTER",
                        help="braid word letters, e.g. 1 -2 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """
    The argument parser, built on first use and shared by every later call:
    parsing keeps no state in it, and each handler looks up the functions it
    calls when it runs, so rebinding them still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="operadics",
        description="Computation and verification for permutation and braid operads.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # braid ---------------------------------------------------------------
    braid = commands.add_parser("braid", help="braid word arithmetic")
    braid_sub = braid.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    braid_sub.add_parser(
        "eq",
        help="decide equality of two words: eq -n N W1 -- W2 (exit 0 equal, 1 unequal)",
        add_help=False,
    )

    reduce_parser = braid_sub.add_parser("reduce", help="print the handle-reduced word")
    _add_word_arguments(reduce_parser)
    reduce_parser.set_defaults(handler=_cmd_braid_reduce)

    pi_parser = braid_sub.add_parser("pi", help="print the underlying permutation")
    _add_word_arguments(pi_parser)
    pi_parser.set_defaults(handler=_cmd_braid_pi)

    cable_parser = braid_sub.add_parser("cable", help="replace strands by parallel bundles")
    _add_word_arguments(cable_parser)
    cable_parser.add_argument("--sizes", required=True, metavar="K1,K2,...",
                              help="bundle widths, one per strand")
    cable_parser.set_defaults(handler=_cmd_braid_cable)

    mu_parser = braid_sub.add_parser(
        "mu", help="operadic substitution; argument words come from a file"
    )
    _add_word_arguments(mu_parser)
    mu_parser.add_argument("--args", required=True, metavar="FILE",
                           help="file with one 'STRANDS: LETTERS' line per argument")
    mu_parser.set_defaults(handler=_cmd_braid_mu)

    render_parser = braid_sub.add_parser("render", help="draw the braid diagram")
    _add_word_arguments(render_parser)
    render_parser.add_argument("--format", choices=("ascii", "dot"), default="ascii",
                               help="output format (default ascii)")
    render_parser.set_defaults(handler=_cmd_braid_render)

    # perm ----------------------------------------------------------------
    perm = commands.add_parser("perm", help="permutation arithmetic")
    perm_sub = perm.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    tau_parser = perm_sub.add_parser("tau", help="grid transposition: tau M N")
    tau_parser.add_argument("m", type=int)
    tau_parser.add_argument("n", type=int)
    tau_parser.set_defaults(handler=_cmd_perm_tau)

    inv_parser = perm_sub.add_parser("inv", help="invert a permutation image")
    inv_parser.add_argument("image", nargs="+", metavar="VALUE")
    inv_parser.set_defaults(handler=_cmd_perm_inv)

    perm_sub.add_parser(
        "compose",
        help="compose left to right: compose P1 -- P2",
        add_help=False,
    )

    perm_mu_parser = perm_sub.add_parser(
        "mu", help="operadic substitution; argument permutations come from a file"
    )
    perm_mu_parser.add_argument("image", nargs="+", metavar="VALUE",
                                help="image of the outer permutation")
    perm_mu_parser.add_argument("--args", required=True, metavar="FILE",
                                help="file with one permutation image per line")
    perm_mu_parser.set_defaults(handler=_cmd_perm_mu)

    # tmn -----------------------------------------------------------------
    tmn_parser = commands.add_parser(
        "tmn", help="print the braid lift of the grid transposition"
    )
    tmn_parser.add_argument("--family", choices=("positive", "negative"), required=True)
    tmn_parser.add_argument("m", type=int)
    tmn_parser.add_argument("n", type=int)
    tmn_parser.set_defaults(handler=_cmd_tmn)

    # verify --------------------------------------------------------------
    verify = commands.add_parser("verify", help="run law suites")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    pscomm_parser = verify_sub.add_parser(
        "pscomm", help="interchange-family report for one group family"
    )
    pscomm_parser.add_argument("--group", choices=("braid", "symmetric"), required=True)
    pscomm_parser.add_argument("--bound", type=int, default=3,
                               help="index bound for the interchange sweep (default 3, at most 5)")
    pscomm_parser.set_defaults(handler=_cmd_verify_pscomm)

    all_parser = verify_sub.add_parser("all", help="run every verification suite")
    all_parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"seed for sampled law checks (default {DEFAULT_SEED})")
    all_parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help=f"sample budget per law (default {DEFAULT_BUDGET})")
    all_parser.set_defaults(handler=_cmd_verify_all)

    # operad --------------------------------------------------------------
    operad = commands.add_parser("operad", help="finite operads from JSON documents")
    operad_sub = operad.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    check_parser = operad_sub.add_parser("check", help="run the operad law battery on a file")
    check_parser.add_argument("file")
    check_parser.set_defaults(handler=_cmd_operad_check)

    free_parser = operad_sub.add_parser(
        "free", help="list free-algebra classes over a finite carrier"
    )
    free_parser.add_argument("file")
    free_parser.add_argument("--carrier", required=True, metavar="X1,X2,...",
                             help="comma-separated carrier elements")
    free_parser.add_argument("--bound", type=int, default=2,
                             help="largest arity to list (default 2)")
    free_parser.set_defaults(handler=_cmd_operad_free)

    cartesian_parser = operad_sub.add_parser(
        "cartesian", help="decide whether the group actions are free"
    )
    cartesian_parser.add_argument("file")
    cartesian_parser.set_defaults(handler=_cmd_operad_cartesian)

    compose_parser = operad_sub.add_parser(
        "compose", help="class listing of the composition product of two operads"
    )
    compose_parser.add_argument("file_x")
    compose_parser.add_argument("file_y")
    compose_parser.add_argument("--bound", type=int, default=DEFAULT_COMPOSE_BOUND,
                                help="largest arity to list (default 3; above 3, at most the two max_arity values' product)")
    compose_parser.set_defaults(handler=_cmd_operad_compose)

    example_parser = operad_sub.add_parser(
        "example", help="print a packaged operad document"
    )
    example_parser.add_argument("name", choices=PACKAGED)
    example_parser.set_defaults(handler=_cmd_operad_example)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        # Two subcommands take a literal `--` between variadic operands,
        # which argparse cannot rebuild once it strips the first `--`;
        # they get hand parsers.
        if tokens[:2] == ["braid", "eq"]:
            return _braid_eq(tokens[2:])
        if tokens[:2] == ["perm", "compose"]:
            return _perm_compose(tokens[2:])
        args = build_parser().parse_args(tokens)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
