"""
The four benchmark workloads: seeded job streams with independent oracles.

A workload is built once per process (its set-up) and then yields rounds:
lists of jobs, each a call into the package's public API paired with the
verdict known without the code under test.  Rounds are stratified so that
every round has the same mix of cheap and expensive jobs; the seed picks
the concrete inputs and their order inside each round.  A run measures
whole rounds, so two runs with different seeds do the same kind of work.

Oracles compare verdicts and counts only, never witness text or the
``[N cases]`` counts of a report.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import operadics
from operadics import braids, cli, free_monad, g_operads, pseudocomm


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], Any]
    expected: Any


class Workload:
    """A built workload: `rounds` yields lists of jobs forever."""

    def rounds(self) -> Iterator[list[Job]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created (files, directories)."""


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set the workload up; `workdir` receives any files it writes."""
    if name == "interchange":
        return Interchange(seed)
    if name == "word-problem":
        return WordProblem(seed)
    if name == "operad-laws":
        return OperadLaws(seed)
    if name == "operad-cli":
        return OperadCli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ------------------------------------------------------------- interchange

BOUND = 4


def _grid_inversions(m: int, n: int) -> int:
    """Crossings of the grid transposition tau(m, n): C(m,2) * C(n,2)."""
    return math.comb(m, 2) * math.comb(n, 2)


class Interchange(Workload):
    """
    Grouped and split interchange equations over the full bound-4 parameter
    space (1,360 tuples per kind, 2,720 in all) for the positive, negative
    and tau families.  Every equation holds, by the theorem.

    The 8,160 (family, kind, tuple) jobs are sorted by a cost proxy, the
    letters of the right-hand side times its strands, and cut into strata
    of equal size; each round draws the next job of every stratum.
    """

    STRATUM = 120

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        orientation = pseudocomm.resolve_orientation()
        braid_group = operadics.instance_braid()
        families = (
            (pseudocomm.t_family_braid_positive(orientation), braid_group),
            (pseudocomm.t_family_braid_negative(orientation), braid_group),
            (pseudocomm.t_family_symmetric(orientation), operadics.instance_symmetric()),
        )
        space = []
        for family, group in families:
            for l, n in itertools.product(range(1, BOUND + 1), repeat=2):
                for ms in itertools.product(range(1, BOUND + 1), repeat=l):
                    space.append((family, group, "grouped", l, ms, n))
            for l, m in itertools.product(range(1, BOUND + 1), repeat=2):
                for ns in itertools.product(range(1, BOUND + 1), repeat=m):
                    space.append((family, group, "split", l, m, ns))
        self.rng.shuffle(space)
        space.sort(key=self._cost)
        self.strata = [
            _shuffled(self.rng, space[start:start + self.STRATUM])
            for start in range(0, len(space), self.STRATUM)
        ]

    @staticmethod
    def _cost(item) -> int:
        family, _, kind, l, a, b = item
        # Target grid: t(n, M) for the grouped kind, t(N, l) for the split kind.
        rows, cols = (b, sum(a)) if kind == "grouped" else (sum(b), l)
        strands = rows * cols
        if family.name == "tau":
            return strands
        return strands * (_grid_inversions(rows, cols) + 1)

    @staticmethod
    def _job(item) -> Job:
        family, group, kind, l, a, b = item
        if kind == "grouped":
            call = lambda: pseudocomm.verify_interchange(group, family, l, list(a), b)
        else:
            call = lambda: pseudocomm.verify_interchange_dual(group, family, l, a, list(b))
        return Job(f"{family.name}/{kind}", call, True)

    def rounds(self) -> Iterator[list[Job]]:
        for index in itertools.count():
            picks = [stratum[index % len(stratum)] for stratum in self.strata]
            yield [self._job(item) for item in _shuffled(self.rng, picks)]


# ------------------------------------------------------------ word problem

STRANDS = (3, 4, 5, 6)
LENGTH_BUCKETS = tuple((low, low + 14) for low in range(16, 128, 14))


def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(length)]


def _relator(rng: random.Random, strands: int) -> list[int]:
    """A word equal to the identity: a trivial pair, a braid or a commutation relator."""
    a = rng.randrange(1, strands)
    choice = rng.randrange(3)
    if choice == 0:
        e = rng.choice((1, -1))
        return [e * a, -e * a]
    far = [b for b in range(1, strands) if abs(a - b) >= 2]
    if choice == 1 or not far:
        b = a + 1 if a + 1 < strands else a - 1
        # a b a = b a b, so a b a (b a b)^-1 is trivial; either orientation.
        relator = [a, b, a, -b, -a, -b]
        return relator if rng.random() < 0.5 else [-x for x in reversed(relator)]
    b = rng.choice(far)
    e, f = rng.choice((1, -1)), rng.choice((1, -1))
    return [e * a, f * b, -e * a, -f * b]


def _move(rng: random.Random, word: list[int]) -> None:
    """Apply one braid relation in place at a random position, if one applies there."""
    if len(word) < 2:
        return
    i = rng.randrange(len(word) - 1)
    x, y = word[i], word[i + 1]
    if abs(abs(x) - abs(y)) >= 2:
        word[i], word[i + 1] = y, x
    elif i + 2 < len(word) and word[i + 2] == x and abs(abs(x) - abs(y)) == 1 and (x > 0) == (y > 0):
        word[i:i + 3] = [y, x, y]


def rewrite(rng: random.Random, word: list[int], strands: int) -> list[int]:
    """An equal word: relators inserted and relations applied at random places."""
    out = list(word)
    for _ in range(max(1, len(word) // 4)):
        if rng.random() < 0.5:
            at = rng.randrange(len(out) + 1)
            out[at:at] = _relator(rng, strands)
        else:
            for _ in range(4):
                _move(rng, out)
    return out


def word_pair(rng: random.Random, strands: int, length: int, equal: bool) -> tuple[list[int], list[int]]:
    """
    Two words that are equal, or unequal by construction: the unequal
    partner rewrites a copy with one letter inverted, and since the braid
    groups are torsion-free, sigma_i^2 != 1 separates them.
    """
    base = random_word(rng, strands, length)
    other = list(base)
    if not equal:
        at = rng.randrange(length)
        other[at] = -other[at]
    other = rewrite(rng, other, strands)
    return (base, other) if rng.random() < 0.5 else (other, base)


class WordProblem(Workload):
    """
    Pairs of random braid words on 3-6 strands, base lengths 16-127,
    decided by `braids.equal`.  Each round holds one equal and one unequal
    pair for every (strands, length bucket) cell.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rounds(self) -> Iterator[list[Job]]:
        cells = list(itertools.product(STRANDS, LENGTH_BUCKETS, (True, False)))
        while True:
            jobs = []
            for strands, (low, high), equal in _shuffled(self.rng, cells):
                length = self.rng.randrange(low, high)
                w1, w2 = word_pair(self.rng, strands, length, equal)
                a = braids.BraidWord(strands, tuple(w1))
                b = braids.BraidWord(strands, tuple(w2))
                jobs.append(Job(f"{strands} strands", lambda a=a, b=b: braids.equal(a, b), equal))
            yield jobs


# ------------------------------------------------------------- operad laws

CARRIER = ("a", "b")


def packaged_document(name: str) -> dict:
    path = Path(operadics.__file__).parent / "data" / f"{name}.json"
    return json.loads(path.read_text())


def corrupt_unit_entry(document: dict, rng: random.Random) -> dict:
    """A copy with one mu(unit; x) result replaced by another label of x's level."""
    copy = json.loads(json.dumps(document))
    unit = copy["unit"]
    candidates = [
        record
        for record in copy["compose"]
        if record["n"] == 1 and record["args"][0] == unit
        and len(copy["levels"][str(record["ks"][0])]) > 1
    ]
    record = rng.choice(candidates)
    level = copy["levels"][str(record["ks"][0])]
    record["result"] = rng.choice([label for label in level if label != record["result"]])
    return copy


class OperadLaws(Workload):
    """
    Operads built once and queried many times: the law battery, the monad
    laws on {a,b}, and the two pullback criteria, which must agree with
    each other and with theory.  Each round runs the same deck of checks
    in a seeded order.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        sym = operadics.instance_symmetric()
        ass = packaged_document("ass")
        docs = {name: g_operads.load_operad(packaged_document(name), name)
                for name in ("ass", "comm", "comm_trivial")}
        ass3 = g_operads.operad_ass(3)
        comm_braid = g_operads.operad_comm(operadics.instance_braid(), max_arity=3)
        comm_trivial = g_operads.operad_comm(operadics.instance_trivial(), max_arity=4)
        endo = g_operads.endomorphism_operad(("a",), sym, max_arity=3)
        corrupted = [g_operads.load_operad(corrupt_unit_entry(ass, self.rng), f"corrupted ass {i}")
                     for i in range(2)]

        def laws(p):
            return Job(f"check_operad {p.name}", lambda: g_operads.check_operad(p).ok, True)

        def unit_law(p):
            return Job(f"check_operad {p.name}",
                       lambda: g_operads.check_operad(p).result("operad unit").passed, False)

        def monad(p, bound):
            return Job(f"check_monad_laws {p.name}",
                       lambda: free_monad.check_monad_laws(p, CARRIER, max_arity=bound).ok, True)

        def pullback(p, cartesian):
            return Job(
                f"pullback {p.name}",
                lambda: (free_monad.pullback_witness_test(p)[0], free_monad.cartesian_condition(p)[0]),
                (cartesian, cartesian),
            )

        # Cartesian verdicts from theory: a nontrivial permutation fixes the
        # one label of comm and the constant functions of an endomorphism
        # operad (arity >= 2); ass acts freely; the trivial groups have no
        # nontrivial permutation at all.
        cheap = [(docs["comm_trivial"], True), (comm_trivial, True), (endo, False)]
        # The counts put as many jobs below the eight pullbacks on ass.json
        # as above them, so the median job is one of those and not a
        # boundary between unlike jobs; the p90 job falls among the ~0.2 s
        # law checks.
        self.deck = [
            laws(docs["ass"]), laws(docs["comm"]), laws(ass3), laws(comm_braid),
            *(laws(p) for p in (docs["comm_trivial"], comm_trivial, endo) for _ in range(2)),
            *(unit_law(p) for p in corrupted),
            monad(docs["ass"], 2), monad(docs["comm"], 3), monad(docs["comm_trivial"], 3),
            monad(comm_trivial, 3), monad(endo, 3),
            *(pullback(p, cartesian) for p, cartesian in cheap * 6),
            *(pullback(p, cartesian) for p, cartesian in [(docs["ass"], True)] * 8),
            *(pullback(p, cartesian) for p, cartesian in [(ass3, True)] * 2 + [(docs["comm"], False)] * 4),
        ]

    def rounds(self) -> Iterator[list[Job]]:
        while True:
            yield _shuffled(self.rng, self.deck)


# -------------------------------------------------------------- operad cli

_FREE_LINE = re.compile(r"^n=(\d+): (.*)$")
_COMPOSE_LINE = re.compile(r"^n=(\d+) \((\d+) classes\)")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cartesian_verdict(argv: list[str]) -> tuple[int, str]:
    code, text = run_cli(argv)
    return code, text.split()[1] if text.startswith("CARTESIAN:") else text


def free_counts(argv: list[str]) -> tuple[int, tuple[int, ...]]:
    code, text = run_cli(argv)
    counts = []
    for line in text.splitlines():
        match = _FREE_LINE.match(line)
        if match:
            listing = match.group(2)
            counts.append(0 if listing == "(none)" else len(listing.split("  ")))
    return code, tuple(counts)


def compose_counts(argv: list[str]) -> tuple[int, tuple[int, ...]]:
    code, text = run_cli(argv)
    return code, tuple(int(m.group(2)) for m in map(_COMPOSE_LINE.match, text.splitlines()) if m)


@dataclass(frozen=True)
class Document:
    name: str
    max_arity: int
    level_size: Callable[[int], int]   # |P(n)| from theory
    cartesian: bool
    free_classes: Callable[[int, int], int] | None = None   # (|X|, n) -> classes


def _unit_only(group) -> g_operads.FiniteGOperad:
    """The operad whose only operation is its unit: the unit of the composition product."""
    return g_operads.FiniteGOperad(
        name="unit", group=group, levels={0: (), 1: ("1",)}, unit="1",
        action=lambda n, label, g: label, compose=lambda n, ks, head, args: "1", max_arity=1,
    )


class OperadCli(Workload):
    """
    `operad cartesian|free|compose` run in process through `cli.main`, so
    every job re-reads and validates its documents.  Class counts come from
    closed forms: C(|X|+n-1, n) free classes for comm over the symmetric
    group, |X|^n for ass and trivial-group comm, and |P(n)| classes at arity
    n for the composites I o P and P o I with the unit-only operad I.
    """

    FREE_DOCS = ("ass2", "ass3", "ass4", "comm5", "commT5")
    COMPOSE_DOCS = ("ass2", "ass3", "ass4", "comm5", "endoA3", "endoAB2")

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="operad-cli-", dir=workdir))
        sym, trivial = operadics.instance_symmetric(), operadics.instance_trivial()
        operads = {
            "ass2": g_operads.operad_ass(2),
            "ass3": g_operads.operad_ass(3),
            "ass4": g_operads.operad_ass(4),
            "comm5": g_operads.operad_comm(sym, max_arity=5),
            "commT5": g_operads.operad_comm(trivial, max_arity=5),
            "endoA3": g_operads.endomorphism_operad(("a",), sym, max_arity=3),
            "endoAB2": g_operads.endomorphism_operad(("a", "b"), sym, max_arity=2),
            "unit": _unit_only(sym),
        }
        for name, p in operads.items():
            (self.dir / f"{name}.json").write_text(json.dumps(g_operads.write_operad_document(p)))
        power = lambda x, n: x ** n
        self.docs = {
            "ass2": Document("ass2", 2, math.factorial, True, power),
            "ass3": Document("ass3", 3, math.factorial, True, power),
            "ass4": Document("ass4", 4, math.factorial, True, power),
            "comm5": Document("comm5", 5, lambda n: 1, False, lambda x, n: math.comb(x + n - 1, n)),
            "commT5": Document("commT5", 5, lambda n: 1, True, power),
            "endoA3": Document("endoA3", 3, lambda n: 1, False),
            "endoAB2": Document("endoAB2", 2, lambda n: 2 ** (2 ** n), False),
            "unit": Document("unit", 1, lambda n: int(n == 1), True),
        }

    def path(self, name: str) -> str:
        return str(self.dir / f"{name}.json")

    def _cartesian(self, doc: Document) -> Job:
        verdict = (0, "YES") if doc.cartesian else (1, "NO")
        argv = ["operad", "cartesian", self.path(doc.name)]
        return Job(f"cartesian {doc.name}", lambda: cartesian_verdict(argv), verdict)

    def _free(self, doc: Document, size: int) -> Job:
        bound = min(doc.max_arity, 3)
        carrier = ",".join("abc"[:size])
        argv = ["operad", "free", self.path(doc.name), "--carrier", carrier, "--bound", str(bound)]
        counts = tuple(doc.free_classes(size, n) for n in range(bound + 1))
        return Job(f"free {doc.name}", lambda: free_counts(argv), (0, counts))

    def _compose(self, doc: Document, unit_first: bool) -> Job:
        bound = min(doc.max_arity, 4)
        pair = ["unit", doc.name] if unit_first else [doc.name, "unit"]
        argv = ["operad", "compose", *map(self.path, pair), "--bound", str(bound)]
        counts = tuple(doc.level_size(n) for n in range(bound + 1))
        return Job(f"compose {' o '.join(pair)}", lambda: compose_counts(argv), (0, counts))

    def rounds(self) -> Iterator[list[Job]]:
        deck = [self._cartesian(doc) for doc in self.docs.values()]
        deck += [self._free(self.docs[name], size) for name in self.FREE_DOCS for size in (1, 2, 3)]
        deck += [self._compose(self.docs[name], first)
                 for name in self.COMPOSE_DOCS for first in (True, False)]
        # The composites with ass at arity 4 are the tail, 5 jobs of 38: the
        # p90 job is the middle one of the three I o ass4, not a boundary.
        ass4 = self.docs["ass4"]
        deck += [self._compose(ass4, True), self._compose(ass4, True), self._compose(ass4, False)]
        while True:
            yield _shuffled(self.rng, deck)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
