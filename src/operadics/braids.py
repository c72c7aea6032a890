"""
Braid words and the operations that make the braid groups into an operad.

A braid on n strands is a word in the generators 1 .. n-1 and their inverses,
stored as a tuple of nonzero ints: entry ``i`` crosses strands i and i+1 with
the left strand passing over, ``-i`` is the inverse crossing.  Words read left
to right, matching the diagrammatic composition used for permutations: the
word ``(1, 2)`` means "cross 1-2 first, then 2-3".  Strand counts of 0 and 1
are legal; only the empty word exists there.

Word equality is decided by handle reduction: repeatedly locate the first
subword ``i^e ... i^-e`` whose interior only uses generators of larger index,
and rewrite it so the pair cancels.  The rewriting terminates, and a fully
reduced word represents the identity exactly when it is empty (a nonempty
reduced word uses its lowest generator with only one sign, and such words are
never trivial).

"First" means the handle with the earliest end, and the scan for it resumes
where the word last changed.  When the handle at positions j < k is rewritten
and the word free-reduced, the new word keeps the first p letters of the old
one, where p <= j is the shortest length the prefix ``word[:j]`` is cancelled
down to.  No handle of the old word ended before k, and whether a handle ends
at a position depends only on the letters up to it, so no handle of the new
word ends before p: scanning from p finds the same handle as scanning from 0.
Free reduction, too, happens only where the word was rewritten: the
replacement is pushed onto the prefix with cancellation, then cancelled
against the already reduced suffix ``word[k+1:]`` at the junction.

Equality first tries ``certify_equal``, the minimal-positive certificate
(Elrifai & Morton): a positive word whose length equals the crossing number
of its permutation is the unique minimal positive braid over it.  Length and
permutation are invariants, so two positive words that differ in either are
unequal, and two minimal ones that agree are equal (tag ``"positive"``).  The
permutation forgets signs, so two nonempty all-negative words are decided the
same way, without building mirrors (``"mirrored"``); anything else is a
``"fallback"`` to handle reduction.

``BraidWord`` and ``parse_word`` validate their input.  Words derived from
validated words (reductions, products, inverses) are built by
``_trusted_word`` without validating them again.  So are the words of the
operad structure: ``block_sum_braids`` shifts the letters of validated words
onto disjoint strand intervals, ``cable`` emits block swaps within the
cabled strand count from a checked list of sizes, and ``permutation_braid``
records the swaps of an insertion sort on a permutation's image.  Through
them ``mu_br``, ``t_positive`` and ``t_negative`` skip validation too.  Each
kernel still checks its own arguments: matching strand counts and
nonnegative cable sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .permutations import (
    Permutation,
    adjacent_transposition,
    compose,
    identity as identity_permutation,
    inversions,
    tau,
)


@dataclass(frozen=True)
class BraidWord:
    """A braid group element on ``strands`` strands, as a word in the generators."""

    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.word, tuple):
            raise ValueError(f"braid word must be a tuple, got {type(self.word).__name__}")
        if self.strands < 0:
            raise ValueError(f"strand count must be nonnegative, got {self.strands}")
        for entry in self.word:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValueError(f"braid word entries must be integers, got {entry!r}")
            if entry == 0:
                raise ValueError("braid word entry 0 is not a generator")
            if abs(entry) >= self.strands:
                raise ValueError(
                    f"generator {entry} does not exist on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.word)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return concatenate(self, other)

    def inverse(self) -> "BraidWord":
        return _trusted_word(self.strands, tuple(-entry for entry in reversed(self.word)))

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {list(self.word)})"


def _trusted_word(strands: int, word: tuple[int, ...]) -> BraidWord:
    """A word built from the letters of validated words, skipping validation."""
    w = object.__new__(BraidWord)
    object.__setattr__(w, "strands", strands)
    object.__setattr__(w, "word", word)
    return w


def braid_identity(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def concatenate(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Diagrammatic product: first w1, then w2."""
    if w1.strands != w2.strands:
        raise ValueError(f"cannot multiply braids on {w1.strands} and {w2.strands} strands")
    return _trusted_word(w1.strands, w1.word + w2.word)


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse a space-separated word such as ``"1 -2 1"``."""
    entries: list[int] = []
    for token in text.split():
        try:
            entry = int(token)
        except ValueError:
            raise ValueError(f"braid word entry {token!r} is not an integer") from None
        if entry == 0:
            raise ValueError("braid word entry 0 is not a generator")
        if abs(entry) >= strands:
            raise ValueError(f"generator {entry} does not exist on {strands} strands")
        entries.append(entry)
    return BraidWord(strands, tuple(entries))


def format_word(w: BraidWord) -> str:
    return " ".join(str(entry) for entry in w.word)


def underlying_permutation(w: BraidWord) -> Permutation:
    """Forget over/under information: each crossing becomes a transposition."""
    perm = identity_permutation(w.strands)
    for entry in w.word:
        perm = compose(perm, adjacent_transposition(w.strands, abs(entry)))
    return perm


def is_positive(w: BraidWord) -> bool:
    """Whether every crossing is positive (the empty word counts as positive)."""
    return all(entry > 0 for entry in w.word)


def is_minimal_positive(w: BraidWord) -> bool:
    """
    Positive, and no pair of strands crosses twice -- equivalently, positive
    with length equal to the crossing number of the underlying permutation.
    """
    return is_positive(w) and len(w.word) == inversions(underlying_permutation(w))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for entry in w.word:
        if stack and stack[-1] == -entry:
            stack.pop()
        else:
            stack.append(entry)
    return _trusted_word(w.strands, tuple(stack))


def _first_handle(word: list[int], start: int) -> tuple[int, int] | None:
    """
    Find the handle with the earliest end at or after ``start``: positions
    j < k with word[j] == -word[k] and every letter strictly between of larger
    index.  Scanning backwards from k, the first letter of index <= |word[k]|
    decides.
    """
    for k in range(start, len(word)):
        letter = word[k]
        index = abs(letter)
        for j in range(k - 1, -1, -1):
            if abs(word[j]) > index:
                continue
            if word[j] == -letter:
                return j, k
            break
    return None


def handle_reduce(w: BraidWord) -> BraidWord:
    """
    Reduce handles until none remain.  The result represents the same braid;
    it is empty if and only if the braid is trivial.
    """
    word = list(free_reduce(w).word)
    start = 0
    while True:
        found = _first_handle(word, start)
        if found is None:
            return _trusted_word(w.strands, tuple(word))
        j, k = found
        index = abs(word[k])
        outer = index + 1 if word[j] > 0 else -index - 1
        interior = word[j + 1:k]
        suffix = word[k + 1:]
        del word[j:]
        # word is now the kept prefix; push the replacement onto it with
        # cancellation, tracking the shortest length the prefix reaches.
        start = j
        for entry in interior:
            if abs(entry) == index + 1:
                letters = (-outer, index if entry > 0 else -index, outer)
            else:
                letters = (entry,)
            for letter in letters:
                if word and word[-1] == -letter:
                    word.pop()
                    if len(word) < start:
                        start = len(word)
                else:
                    word.append(letter)
        at = 0
        while at < len(suffix) and word and word[-1] == -suffix[at]:
            word.pop()
            at += 1
        if len(word) < start:
            start = len(word)
        word.extend(suffix[at:])


def is_trivial(w: BraidWord) -> bool:
    return len(handle_reduce(w).word) == 0


def _sign_tag(w: BraidWord) -> str | None:
    """``"positive"`` for a positive word, ``"mirrored"`` for a nonempty all-negative one."""
    if all(entry > 0 for entry in w.word):
        return "positive"
    return "mirrored" if all(entry < 0 for entry in w.word) else None


def certify_equal(w1: BraidWord, w2: BraidWord) -> tuple[bool | None, str]:
    """The certificate's verdict on ``w1 == w2`` (None if it does not decide) and its tag."""
    tag = _sign_tag(w1)
    if tag is None or _sign_tag(w2) != tag:
        return None, "fallback"
    if len(w1.word) != len(w2.word):
        return False, tag
    perm = underlying_permutation(w1)
    if perm != underlying_permutation(w2):
        return False, tag
    return (True, tag) if len(w1.word) == inversions(perm) else (None, "fallback")


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether two words present the same braid: free reduction, the certificate, then handles."""
    if w1.strands != w2.strands:
        raise ValueError(f"cannot compare braids on {w1.strands} and {w2.strands} strands")
    a, b = free_reduce(w1), free_reduce(w2)
    held, _ = certify_equal(a, b)
    return is_trivial(concatenate(a, b.inverse())) if held is None else held


def block_sum_braids(braids: Sequence[BraidWord]) -> BraidWord:
    """Place the braids side by side on disjoint strand intervals."""
    word: list[int] = []
    offset = 0
    for braid in braids:
        for entry in braid.word:
            word.append(entry + offset if entry > 0 else entry - offset)
        offset += braid.strands
    return _trusted_word(offset, tuple(word))


def _block_swap_word(left: int, right: int) -> list[int]:
    """
    The minimal positive word on ``left + right`` strands moving the first
    ``left`` strands past the next ``right``, each pair crossing once.  Right
    strand t (from 0) moves left past the whole left block, crossing at
    positions left + t, left + t - 1, ..., t + 1: the letters the insertion
    sort of ``permutation_braid`` records, in the same order.
    """
    return [left + t - s for t in range(right) for s in range(left)]


def cable(g: BraidWord, sizes: Sequence[int]) -> BraidWord:
    """
    Replace strand i of ``g`` (numbered at the top) by ``sizes[i-1]`` parallel
    strands.  Each crossing of cables becomes a block of crossings in which
    every strand of one cable crosses every strand of the other exactly once,
    with the sign of the original crossing.
    """
    if len(sizes) != g.strands:
        raise ValueError(f"cable needs {g.strands} strand sizes, got {len(sizes)}")
    for size in sizes:
        if size < 0:
            raise ValueError(f"cable sizes must be nonnegative, got {size}")
    current = list(sizes)
    word: list[int] = []
    for entry in g.word:
        i = abs(entry)
        left, right = current[i - 1], current[i]
        start = sum(current[:i - 1])
        if entry > 0:
            word.extend(s + start for s in _block_swap_word(left, right))
        else:
            # The inverse of moving the (eventual) left block past the right.
            word.extend(-(s + start) for s in reversed(_block_swap_word(right, left)))
        current[i - 1], current[i] = right, left
    return _trusted_word(sum(sizes), tuple(word))


def mu_br(g: BraidWord, braids: Sequence[BraidWord]) -> BraidWord:
    """
    Operadic composition in the braid groups: substitute the i-th braid into
    the i-th strand of ``g``.  As with permutations, the substituted braids
    sit above the cabled copy of ``g``.
    """
    if len(braids) != g.strands:
        raise ValueError(f"operadic composition needs {g.strands} arguments, got {len(braids)}")
    sizes = [braid.strands for braid in braids]
    return concatenate(block_sum_braids(braids), cable(g, sizes))


def permutation_braid(p: Permutation) -> BraidWord:
    """
    The unique positive braid in which exactly the crossings of ``p`` occur,
    emitted by straight insertion sort on the image array (each recorded swap
    is one positive crossing, so the length is the inversion count).
    """
    image = list(p.image)
    word: list[int] = []
    for j in range(1, len(image)):
        i = j
        while i > 0 and image[i - 1] > image[i]:
            image[i - 1], image[i] = image[i], image[i - 1]
            word.append(i)
            i -= 1
    return _trusted_word(p.n, tuple(word))


def t_positive(m: int, n: int) -> BraidWord:
    """
    The unique minimal positive braid on m*n strands whose underlying
    permutation is the transposition-of-a-grid permutation ``tau(m, n)``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"t_positive needs m, n >= 1, got ({m}, {n})")
    return permutation_braid(tau(m, n))


def t_negative(m: int, n: int) -> BraidWord:
    """
    The all-negative counterpart: the inverse of ``t_positive(n, m)``, which
    is the unique minimal negative braid over ``tau(m, n)``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"t_negative needs m, n >= 1, got ({m}, {n})")
    return t_positive(n, m).inverse()


def render_ascii(w: BraidWord) -> str:
    """
    One text row per crossing, strands as columns.  A positive crossing is
    drawn ``\\ /`` (left strand over), a negative one ``/ \\``.  The empty
    word renders as a single row of bars.
    """
    columns = max(2 * w.strands - 1, 0)

    def bar_row() -> list[str]:
        row = [" "] * columns
        for strand in range(w.strands):
            row[2 * strand] = "|"
        return row

    if not w.word:
        return "".join(bar_row()) if w.strands else ""
    lines = []
    for entry in w.word:
        row = bar_row()
        i = abs(entry)
        row[2 * (i - 1)] = "\\" if entry > 0 else "/"
        row[2 * i] = "/" if entry > 0 else "\\"
        lines.append("".join(row))
    return "\n".join(lines)


def render_dot(w: BraidWord) -> str:
    """A plain graph description of the crossing sequence, one node per crossing."""
    lines = [f'graph braid {{', f'  label="strands={w.strands}";']
    for position, entry in enumerate(w.word, start=1):
        sign = "+" if entry > 0 else "-"
        lines.append(f'  c{position} [label="{sign}{abs(entry)}"];')
    for position in range(1, len(w.word)):
        lines.append(f"  c{position} -- c{position + 1};")
    lines.append("}")
    return "\n".join(lines)
