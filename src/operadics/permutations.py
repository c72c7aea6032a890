"""
Permutations in one-line notation, plus the block operations that make the
symmetric groups into an operad.

A permutation of arity n is stored as its image array ``(p(1), ..., p(n))``
with 1-based values.  ``n = 0`` (the empty permutation) is legal and shows up
as the arity-0 slot of the operad.

Composition is written diagrammatically throughout the package:
``compose(p, q)`` is "first p, then q", so ``compose(p, q)(i) = q(p(i))``.
Reading a strand diagram top to bottom, ``p`` is the upper half.

Operadic composition substitutes a permutation tau_i into each strand of
sigma: the strands of sigma thicken into blocks of sizes ``k_i = tau_i.n``
and every block carries its tau_i twist.  Concretely::

    mu_sigma(sigma, taus) = compose(block_sum(taus), block_lift(sigma, sizes))

i.e. the individual twists happen first (top of the diagram) and the block
moves below them.  The order of the two factors is not a free choice: the
other order fails the operad associativity law (see the tests, which check
both candidates and keep this one).

``Permutation(...)`` and ``parse_permutation`` validate their input.  The
kernels (``identity``, ``adjacent_transposition``, ``compose``, ``inverse``,
``block_sum``, ``block_lift``, ``tau``, ``all_permutations``, and through
them ``mu_sigma``) build their results from validated permutations and
checked arguments, so they construct them by ``_trusted`` without
validating them again.  Each kernel still checks its own arguments:
matching arities, block counts, nonnegative sizes and dimensions.
``mu_sigma`` writes its image in one pass over the blocks instead of
building the two factors and composing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} given by its image array."""

    image: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.image, tuple):
            raise ValueError(f"permutation image must be a tuple, got {type(self.image).__name__}")
        seen = set()
        n = len(self.image)
        for value in self.image:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"permutation entries must be integers, got {value!r}")
            if not 1 <= value <= n:
                raise ValueError(f"permutation value {value} out of range 1..{n}")
            if value in seen:
                raise ValueError(f"not a permutation: duplicate value {value}")
            seen.add(value)

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """Apply the permutation to a point ``i`` in 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} out of range 1..{self.n}")
        return self.image[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Diagrammatic product: ``p * q`` is "first p, then q"."""
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, value in enumerate(self.image, start=1):
            inv[value - 1] = i
        return _trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(value == i for i, value in enumerate(self.image, start=1))

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def _trusted(image: tuple[int, ...]) -> Permutation:
    """A permutation a kernel built from validated inputs, skipping validation."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "image", image)
    return p


def identity(n: int) -> Permutation:
    if n < 0:
        raise ValueError(f"arity must be nonnegative, got {n}")
    return _trusted(tuple(range(1, n + 1)))


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The transposition swapping i and i+1 inside the identity of arity n."""
    if not 1 <= i < n:
        raise ValueError(f"adjacent transposition index {i} out of range 1..{n - 1}")
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return _trusted(tuple(image))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The diagrammatic composite "first p, then q": image[i] = q(p(i))."""
    if p.n != q.n:
        raise ValueError(f"cannot compose permutations of arities {p.n} and {q.n}")
    q_image = q.image
    return _trusted(tuple([q_image[value - 1] for value in p.image]))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def block_sum(perms: Sequence[Permutation]) -> Permutation:
    """Place the permutations side by side: tau_1 on 1..k_1, tau_2 on the next k_2, ..."""
    image: list[int] = []
    offset = 0
    for perm in perms:
        image.extend(value + offset for value in perm.image)
        offset += perm.n
    return _trusted(tuple(image))


def block_lift(sigma: Permutation, sizes: Sequence[int]) -> Permutation:
    """
    Thicken each strand of sigma into a block: block i (of ``sizes[i-1]``
    consecutive points) moves, in one rigid piece, to slot ``sigma(i)``.

    The output slots are laid out so that slot j has the width of the block
    arriving there, namely ``sizes[sigma^{-1}(j) - 1]``.
    """
    if len(sizes) != sigma.n:
        raise ValueError(f"block_lift needs {sigma.n} block sizes, got {len(sizes)}")
    for size in sizes:
        if size < 0:
            raise ValueError(f"block sizes must be nonnegative, got {size}")
    inv = sigma.inverse()
    starts_in: list[int] = []
    total = 0
    for size in sizes:
        starts_in.append(total)
        total += size
    starts_out: list[int] = []
    out_total = 0
    for j in range(1, sigma.n + 1):
        starts_out.append(out_total)
        out_total += sizes[inv.image[j - 1] - 1]
    image = [0] * total
    for i in range(1, sigma.n + 1):
        target = starts_out[sigma.image[i - 1] - 1]
        source = starts_in[i - 1]
        for r in range(sizes[i - 1]):
            image[source + r] = target + r + 1
    return _trusted(tuple(image))


def mu_sigma(sigma: Permutation, taus: Sequence[Permutation]) -> Permutation:
    """
    Operadic composition in the symmetric groups: substitute tau_i into the
    i-th strand of sigma.  Twists first, block moves second, built in one
    pass: point r of block i goes to the output offset of slot sigma(i)
    plus tau_i(r), which is compose(block_sum(taus), block_lift(sigma, sizes)).
    """
    if len(taus) != sigma.n:
        raise ValueError(f"operadic composition needs {sigma.n} arguments, got {len(taus)}")
    # Output slot j has the width of the block arriving there; block i lands
    # at the offset of slot sigma(i), its points twisted by tau_i.
    widths = [0] * sigma.n
    for target, twist in zip(sigma.image, taus):
        widths[target - 1] = twist.n
    offsets = list(accumulate(widths, initial=0))
    image: list[int] = []
    for target, twist in zip(sigma.image, taus):
        offset = offsets[target - 1]
        image.extend([offset + value for value in twist.image])
    return _trusted(tuple(image))


def tau(m: int, n: int) -> Permutation:
    """
    The transpose-shuffle on m*n points: reading an m-by-n matrix row by row
    versus column by column.  Point (p, q) sits at row-major position
    ``(p-1)*n + q`` and is sent to column-major position ``(q-1)*m + p``.

    >>> tau(2, 3).image
    (1, 3, 5, 2, 4, 6)
    >>> tau(1, 5).is_identity() and tau(5, 1).is_identity()
    True
    """
    if m < 0 or n < 0:
        raise ValueError(f"tau needs nonnegative dimensions, got {m}, {n}")
    image = [0] * (m * n)
    for p in range(1, m + 1):
        for q in range(1, n + 1):
            image[(p - 1) * n + (q - 1)] = (q - 1) * m + p
    return _trusted(tuple(image))


def inversions(p: Permutation) -> int:
    """The number of pairs i < j with p(i) > p(j), i.e. crossings in the diagram."""
    img = p.image
    return sum(1 for i in range(p.n) for j in range(i + 1, p.n) if img[i] > img[j])


def act_on_list(p: Permutation, items: Sequence) -> list:
    """
    Permute a list so that the item at position i travels to position p(i):
    ``result[p(i)] = items[i]``, i.e. ``result[j] = items[p^{-1}(j)]``.
    """
    if len(items) != p.n:
        raise ValueError(f"cannot act: permutation arity {p.n}, list length {len(items)}")
    out = [None] * p.n
    for i, value in enumerate(p.image):
        out[value - 1] = items[i]
    return out


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of the symmetric group of arity n, in lexicographic order."""
    import itertools

    for image in itertools.permutations(range(1, n + 1)):
        yield _trusted(image)


def parse_permutation(text: str) -> Permutation:
    """
    Parse a space-separated one-line image, e.g. ``"2 3 1"``.

    Rejects non-bijections with an error naming the duplicated value.
    """
    tokens = text.split()
    values: list[int] = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"permutation entry {token!r} is not an integer") from None
    return Permutation(tuple(values))


def format_permutation(p: Permutation) -> str:
    """The inverse of :func:`parse_permutation`: space-separated image values."""
    return " ".join(str(value) for value in p.image)
