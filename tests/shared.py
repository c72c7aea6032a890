"""
Helpers that several test modules use, each defined once.

The tests directory is no package, so pytest puts it first on sys.path
when it imports a test module there, and `from shared import ...` works
from any working directory.  `_constant_collection` is the command-line
tool's own.
"""

from operadics.cli import _constant_collection
from operadics.g_operads import FiniteGCollection
from operadics.permutations import Permutation

__all__ = ["_UnionFind", "_constant_collection", "_swap_collection", "perm"]


def perm(*image: int) -> Permutation:
    return Permutation(tuple(image))


class _UnionFind:
    """Disjoint sets whose root is always the least member of its class."""

    def __init__(self):
        self._parent: dict = {}

    def add(self, item) -> None:
        self._parent.setdefault(item, item)

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def unite(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def _swap_collection(group):
    """One unary label, two binary labels exchanged by odd permutations."""
    levels = {1: ("s1",), 2: ("u", "v")}

    def action(n, label, g):
        if n == 2 and group.project(g).image == (2, 1):
            return {"u": "v", "v": "u"}[label]
        return label

    return FiniteGCollection("s", group, levels, action)
