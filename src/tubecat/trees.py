"""Left-comb fusion trees over a fusion ring.

A word is a tuple of label indices; its tensor object is bracketed
(((w1 w2) w3) ...).  A tree for a word of length n is the tuple of
(channel, multiplicity) pairs met after each of the n-1 internal vertices:
element k (0-based) holds the channel of the first k+2 letters.  Length-0 and
length-1 words have the empty tree (root = unit resp. the letter itself).
Tree order is generation order: previous-state order, then channel index,
then multiplicity index; everything downstream relies on it being stable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Word", "Tree", "TreeBasis", "enumerate_trees", "tree_root"]

Word = tuple  # tuple[int, ...]
Tree = tuple  # tuple[(channel, mult), ...]


def tree_root(word: Word, tree: Tree, unit: int) -> int:
    if tree:
        return tree[-1][0]
    return word[0] if word else unit


def enumerate_trees(ring, word: Word) -> dict[int, list[Tree]]:
    """root -> ordered list of left-comb trees for Hom(root, tensor(word))."""
    if len(word) == 0:
        states = [(ring.unit, ())]
    else:
        states = [(word[0], ())]
    channels = ring.channels
    for letter in word[1:]:
        nxt = []
        for root, tree in states:
            for z, n in channels[root][letter].items():
                for mu in range(n):
                    nxt.append((z, tree + ((z, mu),)))
        states = nxt
    by_root: dict[int, list[Tree]] = {}
    for root, tree in states:
        by_root.setdefault(root, []).append(tree)
    return by_root


@dataclass
class TreeBasis:
    """Tree enumeration for one word with index lookups.

    ``dims`` maps each root, ascending, to its number of trees; it is taken
    once here, since the engine asks for roots and dims far more often than
    it builds bases."""

    word: Word
    by_root: dict[int, list[Tree]]
    index: dict[int, dict[Tree, int]] = field(init=False)
    dims: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.index = {z: {t: i for i, t in enumerate(ts)}
                      for z, ts in self.by_root.items()}
        self.dims = {z: len(self.by_root[z]) for z in sorted(self.by_root)}
        self._roots = tuple(self.dims)

    def roots(self) -> tuple[int, ...]:
        return self._roots

    def dim(self, z: int) -> int:
        return self.dims.get(z, 0)

    def total_dim(self) -> int:
        return sum(len(ts) for ts in self.by_root.values())

    def split(self, prefix_len: int, unit: int):
        """Decompose each tree as (prefix tree, prefix root, extension).

        prefix_len = number of letters in the prefix word.  Returns
        {root: [(prefix_tree, mid_root, ext_pairs), ...]} aligned with
        by_root order.  The extension always carries one (channel, mult)
        pair per extension letter; an empty prefix starts from the unit,
        whose fusion with the first letter is recorded explicitly so the
        shape matches splits taken at nonzero prefix lengths.
        """
        out = {}
        for z, ts in self.by_root.items():
            rows = []
            for t in ts:
                if prefix_len == 0:
                    pre, mid = (), unit
                    ext = ((self.word[0], 0),) + t if self.word else t
                else:
                    cut = prefix_len - 1
                    pre, ext = t[:cut], t[cut:]
                    mid = tree_root(self.word[:prefix_len], pre, unit)
                rows.append((pre, mid, ext))
            out[z] = rows
        return out
