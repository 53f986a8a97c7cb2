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

__all__ = ["Word", "Tree", "TreeBasis", "tree_root"]

Word = tuple  # tuple[int, ...]
Tree = tuple  # tuple[(channel, mult), ...]


def tree_root(word: Word, tree: Tree, unit: int) -> int:
    if tree:
        return tree[-1][0]
    return word[0] if word else unit


def _grow(ring, states: list, letters: Word) -> list:
    """Generation-ordered (root, tree) states continued by more letters."""
    channels = ring.channels
    for letter in letters:
        nxt = []
        for root, tree in states:
            for z, n in channels[root][letter].items():
                for mu in range(n):
                    nxt.append((z, tree + ((z, mu),)))
        states = nxt
    return states


def _group(states: list) -> dict[int, list[Tree]]:
    by_root: dict[int, list[Tree]] = {}
    for root, tree in states:
        by_root.setdefault(root, []).append(tree)
    return by_root


class TreeBasis:
    """Left-comb trees of one word, root -> ordered trees, with lookups.

    ``states`` is the generation-ordered list of (root, tree); ``by_root``
    groups it by root.  ``dims`` maps each root, ascending, to its number of
    trees; it is taken once here, since the engine asks for roots and dims
    far more often than it builds bases.  ``index`` (root -> tree ->
    position) is built on first use: most bases are only ever counted."""

    __slots__ = ("word", "states", "by_root", "dims", "_roots", "_index")

    def __init__(self, word: Word, states: list):
        self.word = word
        self.states = states
        self.by_root = _group(states)
        self.dims = {z: len(self.by_root[z]) for z in sorted(self.by_root)}
        self._roots = tuple(self.dims)
        self._index = None

    @classmethod
    def of(cls, ring, word: Word) -> "TreeBasis":
        start = [(word[0], ())] if word else [(ring.unit, ())]
        return cls(word, _grow(ring, start, word[1:]))

    def extended(self, ring, letters: Word) -> "TreeBasis":
        """Basis of word + letters for a nonempty word, grown from this
        basis's states: the trees of TreeBasis.of on the longer word, in the
        same order.  (The empty word's state is the unit, which a longer
        word does not start from.)"""
        return TreeBasis(self.word + tuple(letters),
                         _grow(ring, self.states, letters))

    @property
    def index(self) -> dict[int, dict[Tree, int]]:
        if self._index is None:
            self._index = {z: {t: i for i, t in enumerate(ts)}
                           for z, ts in self.by_root.items()}
        return self._index

    def roots(self) -> tuple[int, ...]:
        return self._roots

    def dim(self, z: int) -> int:
        return self.dims.get(z, 0)

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
