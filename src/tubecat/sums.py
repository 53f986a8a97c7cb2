"""Direct sums of tensor words, and linear maps between them per root.

The core engine only speaks single tensor words.  Everything downstream
(the conjugation-closure object Δ, extracted center objects) lives on
finite direct sums of words, so this module adds the bookkeeping layer: a
SumObject is an ordered tuple of summand words with hashable tags, and a
StackedBasis lines up the comb trees of all summands at each root.  It
holds them as integer arrays (summand, root, position at the root, and
the trees as (states, L − 1, 2)), grown vertex by vertex from the words'
letters by repeating each state over its counts N[root, letter, :], with
no per-word TreeBasis; a stack of longer words is grown the same way from
their own letters.  A linear map between two sums is then one matrix per
root; its block between two summands is placed there and cut back out by
stack_blocks and cut_block, and block_diagonal spreads it over all the
states at once.  The states of a sum grown by a letter c, on either side,
each name their parent state and vertex slot (lifts_of, off the counts
N), so f ⊗ id_c and id_c ⊗ f at a root are one masked gather of f's
block-diagonal matrix (lift), and no sum is tensored into a new one.
"""
from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .fsymbols import vertices
from .morphism import Engine, Morphism, cached
from .trees import Word

__all__ = ["SumObject", "StackedBasis", "OneLetter", "stack_blocks", "cut_block",
           "block_diagonal", "lifts_of", "lift"]


class StackedBasis:
    """Left-comb trees of a list of nonempty words, stacked, as arrays.

    State k is the tree ``trees[k]`` of the word ``words[summand[k]]`` at
    root ``root[k]``, at position ``pos[k]`` among the states at that root.
    The states run word by word, each word's trees in TreeBasis generation
    order.  ``trees`` is (states, L − 1, 2): the (channel, μ) after each
    vertex, L the longest word's length, a shorter word's padded with −1.
    At root z summand j holds positions ``starts[z][j]:starts[z][j + 1]``,
    so a map between two sums of words is one matrix per root
    (stack_blocks); ``dims`` maps each root, ascending, to its count.

    ``of`` grows the states vertex by vertex: each is replaced by its
    children (z, μ) through the next vertex (root, letter; z), z
    ascending, then μ, which is the generation order.  So the children of
    the states in order come in their parents' order: a comb of w + (x,)
    at z is a comb of w at some v followed by the vertex (v, x; z) in slot
    ν, and the children at z come parent by parent, each parent's by slot,
    which f ⊗ id_x reads (lifts_of).
    """

    __slots__ = ("words", "summand", "root", "trees", "dims", "_pos", "_starts")

    def __init__(self, words: tuple, summand, root, trees):
        self.words, self.summand, self.root, self.trees = words, summand, root, trees
        self.dims = {z: n for z, n in enumerate(np.bincount(root).tolist()) if n}
        self._pos, self._starts = None, None

    @classmethod
    def of(cls, ring, words) -> "StackedBasis":
        """The words' states, grown from their first letters, each tree by
        its (z, μ) in a new last column; a shorter word is grown by the
        unit (one child, the same root) and its tree padded with −1
        after."""
        words = tuple(tuple(w) for w in words)
        if not all(words):
            raise ShapeError("stacked words must be nonempty")
        L = max(map(len, words), default=1)
        letters = np.array([w + (ring.unit,) * (L - len(w)) for w in words],
                           dtype=np.int64).reshape(len(words), L)
        summand, root = np.arange(len(words)), letters[:, 0]
        trees = np.zeros((len(words), 0, 2), dtype=np.int64)
        for k in range(1, L):
            par, root, mu = vertices(ring.N[root, letters[summand, k]])
            summand = summand[par]
            trees = np.concatenate([trees[par], np.stack([root, mu], axis=-1)[:, None]],
                                   axis=1)
        if any(len(w) < L for w in words):
            size = np.array([len(w) for w in words])
            trees[(np.arange(1, L) >= size[:, None])[summand]] = -1
        return cls(words, summand, root, trees)

    @property
    def pos(self) -> np.ndarray:
        if self._pos is None:
            n = np.bincount(self.root)
            order = np.argsort(self.root, kind="stable")
            self._pos = np.empty_like(self.root)
            self._pos[order] = np.arange(len(order)) - np.repeat(np.cumsum(n) - n, n)
        return self._pos

    @property
    def starts(self) -> dict:
        if self._starts is None:
            n, r = len(self.words), max(self.dims, default=-1) + 1
            first = np.zeros((r, n + 1), dtype=np.int64)
            first[:, 1:] = np.cumsum(np.bincount(self.root * n + self.summand,
                                                 minlength=r * n).reshape(r, n), axis=1)
            self._starts = {z: first[z].tolist() for z in self.dims}
        return self._starts


class OneLetter:
    """A sum of one-letter words w = (x_j,) grown by a letter a on either
    side, for every a at once (SumObject.one_letter): ``label[j]`` = x_j,
    and ``left`` = (count, first) of the words (a,) + w, ``right`` of
    w + (a,): count[a, j, r] trees at root r, one per slot ν of the vertex,
    and first[a, j, r] the position at r of the first of them, summand-major
    as stacked; ``lifts`` = (left, right) reads each tree at (a, r) as its
    summand j and slot ν (lifts_of), made on first read, since the twists
    read only the counts."""

    def __init__(self, N: np.ndarray, label: np.ndarray):
        self.label = label
        self.left, self.right = ((count, np.cumsum(count, axis=1) - count)
                                 for count in (N[:, label], N[label].transpose(1, 0, 2)))

    @cached_property
    def lifts(self) -> tuple:
        return tuple(lifts_of(count) for count, _first in (self.left, self.right))


class SumObject:
    """Ordered direct sum of tensor words.

    Tags give summands stable identities (for example ``(x, slot)``) so
    callers can address blocks without tracking positions by hand.
    """

    __slots__ = ("engine", "summands", "tags", "_pos", "_kept")

    def __init__(self, engine: Engine, summands, tags=None):
        self.engine = engine
        self.summands = tuple(tuple(w) for w in summands)
        self.tags = tuple(tags) if tags is not None else tuple(range(len(self.summands)))
        if len(self.tags) != len(self.summands):
            raise ShapeError("one tag per summand required")
        self._pos = {t: i for i, t in enumerate(self.tags)}
        if len(self._pos) != len(self.tags):
            raise ShapeError("summand tags must be distinct")
        self._kept: dict = {}

    def __len__(self) -> int:
        return len(self.summands)

    def index(self, tag) -> int:
        return self._pos[tag]

    def kept(self, key: tuple, make):
        """A piece made from the summands alone, such as a stack: made on
        first use and kept with the sum (morphism.cached)."""
        return cached(self._kept, key, make)

    def one_letter(self) -> OneLetter:
        """The trees of (a,) + w and w + (a,) for this sum of one-letter
        words w, every letter a at once, counted off N, kept in the
        engine's cache, since they depend on the words alone.  Raises
        ShapeError for a longer word."""
        if any(len(w) != 1 for w in self.summands):
            raise ShapeError("needs a sum of one-letter words")
        return cached(self.engine.cache, ("one letter", self.summands), lambda: OneLetter(
            self.engine.ring.N, np.array([w[0] for w in self.summands])))

    def stacked(self, left: Word = (), right: Word = ()) -> StackedBasis:
        """Stacked comb basis of the words left + w + right over the summands
        w, grown from their letters (StackedBasis.of) and kept."""
        return self.kept(("stacked", left, right), lambda: StackedBasis.of(
            self.engine.ring, [left + w + right for w in self.summands]))

    def __repr__(self):
        labs = self.engine.spec.labels
        parts = ["".join(labs[i] for i in w) or "1" for w in self.summands]
        return "<SumObject " + " + ".join(parts) + ">"


def stack_blocks(blocks: dict, src: StackedBasis, dst: StackedBasis) -> dict:
    """One matrix per root z, from src's coordinates at z to dst's, of a map
    in block form: ``blocks[(i, j)]`` is root -> matrix (Morphism.blocks)
    from summand j to summand i, and at z it sits at rows dst.starts[z][i]
    on, columns src.starts[z][j] on; a block may run on over the summands
    after those.  Every other entry is zero."""
    out = {z: np.zeros((n, src.dims[z]), dtype=complex)
           for z, n in dst.dims.items() if z in src.dims}
    rows, cols = dst.starts, src.starts
    for (i, j), m in blocks.items():
        for z, blk in m.items():
            if blk.size:
                r, c = rows[z][i], cols[z][j]
                out[z][r:r + blk.shape[0], c:c + blk.shape[1]] = blk
    return out


def cut_block(engine: Engine, mats: dict, src: StackedBasis, dst: StackedBasis,
              i: int, j: int) -> Morphism:
    """Block (i, j) of per-root matrices from src's coordinates to dst's, as
    a Morphism from src.words[j] to dst.words[i]: the inverse of
    stack_blocks on one block.  A root missing from ``mats`` reads as zero."""
    w, v = src.words[j], dst.words[i]
    roots = engine.common_roots(w, v)
    rows, cols = dst.starts, src.starts
    return engine.make(w, v, {z: mats[z][rows[z][i]:rows[z][i] + dd,
                                         cols[z][j]:cols[z][j] + sd].copy()
                              for z, dd, sd in roots if z in mats}, roots)


def block_diagonal(mats: dict, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """A map given as one matrix per root z, mats[z], as one matrix over all
    states: ``src`` and ``dst`` are the roots of the states of both sums in
    order (StackedBasis.root), the states at z take mats[z]'s rows and
    columns in order, and every entry between two roots is zero."""
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for z, m in mats.items():
        out[np.flatnonzero(dst == z)[:, None], np.flatnonzero(src == z)] = m
    return out


def lifts_of(count: np.ndarray) -> dict:
    """(c, r) -> (parents, slots) of the states of a sum grown by the letter
    c, at root r in their order, for count[c, s, r] children at r of the
    sum's state s: parent by parent, one per slot ν of the new vertex, as
    StackedBasis.of grows them on the right (count[c, s, r] = N[z_s, c, r])
    and Ω numbers its columns on the left (N[c, z_s, r]).  Every (c, r) is
    present."""
    rank, n = count.shape[0], count.shape[2]
    c, root, parent, slot = vertices(count.transpose(0, 2, 1))
    cut = np.searchsorted(c * n + root, np.arange(1, rank * n))
    return dict(zip(itertools.product(range(rank), range(n)),
                    zip(np.split(parent, cut), np.split(slot, cut))))


def lift(full: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """f ⊗ id_c or id_c ⊗ f at one root, between grown states given as
    (parents, slots) (lifts_of), with f as one block-diagonal matrix over
    the states of its sums (block_diagonal): full's entry at the parents of
    the row and the column where their slots agree, and zero elsewhere
    (np.where, so a non-finite entry of f stays on its own entries)."""
    return np.where(rows[1][:, None] == cols[1], full[rows[0][:, None], cols[0]], 0j)
