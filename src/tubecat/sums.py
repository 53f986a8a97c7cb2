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
their own letters.  The position groups a block-diagonal product reads
come off those arrays (grouped), and on a sum of one-letter words off the
counts N alone (SumObject.one_letter).  A linear map between two sums is
then one matrix per root; its block between two summands is placed there
and cut back out by stack_blocks and cut_block; f ⊗ id and id ⊗ f act as
block-diagonal products (left_blocks, right_blocks, SumObject.omega), and
no sum is tensored into a new one.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError
from .fsymbols import vertices
from .morphism import Engine, Morphism, cached
from .trees import Word

__all__ = ["SumObject", "StackedBasis", "OneLetter", "grouped", "stack_blocks",
           "cut_block", "left_blocks", "right_blocks"]


def grouped(keys: tuple, pos: np.ndarray) -> dict:
    """Positions by their keys, each key an integer array as long as pos:
    keys[0] -> … -> keys[-3] -> (keys[-2], keys[-1]) -> the positions with
    those keys, in their order."""
    if not len(pos):
        return {}
    dims = [int(k.max()) + 1 for k in keys]
    key = np.ravel_multi_index(keys, dims)
    order = np.argsort(key, kind="stable")
    key, pos = key[order], pos[order]
    cut = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    out: dict = {}
    for *outer, u, m, lo, hi in zip(*(k.tolist() for k in np.unravel_index(key[cut[:-1]], dims)),
                                    cut, cut[1:]):
        at = out
        for k in outer:
            at = at.setdefault(k, {})
        at[(u, m)] = pos[lo:hi]
    return out


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
    ν, and the children at z in slot ν of the parents at v keep the
    parents' order, which f ⊗ id_x, block-diagonal over (v, ν), reads
    (DeltaObject.kernel, SumObject.one_letter).
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
    as stacked."""

    def __init__(self, N: np.ndarray, label: np.ndarray):
        self.label = label
        self.left, self.right = ((count, np.cumsum(count, axis=1) - count)
                                 for count in (N[:, label], N[label].transpose(1, 0, 2)))

    @functools.cached_property
    def groups(self) -> tuple:
        """(left, right), each a -> r -> (x_j, ν) -> the positions at r of
        the trees of summand j in slot ν on that side: id_a ⊗ f and f ⊗ id_a
        are block-diagonal over them, with block f at x_j.  Made on first
        use."""
        return tuple(grouped((a, r, self.label[j], nu), first[a, j, r] + nu)
                     for count, first in (self.left, self.right)
                     for a, j, r, nu in (vertices(count),))


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

    def omega(self, c: int) -> dict:
        """id_c ⊗ − on the stacked comb trees of the summands: root r ->
        (Ω, groups).

        Ω = ⊕_j Engine.omega(c, w_j)[r] maps the 'id_c ⊗ comb' coordinates
        (Engine.right_basis) onto the stacked combs of (c,) + w_j at r, and
        groups[(u, ν)] lists the right-basis positions that continue the
        trees at u in slot ν of c ⊗ u, in their stacked order.  So for a map
        F: S → D read as F_u at every root u, id_c ⊗ F at r is
        D.omega(c)[r][0] · B · S.omega(c)[r][0]†, with B = F_u from group
        (u, ν) of S to the same group of D (left_blocks).
        """
        eng = self.engine
        mats, groups, size = {}, {}, {}
        for w in self.summands:
            om = eng.omega(c, w)
            for r, ents in eng.right_basis(c, w).items():
                off = size.get(r, 0)
                mats.setdefault(r, []).append((off, om[r]))
                g = groups.setdefault(r, {})
                for k, (u, _tree, nu) in enumerate(ents):
                    g.setdefault((u, nu), []).append(off + k)
                size[r] = off + len(ents)
        out = {}
        for r, blocks in mats.items():
            om = np.zeros((size[r], size[r]), dtype=complex)
            for off, m in blocks:
                om[off:off + len(m), off:off + len(m)] = m
            out[r] = om, {key: np.array(p) for key, p in groups[r].items()}
        return out

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


def left_blocks(F: dict, M: np.ndarray, dst: dict, src: dict, n: int) -> np.ndarray:
    """B·M with B block-diagonal over the keys (u, ν) of dst: block F_u from
    M's rows src[key] to the rows dst[key] of an n-row result."""
    out = np.zeros((n, M.shape[1]), dtype=complex)
    for key, P in dst.items():
        if key in src and key[0] in F:
            out[P] = F[key[0]] @ M[src[key]]
    return out


def right_blocks(M: np.ndarray, F: dict, dst: dict, src: dict, n: int) -> np.ndarray:
    """M·B with B block-diagonal over the keys (v, ν) of src: block F_v from
    the columns src[key] of an n-column result to M's columns dst[key]
    (DeltaObject.kernel and OneLetter.groups give such keys for f ⊗ id_x)."""
    out = np.zeros((M.shape[0], n), dtype=complex)
    for key, C in src.items():
        if key in dst and key[0] in F:
            out[:, C] = M[:, dst[key]] @ F[key[0]]
    return out
