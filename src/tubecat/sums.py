"""Direct sums of tensor words, and linear maps between them per root.

The core engine only speaks single tensor words.  Everything downstream
(the conjugation-closure object Δ, extracted center objects) lives on
finite direct sums of words, so this module adds the bookkeeping layer: a
SumObject is an ordered tuple of summand words with hashable tags, and a
StackedBasis lines up the comb trees of all summands at each root.  A
linear map between two sums is then one matrix per root; its block between
two summands is placed there and cut back out by stack_blocks and
cut_block; f ⊗ id and id ⊗ f act as block-diagonal products (left_blocks,
right_blocks, SumObject.omega), and no sum is tensored into a new one.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .morphism import Engine, Morphism
from .trees import Word

__all__ = ["SumObject", "StackedBasis", "stack_blocks", "cut_block",
           "left_blocks", "right_blocks"]


class StackedBasis:
    """Left-comb trees of a list of nonempty words, stacked.

    ``states`` lists (summand, root, tree) word by word, each word's trees
    in TreeBasis generation order.  At root z the stacked coordinates are
    those states in that order, ``by_root[z]`` = [(summand, tree)], and
    summand j occupies ``starts[z][j]:starts[z][j + 1]``; so a map between
    two sums of words is one matrix per root (stack_blocks).

    ``extended`` grows every word by one letter from these states, as
    TreeBasis.extended grows one word.  A comb of w + (x,) at z is a comb
    of w at some v followed by the vertex (v, x; z) in slot ν, so f ⊗ id_x
    is block-diagonal over (v, ν) with block f at root v; ``lifts[z][(v, ν)]``
    holds the child positions at z of the parent coordinates at v, in their
    order.  A basis made by ``of`` has no lifts.  ``flat`` reads the states
    as arrays.
    """

    __slots__ = ("words", "states", "by_root", "dims", "lifts", "_starts", "_flat")

    def __init__(self, words: tuple, states: list, lifts: dict | None = None):
        self.words = words
        self.states = states
        by_root: dict = {}
        for j, z, tree in states:
            by_root.setdefault(z, []).append((j, tree))
        self.by_root = by_root
        self.dims = {z: len(by_root[z]) for z in sorted(by_root)}
        self.lifts = lifts if lifts is not None else {}
        self._starts = self._flat = None

    @classmethod
    def of(cls, engine: Engine, words) -> "StackedBasis":
        words = tuple(tuple(w) for w in words)
        return cls(words, [(j, z, tree) for j, w in enumerate(words)
                           for z, tree in engine.basis(w).states])

    def extended(self, ring, letter: int) -> "StackedBasis":
        channels = ring.channels
        states, lifts = [], {}
        count: dict = {}  # child root -> coordinates made so far
        for j, v, tree in self.states:
            for z, n in channels[v][letter].items():
                for mu in range(n):
                    pos = count.get(z, 0)
                    count[z] = pos + 1
                    lifts.setdefault(z, {}).setdefault((v, mu), []).append(pos)
                    states.append((j, z, tree + ((z, mu),)))
        lifts = {z: {key: np.array(p) for key, p in by_key.items()}
                 for z, by_key in lifts.items()}
        return StackedBasis(tuple(w + (letter,) for w in self.words), states, lifts)

    @property
    def flat(self) -> tuple:
        """(summand, root, position at the root) of every state, as integer
        arrays in state order."""
        if self._flat is None:
            j = np.array([s[0] for s in self.states], dtype=np.int64)
            z = np.array([s[1] for s in self.states], dtype=np.int64)
            order = np.argsort(z, kind="stable")
            n = np.bincount(z)
            pos = np.empty_like(z)
            pos[order] = np.arange(len(z)) - np.repeat(np.cumsum(n) - n, n)
            self._flat = j, z, pos
        return self._flat

    @property
    def starts(self) -> dict:
        if self._starts is None:
            starts = {}
            for z, trees in self.by_root.items():
                first = [0] * (len(self.words) + 1)
                for j, _tree in trees:
                    first[j + 1] += 1
                for j in range(len(self.words)):
                    first[j + 1] += first[j]
                starts[z] = first
            self._starts = starts
        return self._starts


class SumObject:
    """Ordered direct sum of tensor words.

    Tags give summands stable identities (for example ``(x, slot)``) so
    callers can address blocks without tracking positions by hand.
    """

    __slots__ = ("engine", "summands", "tags", "_pos", "_stacks")

    def __init__(self, engine: Engine, summands, tags=None):
        self.engine = engine
        self.summands = tuple(tuple(w) for w in summands)
        self.tags = tuple(tags) if tags is not None else tuple(range(len(self.summands)))
        if len(self.tags) != len(self.summands):
            raise ShapeError("one tag per summand required")
        self._pos = {t: i for i, t in enumerate(self.tags)}
        if len(self._pos) != len(self.tags):
            raise ShapeError("summand tags must be distinct")
        self._stacks: dict = {}

    def __len__(self) -> int:
        return len(self.summands)

    def index(self, tag) -> int:
        return self._pos[tag]

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

    def stacked(self, left: Word = (), right: Word = ()) -> StackedBasis:
        """Stacked comb basis of the words left + w + right over the summands
        w, kept.  The letters of ``right`` are grown one at a time, and left
        + w takes the engine's basis of that word.  The library adds at most
        one letter and counts positions on longer words off those stacks."""
        key = (left, right)
        sb = self._stacks.get(key)
        if sb is None:
            if right:
                sb = self.stacked(left, right[:-1]).extended(self.engine.ring, right[-1])
            else:
                sb = StackedBasis.of(self.engine, [left + w for w in self.summands])
            self._stacks[key] = sb
        return sb

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
    (StackedBasis.lifts gives such keys for f ⊗ id_x)."""
    out = np.zeros((M.shape[0], n), dtype=complex)
    for key, C in src.items():
        if key in dst and key[0] in F:
            out[:, C] = M[:, dst[key]] @ F[key[0]]
    return out
