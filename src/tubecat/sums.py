"""Direct sums of tensor words, and morphisms between them in block form.

The core engine only speaks single tensor words.  Everything downstream
(the conjugation-closure object, tube-algebra components, extracted center
objects) lives on finite direct sums of words, so this module adds the
bookkeeping layer: a SumObject is an ordered tuple of summand words with
hashable tags, and a BlockMorphism stores the nonzero blocks of a linear map
between two sums, keyed by (target summand, source summand).  Missing blocks
are zero.  Composition is block matrix multiplication over the sparse dicts.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, worst
from .morphism import Engine, Morphism
from .trees import Word

__all__ = ["SumObject", "BlockMorphism", "block_trace"]


class SumObject:
    """Ordered direct sum of tensor words.

    Tags give summands stable identities (for example ``(x, slot)``) so
    callers can address blocks without tracking positions by hand.
    """

    __slots__ = ("engine", "summands", "tags", "_pos")

    def __init__(self, engine: Engine, summands, tags=None):
        self.engine = engine
        self.summands = tuple(tuple(w) for w in summands)
        self.tags = tuple(tags) if tags is not None else tuple(range(len(self.summands)))
        if len(self.tags) != len(self.summands):
            raise ShapeError("one tag per summand required")
        self._pos = {t: i for i, t in enumerate(self.tags)}
        if len(self._pos) != len(self.tags):
            raise ShapeError("summand tags must be distinct")

    def __len__(self) -> int:
        return len(self.summands)

    def index(self, tag) -> int:
        return self._pos[tag]

    def word(self, i: int) -> Word:
        return self.summands[i]

    def tensor_right(self, word: Word) -> "SumObject":
        word = tuple(word)
        return SumObject(self.engine, [w + word for w in self.summands], self.tags)

    def tensor_left(self, word: Word) -> "SumObject":
        word = tuple(word)
        return SumObject(self.engine, [word + w for w in self.summands], self.tags)

    def same_words(self, other: "SumObject") -> bool:
        return self.summands == other.summands

    def __repr__(self):
        labs = self.engine.spec.labels
        parts = ["".join(labs[i] for i in w) or "1" for w in self.summands]
        return "<SumObject " + " + ".join(parts) + ">"


class BlockMorphism:
    """Map between two SumObjects, stored as sparse blocks.

    ``blocks[(i, j)]`` is a Morphism from ``src.summands[j]`` to
    ``dst.summands[i]``.  Absent keys mean zero.  All arithmetic keeps the
    dict sparse; norms use the same max-abs convention as Morphism.
    """

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src: SumObject, dst: SumObject, blocks: dict):
        self.src = src
        self.dst = dst
        for (i, j), m in blocks.items():
            if m.src != src.summands[j] or m.dst != dst.summands[i]:
                raise ShapeError(
                    f"block ({i},{j}) is {m.src}->{m.dst}, expected "
                    f"{src.summands[j]}->{dst.summands[i]}")
        self.blocks = dict(blocks)

    # ---- access -------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self.src.engine

    def block(self, i: int, j: int) -> Morphism:
        m = self.blocks.get((i, j))
        if m is None:
            m = self.engine.zero(self.src.summands[j], self.dst.summands[i])
        return m

    def norm(self) -> float:
        return worst(m.norm() for m in self.blocks.values())

    def close_to(self, other: "BlockMorphism", tol: float = 1e-9) -> bool:
        return (self - other).norm() < tol

    # ---- linear structure ----------------------------------------------------
    def _check_parallel(self, other: "BlockMorphism"):
        if not (self.src.same_words(other.src) and self.dst.same_words(other.dst)):
            raise ShapeError("block morphisms not parallel")

    def __add__(self, other: "BlockMorphism") -> "BlockMorphism":
        self._check_parallel(other)
        out = dict(self.blocks)
        for key, m in other.blocks.items():
            out[key] = out[key] + m if key in out else m
        return BlockMorphism(self.src, self.dst, out)

    def __sub__(self, other: "BlockMorphism") -> "BlockMorphism":
        return self + (other * (-1.0))

    def __mul__(self, a) -> "BlockMorphism":
        return BlockMorphism(self.src, self.dst,
                             {k: m * a for k, m in self.blocks.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "BlockMorphism":
        return self * (-1.0)

    # ---- categorical structure -----------------------------------------------
    def __matmul__(self, other: "BlockMorphism") -> "BlockMorphism":
        """self after other."""
        if not other.dst.same_words(self.src):
            raise ShapeError("cannot compose block morphisms: middle objects differ")
        by_mid: dict = {}
        for (j, k), g in other.blocks.items():
            by_mid.setdefault(j, []).append((k, g))
        out: dict = {}
        for (i, j), f in self.blocks.items():
            for k, g in by_mid.get(j, ()):
                term = f @ g
                key = (i, k)
                out[key] = out[key] + term if key in out else term
        return BlockMorphism(other.src, self.dst, out)

    def dag(self) -> "BlockMorphism":
        return BlockMorphism(self.dst, self.src,
                             {(j, i): m.dag() for (i, j), m in self.blocks.items()})

    def tensor_id_right(self, word: Word) -> "BlockMorphism":
        word = tuple(word)
        if not word:
            return self
        eng = self.engine
        return BlockMorphism(
            self.src.tensor_right(word), self.dst.tensor_right(word),
            {k: eng.tensor_id_right(m, word) for k, m in self.blocks.items()})

    def tensor_id_left(self, word: Word) -> "BlockMorphism":
        word = tuple(word)
        if not word:
            return self
        eng = self.engine
        return BlockMorphism(
            self.src.tensor_left(word), self.dst.tensor_left(word),
            {k: eng.tensor_id_left(word, m) for k, m in self.blocks.items()})

    def channel_rows(self, c: int, mu: int) -> "BlockMorphism":
        """(ι† ⊗ id) ∘ self block by block (Engine.channel_rows), for a map
        into summands that all begin with the same pair (a, b): each target
        summand (a, b) + W becomes (c,) + W."""
        eng = self.engine
        if len({w[:2] for w in self.dst.summands}) > 1:
            raise ShapeError("channel rows need one leading pair on every summand")
        dst = SumObject(eng, [(c,) + w[2:] for w in self.dst.summands], self.dst.tags)
        return BlockMorphism(self.src, dst, {k: eng.channel_rows(m, c, mu)
                                             for k, m in self.blocks.items()})

    # ---- constructors ---------------------------------------------------------
    @staticmethod
    def identity(obj: SumObject) -> "BlockMorphism":
        eng = obj.engine
        return BlockMorphism(obj, obj, {(i, i): eng.identity(w)
                                        for i, w in enumerate(obj.summands)})

    @staticmethod
    def zero(src: SumObject, dst: SumObject) -> "BlockMorphism":
        return BlockMorphism(src, dst, {})

    def __repr__(self):
        return (f"<BlockMorphism {len(self.src)}x{len(self.dst)} summands, "
                f"{len(self.blocks)} blocks, norm={self.norm():.3g}>")


def block_trace(f: BlockMorphism) -> complex:
    """Sum of diagonal-block quantum traces; the loop trace of an endomorphism."""
    from .duality import weighted_trace

    if not f.src.same_words(f.dst):
        raise ShapeError("trace needs an endomorphism")
    total = 0.0 + 0.0j
    for (i, j), m in f.blocks.items():
        if i == j:
            total += weighted_trace(m)
    return total

