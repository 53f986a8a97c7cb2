"""Matched splitting/fusing vertex pairs at an admissible triple.

For labels (x, y, z) with N_{x,y}^z > 0 the pair holds, per multiplicity
slot i, an isometric splitting vertex and its weighted reverse:

    split_i : z -> x (x) y          (the i-th orthonormal tree vertex)
    fuse_i  = split_i^dagger / d_z  : x (x) y -> z

so that fuse_j . split_i = delta_ij id_z / d_z, the normalization every
rewriting identity downstream leans on.  The pair also carries the weight
sqrt(d_x d_y d_z) that accompanies it whenever both members appear in one
diagram.

The tree basis is already orthonormal for the trace pairing, so a
Gram-Schmidt pass would be the identity map; instead of running one we
expose the deviation as ``defect()`` and test it.
"""
from __future__ import annotations

import math

from .errors import EmptySpace, worst
from .morphism import Engine, cached, engine_for

__all__ = ["VertexPair", "canonical_pair"]


class VertexPair:
    __slots__ = ("engine", "x", "y", "z", "n", "scalar", "splits", "fuses")

    def __init__(self, engine: Engine, x: int, y: int, z: int):
        n = int(engine.ring.N[x, y, z])
        if n == 0:
            labs = engine.spec.labels
            raise EmptySpace(
                f"no fusion channel {labs[x]} (x) {labs[y]} -> {labs[z]}")
        self.engine = engine
        self.x, self.y, self.z, self.n = x, y, z, n
        d = engine.d
        self.scalar = math.sqrt(d[x] * d[y] * d[z])
        # the trees of (x, y) at z are its n vertices, one column each
        self.splits = engine.hom_basis((z,), (x, y))
        inv = 1.0 / d[z]
        self.fuses = [s.dag() * inv for s in self.splits]

    def defect(self) -> float:
        """max_ij | fuse_j . split_i - delta_ij id_z / d_z |."""
        eng = self.engine
        eye = eng.identity((self.z,))
        inv = 1.0 / eng.d[self.z]
        return worst((f @ s - eye * (inv if i == j else 0.0)).norm()
                     for i, s in enumerate(self.splits)
                     for j, f in enumerate(self.fuses))

    def __repr__(self):
        labs = self.engine.spec.labels
        return (f"<VertexPair {labs[self.x]},{labs[self.y]}->{labs[self.z]} "
                f"n={self.n}>")


def canonical_pair(spec_or_engine, x, y, z) -> VertexPair:
    eng = engine_for(spec_or_engine)
    x, y, z = (eng.spec.index(i) if isinstance(i, str) else int(i)
               for i in (x, y, z))
    return cached(eng.cache, ("pair", x, y, z), lambda: VertexPair(eng, x, y, z))
