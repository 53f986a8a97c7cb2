"""Associator data (F-symbols) for a fusion ring.

Convention (isometry gauge): with orthonormal splitting vertices, the
rebracketing of Hom(d, a ⊗ b ⊗ c) reads

    (split_mu: e -> ab  ⊗ id_c) ∘ split_nu: d -> ec
        = Σ_{f,rho,sigma} F[a,b,c,d][(e,mu,nu),(f,rho,sigma)]
              (id_a ⊗ split_rho: f -> bc) ∘ split_sigma: d -> af

so rows are indexed by the left-comb channel (e, mu ∈ N[a,b,e],
nu ∈ N[e,c,d]) and columns by the right-comb channel (f, rho ∈ N[b,c,f],
sigma ∈ N[a,f,d]).  Every block must be unitary.  Blocks with a, b or c equal
to the unit are the canonical identity and are synthesized, not stored.
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, SchemaError, worst
from .ring import FusionRing

__all__ = ["FSymbolTable"]

# entry format used by the loader: ((a,b,c,d), e, f, (mu1,mu2), (nu1,nu2), value)
Entry = tuple[tuple[int, int, int, int], int, int, tuple[int, int], tuple[int, int], complex]


def _rows(ring: FusionRing, a: int, b: int, c: int, d: int):
    out = []
    for e in range(ring.rank):
        for m1 in range(ring.N[a, b, e]):
            for m2 in range(ring.N[e, c, d]):
                out.append((e, m1, m2))
    return out


def _cols(ring: FusionRing, a: int, b: int, c: int, d: int):
    out = []
    for f in range(ring.rank):
        for n1 in range(ring.N[b, c, f]):
            for n2 in range(ring.N[a, f, d]):
                out.append((f, n1, n2))
    return out


class FSymbolTable:
    """Dense per-(a,b,c,d) associator blocks with index bookkeeping."""

    def __init__(self, ring: FusionRing, blocks: dict, convention: str = "isometry"):
        self.ring = ring
        self.convention = convention
        self._blocks = blocks          # (a,b,c,d) -> ndarray
        self._rows_cache: dict = {}
        self._cols_cache: dict = {}

    @classmethod
    def from_entries(cls, ring: FusionRing, entries: list[Entry],
                     convention: str = "isometry") -> "FSymbolTable":
        """Assemble dense blocks from sparse entries.

        Unknown labels/indices or entries on unit-containing tuples that
        disagree with the identity raise SchemaError; a fully missing
        admissible non-unit block does too (zero blocks cannot be unitary, so
        silence would only defer the error to a worse place).
        """
        unit = ring.unit
        staged: dict = {}
        for (abcd, e, f, mu, nu, val) in entries:
            a, b, c, d = abcd
            rows = _rows(ring, a, b, c, d)
            cols = _cols(ring, a, b, c, d)
            key_r = (e, mu[0], mu[1])
            key_c = (f, nu[0], nu[1])
            if key_r not in rows or key_c not in cols:
                raise SchemaError(
                    f"F entry {abcd} e={e} f={f} mu={mu} nu={nu} is not an "
                    "admissible channel")
            mat = staged.setdefault((a, b, c, d),
                                    np.zeros((len(rows), len(cols)), dtype=complex))
            mat[rows.index(key_r), cols.index(key_c)] = val
        blocks: dict = {}
        for a in range(ring.rank):
            for b in range(ring.rank):
                for c in range(ring.rank):
                    for d in range(ring.rank):
                        rows = _rows(ring, a, b, c, d)
                        if not rows:
                            if (a, b, c, d) in staged:
                                raise SchemaError(
                                    f"F entries given for inadmissible tuple {(a, b, c, d)}")
                            continue
                        if unit in (a, b, c):
                            ident = np.eye(len(rows), dtype=complex)
                            got = staged.pop((a, b, c, d), None)
                            if got is not None and np.max(np.abs(got - ident)) > 1e-12:
                                raise SchemaError(
                                    f"unit-constrained F block {(a, b, c, d)} is not the identity")
                            blocks[(a, b, c, d)] = ident
                        else:
                            got = staged.pop((a, b, c, d), None)
                            if got is None:
                                raise SchemaError(
                                    f"missing F block for admissible tuple {(a, b, c, d)}")
                            blocks[(a, b, c, d)] = got
        return cls(ring, blocks, convention)

    def rows(self, a, b, c, d):
        key = (a, b, c, d)
        if key not in self._rows_cache:
            self._rows_cache[key] = _rows(self.ring, *key)
        return self._rows_cache[key]

    def cols(self, a, b, c, d):
        key = (a, b, c, d)
        if key not in self._cols_cache:
            self._cols_cache[key] = _cols(self.ring, *key)
        return self._cols_cache[key]

    def block(self, a, b, c, d) -> np.ndarray:
        return self._blocks[(a, b, c, d)]

    def has_block(self, a, b, c, d) -> bool:
        return (a, b, c, d) in self._blocks

    def check_unitary(self, tol: float = 1e-10) -> float:
        """Max unitarity defect over all blocks; raises above tol."""
        defects = []
        for key, mat in self._blocks.items():
            n, m = mat.shape
            if n != m:
                raise ConsistencyError(f"F block {key} is not square: {mat.shape}")
            defects.append(float(np.max(np.abs(mat.conj().T @ mat - np.eye(n)))))
        top = worst(defects)
        if not top <= tol:
            raise ConsistencyError(f"F blocks fail unitarity at {top:.3e}")
        return top

    def iter_entries(self):
        """Yield sparse entries of non-unit blocks (loader inverse)."""
        unit = self.ring.unit
        for (a, b, c, d), mat in sorted(self._blocks.items()):
            if unit in (a, b, c):
                continue
            rows = self.rows(a, b, c, d)
            cols = self.cols(a, b, c, d)
            for i, (e, m1, m2) in enumerate(rows):
                for j, (f, n1, n2) in enumerate(cols):
                    if mat[i, j] != 0:
                        yield ((a, b, c, d), e, f, (m1, m2), (n1, n2), complex(mat[i, j]))
