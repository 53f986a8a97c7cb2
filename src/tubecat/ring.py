"""Fusion rings and quantum dimensions.

A fusion ring here is the combinatorial skeleton of a fusion category: a
finite label set with a distinguished unit, a dual involution, and
non-negative integer structure constants N[x,y,z] counting the fusion
channels x ⊗ y → z.  Everything in this module is exact integer arithmetic
except the Perron–Frobenius dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConsistencyError

__all__ = ["FusionRing", "QuantumDimensions", "compute_fp_dims"]

DIM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Label set, unit, dual involution and fusion multiplicities.

    Labels are kept as strings in file order; all internal computation uses
    their integer positions.  ``N`` has shape (r, r, r) with
    ``N[x, y, z] = dim Hom(z, x ⊗ y)``.
    """

    labels: tuple[str, ...]
    unit: int
    dual: tuple[int, ...]
    N: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "N", np.ascontiguousarray(self.N, dtype=np.int64))
        self.N.setflags(write=False)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def channels(self) -> tuple:
        """``channels[x][y]`` maps each z in x ⊗ y, ascending, to N[x, y, z]
        as a Python int: the table the tree bookkeeping reads instead of
        indexing ``N`` one numpy scalar at a time.  Read-only by convention."""
        N = self.N.tolist()
        return tuple(tuple({z: n for z, n in enumerate(row) if n} for row in plane)
                     for plane in N)

    def validate(self) -> None:
        """Check the ring axioms exactly; raise ConsistencyError on failure."""
        r = self.rank
        N = self.N
        if N.shape != (r, r, r):
            raise ConsistencyError(f"N has shape {N.shape}, expected {(r, r, r)}")
        if np.any(N < 0):
            raise ConsistencyError("negative fusion multiplicity")
        e = self.unit
        if not np.array_equal(N[e], np.eye(r, dtype=np.int64)):
            raise ConsistencyError("left unit law fails")
        if not np.array_equal(N[:, e, :], np.eye(r, dtype=np.int64)):
            raise ConsistencyError("right unit law fails")
        # associativity: sum_u N[x,y,u] N[u,z,w] == sum_v N[y,z,v] N[x,v,w]
        lhs = np.einsum("xyu,uzw->xyzw", N, N)
        rhs = np.einsum("yzv,xvw->xyzw", N, N)
        if not np.array_equal(lhs, rhs):
            raise ConsistencyError("fusion ring is not associative")
        dual = np.asarray(self.dual)
        if sorted(dual.tolist()) != list(range(r)):
            raise ConsistencyError("dual map is not a permutation")
        if not np.array_equal(dual[dual], np.arange(r)):
            raise ConsistencyError("dual map is not an involution")
        for x in range(r):
            for y in range(r):
                if N[x, y, e] != (1 if dual[x] == y else 0):
                    raise ConsistencyError(
                        f"N[{self.labels[x]},{self.labels[y]},unit] incompatible "
                        "with duality")
        # N_{x,y}^z = N_{ȳ,x̄}^z̄
        if not np.array_equal(N, N[dual][:, dual][:, :, dual].transpose(1, 0, 2)):
            raise ConsistencyError("fusion multiplicities not dual-symmetric")


@dataclass(frozen=True, eq=False)
class QuantumDimensions:
    """Perron–Frobenius dimension of every label plus the global dimension."""

    d: np.ndarray
    global_dim: float

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64))
        self.d.setflags(write=False)


def compute_fp_dims(ring: FusionRing) -> QuantumDimensions:
    """Perron–Frobenius dimensions of a fusion ring.

    d[x] is the largest real eigenvalue of the fusion matrix
    (N[x, y, z])_{y,z}.  The resulting vector must be the (unique) positive
    ring homomorphism: d[unit] = 1, d[x] = d[x̄], and
    d[x]·d[y] = Σ_z N[x,y,z]·d[z].  Failure of any of these within 1e-8
    raises ConsistencyError, which also covers non-convergent or complex
    leading eigenvalues.
    """
    r = ring.rank
    d = np.empty(r)
    for x in range(r):
        evals = np.linalg.eigvals(ring.N[x].astype(np.float64))
        lead = evals[np.argmax(evals.real)]
        if abs(lead.imag) > DIM_TOL:
            raise ConsistencyError(
                f"leading eigenvalue of N_{ring.labels[x]} is not real: {lead}")
        d[x] = lead.real
        if d[x] < 1.0 - DIM_TOL:
            raise ConsistencyError(
                f"d[{ring.labels[x]}] = {d[x]} < 1")
    if abs(d[ring.unit] - 1.0) > DIM_TOL:
        raise ConsistencyError("d[unit] != 1")
    dual = np.asarray(ring.dual)
    if np.max(np.abs(d - d[dual])) > DIM_TOL:
        raise ConsistencyError("d[x] != d[dual x]")
    hom = np.einsum("xyz,z->xy", ring.N.astype(np.float64), d)
    if np.max(np.abs(hom - np.outer(d, d))) > DIM_TOL:
        raise ConsistencyError("PF dimensions do not define a ring homomorphism")
    return QuantumDimensions(d=d, global_dim=float(np.sum(d * d)))
