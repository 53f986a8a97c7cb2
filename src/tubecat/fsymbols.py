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

Checks read the blocks through ``FSymbolTable.table``: every entry once, keyed
by its row vertex pair (a,b,e,mu), (e,c,d,nu) and column pair (b,c,f,rho),
(a,f,d,sigma).
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, SchemaError, worst
from .ring import FusionRing

__all__ = ["FSymbolTable"]

# entry format used by the loader: ((a,b,c,d), e, f, (mu1,mu2), (nu1,nu2), value)
Entry = tuple[tuple[int, int, int, int], int, int, tuple[int, int], tuple[int, int], complex]


def _channels(X, Y):
    """Channels (e, i < X[e], j < Y[e]) in ascending order."""
    return [(e, i, j) for e, (n, m) in enumerate(zip(X, Y)) for i in range(n) for j in range(m)]


def join(keys, queries):
    """(query, position) for every position of the sorted array keys that
    holds queries[query], in query, then position, order."""
    lo = np.searchsorted(keys, queries)
    cnt = np.searchsorted(keys, queries, side="right") - lo
    q = np.repeat(np.arange(len(queries)), cnt)
    return q, np.arange(len(q)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)


def group(keys):
    """(slot, distinct): each key's position among the distinct keys, and
    those keys ascending.  A stable sort, as np.unique's quicksort pages in
    more code."""
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(new) - 1
    return slot, keys[order][new]


def join_unsorted(keys, queries):
    """join against unsorted keys: (query, position of the key)."""
    order = np.argsort(keys, kind="stable")
    q, p = join(keys[order], queries)
    return q, order[p]


def add_per(slot, val, size: int):
    """The complex values val added per slot, each slot's in their order."""
    return np.bincount(slot, val.real, size) + 1j * np.bincount(slot, val.imag, size)


def vertices(counts):
    """(*index, slot): every index of the count array, in C order, once per
    slot below its count, as vertices (x, y, z) of N come with their μ."""
    idx = np.nonzero(counts)
    n = counts[idx]
    return (*(np.repeat(i, n) for i in idx), np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))


def _entry_table(ring: FusionRing, blocks: dict):
    N, r = ring.N, ring.rank
    x, y, z = np.nonzero(N)
    n = N[x, y, z]
    x, y, z = np.repeat(x, n), np.repeat(y, n), np.repeat(z, n)
    V = len(x)
    v, w = join(x, z)  # rows (a,b,e,mu), (e,c,d,nu)
    block = ((x[v] * r + y[v]) * r + y[w]) * r + z[w]
    order = np.argsort(block, kind="stable")
    rows, block = (v * V + w)[order], block[order]
    by_y = np.argsort(y, kind="stable")
    v, w = join(y[by_y], z)  # columns (b,c,f,rho), (a,f,d,sigma)
    w = by_y[w]
    cols = (v * V + w)[np.argsort(((x[w] * r + x[v]) * r + y[v]) * r + z[w], kind="stable")]
    start = np.flatnonzero(np.diff(block, prepend=-1))
    keys, n = block[start], np.diff(start, append=len(block))
    k = np.repeat(np.arange(len(keys)), n * n)
    i, j = np.divmod(np.arange(len(k)) - np.repeat(np.cumsum(n * n) - n * n, n * n), n[k])
    labels = (t.tolist() for t in np.unravel_index(keys, (r,) * 4))
    val = np.concatenate([blocks[key].ravel() for key in zip(*labels)])
    if len(val) != len(k):
        raise ConsistencyError("F blocks do not fit the fusion ring")
    return x, y, z, rows[start[k] + i], cols[start[k] + j], val.astype(complex)


class FSymbolTable:
    """Dense per-(a,b,c,d) associator blocks with index bookkeeping."""

    def __init__(self, ring: FusionRing, blocks: dict):
        self.ring = ring
        self._blocks = blocks          # (a,b,c,d) -> ndarray
        self._table = None

    @classmethod
    def from_entries(cls, ring: FusionRing, entries: list[Entry]) -> "FSymbolTable":
        """Assemble dense blocks from sparse entries.

        SchemaError for an entry off the admissible channels, a unit-tuple
        entry off the identity (a NaN is off it), or a missing admissible
        non-unit block (a zero block cannot be unitary).
        """
        N = ring.N
        ent = np.array([(*abcd, e, f, *mu, *nu) for abcd, e, f, mu, nu, _val in entries],
                       dtype=np.int64).reshape(-1, 10)
        # an entry with e or f off the labels, or a negative μ or ν, reads as
        # all zeros below and is refused with the rest
        fine = (ent[:, 4:6] < ring.rank).all(axis=1) & (ent[:, 4:] >= 0).all(axis=1)
        a, b, c, d, e, f, m1, m2, n1, n2 = np.where(fine, ent.T, 0)
        ok = fine & (m1 < N[a, b, e]) & (m2 < N[e, c, d]) & (n1 < N[b, c, f]) & (n2 < N[a, f, d])
        if not ok.all():
            abcd, e, f, mu, nu, _val = entries[int(np.argmin(ok))]
            raise SchemaError(
                f"F entry {abcd} e={e} f={f} mu={mu} nu={nu} is not an "
                "admissible channel")
        # row (e, μ1, μ2) follows the N[a,b,e']·N[e',c,d] rows of every e' < e,
        # column (f, ν1, ν2) the N[b,c,f']·N[a,f',d] columns of every f' < f
        k = np.arange(len(ent))
        per_e, per_f = N[a, b] * N[:, c, d].T, N[b, c] * N[a, :, d]
        row = np.cumsum(per_e, axis=1)[k, e] - per_e[k, e] + m1 * N[e, c, d] + m2
        col = np.cumsum(per_f, axis=1)[k, f] - per_f[k, f] + n1 * N[a, f, d] + n2
        size = np.einsum("abe,ecd->abcd", N, N)
        staged: dict = {}
        for (abcd, *_labels, val), i, j in zip(entries, row.tolist(), col.tolist()):
            key = tuple(abcd)
            staged.setdefault(key, np.zeros((size[key],) * 2, dtype=complex))[i, j] = val
        # admissible tuples: block size Σ_e N[a,b,e]·N[e,c,d] > 0
        blocks: dict = {}
        for key, n in zip(map(tuple, np.argwhere(size).tolist()), size[size > 0].tolist()):
            got = staged.get(key)
            if ring.unit in key[:3]:
                blocks[key] = ident = np.eye(n, dtype=complex)
                if got is not None and not np.max(np.abs(got - ident)) <= 1e-12:
                    raise SchemaError(f"unit-constrained F block {key} is not the identity")
            elif got is None:
                raise SchemaError(f"missing F block for admissible tuple {key}")
            else:
                blocks[key] = got
        return cls(ring, blocks)

    @property
    def table(self):
        """(x, y, z, row, col, val), built lazily: vertex v = (x[v], y[v],
        z[v], μ) in that order, pair (v, w) = v·V + w, blocks in (a,b,c,d)
        order, row-major."""
        if self._table is None:
            self._table = _entry_table(self.ring, self._blocks)
        return self._table

    def rows(self, a, b, c, d):
        return _channels(self.ring.N[a, b], self.ring.N[:, c, d])

    def cols(self, a, b, c, d):
        return _channels(self.ring.N[b, c], self.ring.N[a, :, d])

    def block(self, a, b, c, d) -> np.ndarray:
        return self._blocks[(a, b, c, d)]

    def check_unitary(self, tol: float = 1e-10) -> float:
        """Max unitarity defect over all blocks, stacked by size; raises
        above tol."""
        by_size: dict = {}
        for key, mat in self._blocks.items():
            n, m = mat.shape
            if n != m:
                raise ConsistencyError(f"F block {key} is not square: {mat.shape}")
            by_size.setdefault(n, []).append(mat)
        top = worst(float(np.max(np.abs(s.conj().transpose(0, 2, 1) @ s - np.eye(n))))
                    for n, s in zip(by_size, map(np.stack, by_size.values())))
        if not top <= tol:
            raise ConsistencyError(f"F blocks fail unitarity at {top:.3e}")
        return top

    def iter_entries(self):
        """Yield sparse entries of non-unit blocks (loader inverse)."""
        for key, mat in sorted(self._blocks.items()):
            if self.ring.unit not in key[:3]:
                rows, cols = self.rows(*key), self.cols(*key)
                for i, j in zip(*np.nonzero(mat)):
                    (e, m1, m2), (f, n1, n2) = rows[i], cols[j]
                    yield key, e, f, (m1, m2), (n1, n2), complex(mat[i, j])
