"""Associator data (F-symbols) for a fusion ring.

Convention (isometry gauge): with orthonormal splitting vertices, the
rebracketing of Hom(d, a ⊗ b ⊗ c) reads

    (split_mu: e -> ab  ⊗ id_c) ∘ split_nu: d -> ec
        = Σ_{f,rho,sigma} F[a,b,c,d][(e,mu,nu),(f,rho,sigma)]
              (id_a ⊗ split_rho: f -> bc) ∘ split_sigma: d -> af

so rows are indexed by the left-comb channel (e, mu ∈ N[a,b,e],
nu ∈ N[e,c,d]) and columns by the right-comb channel (f, rho ∈ N[b,c,f],
sigma ∈ N[a,f,d]).  Every block must be unitary.  Blocks with a, b or c equal
to the unit are the canonical identity: a category file leaves them out and
the loader writes them in.

The stored form is one flat entry table: every entry of every admissible
block once, blocks in (a,b,c,d) order and each row-major, keyed by its row
vertex pair (a,b,e,mu), (e,c,d,nu) and column pair (b,c,f,rho),
(a,f,d,sigma).  Its index part comes from N alone; the loader scatters the
file's entries into its values.  The checks, the tube tables and Δ read it
(``FSymbolTable.split``, ``.table``); the dense blocks of the diagram
engine are read-only views of it, made on the first ``block`` call.
"""
from __future__ import annotations

from functools import cached_property

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
    more code on its first call in a process (tests/test_imports.py keeps
    np.unique out of the package)."""
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


def _index(N) -> tuple:
    """The table's index part, from N alone: ((x, y, z, μ), rv, rw, cv, cw,
    codes, n).  The vertices of N with their μ (vertices), then per entry,
    blocks in (a,b,c,d) order and each row-major, its row vertices
    (a,b,e,μ), (e,c,d,ν) and column vertices (b,c,f,ρ), (a,f,d,σ), then
    each block's code ((a·r + b)·r + c)·r + d, ascending, and its size."""
    r = len(N)
    x, y, z, mu = vertices(N)
    v, w = join(x, z)  # rows (a,b,e,mu), (e,c,d,nu)
    block = ((x[v] * r + y[v]) * r + y[w]) * r + z[w]
    order = np.argsort(block, kind="stable")
    rv, rw, block = v[order], w[order], block[order]
    by_y = np.argsort(y, kind="stable")
    v, w = join(y[by_y], z)  # columns (b,c,f,rho), (a,f,d,sigma)
    w = by_y[w]
    order = np.argsort(((x[w] * r + x[v]) * r + y[v]) * r + z[w], kind="stable")
    cv, cw = v[order], w[order]
    start = np.flatnonzero(np.diff(block, prepend=-1))
    codes, n = block[start], np.diff(start, append=len(block))
    k = np.repeat(np.arange(len(codes)), n * n)
    i, j = np.divmod(np.arange(len(k)) - np.repeat(np.cumsum(n * n) - n * n, n * n), n[k])
    i, j = start[k] + i, start[k] + j
    return (x, y, z, mu), rv[i], rw[i], cv[j], cw[j], codes, n


class FSymbolTable:
    """F as one flat, read-only entry table (``split``, ``table``), with
    dense per-(a,b,c,d) views of it (``block``)."""

    def __init__(self, ring: FusionRing, blocks: dict):
        """The table of dense blocks, one per admissible (a,b,c,d).
        ConsistencyError for a block that is not square, or blocks that do
        not fit the fusion ring."""
        self._layout(ring)
        vals = []
        for key, n in zip(self._keys, self._n.tolist()):
            mat = blocks.get(key)
            if mat is not None:
                mat = np.asarray(mat)
                if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                    raise ConsistencyError(f"F block {key} is not square: {mat.shape}")
            if mat is None or len(mat) != n:
                raise ConsistencyError("F blocks do not fit the fusion ring")
            vals.append(mat.ravel())
        if len(blocks) != len(vals):
            raise ConsistencyError("F blocks do not fit the fusion ring")
        self._hold(np.concatenate(vals).astype(complex))

    def _layout(self, ring: FusionRing):
        self.ring = ring
        *self._pairs, self._codes, self._n = _index(ring.N)
        self._first = np.cumsum(self._n * self._n) - self._n * self._n
        # what other modules compute once from the table, by their key
        self.cache = {}

    def _hold(self, val: np.ndarray):
        (x, y, z, mu), rv, rw, cv, cw = self._pairs
        V = len(x)
        self.split = (x, y, z, mu), rv, rw, cv, cw, val
        self.table = x, y, z, rv * V + rw, cv * V + cw, val
        for part in (mu, rv, rw, cv, cw, *self.table):
            part.flags.writeable = False

    @cached_property
    def _keys(self) -> list:
        """(a, b, c, d) of each block, in table order."""
        labels = np.unravel_index(self._codes, (self.ring.rank,) * 4)
        return list(zip(*(t.tolist() for t in labels)))

    @classmethod
    def from_entries(cls, ring: FusionRing, entries: list[Entry]) -> "FSymbolTable":
        """The table of sparse entries, each written straight to its place.

        SchemaError for an entry off the admissible channels, a unit-tuple
        entry off the identity (a NaN is off it), or a missing admissible
        non-unit block (a zero block cannot be unitary); of the last two
        the first block in (a,b,c,d) order is named.
        """
        N, r = ring.N, ring.rank
        ent = np.array([(*abcd, e, f, *mu, *nu) for abcd, e, f, mu, nu, _val in entries],
                       dtype=np.int64).reshape(-1, 10)
        # an entry with e or f off the labels, or a negative μ or ν, reads as
        # all zeros below and is refused with the rest
        fine = (ent[:, 4:6] < r).all(axis=1) & (ent[:, 4:] >= 0).all(axis=1)
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
        F = cls.__new__(cls)
        F._layout(ring)
        codes, n, first = F._codes, F._n, F._first
        block = np.zeros(r ** 4, dtype=np.int64)
        block[codes] = np.arange(len(codes))
        block = block[((a * r + b) * r + c) * r + d]
        val = np.zeros(int(n @ n), dtype=complex)
        val[first[block] + row * n[block] + col] = [ent[5] for ent in entries]
        given = np.zeros(len(codes), dtype=bool)
        given[block] = True
        # tuples with a, b or c the unit hold the identity; a given entry
        # there must be its entry
        unit = (np.stack(np.unravel_index(codes, (r,) * 4)[:3]) == ring.unit).any(axis=0)
        eye = np.zeros(len(val), dtype=complex)
        i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        eye[np.repeat(first, n) + i * np.repeat(n + 1, n)] = 1
        k = np.repeat(np.arange(len(codes)), n * n)  # each value's block
        at = unit[k]
        off = np.zeros(len(codes), dtype=bool)
        off[k[at & ~(np.abs(val - eye) <= 1e-12)]] = True
        bad = np.flatnonzero(np.where(unit, given & off, ~given))
        if len(bad):
            key = F._keys[bad[0]]
            if unit[bad[0]]:
                raise SchemaError(f"unit-constrained F block {key} is not the identity")
            raise SchemaError(f"missing F block for admissible tuple {key}")
        F._hold(np.where(at, eye, val))
        return F

    def rows(self, a, b, c, d):
        return _channels(self.ring.N[a, b], self.ring.N[:, c, d])

    def cols(self, a, b, c, d):
        return _channels(self.ring.N[b, c], self.ring.N[a, :, d])

    def block(self, a, b, c, d) -> np.ndarray:
        """The (a,b,c,d) block as a read-only view of the table."""
        return self._blocks[(a, b, c, d)]

    @cached_property
    def _blocks(self) -> dict:
        val = self.split[-1]
        return {key: val[s:s + m * m].reshape(m, m)
                for key, s, m in zip(self._keys, self._first.tolist(), self._n.tolist())}

    def check_unitary(self, tol: float = 1e-10) -> float:
        """Max unitarity defect over all blocks, stacked by size; raises
        above tol."""
        val, defects = self.split[-1], []
        for n in sorted(set(self._n.tolist())):
            first = self._first[self._n == n]
            s = val[first[:, None] + np.arange(n * n)].reshape(-1, n, n)
            defects.append(float(np.max(np.abs(s.conj().transpose(0, 2, 1) @ s - np.eye(n)))))
        top = worst(defects)
        if not top <= tol:
            raise ConsistencyError(f"F blocks fail unitarity at {top:.3e}")
        return top

    def iter_entries(self):
        """Yield sparse entries of non-unit blocks (loader inverse): every
        nonzero entry, in table order."""
        (x, y, z, mu), rv, rw, cv, cw, val = self.split
        u = self.ring.unit
        keep = np.flatnonzero((val != 0) & (x[rv] != u) & (y[rv] != u) & (y[rw] != u))
        fields = (x[rv], y[rv], y[rw], z[rw], z[rv], z[cv], mu[rv], mu[rw], mu[cv], mu[cw])
        for a, b, c, d, e, f, m1, m2, n1, n2, v in zip(
                *(t[keep].tolist() for t in fields), val[keep].tolist()):
            yield (a, b, c, d), e, f, (m1, m2), (n1, n2), v
