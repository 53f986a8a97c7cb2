"""Morphisms between tensor words, and the engine that computes with them.

A morphism A -> B between words is stored per simple root z as the matrix of
coefficients M_z[s, t] in

    f = sum_z sum_{s,t} M_z[s, t] . T_s . T_t^dagger

where T_t runs over the left-comb splitting trees of A rooted at z and T_s
over those of B (all trees orthonormal isometries).  Composition is then a
per-root matmul and dagger a per-root conjugate transpose.

Tensoring with the identity on the RIGHT is index bookkeeping: a comb for
A + W is a comb for A continued by an extension, and the extension rides
along unchanged.  Tensoring on the LEFT is where the associator enters: the
basis change between "comb of (c,)+W" and "id_c (x) comb of W" is a unitary
built recursively from conjugated F blocks (one letter at a time).
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ShapeError, worst
from .trees import TreeBasis, Word, tree_root

__all__ = ["Linear", "Morphism", "Engine", "engine_for", "cached"]


def cached(store: dict, key: tuple, make):
    """store[key], made on first use.  With an engine's cache as the store:
    pieces that depend only on labels, shared by every call on the
    engine's category."""
    out = store.get(key)
    if out is None:
        out = store[key] = make()
    return out


class Linear:
    """The vector-space operations of Morphism and TubeElement, done once
    over keyed arrays: each class lists them (``_items``: by default its
    ``blocks``, arrays per root; TubeElement's one coefficient vector),
    rebuilds itself from a dict of them (``_like``) and checks that two are
    parallel (``_check_parallel``)."""

    __slots__ = ()

    def _items(self):
        return self.blocks.items()

    def __add__(self, other):
        """Sparse union of the parts, in this operand's key order."""
        self._check_parallel(other)
        out = dict(self._items())
        for k, p in other._items():
            out[k] = out[k] + p if k in out else p
        return self._like(out)

    def __mul__(self, a):
        a = complex(a)
        return self._like({k: p * a for k, p in self._items()})

    def norm(self) -> float:
        """Max-abs coefficient, NaN if any part holds one; residuals
        throughout are stated in this norm."""
        return worst(float(np.max(np.abs(p), initial=0.0)) for _k, p in self._items())

    def __sub__(self, other):
        return self + other * (-1.0)

    def __rmul__(self, a):
        return self * a

    def __neg__(self):
        return self * (-1.0)

    def close_to(self, other, tol: float = 1e-9) -> bool:
        return (self - other).norm() < tol


class Morphism(Linear):
    __slots__ = ("engine", "src", "dst", "blocks")

    def __init__(self, engine: "Engine", src: Word, dst: Word, blocks: dict):
        self.engine = engine
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.blocks = blocks  # root z -> ndarray (dim_dst(z), dim_src(z))

    # ---- helpers ----------------------------------------------------------
    def block(self, z: int) -> np.ndarray:
        return self.blocks[z]

    def scalar(self) -> complex:
        if self.src or self.dst:
            raise ShapeError(f"not an endomorphism of the unit: {self.src} -> {self.dst}")
        unit = self.engine.ring.unit
        blk = self.blocks.get(unit)
        return complex(blk[0, 0]) if blk is not None and blk.size else 0.0

    def coeffs(self) -> np.ndarray:
        """Flatten per root, roots sorted, each block row-major (target tree,
        then source tree): the order of Engine.hom_basis."""
        if not self.blocks:
            return np.zeros(0, dtype=complex)
        return np.concatenate([self.blocks[z].ravel()
                               for z in sorted(self.blocks)])

    # ---- linear structure --------------------------------------------------
    def _like(self, blocks: dict) -> "Morphism":
        return Morphism(self.engine, self.src, self.dst, blocks)

    def _check_parallel(self, other: "Morphism"):
        if other.engine is not self.engine:
            raise ShapeError("morphisms of different categories")
        if self.src != other.src or self.dst != other.dst:
            raise ShapeError(f"shape mismatch: {self.src}->{self.dst} vs "
                             f"{other.src}->{other.dst}")

    # ---- categorical structure ---------------------------------------------
    def __matmul__(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.dst != self.src:
            raise ShapeError(f"cannot compose {other.src}->{other.dst} "
                             f"then {self.src}->{self.dst}")
        eng = self.engine
        mids = eng.basis(self.src).dims
        out = {}
        for z, dd, sd in eng.common_roots(other.src, self.dst):
            if mids.get(z, 0) and z in self.blocks and z in other.blocks:
                out[z] = self.blocks[z] @ other.blocks[z]
            else:
                out[z] = np.zeros((dd, sd), dtype=complex)
        return Morphism(eng, other.src, self.dst, out)

    def dag(self) -> "Morphism":
        return Morphism(self.engine, self.dst, self.src,
                        {z: b.conj().T for z, b in self.blocks.items()})

    def tensor(self, other: "Morphism") -> "Morphism":
        # (f x g) = (id_B x g) . (f x id_C)  for f: A->B, g: C->D
        step1 = self.engine.tensor_id_right(self, other.src)
        step2 = self.engine.tensor_id_left(self.dst, other)
        return step2 @ step1

    def __repr__(self):
        labs = self.engine.spec.labels
        name = lambda w: "(" + ",".join(labs[i] for i in w) + ")"
        return f"<Morphism {name(self.src)}->{name(self.dst)} norm={self.norm():.3g}>"


class Engine:
    """Per-category computation context: tree bases, basis changes, caches."""

    def __init__(self, spec):
        self.spec = spec
        self.ring = spec.ring
        self.F = spec.fsymbols
        self.d = spec.dims.d
        self._bases: dict = {}
        self._omega: dict = {}
        self._right_basis: dict = {}
        self._f_row_idx: dict = {}
        self._f_col_idx: dict = {}
        # cross-module memo space (duality data, vertex pairs, ...)
        self.cache: dict = {}

    # ---- bases -------------------------------------------------------------
    def basis(self, word: Word) -> TreeBasis:
        if type(word) is not tuple:
            word = tuple(word)
        tb = self._bases.get(word)
        if tb is None:
            prev = self._bases.get(word[:-1]) if len(word) > 1 else None
            tb = (TreeBasis.of(self.ring, word) if prev is None
                  else prev.extended(self.ring, word[-1:]))
            self._bases[word] = tb
        return tb

    def common_roots(self, src: Word, dst: Word):
        sdims = self.basis(src).dims
        return [(z, dd, sdims[z]) for z, dd in self.basis(dst).dims.items()
                if z in sdims]

    def hom_dim(self, src: Word, dst: Word) -> int:
        """dim Hom(src, dst), counted from the common roots."""
        return sum(dd * sd for _, dd, sd in self.common_roots(src, dst))

    def dual_word(self, word: Word) -> Word:
        return tuple(self.ring.dual[x] for x in reversed(word))

    def hom_basis(self, src: Word, dst: Word) -> list:
        """Elementary morphisms in coeffs order: roots ascending, then target
        tree, then source tree."""
        eye = np.eye(self.hom_dim(src, dst), dtype=complex)
        return [self.from_coeffs(src, dst, row) for row in eye]

    # ---- construction ------------------------------------------------------
    def make(self, src: Word, dst: Word, blocks: dict,
             roots: list | None = None) -> Morphism:
        """Normalize a block dict: every common-admissible root present.

        ``roots`` is ``common_roots(src, dst)`` when the caller holds it
        already; every block is shape-checked against it either way."""
        src, dst = tuple(src), tuple(dst)
        if roots is None:
            roots = self.common_roots(src, dst)
        out = {}
        for z, dd, sd in roots:
            blk = blocks.get(z)
            if blk is None:
                blk = np.zeros((dd, sd), dtype=complex)
            else:
                blk = np.asarray(blk, dtype=complex)
                if blk.shape != (dd, sd):
                    raise ShapeError(f"block {z} has shape {blk.shape}, want {(dd, sd)}")
            out[z] = blk
        return Morphism(self, src, dst, out)

    def from_coeffs(self, src: Word, dst: Word, vec) -> Morphism:
        """The morphism src -> dst whose Morphism.coeffs() is ``vec``, on a
        copy of ``vec``'s entries."""
        roots = self.common_roots(src, dst)
        blocks, pos = {}, 0
        for z, dd, sd in roots:
            n = dd * sd
            blocks[z] = np.array(vec[pos:pos + n], dtype=complex).reshape(dd, sd)
            pos += n
        if pos != len(vec):
            raise ShapeError("coefficient segment does not match the hom space")
        return self.make(src, dst, blocks, roots)

    def zero(self, src: Word, dst: Word) -> Morphism:
        return self.make(src, dst, {})

    def identity(self, word: Word) -> Morphism:
        word = tuple(word)
        tb = self.basis(word)
        return Morphism(self, word, word,
                        {z: np.eye(tb.dim(z), dtype=complex) for z in tb.roots()})

    def random(self, src: Word, dst: Word, rng: np.random.Generator) -> Morphism:
        blocks = {}
        for z, dd, sd in self.common_roots(src, dst):
            blocks[z] = rng.standard_normal((dd, sd)) + 1j * rng.standard_normal((dd, sd))
        return self.make(src, dst, blocks)

    def scalar_morphism(self, value: complex) -> Morphism:
        unit = self.ring.unit
        return Morphism(self, (), (), {unit: np.array([[value]], dtype=complex)})

    # ---- right tensoring ----------------------------------------------------
    def tensor_id_right(self, f: Morphism, word: Word) -> Morphism:
        word = tuple(word)
        if not word:
            return f
        src2, dst2 = f.src + word, f.dst + word
        ssplit = self.basis(src2).split(len(f.src), self.ring.unit)
        dsplit = self.basis(dst2).split(len(f.dst), self.ring.unit)
        sidx, didx = self.basis(f.src).index, self.basis(f.dst).index
        roots = self.common_roots(src2, dst2)
        blocks = {}
        for z, dd, sd in roots:
            blk = np.zeros((dd, sd), dtype=complex)
            cols: dict = {}
            for j, (pre, mid, ext) in enumerate(ssplit[z]):
                cols.setdefault((mid, ext), []).append((j, sidx[mid][pre]))
            for i, (pre, mid, ext) in enumerate(dsplit[z]):
                fb = f.blocks.get(mid)
                if fb is None:
                    continue
                ri = didx[mid][pre]
                for (j, ci) in cols.get((mid, ext), ()):
                    blk[i, j] = fb[ri, ci]
            blocks[z] = blk
        return self.make(src2, dst2, blocks, roots)

    # ---- left tensoring ------------------------------------------------------
    def right_basis(self, c: int, word: Word) -> dict:
        """root -> [(z, tree of word rooted z, nu in N[c,z,root])], the
        'id_c tensor comb' basis that omega() maps onto comb coordinates."""
        key = (c, tuple(word))
        rb = self._right_basis.get(key)
        if rb is not None:
            return rb
        channels = self.ring.channels[c]
        tb = self.basis(word)
        rb = {r: [] for r in self.basis((c,) + tuple(word)).roots()}
        for z in tb.roots():
            fused = channels[z].items()
            for t in tb.by_root[z]:
                for r, n in fused:
                    ents = rb[r]
                    for nu in range(n):
                        ents.append((z, t, nu))
        self._right_basis[key] = rb
        return rb

    def _f_indices(self, a, b, c, d):
        key = (a, b, c, d)
        if key not in self._f_row_idx:
            self._f_row_idx[key] = {ch: i for i, ch in enumerate(self.F.rows(*key))}
            self._f_col_idx[key] = {ch: i for i, ch in enumerate(self.F.cols(*key))}
        return self._f_row_idx[key], self._f_col_idx[key]

    def omega(self, c: int, word: Word) -> dict:
        """root -> unitary with Omega[comb of (c,)+word, right_basis entry]."""
        key = (c, tuple(word))
        om = self._omega.get(key)
        if om is not None:
            return om
        word = tuple(word)
        unit = self.ring.unit
        N = self.ring.N
        cb = self.basis((c,) + word)
        rb = self.right_basis(c, word)
        om = {}
        if len(word) == 0:
            om = {c: np.eye(1, dtype=complex)}
        elif len(word) == 1:
            for r in cb.roots():
                om[r] = np.eye(len(cb.by_root[r]), dtype=complex)
        else:
            front, last = word[:-1], word[-1]
            prev = self.omega(c, front)
            prev_cb = self.basis((c,) + front)
            prev_rb = self.right_basis(c, front)
            prev_col_idx = {r: {ent: i for i, ent in enumerate(ents)}
                            for r, ents in prev_rb.items()}
            for r in cb.roots():
                mat = np.zeros((len(cb.by_root[r]), len(rb[r])), dtype=complex)
                for si, s in enumerate(cb.by_root[r]):
                    s_pre, mu_b = s[:-1], s[-1][1]
                    v = s_pre[-1][0]
                    s_pre_i = prev_cb.index[v][s_pre]
                    for ci, (z, t, nu) in enumerate(rb[r]):
                        t_pre, sg = t[:-1], t[-1][1]
                        u = tree_root(front, t_pre, unit)
                        fro, fco = self._f_indices(c, u, last, r)
                        fblk = self.F.block(c, u, last, r)
                        col = fco.get((z, sg, nu))
                        if col is None:
                            continue
                        acc = 0.0 + 0.0j
                        for mu_a in range(int(N[c, u, v])):
                            row = fro.get((v, mu_a, mu_b))
                            if row is None:
                                continue
                            pc = prev_col_idx[v].get((u, t_pre, mu_a))
                            if pc is None:
                                continue
                            acc += np.conj(fblk[row, col]) * prev[v][s_pre_i, pc]
                        mat[si, ci] = acc
                om[r] = mat
        for r, mat in om.items():
            n = mat.shape[0]
            if mat.shape[1] != n:
                raise ConsistencyError(f"omega block {r} not square: {mat.shape}")
            if n and np.max(np.abs(mat.conj().T @ mat - np.eye(n))) > 1e-9:
                raise ConsistencyError(
                    f"left-tensor basis change is not unitary at root {r} "
                    f"for letter {self.spec.labels[c]} on word {key[1]}")
        self._omega[key] = om
        return om

    def _tensor_one_left(self, c: int, f: Morphism) -> Morphism:
        src2, dst2 = (c,) + f.src, (c,) + f.dst
        oms, omd = self.omega(c, f.src), self.omega(c, f.dst)
        rbs, rbd = self.right_basis(c, f.src), self.right_basis(c, f.dst)
        sb, db = self.basis(f.src), self.basis(f.dst)
        roots = self.common_roots(src2, dst2)
        blocks = {}
        for z, dd, sd in roots:
            mid = np.zeros((len(rbd[z]), len(rbs[z])), dtype=complex)
            src_pos = {}
            for j, (w, t, nu) in enumerate(rbs[z]):
                src_pos.setdefault((w, nu), []).append((j, sb.index[w][t]))
            for i, (w, s, nu) in enumerate(rbd[z]):
                fb = f.blocks.get(w)
                if fb is None:
                    continue
                ri = db.index[w][s]
                for (j, ci) in src_pos.get((w, nu), ()):
                    mid[i, j] = fb[ri, ci]
            blocks[z] = omd[z] @ mid @ oms[z].conj().T
        return self.make(src2, dst2, blocks, roots)

    def tensor_id_left(self, word: Word, f: Morphism) -> Morphism:
        out = f
        for c in reversed(tuple(word)):
            out = self._tensor_one_left(c, out)
        return out


def engine_for(spec) -> Engine:
    """One shared engine per spec instance, so caches survive across calls;
    an Engine is returned as it is.

    The engine is kept on the spec itself: the engine refers back to its
    spec, so the pair is freed together once the spec is dropped.  A copied
    spec carries its original's engine along and gets its own here.
    """
    if isinstance(spec, Engine):
        return spec
    eng = getattr(spec, "_engine", None)
    if eng is None or eng.spec is not spec:
        eng = Engine(spec)
        object.__setattr__(spec, "_engine", eng)
    return eng
