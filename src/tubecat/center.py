"""Matrix-block structure of the tube algebra and the center objects in it.

The tube algebra is a finite-dimensional C*-algebra, so it splits as a sum
of matrix blocks.  We find the blocks numerically: solve for the center of
the algebra, split it along the spectrum of a seeded random self-adjoint
central element, and polish each spectral projector into an exact
idempotent by Newton iteration (p -> 3p^2 - 2p^3, quadratically
convergent, self-correcting against the O(1e-13) table noise).

Each block then yields one simple object of the center of the category:
a minimal idempotent q inside the block is pushed through t_map, the range
of the resulting projection on each hom space Hom(z, Δ) is split off as an
isometry, and the half-braiding of Δ is compressed onto that range.  The
central idempotent itself would give n copies of the same simple (its
range is X^n for a block of size n), so for n > 1 we first refine to a
rank-one idempotent with a second seeded spectral split inside the block.

Everything downstream of the random draws is verified: idempotency,
orthogonality, unit partition, integer block sizes, unitarity of the
compressed braiding, and the hexagon.  A bad draw (clustered spectrum)
raises DegenerateSpectrum and a different seed will fix it; a failed
verification raises ToleranceError and no seed will.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .duality import weighted_trace
from .errors import DegenerateSpectrum, ToleranceError, worst
from .sums import BlockMorphism, SumObject
from .tube import (DeltaObject, LambdaObject, TubeAlgebra, TubeElement,
                   _padded_identity, build_delta, build_tube_algebra,
                   hexagon_residual, t_map)

__all__ = [
    "BlockDecomposition", "CenterSimple", "decompose_blocks",
    "extract_center_simples", "compute_twists", "center_report",
]

# relative gap that separates eigenvalue clusters of a random central element
GAP = 1e-5
# largest allowed distance from an integer when rounding block sizes
SIZE_SLACK = 1e-6


# ---- coefficient-vector arithmetic (dense tables) -----------------------------

def _mult(A: TubeAlgebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", u, v, A.mult_table)


def _star(A: TubeAlgebra, v: np.ndarray) -> np.ndarray:
    return np.conj(v) @ A.star_table


def _left(A: TubeAlgebra, v: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by v on the coefficient space."""
    return np.einsum("m,mjk->kj", v, A.mult_table)


def _newton_idempotent(A: TubeAlgebra, p: np.ndarray,
                       target: float = 1e-13, rounds: int = 60) -> np.ndarray:
    for _ in range(rounds):
        pp = _mult(A, p, p)
        if float(np.max(np.abs(pp - p))) < target:
            return p
        p = 3.0 * pp - 2.0 * _mult(A, pp, p)
    raise DegenerateSpectrum("idempotent polish did not converge; try another seed")


def _clusters(vals: np.ndarray, rel: float = GAP) -> list:
    """Split sorted real values at gaps larger than rel*(spread+1)."""
    order = np.sort(vals)
    spread = float(order[-1] - order[0]) if order.size > 1 else 0.0
    cut = rel * (spread + 1.0)
    groups, start = [], 0
    for i in range(1, order.size):
        if order[i] - order[i - 1] > cut:
            groups.append(order[start:i])
            start = i
    groups.append(order[start:])
    return groups


# ---- block decomposition -------------------------------------------------------

@dataclass(eq=False)
class BlockDecomposition:
    """Minimal central idempotents of the tube algebra and their block sizes."""

    algebra: TubeAlgebra
    seed: int
    idempotents: list
    sizes: tuple
    vectors: list = field(repr=False, default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.sizes)


def decompose_blocks(A: TubeAlgebra, seed: int = 1) -> BlockDecomposition:
    """Split A into matrix blocks via a seeded random central element.

    Deterministic given the seed.  Raises DegenerateSpectrum when the draw
    fails to separate the blocks (retry with another seed); the verified
    invariants are orthogonality, self-adjointness, unit partition, and
    exact integer sizes with Σn² = dim.
    """
    c, dim = A.mult_table, A.dim
    # center = nullspace of all commutators [e_i, -]
    comm = (np.transpose(c, (1, 2, 0)) - np.transpose(c, (0, 2, 1)))
    # thin: the dim²×dim² U of the full SVD is never used
    _, svals, vh = np.linalg.svd(comm.reshape(dim * dim, dim), full_matrices=False)
    cutoff = 1e-10 * max(1.0, float(svals[0]) if svals.size else 0.0)
    nkeep = int(np.sum(svals > cutoff))
    V = vh[nkeep:].conj().T
    r = V.shape[1]
    if r == 0:
        raise ToleranceError("center collapsed to zero; structure tables corrupt")

    rng = np.random.default_rng(seed)
    z0 = V @ (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    z = z0 + _star(A, z0)
    L = _left(A, z)
    vals = np.real(np.linalg.eigvals(L))
    groups = _clusters(vals)
    if len(groups) != r:
        raise DegenerateSpectrum(
            f"central element produced {len(groups)} eigenvalue clusters "
            f"for a rank-{r} center; try another seed")
    means = [float(np.mean(g)) for g in groups]

    uvec = A.vector_of(A.unit)
    vectors = []
    for k, mk in enumerate(means):
        p = uvec.astype(complex).copy()
        for j, mj in enumerate(means):
            if j != k:
                p = (L @ p - mj * p) / (mk - mj)
        p = _newton_idempotent(A, p)
        p = 0.5 * (p + _star(A, p))
        p = _newton_idempotent(A, p)
        vectors.append(p)

    defects = []
    total = np.zeros(dim, dtype=complex)
    for i, p in enumerate(vectors):
        total += p
        defects.append(float(np.max(np.abs(_mult(A, p, p) - p))))
        defects.append(float(np.max(np.abs(_star(A, p) - p))))
        for q in vectors[i + 1:]:
            defects.append(float(np.max(np.abs(_mult(A, p, q)))))
    defects.append(float(np.max(np.abs(total - uvec))))
    defect = worst(defects)
    if not defect < 1e-8:
        raise DegenerateSpectrum(
            f"idempotent system defect {defect:.3e}; try another seed")

    sizes = []
    for p in vectors:
        root = math.sqrt(max(float(np.trace(_left(A, p)).real), 0.0))
        n = round(root)
        if abs(root - n) > SIZE_SLACK or n < 1:
            raise DegenerateSpectrum(f"block size {root!r} is not an integer")
        sizes.append(n)
    if sum(n * n for n in sizes) != dim:
        raise DegenerateSpectrum(
            f"block sizes {sizes} do not exhaust dim {dim}")

    return BlockDecomposition(algebra=A, seed=seed,
                              idempotents=[A.element(p) for p in vectors],
                              sizes=tuple(sizes), vectors=vectors)


def _refine_minimal(A: TubeAlgebra, p: np.ndarray, n: int,
                    seed: int, k: int) -> np.ndarray:
    """Rank-one idempotent inside the size-n block cut out by central p.

    A random element of the block, made positive as b·b*, generically has n
    distinct eigenvalues there; the projector onto the top one is minimal.
    """
    rng = np.random.default_rng([seed, 17, k])
    v = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    b = _mult(A, _mult(A, p, v), p)
    h = _mult(A, b, _star(A, b))
    L = _left(A, h)
    vals = np.real(np.linalg.eigvals(L))
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    groups = [g for g in _clusters(vals)
              if abs(float(np.mean(g))) > 1e-6 * scale]
    if len(groups) != n or any(g.size != n for g in groups):
        raise DegenerateSpectrum(
            f"block {k}: positive element separated {len(groups)} of {n} "
            f"eigenvalues; try another seed")
    mus = sorted(float(np.mean(g)) for g in groups)
    top = mus[-1]
    q = p.copy()
    for mu in mus[:-1]:
        q = (L @ q - mu * q) / (top - mu)
    q = _newton_idempotent(A, q)
    q = 0.5 * (q + _star(A, q))
    q = _newton_idempotent(A, q)
    tr = float(np.trace(_left(A, q)).real)
    if abs(tr - n) > 1e-6:
        raise DegenerateSpectrum(
            f"block {k}: refined idempotent has weight {tr:.6f}, wanted {n}")
    return q


# ---- center simples --------------------------------------------------------------

@dataclass(eq=False)
class CenterSimple:
    """One simple object of the center: underlying multiplicities in C,
    an isometric copy inside Δ, and the compressed unitary half-braiding."""

    idempotent: TubeElement
    underlying: dict
    obj: SumObject
    braiding: dict
    hexagon_defect: float
    unitarity_defect: float
    twist: complex | None = None

    def dim(self) -> float:
        d = self.obj.engine.d
        return float(sum(d[z] for (z, _c) in self.obj.tags))


def _hom_into_delta(eng, z: int, obj: SumObject):
    """Tree-unit bases of Hom(z, w_s) per summand, with flat offsets."""
    hbs = [eng.hom_basis((z,), w) for w in obj.summands]
    dims = [len(h) for h in hbs]
    offs = np.concatenate(([0], np.cumsum(dims))).astype(int)
    return hbs, dims, offs


def _polar(V: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(V.conj().T @ V)
    if np.min(w) <= 0:
        raise ToleranceError("summand isometry degenerated during refinement")
    return V @ (U * (w ** -0.5)) @ U.conj().T


def extract_center_simples(A: TubeAlgebra, delta: DeltaObject,
                           dec: BlockDecomposition,
                           tol: float = 1e-8) -> list:
    """One CenterSimple per block, each verified as a unitary half-braiding.

    The compressed braiding is checked for unitarity (both compositions),
    trivial unit component, and the hexagon on all simple pairs; any defect
    at ``tol`` raises ToleranceError, since it means the block structure and
    the braiding disagree — a bug, not a bad seed.
    """
    eng = A.engine
    ring = eng.ring
    labs = A.spec.labels
    obj = delta.obj
    out = []
    for k, n in enumerate(dec.sizes):
        qv = dec.vectors[k] if n == 1 else _refine_minimal(
            A, dec.vectors[k], n, dec.seed, k)
        q = A.element(qv)
        Tq = t_map(A, delta, q)

        # range of Tq on each Hom(z, Δ), one isometry column per copy of z
        iso = {}      # X summand index -> {Δ summand index -> Morphism}
        tags, words = [], []
        mults = {}
        for z in range(ring.rank):
            hbs, dims, offs = _hom_into_delta(eng, z, obj)
            total = int(offs[-1])
            if total == 0:
                continue
            M = np.zeros((total, total), dtype=complex)
            for (si, sj), blk in Tq.blocks.items():
                if dims[si] == 0 or dims[sj] == 0:
                    continue
                for tj, iota in enumerate(hbs[sj]):
                    M[offs[si]:offs[si] + dims[si], offs[sj] + tj] += \
                        (blk @ iota).coeffs()
            evals, U = np.linalg.eigh(0.5 * (M + M.conj().T))
            keep = evals > 0.5
            m_z = int(np.sum(keep))
            if m_z == 0:
                continue
            V = _polar(M @ U[:, keep])
            mults[z] = m_z
            for cpy in range(m_z):
                comps = {}
                for s in range(len(obj.summands)):
                    if dims[s] == 0:
                        continue
                    u = None
                    for t in range(dims[s]):
                        coef = V[offs[s] + t, cpy]
                        term = hbs[s][t] * coef
                        u = term if u is None else u + term
                    comps[s] = u
                iso[len(tags)] = comps
                tags.append((z, cpy))
                words.append((z,))

        if sum(mults.get(x, 0) * A.lam.mult[x] for x in range(ring.rank)) != n:
            raise ToleranceError(
                f"block {k}: summand bookkeeping does not match size {n}")

        X = SumObject(eng, words, tags)
        braiding = {}
        for a in range(ring.rank):
            e = delta.braiding[a]
            # id_a ⊗ u_i[s]† and u_j[s] ⊗ id_a, each built once per (i, s)
            outs = {(i, s): eng.tensor_id_left((a,), u.dag())
                    for i, comps in iso.items() for s, u in comps.items()}
            ins = {(j, s): eng.tensor_id_right(u, (a,))
                   for j, comps in iso.items() for s, u in comps.items()}
            blocks = {}
            for i, (_zi, _ci) in enumerate(tags):
                ui = iso[i]
                for j, (_zj, _cj) in enumerate(tags):
                    uj = iso[j]
                    acc = None
                    for (si, sj), m in e.blocks.items():
                        if si not in ui or sj not in uj:
                            continue
                        term = outs[i, si] @ m @ ins[j, sj]
                        acc = term if acc is None else acc + term
                    if acc is not None and acc.norm() > 1e-14:
                        blocks[(i, j)] = acc
            braiding[a] = BlockMorphism(X.tensor_right((a,)),
                                        X.tensor_left((a,)), blocks)

        defects = []
        for a, e in braiding.items():
            defects.append((e.dag() @ e - BlockMorphism.identity(X.tensor_right((a,)))).norm())
            defects.append((e @ e.dag() - BlockMorphism.identity(X.tensor_left((a,)))).norm())
        defects.append((braiding[ring.unit] - _padded_identity(X, ring.unit)).norm())
        worst_u = worst(defects)
        if not worst_u < tol:
            raise ToleranceError(
                f"block {k}: compressed braiding unitarity defect {worst_u:.3e}")
        worst_h = worst(hexagon_residual(X, braiding, a, b)
                        for a in range(ring.rank) for b in range(ring.rank))
        if not worst_h < tol:
            raise ToleranceError(
                f"block {k}: hexagon defect {worst_h:.3e} on the extracted simple")

        out.append(CenterSimple(
            idempotent=q,
            underlying={labs[z]: m for z, m in sorted(mults.items())},
            obj=X, braiding=braiding,
            hexagon_defect=worst_h, unitarity_defect=worst_u))
    return out


def compute_twists(simples: list) -> list:
    """Close each half-braiding into a ribbon loop: θ·d_X is the weighted
    trace of the self-crossing summed over the object's simple summands."""
    out = []
    for s in simples:
        num = 0.0 + 0.0j
        for i, (z, _c) in enumerate(s.obj.tags):
            blk = s.braiding[z].blocks.get((i, i))
            if blk is not None:
                num += weighted_trace(blk)
        theta = num / s.dim()
        s.twist = theta
        out.append(theta)
    return out


# ---- end-to-end report -------------------------------------------------------------

def _block_sort_key(entry: dict, labels) -> tuple:
    under = tuple((labels.index(x), m) for x, m in entry["underlying"].items())
    tw = entry["twist"]
    return (entry["size"], under, (round(tw[0], 6), round(tw[1], 6)))


def center_report(spec, lam: LambdaObject | None = None, seed: int = 1,
                  category: str | None = None) -> dict:
    """Full pipeline: tube algebra → blocks → simples → twists, as JSON data.

    ``pass`` records the soft checks (every |θ| = 1 within 1e-9 and the
    squared-dimension sum matching globalDim² within 1e-6·globalDim²); hard
    failures raise instead.
    """
    lam = LambdaObject.all_simples(spec) if lam is None else lam
    A = build_tube_algebra(spec, lam)
    delta = build_delta(spec, lam)
    dec = decompose_blocks(A, seed)
    simples = extract_center_simples(A, delta, dec)
    compute_twists(simples)

    ok = all(abs(abs(s.twist) - 1.0) < 1e-9 for s in simples)
    if min(lam.mult) >= 1:
        # every block is visible only when every simple occurs in Λ, and only
        # then must the squared dimensions fill the global dimension squared
        gd2 = float(spec.dims.global_dim) ** 2
        sq = sum(s.dim() ** 2 for s in simples)
        ok = ok and abs(sq - gd2) < 1e-6 * gd2

    blocks = []
    for n, s in zip(dec.sizes, simples):
        blocks.append({
            "size": n,
            "underlying": dict(s.underlying),
            "twist": [float(s.twist.real), float(s.twist.imag)],
            "hexagon_residual": float(s.hexagon_defect),
        })
    labels = list(spec.labels)
    blocks.sort(key=lambda e: _block_sort_key(e, labels))
    return {
        "category": category if category is not None else spec.name,
        "lambda": lam.as_dict(spec),
        "tube_dim": A.dim,
        "rank": dec.rank,
        "blocks": blocks,
        "seed": seed,
        "pass": bool(ok),
    }
