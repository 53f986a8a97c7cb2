"""Matrix-block structure of the tube algebra and the center objects in it.

Every element of the tube algebra here (the random draws, the idempotents)
is a coefficient vector in the basis of TubeAlgebra.spans, multiplied and
starred as sums over the algebra's sorted product and star entries
(TubeAlgebra.mult, TubeAlgebra.star), as TubeElement holds it; no other
form of an element is built, and no dense dim³ table is read.  Left and
right multiplication by an element are dim×dim matrices summed from the
entries (_left, _right).

The tube algebra is a finite-dimensional C*-algebra, so it splits as a sum
of matrix blocks whose units p_k span its center.  Two seeded random
elements generate the algebra for almost every draw, so the elements that
commute with both are the center; every vector found is checked against
every basis element, and a draw whose commutant is larger fails that
check.  From one seeded random self-adjoint central element z = Σ λ_k·p_k,
each eigenvector of left multiplication by z on the center (an r×r
eigenproblem in center coordinates) is a multiple w of one p_k, and
w·w = α·w gives p_k = w/α.

Each block then yields one simple object of the center of the category:
a minimal idempotent q inside the block acts on each hom space Hom(z, Δ)
as the projection M_z = t_map(q)[z], summed from the tube algebra's own
product terms; the range of M_z is split off as an isometry.  The
half-braiding of Δ is compressed once onto the direct sum of all the
simples, and each simple's is its diagonal block.  The central idempotent
itself would give n copies of the same simple (its range is X^n for a
block of size n), so for n > 1 we first refine to a rank-one idempotent,
found the same way from a seeded positive element.

Everything downstream of the random draws is verified: centrality,
idempotency, self-adjointness, orthogonality, unit partition, integer
block sizes, refined weights, unitarity of the compressed braiding, and
the hexagon.  A finite draw that fails the centrality or idempotent
checks (a commutant larger than the center, or eigenvalues too close to
split) raises DegenerateSpectrum, and another seed will fix it; a
non-finite defect, or a failed check on an extracted simple, raises
ToleranceError, and no seed will.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, ShapeError, ToleranceError, worst
from .duality import weighted_trace
from .fsymbols import add_per, group
from .sums import SumObject, block_diagonal, lift
from .tube import (DeltaObject, LambdaObject, TubeAlgebra, _omega, build_delta,
                   build_tube_algebra, check_delta, t_map, tube_product, tube_star,
                   verify_halfbraiding)

__all__ = [
    "BlockDecomposition", "CenterSimple", "decompose_blocks",
    "compress_halfbraiding", "extract_center_simples", "compute_twists",
    "center_report",
]

# largest allowed distance from an integer when rounding block sizes
SIZE_SLACK = 1e-6
# worst residual an extracted simple's half-braiding may show
EXTRACTION_TOL = 1e-8


# ---- coefficient-vector arithmetic (sorted entries) ---------------------------

def _matrix(n: int, rows: np.ndarray, cols: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The n×n matrix of the terms val at (rows, cols), added per entry."""
    return add_per(rows * n + cols, val, n * n).reshape(n, n)


def _left(A: TubeAlgebra, v: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by v on the coefficient space:
    L[k, j] = Σ_i v_i·c[i, j, k] over the product entries."""
    (i, j, k), c = A.mult
    return _matrix(A.dim, k, j, v[i] * c)


def _right(A: TubeAlgebra, v: np.ndarray) -> np.ndarray:
    """Matrix of right multiplication by v on the coefficient space:
    R[k, i] = Σ_j c[i, j, k]·v_j over the product entries."""
    (i, j, k), c = A.mult
    return _matrix(A.dim, k, i, v[j] * c)


def _mult(A: TubeAlgebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return tube_product(A, A.element(u), A.element(v)).vector


def _star(A: TubeAlgebra, v: np.ndarray) -> np.ndarray:
    return tube_star(A, A.element(v)).vector


def _weight(A: TubeAlgebra, p: np.ndarray) -> np.ndarray:
    """trace(L_p) = Σ p_i·c[i, j, j], over the product entries with j = k;
    p one vector or a stack of them."""
    (i, j, k), c = A.mult
    on = j == k
    return p[..., i[on]] @ c[on]


def _projection_from(A: TubeAlgebra, w: np.ndarray) -> np.ndarray:
    """The self-adjoint idempotent p of which w is a multiple: w·w = α·w
    gives p = w/α, and ½(p + p*) drops the skew part the eigensolver left.
    A w that is no such multiple fails the caller's defects, not this."""
    alpha = np.vdot(w, _mult(A, w, w)) / np.vdot(w, w)
    p = w / alpha
    return 0.5 * (p + _star(A, p))


def _check_defect(defect: float, stage: str, what: str) -> None:
    """No seed mends a non-finite defect; a finite one above 1e-8 is a bad draw."""
    if not math.isfinite(defect):
        raise ToleranceError(f"{stage}: {what} defect {defect:.3e} is not finite")
    if not defect < 1e-8:
        raise DegenerateSpectrum(f"{stage}: {what} defect {defect:.3e}; "
                                 "try another seed")


# ---- block decomposition -------------------------------------------------------

@dataclass(eq=False)
class BlockDecomposition:
    """Minimal central idempotents of the tube algebra, as coefficient
    vectors, and their block sizes, in canonical order (decompose_blocks)."""

    seed: int
    sizes: tuple
    vectors: list = field(repr=False, default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.sizes)


def _commutant(A: TubeAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the elements that commute with x and y:
    the null space of the 2·dim × dim stack [L_x − R_x; L_y − R_y], read
    off a thin SVD with singular values below 1e-10 of the largest (or of
    1) counted as zero."""
    comm = np.vstack([_left(A, v) - _right(A, v) for v in (x, y)])
    _, svals, vh = np.linalg.svd(comm, full_matrices=False)
    cutoff = 1e-10 * max(1.0, float(svals[0]) if svals.size else 0.0)
    return vh[int(np.sum(svals > cutoff)):].conj().T


def _centrality(A: TubeAlgebra, V: np.ndarray) -> float:
    """Worst max-abs coefficient of v·e_j − e_j·v over the columns v of V
    and every basis element e_j, one pass over the product entries per
    column: the entry c[i, j, k] adds v_i·c to (v·e_j)_k and v_j·c to
    (e_i·v)_k.  NaN propagates."""
    (i, j, k), c = A.mult
    slot, keys = group(np.concatenate((j * A.dim + k, i * A.dim + k)))
    gaps = (add_per(slot, np.concatenate((v[i] * c, -v[j] * c)), len(keys)) for v in V.T)
    return worst(float(np.max(np.abs(g), initial=0.0)) for g in gaps)


def decompose_blocks(A: TubeAlgebra, seed: int = 1) -> BlockDecomposition:
    """Split A into matrix blocks via seeded random elements.

    Two random elements x and y generate A (a finite-dimensional semisimple
    algebra) for almost every draw, so the elements commuting with both
    (_commutant) are the center; every vector of that basis is checked
    against every basis element (_centrality), so a draw whose commutant is
    larger fails here.  The minimal central idempotents are multiples of
    V·e_k, for V that orthonormal basis of the center and e_k the
    eigenvectors of the r×r matrix M = V†·L_z·V, z a random self-adjoint
    central element.  Verified: idempotency, self-adjointness,
    orthogonality, unit partition, and integer sizes with Σn² = dim.  The
    blocks come in a canonical order, not the eigensolver's: by size, then
    by the idempotent's vector rounded to 1e-9, real parts then imaginary
    parts, compared lexicographically; so every seed that splits A numbers
    its blocks alike, up to rounding.  A finite draw that fails them raises
    DegenerateSpectrum (retry with another seed); a non-finite defect or
    an empty center raises ToleranceError.  Every product is a sum over
    the sorted entries; no dense dim³ table or dim²×dim commutator is made.
    """
    dim = A.dim
    rng = np.random.default_rng(seed)
    x, y = (A.random_element(rng).vector for _ in range(2))
    V = _commutant(A, x, y)
    r = V.shape[1]
    if r == 0:
        raise ToleranceError("center collapsed to zero; structure tables corrupt")
    _check_defect(_centrality(A, V), "decompose_blocks", "centrality")

    z0 = V @ (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    z = z0 + _star(A, z0)
    _, E = np.linalg.eig(V.conj().T @ _left(A, z) @ V)
    vectors = [_projection_from(A, V @ e) for e in E.T]

    # p_m·p_n = δ_mn·p_m for all pairs, one L_(p_m) at a time, p* = p, and Σ p = 1
    P = np.array(vectors)
    defects = []
    for m, p in enumerate(P):
        products = P @ _left(A, p).T
        products[m] -= p
        defects.append(float(np.max(np.abs(products))))
    defects += [float(np.max(np.abs(_star(A, p) - p))) for p in vectors]
    defects.append(float(np.max(np.abs(P.sum(axis=0) - A.vector_of(A.unit)))))
    _check_defect(worst(defects), "decompose_blocks", "idempotent system")

    sizes = []
    for weight in _weight(A, P):  # trace(L_p) = n²
        root = math.sqrt(max(weight.real, 0.0))
        n = round(root)
        if abs(root - n) > SIZE_SLACK or n < 1:
            raise DegenerateSpectrum(f"block size {root!r} is not an integer")
        sizes.append(n)
    if sum(n * n for n in sizes) != dim:
        raise DegenerateSpectrum(
            f"block sizes {sizes} do not exhaust dim {dim}")

    order = sorted(range(r), key=lambda k: (sizes[k], *np.round(vectors[k].real, 9),
                                            *np.round(vectors[k].imag, 9)))
    return BlockDecomposition(seed=seed, sizes=tuple(sizes[k] for k in order),
                              vectors=[vectors[k] for k in order])


def _refine_minimal(A: TubeAlgebra, p: np.ndarray, n: int,
                    seed: int, k: int) -> np.ndarray:
    """Rank-one idempotent inside the size-n block cut out by central p.

    The block p·A is n²-dimensional, the range of L_p, and W, orthonormal
    columns spanning it, come from L_p applied to n² random vectors.  A
    random element of the block, made positive as h = b·b*, generically has
    n distinct eigenvalues there; L_h keeps the block, and W†·L_h·W has
    each of them n times.  For the top one μ, the null space of
    [L_h − μ; R_h − μ]·W is the line ℂ·q through the minimal projector onto
    that eigenvector.  No dim×dim eigenproblem or SVD is solved.
    """
    rng = np.random.default_rng([seed, 17, k])
    v = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    b = _mult(A, _mult(A, p, v), p)
    h = _mult(A, b, _star(A, b))
    G = rng.standard_normal((A.dim, n * n)) + 1j * rng.standard_normal((A.dim, n * n))
    W = np.linalg.qr(_left(A, p) @ G)[0]
    L, R = _left(A, h) @ W, _right(A, h) @ W
    mu = float(np.max(np.linalg.eigvals(W.conj().T @ L).real))
    _, _, vh = np.linalg.svd(np.vstack((L - mu * W, R - mu * W)), full_matrices=False)
    q = _projection_from(A, W @ vh[-1].conj())
    stage = f"block {k} refinement"
    _check_defect(worst((float(np.max(np.abs(_mult(A, q, q) - q))),
                         float(np.max(np.abs(_star(A, q) - q))))),
                  stage, "refined idempotent")
    tr = float(_weight(A, q).real)
    if abs(tr - n) > 1e-6:
        raise DegenerateSpectrum(
            f"{stage}: refined idempotent has weight {tr:.6f}, wanted {n}")
    return q


# ---- center simples --------------------------------------------------------------

@dataclass(eq=False)
class CenterSimple:
    """One simple object of the center: underlying multiplicities in C,
    an isometric copy inside Δ, and the compressed unitary half-braiding,
    ``braiding[a]`` one matrix per root from the stacked trees of obj + (a,)
    to those of (a,) + obj, as DeltaObject's.  ``vector`` is the minimal
    idempotent of its block, as a coefficient vector."""

    vector: np.ndarray = field(repr=False)
    underlying: dict
    obj: SumObject
    braiding: dict
    hexagon_defect: float
    unitarity_defect: float
    twist: complex | None = None

    def dim(self) -> float:
        d = self.obj.engine.d
        return float(sum(d[z] for (z, _c) in self.obj.tags))


def _polar(V: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(V.conj().T @ V)
    if np.min(w) <= 0:
        raise ToleranceError("summand isometry degenerated during refinement")
    return V @ (U * (w ** -0.5)) @ U.conj().T


def compress_halfbraiding(delta: DeltaObject, X: SumObject, V: dict) -> dict:
    """The half-braiding of Δ pulled back along an isometry V : X → Δ,
    given as V_z from X.stacked() to Δ.obj.stacked() at every root z of X,
    for X a sum of one-letter words: e_X = (id_a ⊗ V†) ∘ e_a ∘ (V ⊗ id_a)
    for every letter a.

    With V one block-diagonal matrix from X's states to Δ's, V ⊗ id_a at r
    is its lift onto the trees of X + (a,) and Δ + (a,), and id_a ⊗ V† is
    Ω_X·lift(V)†·Ω† with the lift onto Ω's columns (_Omega, sums.lift); Ω_X
    is the identity on one-letter words, whose trees on both sides are
    counted off N (SumObject.one_letter).  So e_X at r is
    lift(V)†·(Ω†·e_a)·lift(V), one matrix per root r of the trees of
    (a,) + X.  Raises ShapeError for a longer word, an X over another
    category than Δ, or a V other than one (n_z, m_z) matrix per root z of
    X, n_z Δ's trees and m_z X's copies of z.
    """
    one, sb = X.one_letter(), delta.obj.stacked()
    copies = {z: m for z, m in enumerate(np.bincount(one.label).tolist()) if m}
    if X.engine is not delta.engine or V.keys() != copies.keys() or any(
            np.shape(v) != (sb.dims.get(z, 0), copies[z]) for z, v in V.items()):
        raise ShapeError("needs an isometry X → Δ over Δ's category: one "
                         "(n_z, m_z) matrix per root z of X")
    full, om, (left, right) = block_diagonal(V, sb.root, one.label), _omega(delta.obj), one.lifts
    out = {}
    for a, per_root in delta.braiding.items():
        out[a] = mats = {}
        for r, n in enumerate(one.left[0][a].sum(axis=0).tolist()):
            if n:
                o = om.mats[a][r]
                C = (o.conj().T @ per_root[r]) @ lift(full, om.right[a, r], right[a, r])
                mats[r] = lift(full, om.left[a, r], left[a, r]).conj().T @ C
    return out


def extract_center_simples(A: TubeAlgebra, delta: DeltaObject,
                           dec: BlockDecomposition) -> list:
    """One CenterSimple per block, each verified as a unitary half-braiding.

    Each block's minimal idempotent q acts on every Hom(z, Δ) as t_map(q)[z],
    whose range is split off as an isometry V_z.  The simples are stacked
    into their direct sum ⊕X, and Δ's braiding is compressed onto it once
    (compress_halfbraiding, with the V_z of every simple side by side); the
    blocks between two different simples are set to exact zeros, and each
    simple's braiding is cut from its diagonal block.  That stacked braiding
    is checked for unitarity (both compositions), trivial unit component,
    and the hexagon on all simple pairs, by one verify_halfbraiding with one
    part per simple; any defect at EXTRACTION_TOL raises ToleranceError
    naming the lowest failing block, since it means the block structure and
    the braiding disagree — a bug, not a bad seed.  Raises ShapeError,
    before any work, for a Δ over another category or Λ than A
    (check_delta).
    """
    check_delta(A, delta)
    eng = A.engine
    ring = eng.ring
    labs = A.spec.labels
    out, isometries = [], {}
    for k, n in enumerate(dec.sizes):
        qv = dec.vectors[k] if n == 1 else _refine_minimal(
            A, dec.vectors[k], n, dec.seed, k)

        # range of t(q) on each Hom(z, Δ): an isometry V_z onto it from the
        # stacked copies (z, 0), (z, 1), ... of z in X
        V, tags = {}, []
        for z, M in t_map(A, delta, A.element(qv)).items():
            evals, U = np.linalg.eigh(0.5 * (M + M.conj().T))
            keep = evals > 0.5
            if np.any(keep):
                V[z] = _polar(M @ U[:, keep])
                isometries.setdefault(z, []).append(V[z])
                tags += [(z, cpy) for cpy in range(V[z].shape[1])]
        mults = {z: v.shape[1] for z, v in V.items()}

        if sum(mults.get(x, 0) * A.lam.mult[x] for x in range(ring.rank)) != n:
            raise ToleranceError(
                f"block {k}: summand bookkeeping does not match size {n}")

        out.append(CenterSimple(
            vector=qv,
            underlying={labs[z]: m for z, m in sorted(mults.items())},
            obj=SumObject(eng, [(z,) for z, _c in tags], tags), braiding={},
            hexagon_defect=math.nan, unitarity_defect=math.nan))

    # ⊕X: its stacked trees are summand-major, so each simple's are
    # contiguous at every root, and its copies of z are the columns of its
    # V_z in simple order
    total = SumObject(eng, [w for s in out for w in s.obj.summands],
                      [(k, t) for k, s in enumerate(out) for t in s.obj.tags])
    parts = np.cumsum([0] + [len(s.obj) for s in out[:-1]])
    ends = list(zip(parts.tolist(), [*parts[1:].tolist(), len(total)]))
    braiding = {}
    for a, per_root in compress_halfbraiding(
            delta, total, {z: np.hstack(v) for z, v in isometries.items()}).items():
        rows, cols = total.stacked((a,)).starts, total.stacked((), (a,)).starts
        braiding[a] = {}
        for s in out:
            s.braiding[a] = {}
        for r, m in per_root.items():
            braiding[a][r] = kept = np.zeros_like(m)  # exact zeros between two simples
            for s, (p, q) in zip(out, ends):
                blk = slice(rows[r][p], rows[r][q]), slice(cols[r][p], cols[r][q])
                kept[blk] = m[blk]
                if rows[r][q] > rows[r][p]:
                    s.braiding[a][r] = m[blk].copy()
    try:
        res = verify_halfbraiding(total, braiding, EXTRACTION_TOL, parts=parts)
    except ToleranceError as exc:
        raise ToleranceError(f"block {exc.part}: {exc} on the extracted simple") from exc
    for s, r in zip(out, res):
        s.hexagon_defect, s.unitarity_defect = r["hexagon"], worst((r["unitarity"], r["unit"]))
    return out


def compute_twists(simples: list) -> list:
    """Close each half-braiding into a ribbon loop: θ·d_X is the weighted
    trace Σ_r d_r·tr (duality.weighted_trace) of the self-crossing, summed
    over the object's simple summands z: the diagonal block (i, i) of e_z
    at summand i, from (z, z) to (z, z), on summand i's trees of both sides
    (SumObject.one_letter)."""
    out = []
    for s in simples:
        num, X = 0.0 + 0.0j, s.obj
        one = X.one_letter()
        (rows, row0), (cols, col0) = one.left, one.right
        for i, z in enumerate(one.label.tolist()):
            r0, r1, c0, c1 = (f[z, i] for f in (row0, row0 + rows, col0, col0 + cols))
            num += weighted_trace(X.engine.make(
                (z, z), (z, z), {r: m[r0[r]:r1[r], c0[r]:c1[r]] for r, m in s.braiding[z].items()}))
        theta = num / s.dim()
        s.twist = theta
        out.append(theta)
    return out


# ---- end-to-end report -------------------------------------------------------------

def _block_sort_key(entry: dict, labels) -> tuple:
    under = tuple((labels.index(x), m) for x, m in entry["underlying"].items())
    tw = entry["twist"]
    return (entry["size"], under, (round(tw[0], 6), round(tw[1], 6)))


def _soft_checks(spec, lam: LambdaObject, simples: list) -> dict:
    """Closed-form identities of Z(C) that center_report records in
    ``pass`` instead of raising, by name.

    Every |θ_X| = 1 within 1e-9.  The sums over all simples X of Z(C) are
    checked only when every simple of C occurs in Λ, since only then is
    every block visible; each within 1e-6 of its scale:
      - dimensions: Σ_X d_X² = (dim C)²;
      - Gauss sum: Σ_X d_X² θ_X = dim C, since Z(C) is modular with central
        charge 0 (Müger, JPAA 2003);
      - induction: Σ_X [F X : x]·d_X = d_x·dim C for every simple x, since
        the induced object I(x) = ⊕_X [F X : x]·X has dimension d_x·dim C.
    """
    checks = {"unit twists": all(abs(abs(s.twist) - 1.0) < 1e-9 for s in simples)}
    if min(lam.mult) >= 1:
        gd = float(spec.dims.global_dim)
        checks["dimension sum"] = abs(sum(s.dim() ** 2 for s in simples)
                                      - gd ** 2) < 1e-6 * gd ** 2
        checks["gauss sum"] = bool(abs(sum(s.dim() ** 2 * s.twist for s in simples)
                                       - gd) < 1e-6 * gd ** 2)
        checks["induction"] = all(
            abs(sum(s.underlying.get(lab, 0) * s.dim() for s in simples)
                - dx * gd) < 1e-6 * dx * gd
            for lab, dx in zip(spec.labels, spec.dims.d))
    return checks


def center_report(spec, lam: LambdaObject | None = None, seed: int = 1,
                  category: str | None = None) -> dict:
    """Full pipeline: tube algebra → blocks → simples → twists, as JSON data.

    ``pass`` records the soft checks of _soft_checks (unit twists, and on a
    Λ that holds every simple the dimension sum, the Gauss sum and
    induction); hard failures raise instead.
    """
    lam = LambdaObject.all_simples(spec) if lam is None else lam
    A = build_tube_algebra(spec, lam)
    delta = build_delta(spec, lam)
    dec = decompose_blocks(A, seed)
    simples = extract_center_simples(A, delta, dec)
    compute_twists(simples)
    ok = all(_soft_checks(spec, lam, simples).values())

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
