"""Structure constants of the tube algebra A(Λ), its action on Δ(Λ), and
the vertex pieces of Δ's half-braiding, from F entries.

The product of two basis tubes is a fixed contraction of three F entries
and √d weights, and the star one of two F entries and the zig-zag scalar
that duality's cup and cap are calibrated by; no diagram is drawn.  Both
are evaluated once per engine over Λ = all simples (LabelBasis), as joins
over FSymbolTable.split (fsymbols.join), and each term is then copied to every
choice of slots of Λ that carry its labels (fill).  A(Λ) keeps them as
they come, sorted nonzero entries (Entries), never as a dense table.
A(Λ) acts on Δ(Λ) by the same product terms, read with the right factor's
source a label (action).

The three-letter pieces that Δ's half-braiding is drawn from, and that
every hexagon check reads, are one F entry per coefficient
(vertex_pieces): id_u ⊗ ι† and the split tops are F entries, and the pads
weight the first with the rotated fusion halves, which are one weighted F
entry each (rotations).  All three are born flat, one entry per F entry,
for tube's joins to read.  tests/oracles.py keeps the diagrams, the bent
fusion halves and the engine's left tensorings as the reference, and
gathers the flat pieces into dense arrays per label tuple for its loops.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fsymbols import add_per, group, join, join_unsorted
from .morphism import Engine, cached

__all__ = ["Entries", "fill", "action", "rotations", "vertex_pieces"]


def _spans(lb: "LabelBasis", labels: np.ndarray) -> tuple:
    """(spans, start) of A(Λ) over slots with these labels: spans[(a, m, l)]
    is the index range of the block Hom((x_l, a), (a, x_m)), in the order
    a, then l, then m, and start[a, m, l] its first index."""
    spans, dim = {}, 0
    start = np.zeros((len(lb.N), len(labels), len(labels)), dtype=np.int64)
    for a in range(len(lb.N)):
        for l, x in enumerate(labels.tolist()):
            for m, y in enumerate(labels.tolist()):
                n = int(lb.size[a, x, y])
                spans[(a, m, l)] = slice(dim, dim + n)
                start[a, m, l] = dim
                dim += n
    return spans, start


class Entries(NamedTuple):
    """The nonzero entries of a table over A(Λ)'s basis, sorted in C order:
    ``index`` one integer array per axis, ``val`` the values.  An exact
    zero is no entry; a NaN is one."""

    index: tuple
    val: np.ndarray

    def dense(self, dim: int) -> np.ndarray:
        """The table as a dense read-only array, one axis of length dim per
        index array, made afresh on each call."""
        out = np.zeros((dim,) * len(self.index), dtype=complex)
        out[self.index] = self.val
        out.flags.writeable = False
        return out


def _entries(index: tuple, val: np.ndarray, dim: int) -> Entries:
    """Terms at distinct positions as Entries: exact zeros dropped, the rest
    in C order."""
    keep = np.flatnonzero(val != 0)
    order = keep[np.argsort(np.ravel_multi_index(tuple(i[keep] for i in index),
                                                 (dim,) * len(index)))]
    return Entries(tuple(i[order] for i in index), val[order])


def fill(eng: Engine, slots: tuple) -> tuple:
    """(spans, dim, mult, star) of A(Λ) over ``slots``, Λ's (label, copy)
    pairs: spans as _spans gives them, and the product and the star as
    Entries, every term of product_terms and star_terms copied to each
    choice of slots that carry its labels.  mult holds (i, j, k) with the
    coefficient of e_k in e_i·e_j, star (p, q) with that of e_q in e_p*."""
    lb, ((f, g, e), val) = _products(eng)
    labels = np.array([x for x, _c in slots])
    spans, start = _spans(lb, labels)
    dim = sum(span.stop - span.start for span in spans.values())

    def at(k, m, l):  # label-level basis k, from slot l to slot m
        return start[lb.a[k], m, l] + lb.loc[k]

    t, (l, p, m) = slot_copies(labels, lb.src[g], lb.dst[g], lb.dst[f])
    mult = _entries((at(f[t], m, p), at(g[t], p, l), at(e[t], m, l)), val[t], dim)
    (f, e), val = star_terms(eng, lb)
    t, (l, m) = slot_copies(labels, lb.src[f], lb.dst[f])
    return spans, dim, mult, _entries((at(f[t], m, l), at(e[t], l, m)), val[t], dim)


def action(eng: Engine, slots: tuple) -> tuple:
    """((k, at, val), G, G_inv): A(Λ) over ``slots`` acting on Δ(Λ) =
    ⊕_{x,s} x⊗x_s⊗x̄ by its own product, per root z on the stacked trees
    of Δ's summands, in Δ's order (x, then slot s).

    Bending x̄ down identifies Hom(z, x⊗x_s⊗x̄) with Hom(z⊗x, x⊗x_s), a
    block of tube elements from the label z to the slot s, and these form
    a left ideal: the tree ((w, ν), (z, μ₁)) of summand (x, s) corresponds
    to the label-level basis (x, z → x_s; w, ν, μ₂), so summand (x, s)
    holds lb.size[x, z, x_s] coordinates at z, in the same order.  The
    basis element e_k acts there as L_z[k], whose entry [i, j] is the
    coefficient of coordinate i in e_k·(coordinate j): the product terms
    with g's source a label, copied over the slots of g's and f's targets.
    The bend is G_z, block-diagonal over (x, s, w, ν) with
    G[(…, μ₁), (…, μ₂)] = d_w·d_x^{3/2}·ζ_x·conj F^{w x̄ x}_w[(z,μ₁,μ₂),
    (1,0,0)] (ζ_x as in star_terms), so e_k acts on Δ as G_z·L_z[k]·G_z⁻¹.

    G and G_inv map each root of Δ, ascending, to an n_z × n_z matrix, n_z
    its number of trees; the term of value val[i] adds f[k[i]]·val[i] at
    flat position at[i] of the L_z(f), laid end to end in root order.
    """
    ring, d = eng.ring, np.asarray(eng.d)
    r, n_slots = ring.rank, len(slots)
    lb, ((f, g, e), val) = _products(eng)
    labels = np.array([x for x, _c in slots])
    _, start = _spans(lb, labels)
    per = lb.size[:, :, labels].transpose(1, 0, 2).reshape(r, r * n_slots)  # [z, (x, s)]
    first = (np.cumsum(per, axis=1) - per).reshape(r, r, n_slots)
    n = per.sum(axis=1)
    corner = np.cumsum(n * n) - n * n

    def pos(k, s):  # Δ coordinate of label-level basis k in summand (lb.a[k], s)
        return first[lb.src[k], lb.a[k], s] + lb.loc[k]

    t, (p, m) = slot_copies(labels, lb.dst[g], lb.dst[f])
    f, g, e, z = f[t], g[t], e[t], lb.src[g[t]]
    terms = (start[lb.a[f], m, p] + lb.loc[f],
             corner[z] + pos(e, m) * n[z] + pos(g, p), val[t])

    (x, y, z, mu), rv, rw, cv, cw, fv = eng.F.split
    zeta = _zeta(eng)
    h = np.flatnonzero(z[cv] == ring.unit)  # F^{w x̄ x}_w[(z, μ₁, μ₂), (1,0,0)]
    q, v = join_unsorted(x * r + z, y[rw[h]] * r + x[rv[h]])  # vertices (x, x_s; w, ν)
    h = h[q]
    bx, bz, bw = y[rw[h]], z[rv[h]], x[rv[h]]
    row, col = (lb.key(bx, bz, y[v], bw, mu[v], mu[side[h]]) for side in (rv, rw))
    gv = d[bw] * d[bx] ** 1.5 * zeta[bx] * np.conj(fv[h])
    t, (s,) = slot_copies(labels, y[v])
    row, col, gv, bz = pos(row[t], s), pos(col[t], s), gv[t], bz[t]
    G = {}
    for root in np.flatnonzero(n).tolist():
        on = bz == root
        G[root] = np.zeros((n[root], n[root]), dtype=complex)
        G[root][row[on], col[on]] = gv[on]
    return terms, G, {root: np.linalg.inv(m) for root, m in G.items()}


class LabelBasis:
    """The tube basis over Λ = all simples, one slot per label: basis k is
    (a, src → dst; z, ν, μ), the (ν, μ) entry at root z of the block
    Hom((src, a), (a, dst)), numbered as spans and Morphism.coeffs number
    them.  ``size[a, src, dst]`` is dim Hom((src, a), (a, dst)), ``key``
    numbers label tuples, and ``a``, ``src``, ``dst`` and ``loc`` (k less
    its block's first index) read them back."""

    __slots__ = ("N", "size", "first", "off", "dim", "a", "src", "dst", "loc")

    def __init__(self, ring):
        N = self.N = ring.N
        r = ring.rank
        per_root = np.einsum("ayz,xaz->axyz", N, N)  # block (a, x → y) at root z
        self.off = np.cumsum(per_root, axis=3) - per_root
        self.size = per_root.sum(axis=3)
        n = self.size.ravel()
        self.first = (np.cumsum(n) - n).reshape(r, r, r)
        self.dim = int(n.sum())
        self.a, self.src, self.dst = (np.repeat(i.ravel(), n)
                                      for i in np.indices((r, r, r)))
        self.loc = np.arange(self.dim) - np.repeat(self.first.ravel(), n)

    def key(self, a, src, dst, z, nu, mu):
        """Basis index of (a, src → dst; z, ν, μ): ν the vertex of (a, dst)
        at z, μ that of (src, a)."""
        return self.first[a, src, dst] + self.off[a, src, dst, z] + nu * self.N[src, a, z] + mu


def _products(eng: Engine) -> tuple:
    """(lb, product_terms(eng, lb)) for lb the LabelBasis of the engine's
    ring, made once per engine: fill and action read the same terms."""
    def make():
        lb = LabelBasis(eng.ring)
        return lb, product_terms(eng, lb)
    return cached(eng.cache, ("product terms",), make)


def _summed(lb: LabelBasis, keys: tuple, val: np.ndarray) -> tuple:
    """The terms summed per tuple of label-level basis indices."""
    slot, uniq = group(np.ravel_multi_index(keys, (lb.dim,) * len(keys)))
    return np.unravel_index(uniq, (lb.dim,) * len(keys)), add_per(slot, val, len(uniq))


def product_terms(eng: Engine, lb: LabelBasis) -> tuple:
    """Structure constants over Λ = all simples, as ((f, g, e), value):
    the coefficient of e in f·g for label-level basis indices.

    f = (b, x_p → x_m; z₂, ν₂, μ₂) stacks over g = (c, x_l → x_p; z₁, ν₁,
    μ₁), and the product has e = (a, x_l → x_m; z, ν, μ) with coefficient
    √(d_c d_b / d_a)·Σ_{t,β,σ} conj(F₁)·F₂·conj(F₃), where
    F₁ = F^{x_l c b}_z[(z₁,μ₁,β),(a,t,μ)], F₂ = F^{c x_p b}_z[(z₁,ν₁,β),
    (z₂,μ₂,σ)] and F₃ = F^{c b x_m}_z[(a,t,ν),(z₂,ν₂,σ)].  With the
    direction line split into (c, b) and fused back, F₁ rebrackets
    x_l⊗c⊗b below g, F₂ passes from g's top vertex to f's bottom one, and
    F₃ rebrackets c⊗b⊗x_m above f.  F₁ and F₂ meet on their row vertex
    (z₁, b, z, β) with the same letter c, then F₃ on (F₂'s column vertex
    (c, z₂, z, σ), F₁'s (c, b, a, t)), which would also drop a pair of
    unequal c.
    """
    (x, y, z, mu), rv, rw, cv, cw, val = eng.F.split
    r, n = eng.ring.rank, len(x)
    e2, e1 = join_unsorted(rw * r + y[rv], rw * r + x[rv])
    q, e3 = join_unsorted(cw * n + rv, cw[e2] * n + cv[e1])
    e1, e2 = e1[q], e2[q]
    b, c, a, xl, xp, xm = y[rw[e1]], y[rv[e1]], z[cv[e1]], x[rv[e1]], y[rv[e2]], y[rw[e3]]
    d = np.asarray(eng.d)
    keys = (lb.key(b, xp, xm, z[cv[e2]], mu[cv[e3]], mu[cv[e2]]),
            lb.key(c, xl, xp, z[rv[e1]], mu[rv[e2]], mu[rv[e1]]),
            lb.key(a, xl, xm, z[rw[e1]], mu[rw[e3]], mu[cw[e1]]))
    return _summed(lb, keys, np.sqrt(d[c] * d[b] / d[a])
                   * np.conj(val[e1]) * val[e2] * np.conj(val[e3]))


def _zeta(eng: Engine) -> np.ndarray:
    """ζ_a = F^{a ā a}_a[(1,0,0),(1,0,0)] per label a: the raw zig-zag
    scalar that duality's cup and cap are calibrated by."""
    (x, _y, z, _mu), rv, _rw, cv, _cw, val = eng.F.split
    zeta = np.zeros(eng.ring.rank, dtype=complex)
    one = (z[rv] == eng.ring.unit) & (z[cv] == eng.ring.unit)
    zeta[x[rv[one]]] = val[one]
    return zeta


def star_terms(eng: Engine, lb: LabelBasis) -> tuple:
    """The star over Λ = all simples, as ((f, e), value): the coefficient of
    e in f* for label-level basis indices.

    f = (b, x → y; z, ν, μ) has f* in direction a = b̄, e = (a, y → x; z′,
    ν′, μ′), with coefficient ζ_a⁻¹·Σ_{i,λ} S₁·conj(S₂)·S₃, where
    S₁ = F^{z′ b a}_{z′}[(y,i,μ′),(1,0,0)], S₂ = F^{a x b}_y[(z′,ν′,i),
    (z,μ,λ)], S₃ = F^{a b y}_y[(1,0,0),(z,ν,λ)], and ζ_a =
    F^{a ā a}_a[(1,0,0),(1,0,0)] is the raw zig-zag scalar that
    duality's cup and cap are calibrated by: the adjoint of f bent back
    with that cup and cap.  S₂ meets S₁ on its row vertex (z′, b, y, i)
    with the same letter a, then S₃ on its column vertex (a, z, y, λ),
    whose b is ā as S₁'s a is b̄.
    """
    (x, y, z, mu), rv, rw, cv, cw, val = eng.F.split
    r, u = eng.ring.rank, eng.ring.unit
    zeta = _zeta(eng)
    s1, s3 = np.flatnonzero(z[cv] == u), np.flatnonzero(z[rv] == u)
    e2, e1 = join_unsorted(rv[s1] * r + y[rw[s1]], rw * r + x[rv])
    q, e3 = join_unsorted(cw[s3], cw[e2])
    e1, e2, e3 = s1[e1[q]], e2[q], s3[e3]
    a, xs, b, ys = x[rv[e2]], y[rv[e2]], y[rw[e2]], z[rw[e2]]
    keys = (lb.key(b, xs, ys, z[cv[e2]], mu[cv[e3]], mu[cv[e2]]),
            lb.key(a, ys, xs, z[rv[e2]], mu[rv[e2]], mu[rw[e1]]))
    return _summed(lb, keys, val[e1] * np.conj(val[e2]) * val[e3] / zeta[a])


def rotations(eng: Engine) -> dict:
    """The fusion halves of the (b, y; x) dual pairs rotated onto the
    conjugate strand, each (x̄, b) → (ȳ,), as flat entries over the
    vertices ι_σ : ȳ → x̄⊗b: the t-th is Σ_σ R[t, σ]·ι_σ†, with

        R[t, σ] = ζ_y/ζ_x·√d_y·d_x^(−3/2)·F^{x̄ b y}_1[(ȳ,σ,0),(x,t,0)]

    (ζ as in _zeta), one F entry each, where duality.rotate_clockwise bends
    the fusion half of pairs.canonical_pair with a cup and a cap.  Fields
    b, y, x, t, sigma and val, one entry per R[t, σ] of every admissible
    (b, y, x)."""
    (x, y, z, mu), rv, rw, cv, _cw, val = eng.F.split
    d, zeta = np.asarray(eng.d), _zeta(eng)
    h = np.flatnonzero(z[rw] == eng.ring.unit)
    b, yy, xx = y[rv[h]], y[rw[h]], z[cv[h]]
    w = zeta[yy] / zeta[xx] * np.sqrt(d[yy]) * d[xx] ** -1.5 * val[h]
    return {"b": b, "y": yy, "x": xx, "t": mu[cv[h]], "sigma": mu[rv[h]], "val": w}


def vertex_pieces(eng: Engine, rot: dict) -> tuple:
    """((vertex_pads, find), (tops, find), (pads, find)): the three-letter
    pieces that Δ's half-braiding is drawn from and every hexagon check
    reads, for every label tuple at once, as flat entries: a dict of
    equal-length arrays, one per field, the coefficient in ``val``, sorted
    by the fields it is looked up on; ``find(*cols)`` joins query columns of
    those fields against it (_keyed).

    - vertex_pads, fields u, a, b, c, mu, z, rho, v, nu1, nu2, found by (a,
      u, c, z, ρ): the entry [ρ, ((v,ν₁),(z,ν₂))] at root z of
      id_u ⊗ ι† : (u, a, b) → (u, c) for the μ-th vertex ι : c → a⊗b,
      F^{u a b}_z[(v,ν₁,ν₂),(c,μ,ρ)];
    - tops, fields a, b, c, mu, y, x, w, t, nu2, nu, found by (a, x, w, ν):
      the entry [ν₂, ν] at root w of (ι† ⊗ id_y) ∘ (id_a ⊗ split_t) :
      (a, x) → (c, y) for the t-th vertex split_t : x → b⊗y,
      conj F^{a b y}_w[(c,μ,ν₂),(x,t,ν)];
    - pads, fields u, b, y, x, t, v, nu1, z, rho, nu2, found by their first
      seven: the entry [ρ, ((v,ν₁),(z,ν₂))] of id_u ⊗ g_t : (u, x̄, b) →
      (u, ȳ) for g_t = Σ_σ R[t, σ]·ι_σ†, ι_σ the σ-th vertex ȳ → x̄⊗b:
      R[t, σ] times the vertex pad of (u, x̄, b, ȳ) at μ = σ, added over σ.

    Each vertex pad and top is one F entry, as Engine._tensor_one_left
    reads them through its basis change, so they are the same numbers.
    Δ's R are the rotated fusion halves (rotations); a caller may pass any
    R in that form.
    """
    (x, y, z, mu), rv, rw, cv, cw, val = eng.F.split
    dual = np.asarray(eng.ring.dual)
    r, n = eng.ring.rank, int(eng.ring.N.max())
    vpads = {"u": x[rv], "a": y[rv], "b": y[rw], "c": z[cv], "mu": mu[cv], "z": z[rw],
             "rho": mu[cw], "v": z[rv], "nu1": mu[rv], "nu2": mu[rw], "val": val}
    tops = {"a": x[rv], "b": y[rv], "c": z[rv], "mu": mu[rv], "y": y[rw], "x": z[cv],
            "w": z[rw], "t": mu[cv], "nu2": mu[rw], "nu": mu[cw], "val": np.conj(val)}
    # R[t, σ] meets the vertex pads of (u, x̄, b, ȳ) on (b, y, x, σ)
    p, q = join_unsorted(
        np.ravel_multi_index((rot["b"], rot["y"], rot["x"], rot["sigma"]), (r, r, r, n)),
        np.ravel_multi_index((vpads["b"], dual[vpads["c"]], dual[vpads["a"]], vpads["mu"]),
                             (r, r, r, n)))
    fields = ("u", "b", "y", "x", "t", "v", "nu1", "z", "rho", "nu2")
    dims = (r, r, r, r, n, r, n, r, n, n)
    slot, keys = group(np.ravel_multi_index(
        (*(vpads[f][p] for f in ("u", "b")), *(rot[f][q] for f in ("y", "x", "t")),
         *(vpads[f][p] for f in fields[5:])), dims))
    pads = dict(zip(fields, np.unravel_index(keys, dims)))
    pads["val"] = add_per(slot, rot["val"][q] * vpads["val"][p], len(keys))
    return (_keyed(vpads, ("a", "u", "c", "z", "rho"), (r, r, r, r, n)),
            _keyed(tops, ("a", "x", "w", "nu"), (r, r, r, n)),
            _keyed(pads, fields[:7], dims[:7]))


def _keyed(family: dict, fields: tuple, dims: tuple) -> tuple:
    """(family sorted by ``fields``, find): find(*cols) is the join
    (fsymbols.join: query, entry) of columns of those fields, each below
    its entry of ``dims``, against the sorted family."""
    key = np.ravel_multi_index(tuple(family[f] for f in fields), dims)
    order = np.argsort(key, kind="stable")
    key = key[order]
    return ({f: v[order] for f, v in family.items()},
            lambda *cols: join(key, np.ravel_multi_index(cols, dims)))


def slot_copies(labels: np.ndarray, *per_term) -> tuple:
    """(terms, slots): each term once per choice of a slot for each of its
    labels, with those slots; ``labels`` is the slots' labels, ascending."""
    t, picks = np.arange(len(per_term[0])), []
    for lab in per_term:
        q, s = join(labels, lab[t])
        t, picks = t[q], [p[q] for p in picks] + [s]
    return t, picks
