"""Tube algebra of a fusion category over a chosen object Λ.

Λ is a multiplicity vector over the simple labels.  The algebra lives on
A(Λ) = ⊕_a Hom(Λ⊗a, a⊗Λ), and a tube element is its coefficient vector in
the basis of TubeAlgebra.spans: per direction a and pair of slots of Λ, the
hom basis of that block.  Alongside it: Δ(Λ) = ⊕_x x⊗Λ⊗x̄ with its
unitary half-braiding, and the two inverse maps between tube elements and
the endomorphisms of Δ that commute with it: t_map, A(Λ) acting on Δ by
its own product (tables.action), and f_map, which closes a diagram.
Maps on Δ, the half-braiding and those endomorphisms alike, are one matrix
per root on the stacked trees of its summands (sums.StackedBasis).

The structure constants are fixed contractions of F entries (tables.fill),
and tube_product and tube_star read them; the diagrams they contract are
kept as the tests' oracle.  Δ's vertex pieces, the rotated fusion halves
included, are flat F entries as well (tables.vertex_pieces,
tables.rotations), so Δ is drawn and checked with no diagram and no
TreeBasis: the states on both sides of a half-braiding at every letter
are integer arrays from one growth (_Sides), the legs id_a ⊗ e_b of Δ
are one join of those entries (_delta_legs), and the stored braiding is
the a = 1 slice; an extracted simple, a sum of one-letter words, has its
legs joined from its stored e_b between two F entries (_word_legs).  The
hexagons of the pairs (a, b) are one more join over those legs
(_hexagons), over runs of letters a up to a fixed size (CHUNK_COLUMNS)
to keep the working set bounded.  Naturality and compression read
id_b ⊗ − on Δ as Ω, joined from F entries (_Omega), and f ⊗ id_b as
one masked gather of f (sums.lift).  Only f_map's closures are drawn in
the word engine, with vertices through canonical_pair (dual bases with the
√(d·d·d) weight).  Each √d prefactor is written once, next to its formula,
and nothing re-normalizes, so a convention slip shows up as a failed
unitarity, round-trip or table check.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .duality import ev
from .errors import NotInCommutant, ShapeError, ToleranceError, worst
from .fsymbols import add_per, group, join, join_unsorted, vertices
from .morphism import Engine, Linear, cached, engine_for
from .pairs import canonical_pair
from .sums import StackedBasis, SumObject, block_diagonal, cut_block, lift, lifts_of

__all__ = [
    "LambdaObject", "DeltaObject", "TubeElement",
    "TubeAlgebra", "build_delta", "build_tube_algebra",
    "tube_product", "tube_star", "t_map", "f_map",
    "naturality_residual", "verify_halfbraiding",
    "check_delta", "tube_json",
]


# ---- the object Λ -----------------------------------------------------------

@dataclass(frozen=True)
class LambdaObject:
    """Multiplicity vector over the simple labels: Λ = ⊕ₓ x^{⊕mult[x]}."""

    mult: tuple

    def __post_init__(self):
        try:
            whole = all(int(m) == m >= 0 for m in self.mult)
        except (TypeError, ValueError, OverflowError):  # None, NaN, ±inf
            whole = False
        if not self.mult or not whole:
            raise ShapeError("multiplicities must be nonnegative integers")
        if not any(self.mult):
            raise ShapeError("at least one positive multiplicity required")
        object.__setattr__(self, "mult", tuple(int(m) for m in self.mult))

    @classmethod
    def all_simples(cls, spec) -> "LambdaObject":
        return cls(tuple(1 for _ in spec.labels))

    @classmethod
    def from_mapping(cls, spec, mapping) -> "LambdaObject":
        """Λ from {label or label index: multiplicity}, absent labels 0.
        Raises ShapeError for an unknown label, an index outside the
        labels, a label given twice (by name and by index), or a
        multiplicity that is not a nonnegative integer."""
        mult: dict = {}
        for key, m in mapping.items():
            if isinstance(key, str):
                if key not in spec.labels:
                    raise ShapeError(f"unknown label {key!r}")
                key = spec.index(key)
            elif int(key) != key or not 0 <= key < len(spec.labels):
                raise ShapeError(f"label index {key!r} outside 0..{len(spec.labels) - 1}")
            if int(key) in mult:
                raise ShapeError(f"label {spec.labels[int(key)]!r} given twice")
            mult[int(key)] = m
        return cls(tuple(mult.get(x, 0) for x in range(len(spec.labels))))

    def slots(self) -> tuple:
        """Ordered (label, copy) pairs, one per simple summand of Λ."""
        return tuple((x, c) for x, m in enumerate(self.mult) for c in range(m))

    def as_dict(self, spec) -> dict:
        return {spec.labels[x]: m for x, m in enumerate(self.mult) if m}


# ---- Δ(Λ) and its half-braiding ---------------------------------------------

@dataclass(eq=False)
class DeltaObject:
    """⊕ₓ x⊗Λ⊗x̄ with a unitary half-braiding, one component per simple.

    ``obj`` tags summands by (x, slot); ``braiding[a]`` maps Δ⊗a → a⊗Δ,
    one matrix per root from the stacked trees of obj + (a,) to those of
    (a,) + obj: the hexagon's leg id_1 ⊗ e_a, the a = 1 slice of the legs
    that build_delta joins from flat F-entry vertex pieces (_delta_legs,
    tables.vertex_pieces).  ``residuals`` holds the worst unitarity / unit
    / hexagon defects of the build.  Naturality and compression read
    id_b ⊗ − on obj through Ω, joined from F entries once per obj (_omega).
    """

    spec: object
    lam: LambdaObject
    obj: SumObject
    braiding: dict = field(repr=False)
    residuals: dict

    @property
    def engine(self) -> Engine:
        return self.obj.engine


def _pieces(eng: Engine) -> tuple:
    """tables.vertex_pieces with Δ's rotations (tables.rotations), each
    family with its find, kept in the engine's cache."""
    return cached(eng.cache, ("vertex pieces",),
                  lambda: tables.vertex_pieces(eng, tables.rotations(eng)))


def _firsts(N: np.ndarray, roots: np.ndarray, runs: np.ndarray | None = None) -> Callable:
    """(s, b, z) -> the position at root z of the first child (z, 0) of
    state s when the states, in order, are grown by the letter b
    (StackedBasis.of): the children at z of the states before s,
    counted afresh at each run of equal ``runs`` (sorted) if given.  That
    is Σ_v C[s, v]·N[v, b, z], C[s, v] the states before s at root v, so
    only C is kept, one row per state."""
    C = np.zeros((len(roots), len(N)), dtype=np.int64)
    C[np.arange(len(roots)), roots] = 1
    C = np.cumsum(C, axis=0) - C
    if runs is not None and len(runs):
        start = np.flatnonzero(np.diff(runs, prepend=-1))
        C -= np.repeat(C[start], np.diff(start, append=len(runs)), axis=0)
    per = N.transpose(1, 2, 0)  # [b, z, v]
    return lambda s, b, z: (C[s] * per[b, z]).sum(axis=1)


def _locator(group: np.ndarray, pos: np.ndarray, size: int) -> Callable:
    """(g, p) -> the state at position p of group g, for states numbered in
    order whose positions run 0, 1, … within each group g < size."""
    n = np.bincount(group, minlength=size)
    off = np.cumsum(n) - n
    at = np.empty(len(group), dtype=np.int64)
    at[off[group] + pos] = np.arange(len(group))
    return lambda g, p: at[off[g] + p]


class _Sides:
    """The states on both sides of a half-braiding on obj at every letter
    c, as arrays, made once per obj (_sides).

    Left, the states of (c,) + obj from one growth of the words (c,) + w
    (StackedBasis.of), letter-major: ``letter``, ``summand``, ``root``,
    ``pos`` at the root in c's own stack and ``trees``; ``first(s, b, z)``
    is the position at z of the first child of s in (c,) + obj + (b,)
    (_firsts), ``at(c·rank + z, position)`` the state there and ``find(c,
    summand, w, μ, u, μ′, …)`` the state with that tree.  Right,
    ``rights`` = (c, t, v, ν₁) of every obj + (c,), obj's state t grown by
    (t's root, c) → v in slot ν₁, at ``r_pos`` at v, and ``r_at`` as
    ``at``.  ``dims[c, z]`` and ``rdims[c, z]`` count the trees of (c,) +
    obj and obj + (c,) at z; ``uw`` are the roots of obj's own states."""

    def __init__(self, obj: SumObject):
        ring = obj.engine.ring
        N, r = ring.N, ring.rank
        sb = StackedBasis.of(ring, [(c,) + w for c in range(r) for w in obj.summands])
        self.letter, self.summand = np.divmod(sb.summand, len(obj))
        self.root, self.trees = sb.root, sb.trees
        group = self.letter * r + self.root
        self.dims = np.bincount(group, minlength=r * r).reshape(r, r)
        self.pos = sb.pos - (np.cumsum(self.dims, axis=0) - self.dims)[self.letter, self.root]
        self.first = _firsts(N, self.root, self.letter)
        self.at = _locator(group, self.pos, r * r)
        self.uw = obj.stacked().root
        c, t, v, nu = self.rights = vertices(N[self.uw].transpose(1, 0, 2))
        self.rdims = np.bincount(c * r + v, minlength=r * r).reshape(r, r)
        self.r_pos = _firsts(N, self.uw)(t, c, v) + nu
        self.r_at = _locator(c * r + v, self.r_pos, r * r)

    @functools.cached_property
    def find(self) -> Callable:
        keys = (self.letter, self.summand, *self.trees.reshape(len(self.root), -1).T)
        dims = tuple(int(k.max()) + 1 for k in keys)
        key = np.ravel_multi_index(keys, dims)
        order = np.argsort(key)
        key = key[order]
        return lambda *labels: order[np.searchsorted(key, np.ravel_multi_index(labels, dims))]


def _sides(obj: SumObject) -> _Sides:
    return obj.kept(("sides",), lambda: _Sides(obj))


class _Omega:
    """id_c ⊗ − on a sum of three-letter words (Δ's), every letter c at
    once, from flat F entries: made once per obj (_omega).

    ``mats[c][r]`` is the unitary Ω from the pairs (p, ν), obj's state p at
    z and slot ν of (c, z; r), onto the states of (c,) + obj at r (_Sides'
    positions): on a summand (x, l, m), for p the tree ((u, σ₁), (z, σ₂))
    and the state ((w₁, μ₁), (w₂, μ₂), (r, μ₃)),

        Ω[state, (p, ν)] = Σ_μ conj F^{c x l}_{w₂}[(w₁,μ₁,μ₂),(u,σ₁,μ)]
                               · conj F^{c u m}_r[(w₂,μ,μ₃),(z,σ₂,ν)],

    each column's F^{c u m} entries joined with the F^{c x l} entries on
    the vertex (c, u; w₂)_μ, the rows looked up by tree (_Sides.find), and
    added in μ order, as Engine.omega recurses a letter at a time.
    ``left[c, r]`` lists Ω's columns, p by p and each p's by ν, and
    ``right[c, r]`` the states of obj + (c,) at r, as (parents, slots)
    (sums.lifts_of): f ⊗ id_c at r is lift(f, right, right), and id_c ⊗ f
    is Ω·lift(f, left, left)·Ω†.
    """

    def __init__(self, obj: SumObject):
        N, r = obj.engine.ring.N, obj.engine.ring.rank
        S, sb, word = _sides(obj), obj.stacked(), np.array(obj.summands)
        (_x, _y, z, mu), rv, rw, cv, cw, val = tables._f_entries(obj.engine.F)
        V, vertex = len(z), (np.cumsum(N) - N.ravel()).reshape(N.shape)  # as _f_entries
        # Ω's columns (p, ν) at (c, r) in order, p the tree ((u, σ₁), (z, σ₂)) of (x, l, m)
        c, rt, p, nu = vertices(N[:, sb.root].transpose(0, 2, 1))
        col = np.arange(len(c)) - np.searchsorted(c * r + rt, c * r + rt)
        j, (u, s1), (zp, s2) = sb.summand[p], *sb.trees[p].transpose(1, 2, 0)
        x, l, m = word[j].T
        # each column's F^{c u m} entries, then the F^{c x l} entries they meet
        k, g = join_unsorted(cv * V + cw, (vertex[u, m, zp] + s2) * V + vertex[c, zp, rt] + nu)
        h, f = join_unsorted(cv * V + cw, (vertex[x, l, u] + s1)[k] * V + rv[g])
        k, g = k[h], g[h]
        row = S.pos[S.find(c[k], j[k], z[rv[f]], mu[rv[f]], z[rw[f]], mu[rw[f]], rt[k], mu[rw[g]])]
        dims = (r, r) + (int(S.dims.max()),) * 2
        slot, keys = group(np.ravel_multi_index((c[k], rt[k], row, col[k]), dims))
        self.mats = _matrices(dict(zip(("b", "z", "row", "col"), np.unravel_index(keys, dims)),
                                   val=add_per(slot, np.conj(val[f]) * np.conj(val[g]), len(keys))),
                              S.dims, S.dims)
        self.left, self.right = lifts_of(N[:, sb.root]), lifts_of(N[sb.root].transpose(1, 0, 2))


def _omega(obj: SumObject) -> _Omega:
    return obj.kept(("omega",), lambda: _Omega(obj))


def _delta_legs(obj: SumObject) -> Callable:
    """letters -> every channel (c, μ) of every leg id_a ⊗ e_b of Δ at
    those letters a, as one join over flat vertex pieces: fields a, b, c,
    mu, z, row, col and val, the entry [row, col] at root z of the map from
    the stacked trees of (a,) + Δ + (b,) to those of (c,) + Δ, one entry
    each.  At a = 1, channel (b, 0), the leg is e_b itself (build_delta).

    On the summand j = (x, l, x̄) of Δ a tree of (a,) + Δ + (b,) is the
    vertex (a, x) → w in slot ν, then (w, l) → u in slot ν′, then a tree
    ((v, ν₁), (z, ν₂)) of (u, x̄, b): a state q of (a,) + Δ at v, grown by
    (z, ν₂).  For each (b, y; x) vertex t the leg splits x into (b, y) on
    the left line and absorbs b into the conjugate line with the rotated
    fusion half on the right (√(d_b⁻¹)·√(d_b d_y d_x)), onto the tree
    ((w, ν₂′), (u, ν′), (z, ρ)) of (c,) + Δ on the summand i = (y, l, ȳ) of
    the same slot, with √(d_x d_y)·Σ_t top_t[ν₂′, ν]·pad_t[ρ, ((v,ν₁),(z,ν₂))]
    (tables.vertex_pieces).  So the terms are the states q joined with the
    tops on (a, x, w, ν), then with the pads on (u, b, y, x, t, v, ν₁); an
    entry adds its terms in t order before the weight, as a Kronecker sum
    over t does.  The states of every (c,) + Δ, where the rows are looked
    up (_Sides.find), and their trees are read once (_sides).
    """
    eng = obj.engine
    ring, d = eng.ring, np.asarray(eng.d)
    r, M = ring.rank, int(ring.N.max())
    (top, find_top), (pad, find_pad) = _pieces(eng)[1:]
    S = _sides(obj)
    letter, j, v, pos, first = S.letter, S.summand, S.root, S.pos, S.first
    (w, nu), (u, nu_u), nu1 = S.trees[:, 0].T, S.trees[:, 1].T, S.trees[:, 2, 1]
    tag_x, tag_s = np.array(obj.tags).T
    summand = np.zeros((r, tag_s.max() + 1), dtype=np.int64)
    summand[tag_x, tag_s] = np.arange(len(obj))

    def legs(letters) -> dict:
        want = np.zeros(r, dtype=bool)
        want[letters] = True
        s = np.flatnonzero(want[letter])
        q, t = find_top(letter[s], tag_x[j[s]], w[s], nu[s])
        q = s[q]
        x, b, y = tag_x[j[q]], top["b"][t], top["y"][t]
        k, p = find_pad(u[q], b, y, x, top["t"][t], v[q], nu1[q])
        q, t, x, b, y = q[k], t[k], x[k], b[k], y[k]
        z = pad["z"][p]
        row = pos[S.find(top["c"][t], summand[y, tag_s[j[q]]], w[q], top["nu2"][t],
                         u[q], nu_u[q], z, pad["rho"][p])]
        col = first(q, b, z) + pad["nu2"][p]
        dims = (r, r, r, M, r, int(row.max(initial=0)) + 1, int(col.max(initial=0)) + 1)
        slot, keys = group(np.ravel_multi_index(
            (letter[q], b, top["c"][t], top["mu"][t], z, row, col), dims))
        weight = np.empty(len(keys))
        weight[slot] = np.sqrt(d[x] * d[y])
        out = dict(zip(("a", "b", "c", "mu", "z", "row", "col"), np.unravel_index(keys, dims)))
        out["val"] = add_per(slot, top["val"][t] * pad["val"][p], len(keys)) * weight
        return out

    return legs


def _matrices(entries: dict, rows: np.ndarray, cols: np.ndarray) -> dict:
    """Entries with fields b, z, row, col and val as b -> root z -> matrix
    of rows[b, z] × cols[b, z], at every (b, z) where both are nonzero."""
    r = len(rows)
    key = entries["b"] * r + entries["z"]
    order = np.argsort(key, kind="stable")
    cut = np.searchsorted(key[order], np.arange(r * r + 1))
    out = {}
    for b in range(r):
        out[b] = {}
        for z in np.flatnonzero(rows[b] * cols[b]).tolist():
            k = order[cut[b * r + z]:cut[b * r + z + 1]]
            m = out[b][z] = np.zeros((rows[b, z], cols[b, z]), dtype=complex)
            m[entries["row"][k], entries["col"][k]] = entries["val"][k]
    return out


class _Stacked:
    """A half-braiding on obj, letter a -> root -> matrix from the stacked
    trees of obj + (a,) to those of (a,) + obj, read through e(a).
    ``parts`` are the first summands of runs that the braiding keeps apart
    (verify_halfbraiding)."""

    __slots__ = ("obj", "braiding", "zeroed", "part_of", "nparts")

    def __init__(self, obj: SumObject, braiding: dict, parts=(0,)):
        self.obj, self.braiding, self.zeroed = obj, braiding, {}
        self.part_of = np.searchsorted(parts, np.arange(len(obj)), side="right") - 1
        self.nparts = len(parts)

    def e(self, a: int) -> dict:
        """braiding[a], or the copy verify_halfbraiding zeroed for it."""
        return self.zeroed.get(a, self.braiding[a])

    def ids(self, side: tuple, z: int) -> np.ndarray:
        """The part of each coordinate at z of obj.stacked(*side)."""
        return np.repeat(self.part_of, np.diff(self.obj.stacked(*side).starts[z]))

    def defects(self, mats: list, side: tuple, roots: list) -> np.ndarray:
        """Max-abs entry on each part's rows of the matrices ``mats``, one
        per root in ``roots`` onto the trees of obj.stacked(*side), in one
        fold; off a part's own columns the rows are exact zeros, as long as
        every entry is finite (verify_halfbraiding).  One part reads no
        stack."""
        if self.nparts == 1:
            return np.array([np.max(np.abs(np.concatenate([D.ravel() for D in mats])),
                                    initial=0.0)])
        out = np.zeros(self.nparts)
        np.maximum.at(out, np.concatenate([self.ids(side, z) for z in roots]),
                      np.concatenate([np.max(np.abs(D), axis=1, initial=0.0) for D in mats]))
        return out


def _entries(hb: _Stacked) -> tuple:
    """The braiding's entries e_c[v][row, col] ≠ 0, letter c ascending, by
    state: (c, v, q, p, value), q the row's state of (c,) + W and p the
    column's of W + (c,) in _sides' numbering."""
    S = _sides(hb.obj)
    r = len(S.dims)
    rows = [(np.full(len(i), c), np.full(len(i), z), i, k, m[i, k])
            for c in range(r) for z, m in hb.e(c).items() for i, k in (np.nonzero(m),)]
    c, v, row, col, val = (np.concatenate(f) for f in zip(*rows))
    return c, v, S.at(c * r + v, row), S.r_at(c * r + v, col), val


def _word_legs(hb: _Stacked, entries: tuple | None = None) -> Callable:
    """letters -> every channel (c, μ) of every leg id_a ⊗ e_b at those
    letters a of a sum X of one-letter words, in _delta_legs' fields: the
    stored e_b (hb.e, decoded by _entries unless ``entries`` are given)
    joined between two F entries, F unitary,

        leg[(c,μ,ρ), (v,ν₁,ν₂)] = Σ conj F^{a b x_j}_r[(c,μ,ρ),(u,σ′,τ)]
                                  · e_b[u][(j,σ′),(i,σ)] · F^{a x_i b}_r[(v,ν₁,ν₂),(u,σ,τ)],

    from the tree ((a, x_i) → v, ν₁), ((v, b) → r, ν₂) of (a,) + X + (b,)
    to ((c, x_j) → r, ρ) of (c,) + X.  Raises ShapeError for a longer word
    (SumObject.one_letter)."""
    obj = hb.obj
    one = obj.one_letter()
    label, (_count, before) = one.label, one.left  # before[c, j, z]: j's first at z
    N, r, M = obj.engine.ring.N, obj.engine.ring.rank, int(obj.engine.ring.N.max())
    S = _sides(obj)
    b, u, q, p, e_val = _entries(hb) if entries is None else entries
    i, j = S.rights[1][p], S.summand[q]
    (x, _y, z, mu), rv, rw, cv, cw, val = tables._f_entries(obj.engine.F)
    vertex, V = (np.cumsum(N) - N.ravel()).reshape(N.shape), len(x)  # as tables._f_entries
    # e_b's column (i, σ) and row (j, σ′) as the vertices (x_i, b) → u and (b, x_j) → u
    col_v = vertex[label[i], b, u] + S.rights[3][p]
    row_v = vertex[b, label[j], u] + S.pos[q] - before[b, j, u]

    def legs(letters) -> dict:
        letters = np.atleast_1d(letters)
        a, k = np.repeat(letters, len(col_v)), np.tile(np.arange(len(col_v)), len(letters))
        h, g = join_unsorted(x[rv] * V + cv, a * V + col_v[k])
        a, k = a[h], k[h]
        h, l = join_unsorted(cv * V + cw, row_v[k] * V + cw[g])
        a, k, g = a[h], k[h], g[h]
        v, c, root = z[rv[g]], z[rv[l]], z[rw[l]]
        row = before[c, j[k], root] + mu[rw[l]]
        col = S.first(S.at(a * r + v, before[a, i[k], v] + mu[rv[g]]), b[k], root) + mu[rw[g]]
        dims = (r, r, r, M, r, row.max(initial=0) + 1, col.max(initial=0) + 1)
        slot, keys = group(np.ravel_multi_index((a, b[k], c, mu[rv[l]], root, row, col), dims))
        out = dict(zip(("a", "b", "c", "mu", "z", "row", "col"), np.unravel_index(keys, dims)))
        out["val"] = add_per(slot, np.conj(val[l]) * e_val[k] * val[g], len(keys))
        return out

    return legs


# a run of letters whose hexagons _hexagons joins at once has legs with at
# most this many columns in all, unless it is one letter: the memory bound
CHUNK_COLUMNS = 4096


def _chunks(cost: np.ndarray):
    """Runs [lo, hi) of consecutive letters, each as long as its costs add
    up to at most CHUNK_COLUMNS, and at least one letter."""
    lo = 0
    while lo < len(cost):
        hi, total = lo + 1, cost[lo]
        while hi < len(cost) and total + cost[hi] <= CHUNK_COLUMNS:
            total, hi = total + cost[hi], hi + 1
        yield lo, hi
        lo = hi


def _hexagons(hb: _Stacked, legs: Callable | None = None) -> np.ndarray:
    """The worst hexagon defect of each part at each pair (a, b), an array
    (part, a, b): max-abs over the channels (c, μ) and roots z of
    e_c ∘ (id ⊗ ι†) − (ι† ⊗ id) ∘ (id_a ⊗ e_b) ∘ (e_a ⊗ id_b), with
    ι = ι_{c,μ} : c → a⊗b, from the stacked trees of W + (a, b) to those of
    (c,) + W, read on the rows of the part.  ``legs(letters)`` are the
    channels of id_a ⊗ e_b at those letters a for every b, in _delta_legs'
    fields; by default _word_legs, on the same decoding of the braiding.

    Both sides join the braiding's entries by state (_entries, decoded
    once), every b, channel and root at once, over runs of letters a whose
    legs have at most CHUNK_COLUMNS columns (_chunks), summed per (b, μ,
    row, column); a column is a state of W + (a,) grown, so it names its
    a.  e_c ∘ (id_W ⊗ ι†) joins e_c's entries, at the child (z, ρ) of W's
    state t, with the vertex pads id_u ⊗ ι† of t's root u (tables).
    e_a ⊗ id_b grows each entry of e_a by every vertex (v, b) → z on both
    sides, and the legs meet it on their column, the first child of a state
    of (a,) + W plus the vertex slot (_firsts): no two-letter stack is grown.
    """
    obj, ring = hb.obj, hb.obj.engine.ring
    N, r, M = ring.N, ring.rank, int(ring.N.max())
    vp, find_vpad = _pieces(obj.engine)[0]
    S = _sides(obj)
    entries = ec, ev, q, p, e_val = _entries(hb)
    if legs is None:
        legs = _word_legs(hb, entries)
    ra, rt, _rv, rnu = S.rights
    count = N[S.uw].transpose(1, 0, 2)  # the states (c, t, v, ν₁) of every W + (c,) at (c, t, v)
    grow = (np.cumsum(count) - count.ravel()).reshape(count.shape)  # the first of them
    u_of, t_of, rho = S.uw[rt[p]], rt[p], rnu[p]
    cv, cb, cz, cnu = vertices(N)
    # keys (b, μ, row, column) with the column (state, z, ν₂), and the legs'
    # columns below any count of children
    dims = (r, M, len(S.letter), len(ra), r, M)
    ldims = (r, r, r, len(S.letter) * int(N.sum(axis=2).max()))

    def gaps(lo: int, hi: int) -> tuple:  # (a, b, row, |lhs − rhs|) per entry
        letters = np.arange(lo, hi)
        # e_c ∘ (id_W ⊗ ι†)
        a, k = np.repeat(letters, len(ec)), np.tile(np.arange(len(ec)), hi - lo)
        h, s = find_vpad(a, u_of[k], ec[k], ev[k], rho[k])
        a, k, b = a[h], k[h], vp["b"][s]
        grown = grow[a, t_of[k], vp["v"][s]] + vp["nu1"][s]
        lhs = np.ravel_multi_index((b, vp["mu"][s], q[k], grown, ev[k], vp["nu2"][s]), dims)
        lhs_val = e_val[k] * vp["val"][s]

        # (ι† ⊗ id) ∘ (id_a ⊗ e_b) ∘ (e_a ⊗ id_b)
        first, last = np.searchsorted(ec, [lo, hi])
        k, h = join(cv, ev[first:last])
        k += first
        leg = legs(letters)
        g, l = join_unsorted(
            np.ravel_multi_index((leg["a"], leg["b"], leg["z"], leg["col"]), ldims),
            np.ravel_multi_index((ec[k], cb[h], cz[h], S.first(q[k], cb[h], cz[h]) + cnu[h]),
                                 ldims))
        k, b, z, nu2 = k[g], cb[h[g]], cz[h[g]], cnu[h[g]]
        rhs = np.ravel_multi_index((b, leg["mu"][l], S.at(leg["c"][l] * r + z, leg["row"][l]),
                                    p[k], z, nu2), dims)
        rhs_val = leg["val"][l] * e_val[k]

        slot, keys = group(np.concatenate([lhs, rhs]))
        b, _mu, row, col = np.unravel_index(keys, dims)[:4]
        gap = add_per(slot, np.concatenate([lhs_val, -rhs_val]), len(keys))
        return ra[col], b, row, np.hypot(gap.real, gap.imag)

    out = np.zeros((hb.nparts, r, r))
    for lo, hi in _chunks(S.dims @ N.sum(axis=(1, 2))):
        a, b, row, gap = gaps(lo, hi)
        np.maximum.at(out, (hb.part_of[S.summand[row]], a, b), gap)
    return out


_IDENTITIES = {"unitarity": "half-braiding unitarity",
               "unit": "unit braiding component", "hexagon": "hexagon"}


def verify_halfbraiding(obj: SumObject, braiding, tol: float, legs: Callable | None = None,
                        parts=(0,)) -> list:
    """Check that ``braiding`` (letter a -> root -> e_a : obj⊗a → a⊗obj on
    stacked trees) is a unitary half-braiding, per root and letter:
    e_a†·e_a = 1 = e_a·e_a†, e_1 = 1, and the hexagon of every pair (a, b)
    (_hexagons, with ``legs(letters)`` as its legs id_a ⊗ e_b, by default
    _word_legs).  The sizes come from the states of obj's both sides
    (_sides).

    ``parts`` are the first summands of runs that the braiding keeps apart,
    as the simples of a direct sum: each is read on its own rows, as if
    alone, and reads NaN where an e_a non-finite on it enters.  The
    non-finite entries are zeroed in copies, never in ``braiding``.  Returns
    the worst residual of each identity by name, one dict per part.  Raises
    ToleranceError when one reaches ``tol``, naming the lowest failing part
    (the error's ``part``; the list is its ``residuals``), its first
    failing identity (unitarity, unit, hexagon) and, for the hexagon, the
    pair (a, b) with that part's worst defect: an engine or data bug.
    """
    ring = obj.engine.ring
    hb = _Stacked(obj, braiding, parts)
    S = _sides(obj)
    res = {name: np.zeros(hb.nparts) for name in _IDENTITIES}
    lost = np.zeros((ring.rank, hb.nparts), dtype=bool)
    for a in range(ring.rank):
        e, zeroed = hb.e(a), {}
        for z, m in e.items() if hb.nparts > 1 else ():
            # 0·NaN would carry one part's NaN into the others' rows
            bad = ~np.isfinite(m)
            if bad.any():
                lost[a, hb.ids(((a,), ()), z)[bad.any(axis=1)]] = True
                zeroed[z] = np.where(bad, 0.0, m)
        if zeroed:
            e = hb.zeroed[a] = {**e, **zeroed}
        for side, dims, gram in ((((), (a,)), S.rdims[a], lambda m: m.conj().T @ m),
                                 (((a,), ()), S.dims[a], lambda m: m @ m.conj().T)):
            roots = np.flatnonzero(dims).tolist()
            grams = [gram(e[z]) if z in e else np.zeros((dims[z], dims[z])) for z in roots]
            for D in grams:
                D.flat[::len(D) + 1] -= 1.0
            res["unitarity"] = np.maximum(res["unitarity"], hb.defects(grams, side, roots))
    unit = hb.e(ring.unit)
    res["unit"] = hb.defects([m - np.eye(len(m)) for m in unit.values()],
                             ((ring.unit,), ()), list(unit))
    pairs = _hexagons(hb, legs)
    res["hexagon"] = pairs.max(axis=(1, 2))
    res["unitarity"][lost.any(axis=0)] = res["hexagon"][lost.any(axis=0)] = np.nan
    res["unit"][lost[ring.unit]] = np.nan
    out = [{name: float(v[k]) for name, v in res.items()} for k in range(hb.nparts)]
    labels = obj.engine.spec.labels
    for k, per_part in enumerate(out):
        for name, text in _IDENTITIES.items():
            if not per_part[name] < tol:
                msg = f"{text} defect {per_part[name]:.3e} >= {tol:g}"
                if name == "hexagon":  # the first pair at the worst, NaN first
                    worst_pair = np.where(np.isnan(pairs[k]), np.inf, pairs[k])
                    a, b = divmod(int(np.argmax(worst_pair)), ring.rank)
                    msg += f" at (a, b) = ({labels[a]}, {labels[b]})"
                exc = ToleranceError(msg)
                exc.part, exc.residuals = k, out
                raise exc
    return out


# worst residual Δ's drawn half-braiding may show
DELTA_TOL = 1e-9


def build_delta(spec, lam: LambdaObject) -> DeltaObject:
    """Assemble Δ(Λ), draw the legs id_1 ⊗ e_b as one join over the flat
    vertex pieces (_delta_legs), keep them as the braiding (_matrices), and
    verify it (verify_halfbraiding on every pair (a, b), with the legs
    id_a ⊗ e_b joined over runs of letters a, the a = 1 ones reused).
    Raises ToleranceError when a residual reaches DELTA_TOL: an engine or
    data bug, not bad user input."""
    eng = engine_for(spec)
    ring = eng.ring
    if len(lam.mult) != ring.rank:
        raise ShapeError("multiplicity vector length does not match the label set")
    slots = lam.slots()
    words, tags = [], []
    for x in range(ring.rank):
        for s, (l, _copy) in enumerate(slots):
            words.append((x, l, ring.dual[x]))
            tags.append((x, s))
    obj = SumObject(eng, words, tags)
    legs = _delta_legs(obj)
    unit = legs(ring.unit)
    S = _sides(obj)
    braiding = _matrices(unit, S.dims, S.rdims)  # the legs at a = 1

    def reused(letters: np.ndarray) -> dict:  # a run's legs, those at a = 1 kept
        rest = letters[letters != ring.unit]
        if len(rest) == len(letters):
            return legs(letters)
        return unit if not len(rest) else {f: np.concatenate([unit[f], v])
                                           for f, v in legs(rest).items()}

    residuals = verify_halfbraiding(obj, braiding, DELTA_TOL, reused)[0]
    return DeltaObject(spec=spec, lam=lam, obj=obj, braiding=braiding, residuals=residuals)


# ---- tube algebra -----------------------------------------------------------

class TubeElement(Linear):
    """An element of A(Λ): a copy of its coefficient vector in the basis of
    TubeAlgebra.spans, and nothing else; Linear's one part."""

    __slots__ = ("algebra", "vector")

    def __init__(self, algebra: "TubeAlgebra", vector):
        vector = np.array(vector, dtype=complex)
        if vector.shape != (algebra.dim,):
            raise ShapeError(f"coefficient vector must have length {algebra.dim}")
        self.algebra, self.vector = algebra, vector

    def _items(self):
        return ((None, self.vector),)

    def _like(self, parts: dict) -> "TubeElement":
        return TubeElement(self.algebra, parts[None])

    def _check_parallel(self, other: "TubeElement"):
        if other.algebra.lam != self.algebra.lam:
            raise ShapeError("tube elements over different Λ")
        if other.algebra.engine is not self.algebra.engine:
            raise ShapeError("tube elements over different categories")

    def __repr__(self):
        A = self.algebra
        sup = ",".join(A.spec.labels[a] for a in sorted(
            {a for (a, _m, _l), span in A.spans.items() if self.vector[span].any()}))
        return f"<TubeElement support=({sup}) norm={self.norm():.3g}>"


@dataclass(eq=False)
class TubeAlgebra:
    """Structure constants of A(Λ) in a fixed slot-ordered basis: in the
    a-component, source slot, then target slot, then the tree pair of
    Hom(x⊗a, a⊗y).  ``mult_table[i,j,k]`` is the coefficient of basis k in
    (basis i)·(basis j), ``star_table[i,j]`` that of j in (basis i)*, and
    ``spans[(a, m, l)]`` the index range of the block from slot l to slot m
    in the a-component, in basis order: the coordinates of Hom(x_l⊗a,
    a⊗x_m) in Engine.hom_basis order.  The tables are filled from F entries
    (tables.fill); a TubeElement is a coefficient vector, and its product
    and star read the tables (tube_product, tube_star).
    """

    spec: object
    lam: LambdaObject
    engine: Engine
    slots: tuple
    dim: int
    spans: dict = field(repr=False)
    mult_table: np.ndarray
    star_table: np.ndarray
    unit: TubeElement
    residuals: dict

    # ---- coordinates ---------------------------------------------------------
    def vector_of(self, f: TubeElement) -> np.ndarray:
        """f's coefficient vector: the array f holds, not a copy."""
        return f.vector

    def element(self, vec) -> TubeElement:
        return TubeElement(self, vec)

    def basis_element(self, k: int) -> TubeElement:
        vec = np.zeros(self.dim, dtype=complex)
        vec[k] = 1.0
        return TubeElement(self, vec)

    def random_element(self, rng: np.random.Generator) -> TubeElement:
        return TubeElement(self, rng.standard_normal(self.dim)
                           + 1j * rng.standard_normal(self.dim))


def build_tube_algebra(spec, lam: LambdaObject, tol: float = 1e-9) -> TubeAlgebra:
    """Tabulate structure constants and star from joins over the F entries
    (tables.fill), then verify associativity, star involutivity and
    anti-multiplicativity, and the unit law with the unit recomputed
    through the product (_table_residuals).  Positivity of the trace form
    needs Δ and lives with the tests.
    """
    eng = engine_for(spec)
    ring = eng.ring
    if len(lam.mult) != ring.rank:
        raise ShapeError("multiplicity vector length does not match the label set")
    slots = lam.slots()
    spans, mult, star = tables.fill(eng, slots)
    alg = TubeAlgebra(spec=spec, lam=lam, engine=eng, slots=slots, dim=len(star),
                      spans=spans, mult_table=mult, star_table=star, unit=None, residuals={})

    unit = np.zeros(alg.dim, dtype=complex)
    for l in range(len(slots)):
        unit[spans[(ring.unit, l, l)]] = 1.0
    alg.unit = TubeElement(alg, unit)

    alg.residuals = _table_residuals(mult, star, unit)
    top = worst(alg.residuals.values())
    if not top < tol:
        bad = next(k for k, v in alg.residuals.items() if v == top or v != v)
        raise ToleranceError(f"tube algebra {bad} defect {alg.residuals[bad]:.3e} >= {tol:g}")
    return alg


def _key_gap(n: int, lhs: tuple, rhs: tuple) -> float:
    """Max-abs gap between two sides, each (index arrays, products) with
    indices below n, each summed per index tuple in term order, over the
    union of their index tuples; NaN propagates."""
    slot, keys = group(np.ravel_multi_index(
        [np.concatenate(ix) for ix in zip(lhs[0], rhs[0])], (n,) * len(lhs[0])))
    cut, size = len(lhs[1]), len(keys)
    (lr, li), (rr, ri) = ([np.bincount(at, part, size) for part in (v.real, v.imag)]
                          for at, v in ((slot[:cut], lhs[1]), (slot[cut:], rhs[1])))
    return float(np.max(np.hypot(lr - rr, li - ri), initial=0.0))


def _table_residuals(c: np.ndarray, s: np.ndarray, uvec: np.ndarray) -> dict:
    """Worst defects of the algebra axioms on the structure-constant tables.

    ``assoc`` ((e_i e_j) e_k against e_i (e_j e_k)) and ``star_anti``
    ((e_i e_j)* against e_j* e_i*) are sparse joins over the nonzero
    entries of c and s (fsymbols.join): the dense dim⁵ residual at the cost
    of its nonzero terms.  A stray entry where the fusion rules say zero is
    an entry like any other, and a NaN one is nonzero.
    """
    n = len(uvec)
    i, j, k = np.nonzero(c)  # C order: sorted by i
    cv = c[i, j, k]
    by_j = np.argsort(j, kind="stable")
    p, q = np.nonzero(s)  # sorted by p
    sv = s[p, q]
    by_q = np.argsort(q, kind="stable")

    # (e_i e_j) e_k = Σ_m c[i,j,m] c[m,k,l]  vs  e_i (e_j e_k) = Σ_m c[j,k,m] c[i,m,l]
    a, b = join(i, k)
    e, f = join(j[by_j], k)
    f = by_j[f]
    r_assoc = _key_gap(n, ((i[a], j[a], j[b], k[b]), cv[a] * cv[b]),
                       ((i[f], i[e], j[e], k[f]), cv[e] * cv[f]))

    # (e_i e_j)* = Σ_m conj(c[i,j,m]) s[m,l]  vs  e_j* e_i* = Σ_pq s[j,p] s[i,q] c[p,q,l]
    a, b = join(p, k)  # conj(c[i,j,m]) s[m,l]
    e, f = join(q[by_q], j)  # s[i,q] c[p,q,l]
    f = by_q[f]
    g, h = join(q[by_q], i[e])  # s[j,p] times that
    h = by_q[h]
    r_anti = _key_gap(n, ((i[a], j[a], q[b]), np.conj(cv[a]) * sv[b]),
                      ((p[f[g]], p[h], k[e[g]]), sv[h] * (sv[f] * cv[e])[g]))

    eye = np.eye(n)
    r_unit = worst([
        float(np.max(np.abs(np.einsum("i,ijk->jk", uvec, c) - eye))),
        float(np.max(np.abs(np.einsum("j,ijk->ik", uvec, c) - eye)))])
    r_inv = float(np.max(np.abs(np.conj(s) @ s - eye)))
    r_star_unit = float(np.max(np.abs(np.conj(uvec) @ s - uvec)))
    return {"unit": r_unit, "assoc": r_assoc, "star_inv": r_inv,
            "star_anti": r_anti, "star_unit": r_star_unit}


# ---- product, star ----------------------------------------------------------

def tube_product(A: TubeAlgebra, f: TubeElement, g: TubeElement) -> TubeElement:
    """f·g, read off mult_table over the nonzero coordinates of f and g."""
    v, w = f.vector, g.vector
    i, j = np.flatnonzero(v), np.flatnonzero(w)
    return TubeElement(A, np.einsum("i,j,ijk->k", v[i], w[j], A.mult_table[np.ix_(i, j)]))


def tube_star(A: TubeAlgebra, f: TubeElement) -> TubeElement:
    """f*, read off star_table: the star is antilinear."""
    return TubeElement(A, np.conj(f.vector) @ A.star_table)


# ---- tube elements as endomorphisms of Δ -------------------------------------

def check_delta(A: TubeAlgebra, delta: DeltaObject):
    """Raise ShapeError unless Δ and A were built over one category (one
    engine) and one Λ."""
    if delta.engine is not A.engine:
        raise ShapeError("Δ and the tube algebra were built over different categories")
    if delta.lam != A.lam:
        raise ShapeError("Δ and the tube algebra were built over different Λ")


def t_map(A: TubeAlgebra, delta: DeltaObject, f: TubeElement) -> dict:
    """The endomorphism of Δ that f acts as, one matrix per root z on
    Δ.obj.stacked() like DeltaObject.braiding: G_z·L_z(f)·G_z⁻¹, with
    L_z(f) = Σ_k f_k·L_z[k] summed from A(Λ)'s own product terms
    (tables.action, made once per category and slots and kept in the
    engine's cache).  Raises ShapeError for a Δ or an f over another
    category or Λ (check_delta)."""
    check_delta(A, delta)
    A.unit._check_parallel(f)
    eng = A.engine
    (k, at, val), G, G_inv = cached(
        eng.cache, ("action", A.slots), lambda: tables.action(eng, A.slots))
    w = f.vector[k] * val
    size = sum(g.size for g in G.values())
    L = np.bincount(at, w.real, size) + 1j * np.bincount(at, w.imag, size)
    out, first = {}, 0
    for z, g in G.items():
        out[z] = g @ L[first:first + g.size].reshape(g.shape) @ G_inv[z]
        first += g.size
    return out


def naturality_residual(delta: DeltaObject, T: dict) -> float:
    """Worst max-abs entry of (id_b ⊗ T) ∘ e_b − e_b ∘ (T ⊗ id_b) over the
    letters b, per root r of the stacked trees, for T given as t_map gives
    it.  Raises ShapeError unless T is an endomorphism of Δ: one (n_z, n_z)
    matrix per root z of Δ.obj.stacked().

    With T as one block-diagonal matrix over Δ's states, T ⊗ id_b at r is
    its lift onto the states of Δ + (b,), and id_b ⊗ T is Ω·B·Ω† with B its
    lift onto Ω's columns (_Omega, sums.lift), so the left side is read in
    left-comb coordinates as Ω·(B·(Ω†·e)).  Ω and the lifts are made once
    per Δ; nothing made from T or e is kept.
    """
    sb = delta.obj.stacked()
    if T.keys() != sb.dims.keys() or any(np.shape(T[z]) != (n, n) for z, n in sb.dims.items()):
        raise ShapeError("needs an endomorphism of Δ: one (n_z, n_z) "
                         "matrix per root z of Δ")
    full, om = block_diagonal(T, sb.root, sb.root), _omega(delta.obj)

    def defects():
        for b, per_root in delta.braiding.items():
            for r, e in per_root.items():
                o, left, right = om.mats[b][r], om.left[b, r], om.right[b, r]
                lhs = o @ (lift(full, left, left) @ (o.conj().T @ e))
                yield float(np.max(np.abs(lhs - e @ lift(full, right, right))))

    return worst(defects())


# worst naturality defect f_map accepts: T must lie in the commutant
NATURALITY_TOL = 1e-7


def f_map(A: TubeAlgebra, delta: DeltaObject, T: dict) -> TubeElement:
    """Invert t_map: close each summand block of T with a cup on the left
    strand and a cap on the right one, then fuse the freed legs into the
    direction line with a dual pair, and write the closed block's
    coefficients into its span.  Prefactor 1/dim(C).  T is one
    (n_z, n_z) matrix per root z of Δ.obj.stacked(), as t_map gives it.

    Each block T_blk : (x, x_l, x̄) → (y, x_m, ȳ) is cut once, skipped when
    it is exactly zero at every root, and capped before the x̄ strand joins
    it: G = id_x̄ ⊗ [(id_(y,x_m) ⊗ ev(y)) ∘ (T_blk ⊗ id_y)], one left
    tensoring per block whatever its channels a ∈ x̄⊗y.  The piece of a
    channel and vertex slot t is then g5 ∘ G ∘ g21, with the cap, g21 and g5
    drawn once per engine; the pieces of each span (a, m, l) add up in the
    order x, y, t.  Nothing that depends on T is kept.

    Raises ShapeError for a Δ over another category or Λ (check_delta) or a
    T of other roots or shapes (naturality_residual), and NotInCommutant
    when T fails to commute with the half-braiding (residual >=
    NATURALITY_TOL); the closure formula is only inverse to t_map on the
    commutant.
    """
    check_delta(A, delta)
    nat = naturality_residual(delta, T)
    if not nat < NATURALITY_TOL:
        raise NotInCommutant(f"naturality defect {nat:.3e} >= {NATURALITY_TOL:g}")

    eng = A.engine
    ring, d = eng.ring, eng.d
    obj = delta.obj
    pref = 1.0 / A.spec.dims.global_dim
    sb = obj.stacked()
    vec = np.zeros(A.dim, dtype=complex)
    for l, (xl_lab, _cl) in enumerate(A.slots):
        for m, (xm_lab, _cm) in enumerate(A.slots):
            acc: dict = {}  # a -> the pieces of span (a, m, l) so far
            for x in range(ring.rank):
                xd = ring.dual[x]
                for y in range(ring.rank):
                    Tblk = cut_block(eng, T, sb, sb, obj.index((y, m)), obj.index((x, l)))
                    if not any(b.any() for b in Tblk.blocks.values()):
                        continue
                    # ev(y): (ybar, y) -> (), on the right strand
                    cap = cached(eng.cache, ("f_cap", y, xm_lab),
                                 lambda: eng.tensor_id_left((y, xm_lab), ev(eng, y)))
                    G = eng.tensor_id_left((xd,), cap @ eng.tensor_id_right(Tblk, (y,)))
                    # the freed legs fuse into a only when a sits in xbar*y
                    for a in np.flatnonzero(ring.N[xd, y]).tolist():
                        pair = canonical_pair(eng, xd, y, a)
                        coeff = math.sqrt(d[x] * d[y] * d[a])
                        for t in range(pair.n):
                            # g2 ∘ g1: split the direction line, then open the
                            # x loop.  It must close against the same pairing
                            # that caps it, ev(x) with its own dagger; coev(xbar)
                            # is off by the dual-twist sign on self-conjugate
                            # labels.
                            g21 = cached(eng.cache, ("f_g21", x, y, a, t, xl_lab), lambda: (
                                eng.tensor_id_right(ev(eng, x).dag(), (xl_lab, xd, y))
                                @ eng.tensor_id_left((xl_lab,), pair.splits[t])))
                            g5 = cached(eng.cache, ("f_g5", xd, y, a, t, xm_lab),
                                        lambda: eng.tensor_id_right(pair.fuses[t], (xm_lab,)))
                            piece = (g5 @ G @ g21) * coeff
                            acc[a] = acc[a] + piece if a in acc else piece
            for a, closed in acc.items():
                vec[A.spans[(a, m, l)]] = (closed * pref).coeffs()
    return TubeElement(A, vec)


# ---- serialization ------------------------------------------------------------

# entries of a structure-constant table at or below this modulus stay out of tube_json
SPARSE_ZERO = 1e-12


def _sparse_rows(table: np.ndarray) -> list:
    """[*index, re, im] of every entry above SPARSE_ZERO in modulus, in C order."""
    idx = np.nonzero(np.abs(table) > SPARSE_ZERO)
    v = table[idx]
    return [list(row) for row in zip(*(i.tolist() for i in idx),
                                     v.real.tolist(), v.imag.tolist())]


def tube_json(A: TubeAlgebra, category: str | None = None) -> dict:
    """Sparse structure-constant tables in a stable order."""
    labs = A.spec.labels
    # basis rows: each direction's blocks, numbered from its first one
    basis, first = [], {}
    for (a, _m, _l), span in A.spans.items():
        start = first.setdefault(a, span.start)
        basis += [{"a": labs[a], "i": k - start} for k in range(span.start, span.stop)]
    return {
        "category": category if category is not None else A.spec.name,
        "lambda": A.lam.as_dict(A.spec),
        "dim": A.dim,
        "basis": basis,
        "mult_table": _sparse_rows(A.mult_table),
        "star_table": _sparse_rows(A.star_table),
    }
