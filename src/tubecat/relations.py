"""Verification suites for the vertex-pair rewriting identities.

Every checker sweeps all admissible label tuples of one category, evaluates
both sides of one identity through the tree engine, and reports per-case
residuals.  Identities whose sides live in a tensor product of two hom
spaces (the sideways-rewrite and the mixed-bigon sum) are compared as outer
products of coefficient vectors, so no pairing or contraction that could
hide a defect sits between the two sides.

The mixed-bigon sum over two channels gets evaluated twice on purpose:
once by direct contraction of all four vertices, once via its collapsed
loop-product form, and the two values must agree on top of each matching
the target.  Collapsing the two routes into one would defeat the point.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .duality import (bend_in_left, bend_out_right, dual_morphism,
                      trace_left, trace_right, weighted_trace)
from .errors import worst
from .morphism import Engine, cached, engine_for
from .pairs import canonical_pair
from .pentagon import verify_pentagon
from .report import VerificationReport

__all__ = [
    "check_bigon1", "check_bigon2", "check_fusion", "check_ih",
    "check_global_dim", "check_spherical",
    "SUITES", "run_suite",
]


def _admissible_triples(eng: Engine):
    rank = eng.ring.rank
    for x, y, z in itertools.product(range(rank), repeat=3):
        if eng.ring.N[x, y, z]:
            yield x, y, z


# ---- bigons --------------------------------------------------------------

def check_bigon1(spec, tol: float = 1e-9) -> VerificationReport:
    """Fuse-then-split collapses to a weighted identity on the channel."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="bigon1", tol=tol)
    d = eng.d
    for x, y, z in _admissible_triples(eng):
        pair = canonical_pair(eng, x, y, z)
        acc = eng.zero((z,), (z,))
        for s, f in zip(pair.splits, pair.fuses):
            acc = acc + f @ s
        lhs = acc * pair.scalar
        rhs = eng.identity((z,)) * (math.sqrt(d[x] * d[y] / d[z]) * pair.n)
        rep.add((labs[x], labs[y], labs[z]), (lhs - rhs).norm())
    return rep


def check_bigon2(spec, tol: float = 1e-9) -> VerificationReport:
    """Slot-resolved bigon: the three-factor form that pins delta_ij."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="bigon2", tol=tol)
    d = eng.d
    for x, y, z in _admissible_triples(eng):
        pair = canonical_pair(eng, x, y, z)
        vs = [s.coeffs() for s in pair.splits]   # z -> (x,y)
        ws = [f.coeffs() for f in pair.fuses]    # (x,y) -> z
        eye = eng.identity((z,)).coeffs()
        lhs = np.zeros((eye.size, vs[0].size, ws[0].size), dtype=complex)
        rhs = np.zeros_like(lhs)
        for i, j in itertools.product(range(pair.n), repeat=2):
            bi = (pair.fuses[j] @ pair.splits[i]).coeffs()
            lhs += d[x] * d[y] * d[z] * np.einsum("p,q,r->pqr", bi, vs[j], ws[i])
        for i in range(pair.n):
            rhs += d[x] * d[y] * np.einsum("p,q,r->pqr", eye, vs[i], ws[i])
        rep.add((labs[x], labs[y], labs[z]), np.abs(lhs - rhs).max())
    return rep


def check_fusion(spec, tol: float = 1e-9) -> VerificationReport:
    """Complete channel sum resolves the identity on a two-letter word."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="fusion", tol=tol)
    d = eng.d
    rank = eng.ring.rank
    for x, y in itertools.product(range(rank), repeat=2):
        acc = eng.zero((x, y), (x, y))
        for z in range(rank):
            if not eng.ring.N[x, y, z]:
                continue
            pair = canonical_pair(eng, x, y, z)
            w = math.sqrt(d[z]) * pair.scalar
            for s, f in zip(pair.splits, pair.fuses):
                acc = acc + (s @ f) * w
        rhs = eng.identity((x, y)) * math.sqrt(d[x] * d[y])
        rep.add((labs[x], labs[y]), (acc - rhs).norm())
    return rep


# ---- the sideways rewrite -------------------------------------------------

def ih_sides(eng: Engine, x: int, w: int, y: int, z: int):
    """Both evaluations of the vertical/horizontal rewrite as coefficient
    outer-product matrices over Hom(xw, yz) (x) Hom(wbar xbar, zbar ybar).

    The diagram pieces that depend on three labels only, the duals of the
    vertices per (x, w, v) and (y, z, v) and the half-turned vertices per
    (u, w, z) and (y, u, x), are drawn by the engine once and kept in its
    cache, as canonical_pair keeps the vertices.
    """
    ring, d = eng.ring, eng.d
    xd, wd, yd, zd = (ring.dual[i] for i in (x, w, y, z))
    dim1 = eng.hom_dim((x, w), (y, z))
    dim2 = eng.hom_dim((wd, xd), (zd, yd))
    side_i = np.zeros((dim1, dim2), dtype=complex)
    side_h = np.zeros((dim1, dim2), dtype=complex)

    for v in range(ring.rank):
        if not (ring.N[x, w, v] and ring.N[y, z, v]):
            continue
        bot = canonical_pair(eng, x, w, v)
        top = canonical_pair(eng, y, z, v)
        pref = bot.scalar * top.scalar
        duals_bot = cached(eng.cache, ("split duals", x, w, v),  # (wd,xd) -> vd
                           lambda: [dual_morphism(s) for s in bot.splits])
        duals_top = cached(eng.cache, ("fuse duals", y, z, v),   # vd -> (zd,yd)
                           lambda: [dual_morphism(f) for f in top.fuses])
        for i, j in itertools.product(range(bot.n), range(top.n)):
            f1 = top.splits[j] @ bot.fuses[i]
            f2 = duals_top[j] @ duals_bot[i]
            side_i += pref * np.outer(f1.coeffs(), f2.coeffs())

    for u in range(ring.rank):
        if not (ring.N[y, u, x] and ring.N[u, w, z]):
            continue
        left = canonical_pair(eng, y, u, x)    # split_k : x -> (y,u)
        right = canonical_pair(eng, u, w, z)   # fuse_l : (u,w) -> z
        pref = left.scalar * right.scalar
        # half-turn placements carrying the rung label u across the mirror
        rot_r = cached(eng.cache, ("rot_r", u, w, z),
                       lambda: [bend_in_left(bend_out_right(s)) for s in right.splits])
        rot_l = cached(eng.cache, ("rot_l", y, u, x),
                       lambda: [bend_out_right(bend_in_left(f)) for f in left.fuses])
        for k, l in itertools.product(range(left.n), range(right.n)):
            f1 = (eng.tensor_id_left((y,), right.fuses[l])
                  @ eng.tensor_id_right(left.splits[k], (w,)))
            f2 = (eng.tensor_id_left((zd,), rot_l[k])
                  @ eng.tensor_id_right(rot_r[l], (xd,)))
            side_h += pref * np.outer(f1.coeffs(), f2.coeffs())

    return side_i, side_h


def check_ih(spec, tol: float = 1e-9) -> VerificationReport:
    """Vertical channel sum equals the horizontal one, slot by slot."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="ih", tol=tol)
    rank = eng.ring.rank
    for x, w, y, z in itertools.product(range(rank), repeat=4):
        if eng.hom_dim((x, w), (y, z)) == 0:
            continue
        side_i, side_h = ih_sides(eng, x, w, y, z)
        res = float(np.abs(side_i - side_h).max()) if side_i.size else 0.0
        rep.add((labs[x], labs[w], labs[y], labs[z]), res)
    return rep


# ---- global dimension ------------------------------------------------------

def global_dim_routes(eng: Engine, x: int, y: int):
    """Mixed-bigon sum evaluated two ways.

    Route one contracts all four vertices of every term directly.  Route
    two is the collapsed form: after the sideways rewrite only the unit
    rung survives and each term degenerates to a product of two closed
    loops, which we evaluate through the engine rather than assume.
    The rotated vertices of route one are ih_sides' duals, the same
    diagrams under the same keys of the engine cache, so a category's
    suites draw each once.
    Returns (route-one matrix, route-two scalar, target scalar).
    """
    ring, d = eng.ring, eng.d
    xd, yd = ring.dual[x], ring.dual[y]
    dim1 = eng.hom_dim((x,), (y,))
    dim2 = eng.hom_dim((xd,), (yd,))
    direct = np.zeros((dim1, dim2), dtype=complex)
    for a, b in itertools.product(range(ring.rank), repeat=2):
        if not (ring.N[a, b, x] and ring.N[a, b, y]):
            continue
        px = canonical_pair(eng, a, b, x)
        py = canonical_pair(eng, a, b, y)
        pref = px.scalar * py.scalar
        duals_py = cached(eng.cache, ("split duals", a, b, y),  # (bd,ad) -> yd
                          lambda: [dual_morphism(s) for s in py.splits])
        duals_px = cached(eng.cache, ("fuse duals", a, b, x),   # xd -> (bd,ad)
                          lambda: [dual_morphism(f) for f in px.fuses])
        for i, j in itertools.product(range(px.n), range(py.n)):
            f1 = py.fuses[j] @ px.splits[i]
            f2 = duals_py[j] @ duals_px[i]
            direct += pref * np.outer(f1.coeffs(), f2.coeffs())

    loops = 0.0 + 0.0j
    if x == y:
        for a in range(ring.rank):
            ca = trace_right(eng.identity((a,)))
            cad = trace_right(eng.identity((ring.dual[a],)))
            loops += ca * cad
    target = complex(np.sum(np.asarray(d) ** 2)) if x == y else 0.0
    return direct, loops, target


def check_global_dim(spec, tol: float = 1e-9) -> VerificationReport:
    """The mixed-bigon sum at every pair of simples (x, y), both routes
    (global_dim_routes): route one is dim C = Σ d_a² on id ⊗ id at x = y
    and zero elsewhere, route two is dim C, and the two agree.  The
    residuals do not depend on whether ih ran first: the duals the two
    suites share are the same diagrams either way."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="globaldim", tol=tol)
    rank = eng.ring.rank
    for x, y in itertools.product(range(rank), repeat=2):
        direct, loops, target = global_dim_routes(eng, x, y)
        if direct.size:
            want = np.zeros_like(direct)
            if x == y:
                # id (x) id has coefficient 1 in the one-dimensional corner
                want[0, 0] = target
            res_direct = float(np.abs(direct - want).max())
            res_cross = abs(direct[0, 0] - loops) if x == y else 0.0
        else:
            res_direct, res_cross = 0.0, 0.0
        res_loops = abs(loops - target) if x == y else 0.0
        rep.add((labs[x], labs[y]),
                worst([res_direct, float(res_loops), float(res_cross)]))
    return rep


# ---- closed-loop traces ----------------------------------------------------

# random endomorphisms per word, and the seed they are drawn from
SPHERICAL_TRIALS = 3
SPHERICAL_SEED = 1


def check_spherical(spec, tol: float = 1e-9) -> VerificationReport:
    """Left and right closures of SPHERICAL_TRIALS random endomorphisms per
    word agree, and both hit the weighted block-trace value."""
    eng = engine_for(spec)
    labs = eng.spec.labels
    rep = VerificationReport(suite="spherical", tol=tol)
    rng = np.random.default_rng(SPHERICAL_SEED)
    rank = eng.ring.rank
    words = [(a,) for a in range(rank)]
    words += [(a, b) for a in range(rank) for b in range(rank)]
    for word in words:
        wl = "*".join(labs[i] for i in word)
        cases = [("id", eng.identity(word))]
        cases += [(f"r{t}", eng.random(word, word, rng)) for t in range(SPHERICAL_TRIALS)]
        for tag, f in cases:
            lt, rt, wt = trace_left(f), trace_right(f), weighted_trace(f)
            scale = worst([1.0, abs(wt)])
            res = worst([abs(lt - rt), abs(lt - wt), abs(rt - wt)]) / scale
            rep.add((wl, tag), res)
    return rep


# ---- suite registry ---------------------------------------------------------

SUITES = {
    "bigon1": check_bigon1,
    "bigon2": check_bigon2,
    "fusion": check_fusion,
    "ih": check_ih,
    "globaldim": check_global_dim,
    "spherical": check_spherical,
    "pentagon": verify_pentagon,
}


def run_suite(spec, name: str, tol: float = 1e-9) -> VerificationReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}") from None
    return fn(spec, tol=tol)
