"""Pentagon verification by comparing the two rebracketing routes.

For every 4-letter word (a,b,c,d) and every root r, the change of basis from
the fully-left tree ((ab)c)d to the fully-right tree a(b(cd)) is computed
twice: through (ab)(cd) (two F-moves) and through (a(bc))d, a((bc)d) (three
F-moves).  The residual is the max-abs difference of the two transition
matrices; no closed-form pentagon identity is trusted, only the operational
meaning of an F-move.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import worst

__all__ = ["pentagon_residual", "verify_pentagon"]


def _trees_T1(ring, a, b, c, d):
    """((ab)c)d trees by root: (e1, m1) then (e2, m2) then m3.  One pass
    over the word visits only the admissible roots; each root's list keeps
    the (e1, m1, e2, m2, m3) order."""
    ch = ring.channels
    out = {}
    for e1, n1 in ch[a][b].items():
        for m1 in range(n1):
            for e2, n2 in ch[e1][c].items():
                for m2 in range(n2):
                    for root, n3 in ch[e2][d].items():
                        out.setdefault(root, []).extend(
                            (e1, m1, e2, m2, m3) for m3 in range(n3))
    return out


def _basis_T4(ring, a, b, c, d, root):
    # a(b(cd)): (f, r1) then (g, s1) then s2
    ch = ring.channels
    out = []
    for f, n1 in ch[c][d].items():
        for r1 in range(n1):
            for g, n2 in ch[b][f].items():
                for s1 in range(n2):
                    for s2 in range(ch[a][g].get(root, 0)):
                        out.append((f, r1, g, s1, s2))
    return out


def _route_via_pair(F, a, b, c, d, root, src, dst):
    """((ab)c)d -> (ab)(cd) -> a(b(cd)); two moves."""
    mat = np.zeros((len(src), len(dst)), dtype=complex)
    for i, (e1, m1, e2, m2, m3) in enumerate(src):
        rows1 = F.rows(e1, c, d, root)
        cols1 = F.cols(e1, c, d, root)
        blk1 = F.block(e1, c, d, root)
        r1i = rows1.index((e2, m2, m3))
        for jc, (f, r1, r2) in enumerate(cols1):
            amp1 = blk1[r1i, jc]
            if amp1 == 0:
                continue
            rows2 = F.rows(a, b, f, root)
            cols2 = F.cols(a, b, f, root)
            blk2 = F.block(a, b, f, root)
            r2i = rows2.index((e1, m1, r2))
            for jc2, (g, s1, s2) in enumerate(cols2):
                amp2 = blk2[r2i, jc2]
                if amp2 == 0:
                    continue
                mat[i, dst.index((f, r1, g, s1, s2))] += amp1 * amp2
    return mat


def _route_via_middle(F, a, b, c, d, root, src, dst):
    """((ab)c)d -> (a(bc))d -> a((bc)d) -> a(b(cd)); three moves."""
    mat = np.zeros((len(src), len(dst)), dtype=complex)
    for i, (e1, m1, e2, m2, m3) in enumerate(src):
        blk1 = F.block(a, b, c, e2)
        r1i = F.rows(a, b, c, e2).index((e1, m1, m2))
        for jc, (h, n1, n2) in enumerate(F.cols(a, b, c, e2)):
            amp1 = blk1[r1i, jc]
            if amp1 == 0:
                continue
            blk2 = F.block(a, h, d, root)
            r2i = F.rows(a, h, d, root).index((e2, n2, m3))
            for jc2, (k, t1, t2) in enumerate(F.cols(a, h, d, root)):
                amp2 = blk2[r2i, jc2]
                if amp2 == 0:
                    continue
                blk3 = F.block(b, c, d, k)
                r3i = F.rows(b, c, d, k).index((h, n1, t1))
                for jc3, (f, r1, s1) in enumerate(F.cols(b, c, d, k)):
                    amp3 = blk3[r3i, jc3]
                    if amp3 == 0:
                        continue
                    mat[i, dst.index((f, r1, k, s1, t2))] += amp1 * amp2 * amp3
    return mat


def iter_pentagon_cases(F):
    """Yield ((a,b,c,d), residual) per 4-letter word, residual maxed over roots."""
    ring = F.ring
    for word in itertools.product(range(ring.rank), repeat=4):
        a, b, c, d = word
        gaps = []
        trees = _trees_T1(ring, a, b, c, d)
        for root in sorted(trees):
            src = trees[root]
            dst = _basis_T4(ring, a, b, c, d, root)
            m_pair = _route_via_pair(F, a, b, c, d, root, src, dst)
            m_mid = _route_via_middle(F, a, b, c, d, root, src, dst)
            gaps.append(float(np.max(np.abs(m_pair - m_mid))))
        yield word, worst(gaps)


def pentagon_residual(F):
    """Worst residual and the word attaining it: (residual, (a,b,c,d))."""
    top, where = 0.0, None
    for word, res in iter_pentagon_cases(F):
        if res != res:
            return res, word
        if res >= top:
            top, where = res, word
    return top, where


def verify_pentagon(spec, tol: float = 1e-12):
    """Check every rebracketing instance of a loaded category; full report."""
    from .report import VerificationReport

    rep = VerificationReport(suite="pentagon", tol=tol)
    names = spec.ring.labels
    for word, res in iter_pentagon_cases(spec.fsymbols):
        rep.add([names[i] for i in word], res)
    return rep
