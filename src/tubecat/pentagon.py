"""Pentagon verification by comparing the two rebracketing routes.

For every 4-letter word (a,b,c,d) and every root r, the change of basis from
the fully-left tree ((ab)c)d to the fully-right tree a(b(cd)) is computed
twice: through (ab)(cd) (two F-moves) and through (a(bc))d, a((bc)d) (three
F-moves).  The residual is the max-abs difference of the two transition
matrices; no closed-form pentagon identity is trusted, only the operational
meaning of an F-move.  Both routes stay, each summed on its own.

All trees of all words go at once, as sparse joins on F's flat entry table.
The per-word loop is the oracle (tests/oracles.py); terms are summed in its
order.
"""
from __future__ import annotations

import itertools

import numpy as np

from .fsymbols import group, join
from .report import VerificationReport

__all__ = ["pentagon_residual", "verify_pentagon"]


def _mul(p, q):
    """(re, im) product, unfused: numpy's complex multiply may fuse it and
    differ in the last bit."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _word_residuals(F) -> np.ndarray:
    """Residual per word, flat in itertools.product order; NaN kept."""
    r = F.ring.rank
    x, y, z, row, col, val = F.table
    V = len(x)
    # zero amplitudes make no term, so a NaN behind one stays unseen
    live = np.flatnonzero(val != 0)
    live = live[np.argsort(row[live], kind="stable")]
    row, amp = row[live], np.stack([val.real, val.imag])[:, live]
    c1, c2 = np.divmod(col[live], V)

    def move(t, v, w):
        """F on the vertex pairs (v, w): each term's tree, entry and source."""
        q, e = join(row, v * V + w)
        return t[q], e, q

    # ((ab)c)d trees (v1, v2, v3), chained by label
    v1 = np.arange(V)
    q, v2 = join(x, z[v1])
    v1 = v1[q]
    q, v3 = join(x, z[v2])
    v1, v2 = v1[q], v2[q]
    word = ((x[v1] * r + y[v1]) * r + y[v2]) * r + y[v3]
    trees = np.arange(len(v1))
    # (ab)(cd): F on (v2, v3) -> (w1, w2), then on (v1, w2) -> (u1, u2)
    t, e, _ = move(trees, v2, v3)
    t, g, q = move(t, v1[t], c2[e])
    e = e[q]
    pair = ((t * V + c1[e]) * V + c1[g]) * V + c2[g], _mul(amp[:, e], amp[:, g])
    # (a(bc))d, a((bc)d): F on (v1, v2) -> (h1, h2), on (h2, v3) -> (k1, k2),
    # then on (h1, k1) -> (w1, u1)
    t, e, _ = move(trees, v1, v2)
    t, g, q = move(t, c2[e], v3[t])
    e = e[q]
    t, h, q = move(t, c1[e], c1[g])
    e, g = e[q], g[q]
    mid = (((t * V + c1[h]) * V + c2[h]) * V + c2[g],
           _mul(_mul(amp[:, e], amp[:, g]), amp[:, h]))
    # each route summed per (tree, a(b(cd)) tree) in term order
    slot, keys = group(np.concatenate([pair[0], mid[0]]))
    n = len(pair[0])
    (pr, pi), (mr, mi) = ([np.bincount(i, part, len(keys)) for part in terms]
                          for i, terms in ((slot[:n], pair[1]), (slot[n:], mid[1])))
    gap = np.abs(np.stack([pr - mr, pi - mi], -1).view(complex).ravel())
    out = np.zeros(r ** 4)
    with np.errstate(invalid="ignore"):
        np.maximum.at(out, word[keys // V ** 3], gap)
    return out


def iter_pentagon_cases(F):
    """((a,b,c,d), residual) per 4-letter word, residual maxed over roots."""
    return zip(itertools.product(range(F.ring.rank), repeat=4),
               _word_residuals(F).tolist())


def pentagon_residual(F):
    """Worst residual and the word attaining it: (residual, (a,b,c,d)); the
    first NaN word, else the last word at the max."""
    res = _word_residuals(F)
    nan = np.flatnonzero(res != res)
    i = nan[0] if len(nan) else len(res) - 1 - int(np.argmax(res[::-1]))
    return float(res[i]), tuple(int(k) for k in np.unravel_index(i, (F.ring.rank,) * 4))


def verify_pentagon(spec, tol: float = 1e-12):
    """Check every rebracketing instance of a loaded category; full report."""
    rep = VerificationReport(suite="pentagon", tol=tol)
    names = spec.ring.labels
    for word, res in iter_pentagon_cases(spec.fsymbols):
        rep.add([names[i] for i in word], res)
    return rep
