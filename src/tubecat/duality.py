"""Cups, caps, bends, dual morphisms, and closed-loop traces.

For each label x we fix one cup and one cap:

    cup_x : 1 -> x (x) xbar      cap_x : xbar (x) x -> 1

The cup is sqrt(d_x) times the unit-rooted splitting tree of (x, xbar), an
isometry up to that scale, so cup_x^dagger . cup_x = d_x on the nose.  The
cap is the dagger of the unit-rooted tree of (xbar, x) times a calibration
constant c_x chosen so the first zig-zag

    (id_x (x) cap_x) . (cup_x (x) id_x) = id_x

holds exactly.  The second zig-zag (on the xbar strand) is then a theorem,
not a choice; we evaluate its scalar too and refuse to proceed when the two
disagree, since every bend below silently assumes both.  |c_x| = sqrt(d_x)
always; c_x picks up a sign or phase on self-dual labels whose loop twists
(the twisted Z/2 label is the standard example).

Traces close a strand with a cup and that same cup's dagger, never with the
bent partner, so trace(f^dagger f) >= 0 and trace(id_x) = d_x exactly even
on those twisted labels.  Left and right closures are computed by different
routes and compared in the verification suites rather than assumed equal.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, ShapeError
from .morphism import Engine, Morphism, engine_for
from .trees import Word

__all__ = [
    "coev", "ev", "ev_coev", "coev_word", "ev_word",
    "zigzag_defects",
    "bend_in_right", "bend_out_right", "bend_in_left", "bend_out_left",
    "rotate_clockwise", "dual_morphism", "conjugate_morphism",
    "trace_left", "trace_right", "weighted_trace",
]

def _dual_data(engine: Engine, x: int):
    key = ("cupcap", x)
    hit = engine.cache.get(key)
    if hit is not None:
        return hit
    ring = engine.ring
    xd = ring.dual[x]
    unit = ring.unit
    dx = engine.d[x]
    cup0 = engine.make((), (x, xd), {unit: [[1.0]]})
    cap0 = engine.make((xd, x), (), {unit: [[1.0]]})

    # zig-zag scalars of the raw trees; both must agree or no calibration works
    za = (engine.tensor_id_left((x,), cap0)
          @ engine.tensor_id_right(cup0, (x,))).blocks[x][0, 0]
    zb = (engine.tensor_id_right(cap0, (xd,))
          @ engine.tensor_id_left((xd,), cup0)).blocks[xd][0, 0]
    lab = engine.spec.labels[x]
    if abs(abs(za) * dx - 1.0) > 1e-9:
        raise ConsistencyError(
            f"label {lab}: raw zig-zag scalar {za} has modulus != 1/d")
    if abs(za - zb) > 1e-9:
        raise ConsistencyError(
            f"label {lab}: the two zig-zag scalars disagree ({za} vs {zb})")

    cup = cup0 * math.sqrt(dx)
    cap = cap0 * (1.0 / (math.sqrt(dx) * za))
    engine.cache[key] = (cup, cap)
    return cup, cap


def coev(engine: Engine, x: int) -> Morphism:
    """cup_x : () -> (x, xbar)."""
    return _dual_data(engine, x)[0]


def ev(engine: Engine, x: int) -> Morphism:
    """cap_x : (xbar, x) -> ()."""
    return _dual_data(engine, x)[1]


def ev_coev(spec_or_engine, x) -> tuple[Morphism, Morphism, Morphism, Morphism]:
    """The full cap/cup quadruple (cap, cup, cap^dagger, cup^dagger) at x."""
    eng = engine_for(spec_or_engine)
    if isinstance(x, str):
        x = eng.spec.index(x)
    cup, cap = _dual_data(eng, x)
    return cap, cup, cap.dag(), cup.dag()


def zigzag_defects(engine: Engine, x: int) -> tuple[float, float]:
    """Residuals of both zig-zags for the calibrated cup/cap pair."""
    xd = engine.ring.dual[x]
    cup, cap = _dual_data(engine, x)
    a = (engine.tensor_id_left((x,), cap)
         @ engine.tensor_id_right(cup, (x,))) - engine.identity((x,))
    b = (engine.tensor_id_right(cap, (xd,))
         @ engine.tensor_id_left((xd,), cup)) - engine.identity((xd,))
    return a.norm(), b.norm()


def coev_word(engine: Engine, word: Word) -> Morphism:
    """Nested cup () -> word + dual(word), innermost letter cupped last."""
    word = tuple(word)
    key = ("cup_w", word)
    hit = engine.cache.get(key)
    if hit is not None:
        return hit
    if not word:
        out = engine.scalar_morphism(1.0)
    else:
        x, rest = word[0], word[1:]
        xd = engine.ring.dual[x]
        inner = engine.tensor_id_right(coev_word(engine, rest), (xd,))
        out = engine.tensor_id_left((x,), inner) @ coev(engine, x)
    engine.cache[key] = out
    return out


def ev_word(engine: Engine, word: Word) -> Morphism:
    """Nested cap dual(word) + word -> (), innermost letter capped first."""
    word = tuple(word)
    key = ("cap_w", word)
    hit = engine.cache.get(key)
    if hit is not None:
        return hit
    if not word:
        out = engine.scalar_morphism(1.0)
    else:
        x, rest = word[0], word[1:]
        rd = engine.dual_word(rest)
        inner = engine.tensor_id_left(rd, engine.tensor_id_right(ev(engine, x), rest))
        out = ev_word(engine, rest) @ inner
    engine.cache[key] = out
    return out


# ---- bends -------------------------------------------------------------
# Each bend moves one boundary leg between source and target.  in/out says
# whether the leg joins the source (in) or leaves it (out); left/right is
# the side of the word it happens on.  Opposite bends on the same side are
# exact two-sided inverses because both zig-zags hold.

def bend_out_right(f: Morphism) -> Morphism:
    """f : A -> B + (w,)  becomes  A + (wbar,) -> B."""
    if not f.dst:
        raise ShapeError("no target leg to bend")
    eng = f.engine
    w = f.dst[-1]
    wd = eng.ring.dual[w]
    cap = ev(eng, wd)  # (w, wbar) -> ()
    return (eng.tensor_id_left(f.dst[:-1], cap)
            @ eng.tensor_id_right(f, (wd,)))


def bend_in_right(f: Morphism) -> Morphism:
    """f : A + (y,) -> B  becomes  A -> B + (ybar,)."""
    if not f.src:
        raise ShapeError("no source leg to bend")
    eng = f.engine
    y = f.src[-1]
    yd = eng.ring.dual[y]
    cup = coev(eng, y)  # () -> (y, ybar)
    return (eng.tensor_id_right(f, (yd,))
            @ eng.tensor_id_left(f.src[:-1], cup))


def bend_out_left(f: Morphism) -> Morphism:
    """f : A -> (w,) + B  becomes  (wbar,) + A -> B."""
    if not f.dst:
        raise ShapeError("no target leg to bend")
    eng = f.engine
    w = f.dst[0]
    wd = eng.ring.dual[w]
    cap = ev(eng, w)  # (wbar, w) -> ()
    return (eng.tensor_id_right(cap, f.dst[1:])
            @ eng.tensor_id_left((wd,), f))


def bend_in_left(f: Morphism) -> Morphism:
    """f : (y,) + A -> B  becomes  A -> (ybar,) + B."""
    if not f.src:
        raise ShapeError("no source leg to bend")
    eng = f.engine
    y = f.src[0]
    yd = eng.ring.dual[y]
    cup = coev(eng, yd)  # () -> (ybar, y)
    return (eng.tensor_id_left((yd,), f)
            @ eng.tensor_id_right(cup, f.src[1:]))


def rotate_clockwise(f: Morphism) -> Morphism:
    """One-notch clockwise rotation of f : A + (y,) -> (w,) + B.

    The last source leg bends up on the right (becoming a ybar target leg)
    and the first target leg bends down on the left (a wbar source leg), so
    the result goes (wbar,) + A -> B + (ybar,).  The two bends act on
    opposite ends of the word and commute.
    """
    return bend_out_left(bend_in_right(f))


def dual_morphism(f: Morphism) -> Morphism:
    """Rotate f : A -> B by a half turn into dual(B) -> dual(A)."""
    out = f
    for _ in range(len(f.dst)):
        out = bend_out_right(out)          # dual legs of B pile up on the right
    for _ in range(len(f.src)):
        out = bend_in_left(out)            # dual legs of A leave on the left
    return out


def conjugate_morphism(f: Morphism) -> Morphism:
    """Reflect f through the vertical axis: the rotated dagger."""
    return dual_morphism(f.dag())


# ---- traces ------------------------------------------------------------

def trace_right(f: Morphism) -> complex:
    """Close an endomorphism rightward with cup_A and its dagger."""
    _require_endo(f)
    eng = f.engine
    cup = coev_word(eng, f.src)
    return (cup.dag() @ eng.tensor_id_right(f, eng.dual_word(f.src)) @ cup).scalar()


def trace_left(f: Morphism) -> complex:
    """Close an endomorphism leftward with cap_A^dagger and cap_A."""
    _require_endo(f)
    eng = f.engine
    cap = ev_word(eng, f.src)
    return (cap @ eng.tensor_id_left(eng.dual_word(f.src), f) @ cap.dag()).scalar()


def weighted_trace(f: Morphism) -> complex:
    """Sum of d_root * tr(block); the closed-form value both closures hit."""
    _require_endo(f)
    d = f.engine.d
    return sum(d[z] * np.trace(blk) for z, blk in f.blocks.items())


def _require_endo(f: Morphism):
    if f.src != f.dst:
        raise ShapeError(f"trace needs an endomorphism, got {f.src}->{f.dst}")
