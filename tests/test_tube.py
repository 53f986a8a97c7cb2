"""Tube algebra over Λ: dimensions, structure constants, and the two maps
between tube elements and half-braiding-commuting endomorphisms of Δ.

Dimensions are frozen from hand counts of hom(x⊗a, a⊗y); the Z/2 case is
checked entry by entry against the Drinfeld double of the group, built
here independently from the group multiplication table.  Everything about
t and f is an exact identity, so those tests draw random elements and
demand machine-precision agreement at a loose 1e-9 gate.
"""
import cmath
import functools
import json
import math
import re

import numpy as np
import pytest

import tubecat.tables
import tubecat.tube
from conftest import (pointed_category, rep_a4_random_table, root_gap, root_norm,
                      su2k_category)
from tubecat.catalog import find
from tubecat.catspec import FusionCategorySpec, load_spec, serialize
from tubecat.errors import NotInCommutant, ShapeError, ToleranceError
from tubecat.jsonutil import dumps_canonical
from tubecat.morphism import Engine, engine_for
from tubecat.ring import compute_fp_dims
from tubecat.sums import SumObject, cut_block
from tubecat.tables import Entries
from tubecat.center import decompose_blocks, extract_center_simples
from tubecat.tube import (DELTA_TOL, LambdaObject, TubeElement, build_delta,
                          build_tube_algebra, f_map, naturality_residual, t_map,
                          tube_json, tube_product, tube_star, verify_halfbraiding)
from tubecat.tube import _Stacked, _delta_legs, _hexagons, _table_residuals, _word_legs
from oracles import (BlockMap, braiding_blocks, closure_per_channel,
                     delta_braiding_component, dense_pieces,
                     diagram_mult_table, diagram_product, diagram_star,
                     diagram_star_table, engine_channel_rows, engine_pad, engine_top,
                     engine_vertex_pad, extend_halfbraiding, generic_leg, gram,
                     hexagon_residual, lead_runs, leg_matrices, rotated_fuses,
                     shifted, sparse_rows, stacked_lifts, stacked_trees, sum_omega, t_diagram,
                     tensor_id_left, tensor_id_right, unitarity_loop, vertex_leg_loop,
                     whole_map_naturality)

# dim A(Λ) with Λ = sum of all simples, counted by hand from the N tables
TUBE_DIM = {
    "vec": 1,
    "vec_z2": 4,
    "vec_z2_twisted": 4,
    "vec_z3": 9,
    "fibonacci": 7,
    "ising": 12,
    "rep_s3": 17,
}


def brute_dim(spec, lam):
    ring = spec.ring
    slots = [x for x, m in enumerate(lam.mult) for _ in range(m)]
    total = 0
    for a in range(ring.rank):
        for x in slots:
            for y in slots:
                # dim hom(x a, a y) = sum_z N(x,a;z) N(a,y;z)
                total += int(np.dot(ring.N[x, a], ring.N[a, y]))
    return total


@pytest.fixture(scope="module")
def algebras(catalog):
    return {name: build_tube_algebra(spec, LambdaObject.all_simples(spec))
            for name, spec in catalog.items()}


@pytest.fixture(scope="module")
def deltas(catalog):
    return {name: build_delta(spec, LambdaObject.all_simples(spec))
            for name, spec in catalog.items()}


# ---- Λ ----------------------------------------------------------------------

@pytest.mark.parametrize("mapping, message", [
    ({"tau": 1.5}, "nonnegative integers"), ({"tau": math.nan}, "nonnegative integers"),
    ({"tau": None}, "nonnegative integers"), ({"phi": 1}, "unknown label 'phi'"),
    ({2: 1}, "label index 2 outside 0..1"), ({-1: 1}, "label index -1 outside"),
    ({"tau": 1, 1: 2}, "label 'tau' given twice")])
def test_lambda_from_mapping_refuses_bad_input(catalog, mapping, message):
    # fibonacci has rank 2; as LambdaObject itself, a ShapeError
    with pytest.raises(ShapeError, match=message):
        LambdaObject.from_mapping(catalog["fibonacci"], mapping)


def test_lambda_validation(catalog):
    spec = catalog["fibonacci"]
    with pytest.raises(ShapeError):
        LambdaObject(())
    with pytest.raises(ShapeError):
        LambdaObject((0, 0))
    with pytest.raises(ShapeError):
        LambdaObject((1, -1))
    lam = LambdaObject.from_mapping(spec, {"tau": 2})
    assert lam.mult == (0, 2)
    assert lam.slots() == ((1, 0), (1, 1))
    assert lam.as_dict(spec) == {"tau": 2}


def test_lambda_all_simples(catalog):
    for name, spec in catalog.items():
        lam = LambdaObject.all_simples(spec)
        assert len(lam.slots()) == spec.ring.rank, name


# ---- dimensions --------------------------------------------------------------

def test_frozen_dims(algebras):
    for name, expect in TUBE_DIM.items():
        assert algebras[name].dim == expect, name


def test_dim_matches_hom_count(catalog, algebras):
    for name, spec in catalog.items():
        lam = algebras[name].lam
        assert algebras[name].dim == brute_dim(spec, lam), name


def test_dim_partial_lambda(catalog):
    spec = catalog["fibonacci"]
    lam = LambdaObject.from_mapping(spec, {"tau": 1})
    A = build_tube_algebra(spec, lam)
    assert A.dim == brute_dim(spec, lam) == 3
    spec2 = catalog["vec_z2"]
    lam2 = LambdaObject.from_mapping(spec2, {"0": 2})
    A2 = build_tube_algebra(spec2, lam2)
    # doubled unit slot: each of the two directions carries a full 2x2 block
    assert A2.dim == brute_dim(spec2, lam2) == 8


# ---- Z/2 double oracle ---------------------------------------------------------

def double_z2_tables(A):
    """Structure constants of D(Z/2) in the basis order the algebra uses.

    Basis k of the tube sits at (direction a, slot x); the matching double
    element is delta_x ⊗ a under additive notation for Z/2.
    """
    pairs = []
    for (a, _m, l), span in A.spans.items():
        pairs += [(l, a)] * (span.stop - span.start)
    inv = {p: k for k, p in enumerate(pairs)}
    dim = A.dim
    c = np.zeros((dim, dim, dim))
    s = np.zeros((dim, dim))
    for i, (h1, k1) in enumerate(pairs):
        for j, (h2, k2) in enumerate(pairs):
            if h1 == h2:
                c[i, j, inv[(h1, (k1 + k2) % 2)]] = 1.0
        s[i, inv[(h1, (-k1) % 2)]] = 1.0
    return c, s


def test_z2_double_structure_constants(algebras):
    A = algebras["vec_z2"]
    c, s = double_z2_tables(A)
    assert np.max(np.abs(A.mult_table - c)) < 1e-10
    assert np.max(np.abs(A.star_table - s)) < 1e-10


def test_twisted_z2_tube_is_not_group_double(algebras):
    # same dimension, different constants: the cocycle shows up as signs
    A = algebras["vec_z2_twisted"]
    c, _ = double_z2_tables(A)
    assert np.max(np.abs(A.mult_table - c)) > 0.5


# ---- algebra axioms ------------------------------------------------------------

def test_build_residuals_small(algebras, deltas):
    for name, A in algebras.items():
        for what, r in A.residuals.items():
            assert r < 1e-9, (name, what, r)
    for name, D in deltas.items():
        for what, r in D.residuals.items():
            assert r < 1e-9, (name, what, r)


# ---- the self-check as joins over the nonzero entries ----------------------------

def dense_residuals(c, s):
    """assoc and star_anti as full dim⁵ contractions: the oracle for the
    sparse check, which must give the same max-abs value."""
    assoc = np.max(np.abs(np.einsum("ijm,mkl->ijkl", c, c)
                          - np.einsum("jkm,iml->ijkl", c, c)))
    anti = np.max(np.abs(np.einsum("ijk,kl->ijl", np.conj(c), s)
                         - np.einsum("jp,iq,pql->ijl", s, s, c)))
    return float(assoc), float(anti)


def table_residuals(A, mult=None, star=None):
    return _table_residuals(A.mult if mult is None else mult,
                            A.star if star is None else star, A.vector_of(A.unit))


def with_value(entries, t, value):
    """entries with entry t's value replaced: the entry form of one table
    cell changed."""
    val = entries.val.copy()
    val[t] = value
    return Entries(entries.index, val)


def direction(A, a):
    """Index range of the a-component of A, from its block spans."""
    spans = [span for (b, _m, _l), span in A.spans.items() if b == a]
    return slice(spans[0].start, spans[-1].stop)


@pytest.fixture(scope="module")
def pointed_algebras():
    out = {}
    for n in (4, 6):
        spec = load_spec(pointed_category(n, k=1))
        out[n] = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    return out


def test_blockwise_selfcheck_matches_dense(catalog, algebras, pointed_algebras):
    z5 = load_spec(pointed_category(5, k=1))
    fib, ising = catalog["fibonacci"], catalog["ising"]
    cases = list(algebras.items()) + [(f"Z/{n} k=1", A)
                                      for n, A in pointed_algebras.items()] + [
        (name, build_tube_algebra(spec, lam)) for name, spec, lam in (
            ("Z/5 k=1", z5, LambdaObject.all_simples(z5)),
            ("fibonacci 1:1,tau:2", fib, LambdaObject.from_mapping(fib, {"1": 1, "tau": 2})),
            ("ising sigma:2", ising, LambdaObject.from_mapping(ising, {"sigma": 2})))]
    for name, A in cases:
        got = table_residuals(A)
        assert got == A.residuals, name
        assoc, anti = dense_residuals(A.mult_table, A.star_table)
        assert abs(got["assoc"] - assoc) <= 1e-14, (name, got["assoc"], assoc)
        assert abs(got["star_anti"] - anti) <= 1e-14, (name, got["star_anti"], anti)


def test_blockwise_selfcheck_sees_perturbed_entry(algebras):
    A = algebras["rep_s3"]
    t = int(np.argmax(np.abs(A.mult.val)))  # the first largest entry in C order
    for bump in (1e-6, 1e-6j):  # a real and an imaginary defect
        mult = with_value(A.mult, t, A.mult.val[t] + bump)
        got = table_residuals(A, mult=mult)
        assert got["assoc"] >= 1e-7, bump
        assoc, anti = dense_residuals(mult.dense(A.dim), A.star_table)
        assert abs(got["assoc"] - assoc) <= 1e-14, bump
        assert abs(got["star_anti"] - anti) <= 1e-14, bump


def test_blockwise_selfcheck_reads_grading_from_table(pointed_algebras):
    # on Vec[Z/4] a product of directions 1 and 1 lands in direction 2 only;
    # an entry in direction 0 sits in a block the fusion rules say is zero,
    # and joins the entries in its C-order place
    A = pointed_algebras[4]
    I = [direction(A, a) for a in range(A.spec.rank)]
    assert not np.any(A.mult_table[I[1], I[1], I[0]])
    (i, j, k), val = A.mult
    mult = tubecat.tables._entries(
        tuple(np.append(ix, at) for ix, at in zip((i, j, k), (I[1].start, I[1].start, I[0].start))),
        np.append(val, 1e-6), A.dim)
    clean = table_residuals(A)
    got = table_residuals(A, mult=mult)
    assert got["assoc"] >= 1e-7 > clean["assoc"]
    assert got["star_anti"] >= 1e-7 > clean["star_anti"]
    assoc, anti = dense_residuals(mult.dense(A.dim), A.star_table)
    assert abs(got["assoc"] - assoc) <= 1e-14
    assert abs(got["star_anti"] - anti) <= 1e-14


def test_selfcheck_fold_keeps_nan(algebras):
    # a NaN in the last direction pair's blocks must not be folded away
    A = algebras["rep_s3"]
    last = direction(A, A.spec.rank - 1)

    def largest_in_last(entries):
        inside = np.flatnonzero(np.all([(ix >= last.start) & (ix < last.stop)
                                        for ix in entries.index], axis=0))
        return inside[np.argmax(np.abs(entries.val[inside]))]

    got = table_residuals(A, mult=with_value(A.mult, largest_in_last(A.mult), np.nan))
    assert np.isnan(got["assoc"]) and np.isnan(got["star_anti"])
    # and one in the star table, on the last direction's largest entry
    got = table_residuals(A, star=with_value(A.star, largest_in_last(A.star), np.nan))
    assert np.isnan(got["star_anti"]) and np.isnan(got["star_inv"])


def test_build_names_nan_residual(catalog, monkeypatch):
    real = tubecat.tube._table_residuals

    def with_nan(*args):
        out = real(*args)
        out["star_inv"] = float("nan")
        return out

    monkeypatch.setattr(tubecat.tube, "_table_residuals", with_nan)
    spec = catalog["fibonacci"]
    with pytest.raises(ToleranceError, match="star_inv defect nan"):
        build_tube_algebra(spec, LambdaObject.all_simples(spec))


def test_selfcheck_holds_one_direction_pair_at_a_time():
    # the build keeps the product as sorted entries, never a dense dim³
    # table, and the self-check holds only the nonzero product terms, never
    # a dim⁴ block; the Z/6 build peaks near 0.31 MiB
    import tracemalloc
    spec = load_spec(pointed_category(6, k=1))
    lam = LambdaObject.all_simples(spec)
    tracemalloc.start()
    try:
        build_tube_algebra(spec, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 2 ** 10, peak / 2 ** 20


def test_build_rejects_a_nudged_entry(monkeypatch):
    # one product entry nudged by 1e-6, after the fill: the self-check on
    # the entries must see it
    real = tubecat.tables.fill

    def nudged(eng, slots):
        spans, dim, mult, star = real(eng, slots)
        t = int(np.argmax(np.abs(mult.val)))
        return spans, dim, with_value(mult, t, mult.val[t] + 1e-6), star

    monkeypatch.setattr(tubecat.tables, "fill", nudged)
    for name in ("fibonacci", "rep_s3"):
        spec = find(name)
        with pytest.raises(ToleranceError, match=r"tube algebra (assoc|star_anti) defect"):
            build_tube_algebra(spec, LambdaObject.all_simples(spec))


def test_norms_keep_nan_in_any_block(catalog, algebras):
    spec = catalog["rep_s3"]
    eng = engine_for(spec)
    f = eng.identity((2, 2))
    assert sorted(f.blocks) == [0, 1, 2]
    f.blocks[2] = f.blocks[2] * np.nan  # the last root, not the first
    assert np.isnan(f.norm())
    A = algebras["rep_s3"]
    g = A.random_element(np.random.default_rng(2))
    g.vector[-1] = np.nan  # the last coordinate, not the first
    assert np.isnan(g.norm())


def pair_residuals(obj, braiding, legs=None):
    """The hexagon kernel's worst defect per pair (a, b), for a braiding
    checked as one part; legs by default joined from the stored e_b, which
    needs a sum of one-letter words (tube._word_legs)."""
    return _hexagons(_Stacked(obj, braiding), legs)[0]


def test_build_delta_rejects_nan_in_a_later_hexagon(catalog, monkeypatch):
    # a NaN on one entry of the leg id_τ ⊗ e_τ, which only the last pair
    # (τ, τ) reads: the stored braiding (the legs at a = 1) stays finite
    spec = catalog["fibonacci"]
    real = tubecat.tube._delta_legs
    last = spec.rank - 1

    def nan_at_last(obj):
        legs = real(obj)

        def at(letters):
            out = legs(letters)
            if last in np.atleast_1d(letters):
                out["val"][np.flatnonzero((out["a"] == last) & (out["b"] == last))[-1]] = np.nan
            return out
        return at

    monkeypatch.setattr(tubecat.tube, "_delta_legs", nan_at_last)
    with pytest.raises(ToleranceError, match=r"hexagon defect nan >= 1e-09 at \(a, b\) = "
                       r"\(tau, tau\)$"):
        build_delta(spec, LambdaObject.all_simples(spec))


# SU(2)_k from the q-Racah formula (conftest.su2k_category): the first
# non-pointed family that grows, with dimensions that are not integers
SU2K = ["SU(2)_2", "SU(2)_3", "SU(2)_4"]


def _spec(catalog, name):
    if name.startswith("Z/"):  # "Z/n k=1"
        return load_spec(pointed_category(int(name[2:name.index(" ")]), k=int(name[-1])))
    if name.startswith("SU(2)_"):
        return load_spec(su2k_category(int(name[6:])))
    return catalog[name]


def _channels(eng, a, b):
    return [(c, mu) for c in eng.basis((a, b)).roots()
            for mu in range(int(eng.ring.N[a, b, c]))]


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3",
                                  "vec_z2_twisted", "Z/4 k=1", *SU2K])
def test_delta_left_leg_matches_generic(catalog, name):
    # channel (c, μ) of the staged hexagon leg id_a ⊗ e_b, drawn on e_b's
    # own vertices, against the stacked channel rows of the generic route,
    # which left-tensors the assembled blocks of e_b; one matrix per root
    spec = _spec(catalog, name)
    D = build_delta(spec, LambdaObject.all_simples(spec))
    eng = engine_for(spec)
    legs = _delta_legs(D.obj)
    blocks = braiding_blocks(D.obj, D.braiding)
    for a in range(spec.rank):
        for b in range(spec.rank):
            generic = generic_leg(D.obj, blocks, a, b)
            mid = D.obj.stacked((a,), (b,))
            for c, mu in _channels(eng, a, b):
                got = leg_matrices(D.obj, legs, a, b, c, mu)
                want = generic(c, mu, mid)
                assert sorted(got) == sorted(want), (name, a, b, c)
                assert all(got[z].shape == want[z].shape for z in got), (name, a, b, c)
                gap = max(float(np.max(np.abs(got[z] - want[z]), initial=0.0))
                          for z in got)
                assert gap <= 1e-13, (name, a, b, c, mu)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_channel_rows_resolve_the_identity(catalog, name):
    # Σ_{c,μ} (ι ⊗ id_W) ∘ (ι† ⊗ id_W) ∘ f = f, entry for entry
    spec = _spec(catalog, name)
    eng = engine_for(spec)
    rng = np.random.default_rng(5)
    rank = spec.rank
    for a in range(rank):
        for b in range(rank):
            for src, W in [((a, b), ()), ((rank - 1, a, b), (rank - 1,)),
                           ((b, a, 1 % rank), (1 % rank, b))]:
                f = eng.random(src, (a, b) + W, rng)
                total = None
                for c, mu in _channels(eng, a, b):
                    iota = eng.hom_basis((c,), (a, b))[mu]
                    rows = engine_channel_rows(eng, f, c, mu)
                    assert rows.dst == (c,) + W
                    back = eng.tensor_id_right(iota, W) @ rows
                    total = back if total is None else total + back
                assert all(np.array_equal(total.blocks[z], f.blocks[z])
                           for z in f.blocks), (name, a, b, src)


def _full_leg_residual(obj, braiding, a, b):
    """‖e_{a⊗b} − (id_a ⊗ e_b) ∘ (e_a ⊗ id_b)‖ with e_{a⊗b} assembled whole,
    for a braiding in block form (braiding_blocks)."""
    joined = extend_halfbraiding(obj, braiding, (a, b))
    staged = tensor_id_left(braiding[b], (a,)) @ tensor_id_right(braiding[a], (b,))
    return (joined - staged).norm()


@pytest.mark.parametrize("name", ["vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                                  "fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_channel_hexagon_matches_full_leg(catalog, name):
    spec = _spec(catalog, name)
    D = build_delta(spec, LambdaObject.all_simples(spec))
    # channel by channel, each leg the channel rows of the whole map
    # id_a ⊗ e_b of the stored e_b, as the kernel reads an extracted simple
    blocks = braiding_blocks(D.obj, D.braiding)
    for a in range(spec.rank):
        for b in range(spec.rank):
            want = _full_leg_residual(D.obj, blocks, a, b)
            got_ab = hexagon_residual(D.obj, D.braiding, a, b)
            assert abs(got_ab - want) <= 1e-15, (name, a, b, got_ab, want)


def test_channel_hexagon_matches_full_leg_on_extracted_simples(catalog):
    spec = catalog["rep_s3"]
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    simples = extract_center_simples(A, build_delta(spec, lam),
                                     decompose_blocks(A, seed=1))
    for s in simples:
        blocks = braiding_blocks(s.obj, s.braiding)
        pairs = pair_residuals(s.obj, s.braiding)
        for a in range(spec.rank):
            for b in range(spec.rank):
                got = pairs[a, b]
                want = _full_leg_residual(s.obj, blocks, a, b)
                assert abs(got - want) <= 1e-15, (s.underlying, a, b)


def test_hexagon_sees_phase_in_a_later_channel(catalog):
    # std ⊗ std = triv + sgn + std in Rep(S3).  A phase on one block of
    # e_sgn, the second channel, enters the (std, std) hexagon only through
    # the rows of that channel: the staged side uses e_std alone
    spec = catalog["rep_s3"]
    D = build_delta(spec, LambdaObject.all_simples(spec))
    std, sgn = spec.index("std"), spec.index("sgn")
    assert [c for c, _ in _channels(D.engine, std, std)] == [0, sgn, std]
    legs = _delta_legs(D.obj)
    assert pair_residuals(D.obj, D.braiding, legs)[std, std] < 1e-13
    e = braiding_blocks(D.obj, D.braiding)[sgn]
    blocks = dict(e.blocks)
    key = max(blocks, key=lambda k: blocks[k].norm())
    blocks[key] = blocks[key] * np.exp(1e-6j)
    nudged = dict(D.braiding)
    nudged[sgn] = BlockMap(e.src, e.dst, blocks).stacked(
        D.obj.stacked((), (sgn,)), D.obj.stacked((sgn,)))
    res = pair_residuals(D.obj, nudged, legs)[std, std]
    assert 1e-7 <= res < 1e-5


def test_build_delta_builds_fewer_tree_bases():
    # Δ's stacks are grown as arrays from their words' letters, so a cold
    # build makes no TreeBasis at all; 933 bases at the full-leg check, 80
    # when the stacks of Δ and (a,) + Δ were the engine's bases of each word
    spec = load_spec(pointed_category(4, k=1))
    eng = engine_for(spec)
    before = len(eng._bases)
    build_delta(spec, LambdaObject.all_simples(spec))
    assert len(eng._bases) - before == 0


def test_hexagon_stage_builds_no_long_tree_basis(monkeypatch):
    # the hexagon check reads the states of (a,) + Δ grown as arrays and
    # draws its left leg from flat F-entry pieces, so it makes no basis at
    # all; 789 bases at the per-summand check
    spec = load_spec(pointed_category(4, k=1))
    eng = engine_for(spec)
    real = tubecat.tube._hexagons
    made = []

    def counted(hb, legs=None):
        before = set(eng._bases)
        res = real(hb, legs)
        made.extend(w for w in eng._bases if w not in before)
        return res

    monkeypatch.setattr(tubecat.tube, "_hexagons", counted)
    before = len(eng._bases)
    build_delta(spec, LambdaObject.all_simples(spec))
    assert made == []
    assert len(eng._bases) - before == 0


def _phase_on_block(obj, legs, b, i, j, phase):
    """The legs at a = 1 with the entries of the stored e_b in block (i, j),
    from summand j to summand i, times the phase."""
    rows, cols = obj.stacked((b,)).starts, obj.stacked((), (b,)).starts
    z, row, col = legs["z"], legs["row"], legs["col"]
    at = np.flatnonzero(legs["b"] == b)
    for k in at:
        if (rows[z[k]][i] <= row[k] < rows[z[k]][i + 1]
                and cols[z[k]][j] <= col[k] < cols[z[k]][j + 1]):
            legs["val"][k] *= phase
    return legs


def test_build_delta_sees_phase_on_one_stored_block(monkeypatch):
    # e^{i·1e-6} on one block of the drawn e_2 keeps e_2 unitary (each
    # summand of Vec[Z/4] maps to one summand) and leaves the unit component
    # alone; the hexagon must still see it, although the legs id_a ⊗ e_b at
    # a ≠ 1 are drawn from the vertices and not from the stored e_b.  The
    # block is (0, j), from summand (2, slot 0) to (0, slot 0), the lowest
    # key of e_2.  build_delta keeps the legs at a = 1 as the stored e_b, so
    # a phase on those entries moves the stored e_2 and its leg id_1 ⊗ e_2
    # together
    spec = load_spec(pointed_category(4, k=1))
    real = tubecat.tube._delta_legs
    drawn = []

    def nudged(obj):
        legs, unit = real(obj), obj.engine.ring.unit

        def at(letters):
            if unit not in np.atleast_1d(letters):
                return legs(letters)
            drawn.append(2)
            return _phase_on_block(obj, legs(letters), 2, 0, obj.index((2, 0)), np.exp(1e-6j))
        return at

    monkeypatch.setattr(tubecat.tube, "_delta_legs", nudged)
    with pytest.raises(ToleranceError, match=r"hexagon defect (1\.00\de-06|9\.99\de-07)"):
        build_delta(spec, LambdaObject.all_simples(spec))
    assert drawn == [2]


def test_phase_on_one_stored_block_names_its_pair():
    # the same phase on the stored e_2 alone, the legs left as drawn: the
    # defect is read at the pairs whose hexagon reads that block, as e_c
    # at c = a + b = 2 or as e_a ⊗ id_b at a = 2, b ≠ 0 (at (2, 0) both
    # sides read it), and the error names the worst of them
    spec = load_spec(pointed_category(4, k=1))
    D = build_delta(spec, LambdaObject.all_simples(spec))
    legs = _delta_legs(D.obj)
    moved = _phase_on_block(D.obj, legs(spec.ring.unit), 2, 0, D.obj.index((2, 0)),
                            np.exp(1e-6j))
    S = tubecat.tube._sides(D.obj)
    nudged = {**D.braiding, 2: tubecat.tube._matrices(moved, S.dims, S.rdims)[2]}
    pairs = pair_residuals(D.obj, nudged, legs)
    reads = {(a, b) for a in range(4) for b in range(4)
             if ((a + b) % 4 == 2 and a != 2) or (a == 2 and b != 0)}
    assert all(1e-7 < pairs[ab] < 1e-5 for ab in reads)
    assert all(pairs[ab] < 1e-13 for ab in np.ndindex(4, 4) if ab not in reads)
    with pytest.raises(ToleranceError, match=r"^hexagon defect (1\.00\de-06|9\.99\de-07) "
                       r">= 1e-09 at \(a, b\) = \((\d), (\d)\)$") as err:
        verify_halfbraiding(D.obj, nudged, DELTA_TOL, legs)
    a, b = map(int, re.search(r"\((\d), (\d)\)$", str(err.value)).groups())
    assert (a, b) in reads and pairs[a, b] == pairs.max()


@pytest.mark.parametrize("name, mapping", [
    *((name, None) for name in TUBE_DIM),
    ("fibonacci", {"tau": 2}), ("ising", {"sigma": 1}),
    ("Z/4 k=1", None), ("Z/5 k=1", None), *((name, None) for name in SU2K)])
def test_drawn_braiding_matches_whole_blocks(catalog, name, mapping):
    # e_b drawn on stacked trees from the three-letter vertex pieces against
    # the blocks built whole on four-letter words, stacked: the same roots,
    # and whole matrices equal
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    D = build_delta(spec, lam)
    for b in range(spec.rank):
        want = delta_braiding_component(D.engine, D.obj, b).stacked(
            D.obj.stacked((), (b,)), D.obj.stacked((b,)))
        got = D.braiding[b]
        assert sorted(got) == sorted(want), (name, b)
        assert all(got[z].shape == m.shape for z, m in want.items()), (name, b)
        assert max(float(np.max(np.abs(got[z] - m), initial=0.0))
                   for z, m in want.items()) <= 1e-13, (name, b)


def test_drawing_tensors_no_four_letter_word(monkeypatch):
    # a cold Vec[Z/7]^ω build_delta reads every piece it draws e_b from,
    # the rotated fusion halves included, off the F entries: it rotates no
    # diagram and tensors no morphism, on the left or on the right
    import tubecat.duality
    from tubecat.morphism import Engine
    spec = load_spec(pointed_category(7, k=1))
    calls = {"one_left": 0, "one_left_into_4": 0, "left_by_2": 0, "right": 0, "rotate": 0}
    one, left, right = Engine._tensor_one_left, Engine.tensor_id_left, Engine.tensor_id_right
    rotate = tubecat.duality.rotate_clockwise

    def counted_rotate(f):
        calls["rotate"] += 1
        return rotate(f)

    def counted_one(self, c, f):
        out = one(self, c, f)
        calls["one_left"] += 1
        calls["one_left_into_4"] += max(len(out.src), len(out.dst)) >= 4
        return out

    def counted_left(self, word, f):
        calls["left_by_2"] += len(tuple(word)) == 2
        return left(self, word, f)

    def counted_right(self, f, word):
        calls["right"] += 1
        return right(self, f, word)

    monkeypatch.setattr(Engine, "_tensor_one_left", counted_one)
    monkeypatch.setattr(Engine, "tensor_id_left", counted_left)
    monkeypatch.setattr(Engine, "tensor_id_right", counted_right)
    monkeypatch.setattr(tubecat.duality, "rotate_clockwise", counted_rotate)
    build_delta(spec, LambdaObject.all_simples(spec))
    assert calls == dict.fromkeys(calls, 0), calls


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "vec_z2_twisted",
                                  "Z/4 k=2", "SU(2)_3"])
def test_vertex_pieces_are_the_engine_pieces(catalog, name):
    # every vertex pad, top and pad that Δ's drawing and hexagon read,
    # gathered from F entries, against the engine's left tensoring of the
    # same vertex (for a pad, the rotated fusion half that tables.rotations
    # reads off F, itself checked against the bent diagram below): one per
    # label tuple, the same roots and shapes, and the same entries
    spec = _spec(catalog, name)
    eng = engine_for(spec)
    N = eng.ring.N
    vpads, tops, pads = dense_pieces(eng, tubecat.tube._pieces(eng))
    rot = _dense_rotations(eng, tubecat.tables.rotations(eng))
    assert len(vpads) == len(pads) == spec.rank * np.count_nonzero(N)
    pairs = []  # (gathered, engine's) per vertex index
    for (u, a, b, c), per_root in vpads.items():
        pairs += [({z: S[mu] for z, S in per_root.items()},
                   engine_vertex_pad(eng, u, a, b, c, mu)) for mu in range(N[a, b, c])]
    for (a, b, c, mu, y, x), per_root in tops.items():
        pairs += [({w: S[t] for w, S in per_root.items()},
                   engine_top(eng, a, b, y, x, t, c, mu)) for t in range(N[b, y, x])]
    for (u, b, y, x), per_root in pads.items():
        pairs += [({z: S[t] for z, S in per_root.items()},
                   engine_pad(eng, b, y, x, rot[(b, y, x)][t], u))
                  for t in range(N[b, y, x])]
    for got, want in pairs:
        assert sorted(got) == sorted(want.blocks), (want.src, want.dst)
        assert all(m.shape == want.blocks[z].shape for z, m in got.items())
    assert max(float(np.max(np.abs(m - want.blocks[z])))
               for got, want in pairs for z, m in got.items()) <= 1e-15


def test_vertex_pieces_are_gathered_once_per_category(monkeypatch):
    # Δ's drawing, its hexagon check and the extracted simples' hexagon
    # check read one set of vertex pieces, kept on the engine
    spec = load_spec(pointed_category(3, k=1))
    real, calls = tubecat.tables.vertex_pieces, []
    monkeypatch.setattr(tubecat.tables, "vertex_pieces",
                        lambda *args: calls.append(args) or real(*args))
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    extract_center_simples(A, build_delta(spec, lam), decompose_blocks(A, seed=1))
    build_delta(spec, LambdaObject.from_mapping(spec, {"1": 2}))
    assert len(calls) == 1 and calls[0][0] is engine_for(spec)


def test_product_terms_are_joined_once_per_engine(monkeypatch):
    # the build's fill and t_map's action read one set of product terms,
    # kept on the engine, and t_map still gives what a fresh join gives
    spec = load_spec(pointed_category(3, k=1))
    real, calls = tubecat.tables.product_terms, []
    monkeypatch.setattr(tubecat.tables, "product_terms",
                        lambda *args: calls.append(args) or real(*args))
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    f = TubeElement(A, np.random.default_rng(3).normal(size=A.dim) + 0j)
    T = t_map(A, D, f)
    assert len(calls) == 1 and calls[0][0] is engine_for(spec)
    engine_for(spec).cache.clear()
    again = t_map(A, D, f)
    assert len(calls) == 2
    assert all(T[z].tobytes() == again[z].tobytes() for z in T) and T.keys() == again.keys()


def _rep_a4_engine(seed):
    """(engine, rng) of Rep(A4)'s ring with seeded random unitary F blocks."""
    F = rep_a4_random_table(seed)
    spec = FusionCategorySpec(name="Rep(A4) random F", ring=F.ring,
                              dims=compute_fp_dims(F.ring), fsymbols=F)
    return engine_for(spec), np.random.default_rng(seed)


def _dense_rotations(eng, rot):
    """(b, y, x) -> R[t, σ] from tables.rotations' flat entries."""
    N, dual = eng.ring.N, eng.ring.dual
    out = {}
    for b, y, x, t, s, v in zip(*(rot[f].tolist() for f in ("b", "y", "x", "t", "sigma", "val"))):
        out.setdefault((b, y, x), np.zeros((N[b, y, x], N[dual[x], b, dual[y]]),
                                           dtype=complex))[t, s] = v
    return out


def _flat_rotations(fuse):
    """Random fusion halves (b, y, x) -> [g_t] as tables.rotations' flat
    entries, R[t, σ] the coefficient of ι_σ† in g_t."""
    rows = [(b, y, x, t, s, v) for (b, y, x), gs in fuse.items() for t, g in enumerate(gs)
            for s, v in enumerate(next(iter(g.blocks.values()))[0])]
    cols = list(zip(*rows))
    out = {f: np.array(c, dtype=np.int64) for f, c in zip(("b", "y", "x", "t", "sigma"), cols)}
    out["val"] = np.array(cols[5], dtype=complex)
    return out


def _random_fusion_halves(eng, rng):
    """(b, y, x) -> [g_t : (x̄, b) → (ȳ,) per t], random, for every
    admissible (b, y, x) in ascending order."""
    ring, dual = eng.ring, eng.ring.dual
    return {(b, y, x): [eng.random((dual[x], b), (dual[y],), rng)
                        for _t in range(ring.N[b, y, x])]
            for b, y, x in np.argwhere(ring.N).tolist()}


@pytest.mark.parametrize("seed", [0, 1])
def test_vertex_pieces_with_multiplicity(seed):
    # Rep(A4)'s ring, 3⊗3 ∋ 2·3, with random unitary F blocks: the gathered
    # id_u ⊗ g equals the engine's for a random one-vertex g in both
    # directions, on every vertex index.  Random F has no zig-zag, so the
    # pads contract random fusion vertices g_t : (x̄, b) → (ȳ,), one per t,
    # in place of the rotated ones, and id_a ⊗ g for a random splitting
    # vertex g : (x,) → (b, y) is Σ_t g_t·top_t, placed on the rows of each
    # channel (c, μ) of a⊗b (oracles.lead_runs)
    eng, rng = _rep_a4_engine(seed)
    ring = eng.ring
    fuse = _random_fusion_halves(eng, rng)
    vpads, tops, pads = dense_pieces(eng, tubecat.tables.vertex_pieces(eng, _flat_rotations(fuse)))
    assert max(len(S) for per_root in vpads.values() for S in per_root.values()) == 2
    assert max(len(S) for per_root in tops.values() for S in per_root.values()) == 2
    gaps = []
    for (u, b, y, x), per_root in pads.items():
        for t, g in enumerate(fuse[(b, y, x)]):
            want = eng._tensor_one_left(u, g).blocks
            assert sorted(per_root) == sorted(want), (u, b, y, x)
            gaps += [np.max(np.abs(S[t] - want[z])) for z, S in per_root.items()]
    for a in range(ring.rank):
        for b, y, x in np.argwhere(ring.N).tolist():
            g = eng.random((x,), (b, y), rng)
            want = eng._tensor_one_left(a, g).blocks
            got = {w: np.zeros_like(m) for w, m in want.items()}
            for (c, mu), runs in lead_runs(eng.basis((a, b, y))).items():
                for w, top in tops.get((a, b, c, mu, y, x), {}).items():
                    got[w][runs[w]] = np.tensordot(g.blocks[x][:, 0], top, 1)
            gaps += [np.max(np.abs(got[w] - m)) for w, m in want.items()]
    assert max(gaps) <= 1e-14


ROTATION_CASES = [*TUBE_DIM, *(f"Z/{n} k={k}" for n in range(4, 8) for k in (1, 2)), *SU2K]


@pytest.mark.parametrize("name", ROTATION_CASES)
def test_rotations_are_the_bent_fusion_halves(catalog, name):
    # R read off one F entry per coefficient against the fusion halves of
    # canonical_pair bent onto the conjugate strand with a cup and a cap:
    # one array per admissible (b, y, x), of shape (N[b,y,x], N[x̄,b,ȳ])
    spec = _spec(catalog, name)
    eng = engine_for(spec)
    rot = _dense_rotations(eng, tubecat.tables.rotations(eng))
    assert sorted(rot) == sorted(map(tuple, np.argwhere(eng.ring.N).tolist()))
    gaps = []
    for (b, y, x), R in rot.items():
        want = np.array([f.blocks[eng.ring.dual[y]][0] for f in rotated_fuses(eng, b, y, x)])
        assert R.shape == want.shape, (name, b, y, x)
        gaps.append(np.max(np.abs(R - want)))
    assert max(gaps) <= 1e-14, name


def _legs_agree(obj, legs, a, b, loop_memo):
    """(c, μ) -> whether the joined legs and the per-group loop agree,
    roots and entries, over every channel of a⊗b."""
    mid = obj.stacked((a,), (b,))
    out = {}
    for c, mu in _channels(obj.engine, a, b):
        got = leg_matrices(obj, legs, a, b, c, mu)
        want = vertex_leg_loop(obj, a, b, loop_memo, c, mu, mid)
        out[(c, mu)] = (sorted(got) == sorted(want)
                        and all(np.array_equal(got[z], want[z]) for z in want))
    return out


@pytest.mark.parametrize("name, mapping", [
    *((name, None) for name in TUBE_DIM),
    *((f"Z/{n} k=1", None) for n in range(4, 8)), *((name, None) for name in SU2K),
    ("fibonacci", {"tau": 2}), ("rep_s3", {"std": 2, "sgn": 1})])
def test_vertex_leg_matches_the_loop(catalog, name, mapping):
    # every channel (c, μ) of every leg id_a ⊗ e_b, the stored braiding's
    # a = 1 included, all joined at once, against one Kronecker sum and one
    # scatter per tree group of the grown stack: the same arrays, bit for bit
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    D = build_delta(spec, lam)
    legs, loop_memo = _delta_legs(D.obj), {}
    for a in range(spec.rank):
        for b in range(spec.rank):
            same = _legs_agree(D.obj, legs, a, b, loop_memo)
            assert all(same.values()), (name, a, b, same)


@pytest.mark.parametrize("seed", [0, 1])
def test_vertex_leg_matches_the_loop_with_multiplicity(seed):
    # Rep(A4)'s ring with random F and random rotations, set as the
    # engine's vertex pieces: 3⊗3 ∋ 2·3 sends two vertices (t = 0, 1) and
    # blocks larger than 1×1 through the leg.  Random F satisfies no
    # pentagon, so Δ is assembled here, as build_delta assembles it, and
    # never verified.  Both add the pad's σ terms, then the t terms, then
    # weight: the same arrays, bit for bit
    eng, rng = _rep_a4_engine(seed)
    ring, dual = eng.ring, eng.ring.dual
    rot = _flat_rotations(_random_fusion_halves(eng, rng))
    eng.cache[("vertex pieces",)] = tubecat.tables.vertex_pieces(eng, rot)
    lam = LambdaObject((1, 0, 1, 2))
    slots = lam.slots()
    obj = SumObject(eng, [(x, l, dual[x]) for x in range(ring.rank) for l, _c in slots],
                    [(x, s) for x in range(ring.rank) for s in range(len(slots))])
    legs, loop_memo = _delta_legs(obj), {}
    for a in range(ring.rank):
        for b in range(ring.rank):
            same = _legs_agree(obj, legs, a, b, loop_memo)
            assert all(same.values()), (seed, a, b, same)
    tops, pads = loop_memo[("dense",)][1:]
    assert max(len(S) for per_w in tops.values() for S in per_w.values()) == 2
    assert any(S.shape[1:] != (1, 1) for per_z in pads.values() for S in per_z.values())


@pytest.mark.parametrize("seed", [0, 1])
def test_word_legs_match_the_whole_map_with_multiplicity(seed):
    # Rep(A4)'s ring with random unitary F, and a random matrix at every
    # root for each e_b on the one-letter sum 3 + 1′ + 3: at a = b = 3,
    # 3⊗3 ∋ 2·3 sends σ, σ′, τ, μ and ρ through 0 and 1.  Random F satisfies
    # no pentagon and e_b no hexagon, but a leg is linear in e_b and reads F
    # on three letters only: the flat legs against the channel rows of the
    # whole map id_a ⊗ e_b that the engine left-tensors, per (a, b, c, μ)
    eng, rng = _rep_a4_engine(seed)
    ring, three = eng.ring, 3
    assert ring.N[three, three, three] == 2
    X = SumObject(eng, [(three,), (1,), (three,)])
    braiding = {}
    for b in range(ring.rank):
        src = X.stacked((), (b,)).dims
        braiding[b] = {z: rng.normal(size=(n, src[z])) + 1j * rng.normal(size=(n, src[z]))
                       for z, n in X.stacked((b,)).dims.items() if z in src}
    legs, blocks = _word_legs(_Stacked(X, braiding)), braiding_blocks(X, braiding)
    for a, b in np.ndindex(ring.rank, ring.rank):
        generic = generic_leg(X, blocks, a, b)
        mid = X.stacked((a,), (b,))
        for c, mu in _channels(eng, a, b):
            got = leg_matrices(X, legs, a, b, c, mu)
            want = generic(c, mu, mid)
            assert sorted(got) == sorted(want), (seed, a, b, c, mu)
            assert all(got[z].shape == want[z].shape for z in got), (seed, a, b, c, mu)
            gap = max(float(np.max(np.abs(got[z] - want[z]), initial=0.0)) for z in got)
            assert gap <= 1e-14, (seed, a, b, c, mu, gap)
    # the second vertex of 3⊗3 at 3 on every index: μ of the channel, ρ and
    # σ′ on the rows, ν₁ and ν₂ on the columns, σ and τ inside the sum
    at = legs(three)
    on = (at["b"] == three) & (at["c"] == three) & (at["mu"] == 1)
    rows = stacked_trees(X.stacked((three,)))[three]
    cols = stacked_trees(X.stacked((three,), (three,)))[three]
    assert {rows[k][1][0][1] for k in at["row"][on & (at["z"] == three)]} == {0, 1}
    assert {t[0][1] for _j, t in cols} == {t[1][1] for _j, t in cols} == {0, 1}


@pytest.mark.parametrize("name, mapping", [
    *((name, None) for name in ROTATION_CASES),
    ("fibonacci", {"tau": 2}), ("rep_s3", {"std": 2, "sgn": 1})])
def test_hexagon_kernel_matches_the_pair_loop(catalog, name, mapping):
    # every pair's worst defect from the one join over all pairs, with Δ's
    # joined legs as build_delta checks it, against the loop over one pair,
    # channel and root at a time, its legs the stored e_b at a = 1 and the
    # per-group loop at a ≠ 1, its vertex pads drawn by the engine
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    D = build_delta(spec, lam)
    got = pair_residuals(D.obj, D.braiding, _delta_legs(D.obj))
    assert got.max() == D.residuals["hexagon"]
    memo = {}
    for a, b in np.ndindex(spec.rank, spec.rank):
        left = ((lambda c, mu, src: D.braiding[b]) if a == spec.ring.unit
                else functools.partial(vertex_leg_loop, D.obj, a, b, memo))
        want = hexagon_residual(D.obj, D.braiding, a, b, left)
        assert abs(got[a, b] - want) <= 1e-15, (name, a, b, got[a, b], want)


def test_hexagon_kernel_matches_the_pair_loop_on_extracted_simples(catalog, monkeypatch):
    # rep_s3's eight simples checked as extraction checks them, one part
    # each of their direct sum, with legs from the stored e_b: each part's
    # defect per pair against the loop on that simple alone, its legs the
    # channel rows of the whole map id_a ⊗ e_b
    import tubecat.center
    spec = catalog["rep_s3"]
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    real, seen = tubecat.center.verify_halfbraiding, []
    monkeypatch.setattr(tubecat.center, "verify_halfbraiding",
                        lambda *args, **kw: seen.append((args, kw)) or real(*args, **kw))
    simples = extract_center_simples(A, build_delta(spec, lam), decompose_blocks(A, seed=1))
    (obj, braiding, _tol), kw = seen[0]
    got = _hexagons(_Stacked(obj, braiding, kw["parts"]))
    assert got.shape == (len(simples), spec.rank, spec.rank) == (8, 3, 3)
    for k, s in enumerate(simples):
        assert got[k].max() == s.hexagon_defect
        for a, b in np.ndindex(spec.rank, spec.rank):
            want = hexagon_residual(s.obj, s.braiding, a, b)
            assert abs(got[k, a, b] - want) <= 1e-15, (s.underlying, a, b, got[k, a, b], want)


def test_extraction_check_builds_no_omega_and_no_two_letter_stack(monkeypatch):
    # extraction's one verify_halfbraiding on a cold rep_s3 joins its legs
    # from the stored e_b and flat F entries (tube._word_legs): no
    # Engine.omega and no stack of two added letters (18 SumObject.omega
    # calls and 9 stacks when each pair's leg id_a ⊗ e_b was Ω′·B·Ω† on the
    # sums (b,) + X and X + (b,))
    import tubecat.center
    spec = find("rep_s3")
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    dec = decompose_blocks(A, seed=1)
    omega, stacked, real = Engine.omega, SumObject.stacked, tubecat.center.verify_halfbraiding
    counts, inside = {"omega": 0, "two letters": 0}, []

    def counted_omega(eng, c, word):
        counts["omega"] += bool(inside)
        return omega(eng, c, word)

    def counted_stacked(obj, left=(), right=()):
        counts["two letters"] += bool(inside) and len(left) + len(right) >= 2
        return stacked(obj, left, right)

    def check(*args, **kw):
        inside.append(True)
        try:
            return real(*args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(Engine, "omega", counted_omega)
    monkeypatch.setattr(SumObject, "stacked", counted_stacked)
    monkeypatch.setattr(tubecat.center, "verify_halfbraiding", check)
    simples = extract_center_simples(A, D, dec)
    assert len(simples) == 8
    assert counts == {"omega": 0, "two letters": 0}


def test_build_delta_grows_no_two_letter_stack(monkeypatch):
    # a cold Vec[Z/7]^ω build_delta reads every position on (a,) + Δ + (b,)
    # and Δ + (a, b), and the sizes of Δ + (b,), off the states of (a,) + Δ
    # and Δ (tube._sides, _firsts): it grows two stacks, Δ's own words and
    # every (a,) + w at once, and no word with a letter after Δ's (7 grown
    # stacks of Δ + (b,) when the stored e_b's columns were counted there,
    # 296 per pointed-scaling pass when the hexagon was checked pair by
    # pair), and makes no TreeBasis of a word (a,) + Δ
    from tubecat.sums import StackedBasis
    spec = load_spec(pointed_category(7, k=1))
    eng = engine_for(spec)
    real, grown = StackedBasis.of.__func__, []

    def counted(cls, ring, words):
        out = real(cls, ring, words)
        grown.append(out.words)
        return out

    monkeypatch.setattr(StackedBasis, "of", classmethod(counted))
    before = set(eng._bases)
    D = build_delta(spec, LambdaObject.all_simples(spec))
    delta = D.obj.summands
    assert sorted(grown, key=len) == [delta, tuple((a,) + w for a in range(7) for w in delta)]
    assert [w for w in eng._bases if w not in before and len(w) == 4] == []


def test_verify_decodes_the_braiding_once(monkeypatch):
    # the hexagon check and its default legs (tube._word_legs) share one
    # decoding of the braiding's entries: one _entries call per
    # verify_halfbraiding, in build_delta and in extraction's check (two
    # when the legs decoded it again)
    import tubecat.center
    spec = find("rep_s3")
    lam = LambdaObject.all_simples(spec)
    real, calls = tubecat.tube._entries, []
    monkeypatch.setattr(tubecat.tube, "_entries",
                        lambda hb: calls.append(hb.obj) or real(hb))
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    assert calls == [D.obj]
    extract_center_simples(A, D, decompose_blocks(A, seed=1))
    assert len(calls) == 2 and all(len(w) == 1 for w in calls[1].summands)


def test_extraction_makes_no_omega_on_one_letter_sums(monkeypatch):
    # compression and naturality read Δ's Ω off flat F entries
    # (tube._Omega), and Ω is the identity on an extracted simple's
    # one-letter words: extraction, then naturality on a fresh Δ, call no
    # Engine.omega and build no TreeBasis on fibonacci, ising and rep_s3
    # (186 Engine.omega calls and 154 bases, 81 of them TreeBasis.of, in
    # extraction when Δ's kernel read SumObject.omega; 62 more calls in
    # naturality)
    from tubecat.trees import TreeBasis
    omega, init, calls = Engine.omega, TreeBasis.__init__, {"omega": 0, "bases": 0}

    def counted_omega(eng, c, word):
        calls["omega"] += 1
        return omega(eng, c, word)

    def counted_init(tb, *args):
        calls["bases"] += 1
        init(tb, *args)

    for name in ("fibonacci", "ising", "rep_s3"):
        spec = find(name)
        lam = LambdaObject.all_simples(spec)
        A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
        dec, fresh = decompose_blocks(A, seed=1), build_delta(spec, lam)
        with monkeypatch.context() as m:
            m.setattr(Engine, "omega", counted_omega)
            m.setattr(TreeBasis, "__init__", counted_init)
            assert len(extract_center_simples(A, D, dec)) == len(dec.sizes)
            T = t_map(A, fresh, A.random_element(np.random.default_rng(3)))
            assert naturality_residual(fresh, T) < 1e-12, name
        assert calls == {"omega": 0, "bases": 0}, name
    with pytest.raises(ShapeError, match="one-letter words"):
        tubecat.center.compress_halfbraiding(D, D.obj, {})


def _lists(groups: dict) -> dict:
    return {r: {key: list(pos) for key, pos in at.items()} for r, at in groups.items()}


@pytest.mark.parametrize("name", ["fibonacci", "rep_s3", "Z/4 k=1"])
def test_kernel_lifts_group_the_grown_stack(catalog, name):
    # Δ's lifts onto Δ + (b,) (tube._Omega.right, sums.lifts_of off N): at
    # each root r, the state at every position is the child, in its slot ν,
    # of its parent, as the oracle reads the stack grown from the words of
    # Δ + (b,) (stacked_trees), and the positions group by (v, ν) as
    # stacked_lifts groups them
    from tubecat.tube import _omega
    spec = _spec(catalog, name)
    D = build_delta(spec, LambdaObject.all_simples(spec))
    sb, om = D.obj.stacked(), _omega(D.obj)
    base = stacked_trees(sb)
    for b in range(spec.rank):
        grown = D.obj.stacked((), (b,))
        got = {}
        for r, trees in stacked_trees(grown).items():
            parents, slots = om.right[b, r]
            assert [(sb.summand[p], base[sb.root[p]][sb.pos[p]][1] + ((r, nu),))
                    for p, nu in zip(parents.tolist(), slots.tolist())] == trees, (name, b, r)
            for k, (p, nu) in enumerate(zip(parents.tolist(), slots.tolist())):
                got.setdefault(r, {}).setdefault((int(sb.root[p]), nu), []).append(k)
        assert got == _lists(stacked_lifts(grown)), (name, b)
        assert all(om.right[b, r][0].size == 0 for r in range(spec.rank)
                   if r not in grown.dims), (name, b)


def test_one_letter_groups_match_the_grown_stacks():
    # compression reads id_a ⊗ V† and V ⊗ id_a on a sum of one-letter words
    # off the counts N (OneLetter.lifts): on Rep(A4)'s 3 + 1′ + 3 + 3, with
    # two slots ν on (3, 3; 3), the summand j and slot ν of the tree of
    # (a, x_j) and of (x_j, a) at every position at r, as the stacks grown
    # from those words list them; one entry, shared by every sum of the
    # same words
    eng, _rng = _rep_a4_engine(0)
    X = SumObject(eng, [(3,), (1,), (3,), (3,)])
    one = X.one_letter()
    assert SumObject(eng, X.summands).one_letter() is one
    left, right = one.lifts
    for a in range(eng.ring.rank):
        for lifts, sb in ((left, X.stacked((a,))), (right, X.stacked((), (a,)))):
            trees = stacked_trees(sb)
            for r in range(eng.ring.rank):
                j, nu = lifts[a, r]
                assert [(k, ((r, n),)) for k, n in zip(j.tolist(), nu.tolist())] == trees.get(r, []), (a, r)
        for (count, first), side in ((one.left, X.stacked((a,))), (one.right, X.stacked((), (a,)))):
            assert {r: n for r, n in enumerate(count[a].sum(axis=0).tolist()) if n} == side.dims
            assert all(first[a, :, r].tolist() == side.starts[r][:-1] for r in side.dims)
    assert any(nu.any() for _j, nu in left.values())
    assert right[3, 3][1].tolist() == [0, 1, 0, 0, 1, 0, 1]


OMEGA_CASES = ["vec", "vec_z2", "vec_z2_twisted", "vec_z3", "fibonacci", "ising", "rep_s3",
               *(f"Z/{n} k={k}" for n in range(4, 8) for k in (1, 2)), *SU2K]


def _omega_gap(obj) -> tuple:
    """The worst gap between tube._Omega's mats and oracles.sum_omega (the
    direct sum of Engine.omega over the summands) with Ω's columns (p, ν)
    matched to the engine's (summand, tree, ν) (Engine.right_basis), over
    every letter and root; and whether some column has ν > 0."""
    from tubecat.tube import _omega
    eng, sb = obj.engine, obj.stacked()
    om, trees = _omega(obj), stacked_trees(sb)
    gap, slot = 0.0, False
    for c in range(eng.ring.rank):
        want = sum_omega(obj, c)
        labels = {}
        for j, w in enumerate(obj.summands):
            for r, ents in eng.right_basis(c, w).items():
                for u, tree, nu in ents:
                    labels.setdefault(r, []).append((j, u, tree, nu))
        assert sorted(want) == sorted(om.mats[c]), c
        for r, m in want.items():
            parents, slots = om.left[c, r]
            mine = [(int(sb.summand[p]), int(sb.root[p]), trees[sb.root[p]][sb.pos[p]][1], nu)
                    for p, nu in zip(parents.tolist(), slots.tolist())]
            assert sorted(mine) == sorted(labels[r]), (c, r)
            perm = [mine.index(key) for key in labels[r]]
            gap = max(gap, float(np.max(np.abs(om.mats[c][r][:, perm] - m))))
            slot |= bool(slots.any())
    return gap, slot


@pytest.mark.parametrize("name", OMEGA_CASES)
def test_flat_omega_matches_the_engine(catalog, name):
    # Δ's Ω, one self-join of F entries per letter (tube._Omega), against
    # the engine's Ω of every word (c,) + w, recursed one letter at a time:
    # equal up to column order within 1e-15
    spec = _spec(catalog, name)
    gap, _slot = _omega_gap(build_delta(spec, LambdaObject.all_simples(spec)).obj)
    assert gap <= 1e-15, (name, gap)


def test_flat_omega_matches_the_engine_with_multiplicity():
    # on Rep(A4)'s ring with random F, Δ's words (x, l, x̄) as a plain sum
    # (no braiding is drawn): the F entries' multiplicity indices are
    # reached, a column in slot ν > 0 among them
    eng, _rng = _rep_a4_engine(1)
    dual, rank = eng.ring.dual, eng.ring.rank
    obj = SumObject(eng, [(x, l, dual[x]) for x in range(rank) for l in range(rank)],
                    [(x, l) for x in range(rank) for l in range(rank)])
    gap, slot = _omega_gap(obj)
    assert gap <= 1e-15 and slot, gap


@pytest.mark.parametrize("name", ["Z/5 k=1", "SU(2)_3"])
def test_hexagon_chunks_do_not_move_the_pair_defects(catalog, name, monkeypatch):
    # one letter per run of the hexagon join against every letter in one:
    # the same defect at every part and pair (a, b), bit for bit, since each
    # entry adds the same terms in the same order; on Δ with its legs from
    # the vertex pieces (tube._delta_legs), and on every extracted simple
    # with its legs joined from the stored e_b (tube._word_legs)
    spec = _spec(catalog, name)
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    simples = extract_center_simples(A, D, decompose_blocks(A, seed=1))
    checks = [(_Stacked(D.obj, D.braiding), _delta_legs(D.obj))]
    checks += [(_Stacked(s.obj, s.braiding), None) for s in simples]
    runs, real = [], tubecat.tube._chunks
    monkeypatch.setattr(tubecat.tube, "_chunks", lambda cost: runs.append(list(real(cost))) or runs[-1])
    got = {}
    for budget in (1, 10**12):
        monkeypatch.setattr(tubecat.tube, "CHUNK_COLUMNS", budget)
        got[budget] = [_hexagons(hb, legs) for hb, legs in checks]
    assert [len(r) for r in runs] == [spec.rank] * len(checks) + [1] * len(checks)
    for k, (one, whole) in enumerate(zip(got[1], got[10**12])):
        assert one.shape == whole.shape == (1, spec.rank, spec.rank)
        assert one.tobytes() == whole.tobytes(), (name, k)
        assert one.max() < DELTA_TOL, (name, k)


def test_build_delta_memory_is_bounded_by_one_letter():
    # a cold SU(2)_5 build_delta joins the legs and the hexagons one letter
    # a at a time, so its traced peak stays near the pair-by-pair check's
    # (3.9 MiB) and well below joining every pair at once (13.1 MiB); 5.2
    # MiB here
    import tracemalloc
    spec = load_spec(su2k_category(5))
    was = tracemalloc.is_tracing()
    if not was:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        build_delta(spec, LambdaObject.all_simples(spec))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was:
            tracemalloc.stop()
    assert peak < 7 * 2**20, peak / 2**20


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "vec_z3",
                                  "vec_z2_twisted"])
def test_unit_corner_is_the_fusion_algebra(catalog, name):
    # over Λ = 1 the tube algebra is the fusion algebra K(C)⊗ℂ: one basis
    # element per direction a, |c[a,b,z]| = N_ab^z·√(d_a d_b / d_z), and it
    # is commutative, so every block has size 1
    spec = catalog[name]
    A = build_tube_algebra(spec, LambdaObject.from_mapping(
        spec, {spec.labels[spec.ring.unit]: 1}))
    assert [a for (a, _m, _l), span in A.spans.items()
            for _k in range(span.start, span.stop)] == list(range(spec.rank))
    d = np.asarray(spec.dims.d, dtype=float)
    want = spec.ring.N * np.sqrt(d[:, None, None] * d[None, :, None] / d[None, None, :])
    assert np.max(np.abs(np.abs(A.mult_table) - want)) <= 1e-12
    assert decompose_blocks(A, seed=1).sizes == (1,) * spec.rank


def test_build_rejects_corrupted_product(monkeypatch):
    # a fresh load: product terms are kept per engine, made on first use
    spec = find("fibonacci")
    tau = spec.index("tau")
    real = tubecat.tables.product_terms
    scaled = []

    def corrupted(eng, lb):
        # one structure constant of a basis pair away from the unit
        # direction, so the unit law cannot catch it and the self-check has to
        (f, g, e), val = real(eng, lb)
        k = next(k for k in range(len(val))
                 if lb.a[f[k]] == lb.a[g[k]] == tau and abs(val[k]) > 0.1)
        scaled.append(k)
        val = val.copy()
        val[k] *= 2.0
        return (f, g, e), val

    monkeypatch.setattr(tubecat.tables, "product_terms", corrupted)
    with pytest.raises(ToleranceError, match=r"tube algebra (assoc|star_anti) defect"):
        build_tube_algebra(spec, LambdaObject.all_simples(spec))
    assert len(scaled) == 1


def test_fill_skips_only_empty_products(algebras):
    # the product e_i e_j is empty unless e_j ends in the slot where e_i
    # starts: the diagram draws no block there, and the table holds zeros
    for name in ("ising", "rep_s3"):
        A = algebras[name]
        ends = {}  # basis index -> (source slot, target slot)
        for (_a, m, l), span in A.spans.items():
            for k in range(span.start, span.stop):
                ends[k] = (l, m)
        elems = [A.basis_element(k) for k in range(A.dim)]
        for i, ei in enumerate(elems):
            for j, ej in enumerate(elems):
                if ends[j][1] != ends[i][0]:
                    assert not diagram_product(A, ei, ej).vector.any(), (name, i, j)
                    assert not np.any(A.mult_table[i, j]), (name, i, j)


def test_product_associative_on_random_triples(algebras):
    # the diagram product, on whole elements
    A = algebras["rep_s3"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        f, g, h = (A.random_element(rng) for _ in range(3))
        lhs = diagram_product(A, diagram_product(A, f, g), h)
        rhs = diagram_product(A, f, diagram_product(A, g, h))
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_star_antimultiplicative_on_random_pairs(algebras):
    A = algebras["ising"]
    rng = np.random.default_rng(4)
    for _ in range(20):
        f, g = A.random_element(rng), A.random_element(rng)
        lhs = diagram_star(A, diagram_product(A, f, g))
        rhs = diagram_product(A, diagram_star(A, g), diagram_star(A, f))
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_star_is_antilinear_involution(algebras):
    A = algebras["fibonacci"]
    rng = np.random.default_rng(5)
    f = A.random_element(rng)
    assert (diagram_star(A, diagram_star(A, f)) - f).norm() < 1e-10
    zf = diagram_star(A, f * (2.0 + 1.0j))
    assert (zf - diagram_star(A, f) * (2.0 - 1.0j)).norm() < 1e-10


def test_product_and_star_read_the_tables(algebras):
    # the library product and star are the tables applied to coordinates,
    # and agree with the diagrams on whole elements
    for name in ("fibonacci", "rep_s3"):
        A = algebras[name]
        rng = np.random.default_rng(15)
        f, g = A.random_element(rng), A.random_element(rng)
        v, w = f.vector, g.vector
        assert np.max(np.abs(tube_product(A, f, g).vector
                             - np.einsum("i,j,ijk->k", v, w, A.mult_table))) < 1e-12, name
        assert np.max(np.abs(tube_star(A, f).vector - np.conj(v) @ A.star_table)) < 1e-12, name
        assert (tube_product(A, f, g) - diagram_product(A, f, g)).norm() < 1e-12, name
        assert (tube_star(A, f) - diagram_star(A, f)).norm() < 1e-12, name


TABLE_CASES = [(name, None) for name in TUBE_DIM] + [
    (f"Z/{n} k={k}", None) for n in (4, 5, 6, 7) for k in (1, 2)] + [
    ("fibonacci", {"tau": 1}), ("fibonacci", {"tau": 2}), ("ising", {"sigma": 1}),
    ("rep_s3", {"std": 2, "sgn": 1}),  # repeated slots, of two labels
    ("ising unit last", None), ("rep_s3 unit last", None),
    *((name, None) for name in SU2K)]


@pytest.mark.parametrize("name,mapping", TABLE_CASES,
                         ids=[f"{n}-{m}" if m else n for n, m in TABLE_CASES])
def test_tables_equal_the_diagrams(catalog, name, mapping):
    # the F-entry joins against the diagrams, entry by entry, over every
    # slot copy of the labels
    if name.endswith(" unit last"):  # the labels reversed: the unit is no longer label 0
        doc = json.loads(serialize(catalog[name.split()[0]]))
        doc["labels"] = doc["labels"][::-1]
        spec = load_spec(doc)
        assert spec.ring.unit == spec.rank - 1
    else:
        spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A = build_tube_algebra(spec, lam)
    assert np.max(np.abs(A.mult_table - diagram_mult_table(A))) <= 1e-14, name
    assert np.max(np.abs(A.star_table - diagram_star_table(A))) <= 1e-14, name


@pytest.mark.parametrize("seed", [0, 1])
def test_product_table_with_multiplicity(seed, monkeypatch):
    # Rep(A4)'s ring, 3⊗3 ∋ 2·3, with random unitary F blocks: the product
    # takes F-moves only, not the pentagon, so the joins must meet the
    # diagram on every vertex index ν, μ, t, β, σ < 2 and every slot copy.
    # No pentagon holds, so the build's self-check is set aside, and the
    # star, whose cup and cap need the zig-zag, is not compared
    F = rep_a4_random_table(seed)
    spec = FusionCategorySpec(name="Rep(A4) random F", ring=F.ring,
                              dims=compute_fp_dims(F.ring), fsymbols=F)
    monkeypatch.setattr(tubecat.tube, "_table_residuals", lambda *tables: {})
    for mult in ((1, 1, 1, 1), (0, 1, 0, 2)):
        A = build_tube_algebra(spec, LambdaObject(mult))
        assert np.max(np.abs(A.mult_table)) > 1.0
        assert np.max(np.abs(A.mult_table - diagram_mult_table(A))) <= 1e-14, mult


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2])
def test_pointed_product_is_the_twisted_double(n, k):
    # Vec[Z/n]^ω with ω(a,b,c) = exp(2πi·k·a·⌊(b+c)/n⌋/n): the tube algebra
    # is the twisted double D^ω(Z/n) (Dijkgraaf–Pasquier–Roche), so the only
    # nonzero constant of (b at slot x)·(c at slot x) is
    # ω(b,c,x) / (ω(b,x,c)·ω(x,b,c)) at (b+c at slot x); the expected
    # table is made from ω and the block spans alone
    spec = load_spec(pointed_category(n, k))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))

    def omega(a, b, c):
        return cmath.exp(2j * math.pi * k * a * ((b + c) // n) / n)

    at = {}  # (direction, slot) -> basis index; hom(x⊗a, a⊗y) is 0 unless y = x
    for (a, m, l), span in A.spans.items():
        assert span.stop - span.start == (m == l)
        if m == l:
            at[(a, l)] = span.start
    want = np.zeros_like(A.mult_table)
    for b in range(n):
        for c in range(n):
            for x in range(n):
                want[at[(b, x)], at[(c, x)], at[((b + c) % n, x)]] = (
                    omega(b, c, x) / (omega(b, x, c) * omega(x, b, c)))
    assert np.max(np.abs(A.mult_table - want)) <= 1e-15


def test_fill_draws_no_diagram(monkeypatch):
    # a Vec[Z/7]^ω build fills its tables from F entries alone: no call to
    # the element product or star, and no morphism is left-tensored
    spec = load_spec(pointed_category(7, k=1))
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Engine, "_tensor_one_left",
                        counted("_tensor_one_left", Engine._tensor_one_left))
    for name in ("tube_product", "tube_star"):
        monkeypatch.setattr(tubecat.tube, name, counted(name, getattr(tubecat.tube, name)))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    assert A.dim == 49 and calls == []


def test_unit_acts_trivially(algebras):
    for name, A in algebras.items():
        rng = np.random.default_rng(6)
        f = A.random_element(rng)
        assert (tube_product(A, A.unit, f) - f).norm() < 1e-10, name
        assert (tube_product(A, f, A.unit) - f).norm() < 1e-10, name


def test_vector_element_round_trip(algebras):
    for name, A in algebras.items():
        rng = np.random.default_rng(7)
        v = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        assert np.max(np.abs(A.element(v).vector - v)) < 1e-12, name
        k = rng.integers(A.dim)
        e = A.basis_element(int(k))
        w = e.vector
        assert w[k] == 1.0 and np.count_nonzero(w) == 1, name


def test_element_copies_its_vector(algebras):
    # an element keeps its own coefficients: changing the vector it was
    # built from afterwards leaves it as it was
    A = algebras["fibonacci"]
    v = np.zeros(A.dim, dtype=complex)
    v[0] = 1.0
    f = A.element(v)
    v[0] = 5.0
    assert f.norm() == 1.0
    assert f.vector[0] == 1.0


def test_tube_element_refuses_a_vector_of_the_wrong_length(catalog):
    # an element is its coefficient vector: one entry per basis element of
    # A, in a flat array; a shorter, longer or nested one is refused
    spec = catalog["fibonacci"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    assert TubeElement(A, np.ones(A.dim)).norm() == 1.0
    for vec in (np.ones(A.dim - 1), np.ones(A.dim + 1), np.ones((1, A.dim)), []):
        for make in (A.element, lambda v: TubeElement(A, v)):
            with pytest.raises(ShapeError, match=f"must have length {A.dim}"):
                make(vec)


def test_tube_elements_over_different_lambda_do_not_add(catalog):
    spec = catalog["fibonacci"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    B = build_tube_algebra(spec, LambdaObject.from_mapping(spec, {"tau": 2}))
    with pytest.raises(ShapeError, match="different Λ"):
        A.unit + B.unit


def test_tube_elements_over_different_categories_do_not_add(catalog):
    # the same Λ = (1, 0) over two categories of rank 2
    A, B = (build_tube_algebra(catalog[name], LambdaObject((1, 0)))
            for name in ("fibonacci", "vec_z2"))
    with pytest.raises(ShapeError, match="different categories"):
        A.unit - B.unit


# ---- Δ ------------------------------------------------------------------------

def test_delta_summand_shape(catalog, deltas):
    for name, spec in catalog.items():
        D = deltas[name]
        r = spec.ring.rank
        assert len(D.obj) == r * r, name
        for (x, s), w in zip(D.obj.tags, D.obj.summands):
            assert w[0] == x and w[2] == spec.ring.dual[x], name


def test_delta_braiding_unitary_recheck(deltas):
    # residuals are recorded at build time; recompute one case from scratch
    D = deltas["vec_z2_twisted"]
    for a, e in braiding_blocks(D.obj, D.braiding).items():
        src = shifted(D.obj, right=(a,))
        one = BlockMap(src, src, {(i, i): D.engine.identity(w)
                                  for i, w in enumerate(src.summands)})
        assert (e.dag() @ e - one).norm() < 1e-12


def test_hexagon_recheck_partial_lambda(catalog):
    spec = catalog["ising"]
    lam = LambdaObject.from_mapping(spec, {"sigma": 1})
    D = build_delta(spec, lam)
    assert pair_residuals(D.obj, D.braiding, _delta_legs(D.obj)).max() < 1e-10


def test_default_legs_need_one_letter_words(deltas):
    # Δ's summands are three-letter words, whose legs the stored e_b alone
    # does not give: the default legs refuse them, and build_delta passes
    # its own
    D = deltas["fibonacci"]
    with pytest.raises(ShapeError, match="one-letter words"):
        pair_residuals(D.obj, D.braiding)
    with pytest.raises(ShapeError, match="one-letter words"):
        verify_halfbraiding(D.obj, D.braiding, DELTA_TOL)


# ---- t and f -------------------------------------------------------------------

def test_t_map_images_commute_with_braiding(algebras, deltas):
    for name in ("vec_z2", "fibonacci", "ising"):
        A, D = algebras[name], deltas[name]
        rng = np.random.default_rng(8)
        for _ in range(5):
            T = t_map(A, D, A.random_element(rng))
            assert naturality_residual(D, T) < 1e-9, name


def test_f_after_t_is_identity(algebras, deltas):
    for name, A in algebras.items():
        D = deltas[name]
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = A.random_element(rng)
            back = f_map(A, D, t_map(A, D, f))
            assert (back - f).norm() < 1e-9 * max(1.0, f.norm()), name


def test_t_after_f_fixes_commutant(algebras, deltas):
    for name in ("vec_z2_twisted", "fibonacci", "rep_s3"):
        A, D = algebras[name], deltas[name]
        rng = np.random.default_rng(10)
        for _ in range(5):
            T = t_map(A, D, A.random_element(rng))
            again = t_map(A, D, f_map(A, D, T))
            assert root_gap(again, T) < 1e-9 * max(1.0, root_norm(T)), name


def test_t_map_is_multiplicative_and_star(algebras, deltas):
    for name in ("vec_z3", "fibonacci", "ising"):
        A, D = algebras[name], deltas[name]
        rng = np.random.default_rng(11)
        f, g = A.random_element(rng), A.random_element(rng)
        Tf, Tg = t_map(A, D, f), t_map(A, D, g)
        assert root_gap(t_map(A, D, tube_product(A, f, g)),
                        {z: Tf[z] @ Tg[z] for z in Tf}) < 1e-9, name
        assert root_gap(t_map(A, D, tube_star(A, f)),
                        {z: m.conj().T for z, m in Tf.items()}) < 1e-9, name


def test_t_map_unit_is_identity(algebras, deltas):
    for name, A in algebras.items():
        D = deltas[name]
        T = t_map(A, D, A.unit)
        assert root_gap(T, {z: np.eye(len(m)) for z, m in T.items()}) < 1e-10, name


def test_f_map_rejects_non_commutant(algebras, deltas):
    A, D = algebras["fibonacci"], deltas["fibonacci"]
    eng = A.engine
    rng = np.random.default_rng(12)
    blocks = {}
    for i, w in enumerate(D.obj.summands):
        for j, v in enumerate(D.obj.summands):
            if eng.hom_dim(v, w):
                blocks[(i, j)] = eng.random(v, w, rng)
    sb = D.obj.stacked()
    T = BlockMap(D.obj, D.obj, blocks).stacked(sb, sb)
    assert naturality_residual(D, T) > 1e-3  # sanity: genuinely not natural
    with pytest.raises(NotInCommutant):
        f_map(A, D, T)


ACTION_CASES = [(name, None) for name in TUBE_DIM] + [
    ("fibonacci", {"tau": 2}),  # repeated slots
    ("ising", {"sigma": 1}),    # partial Λ
]


def _random_endomorphism(D, rng):
    """Random blocks on every pair of summands of Δ, stacked per root."""
    eng, sb = D.engine, D.obj.stacked()
    return BlockMap(D.obj, D.obj, {
        (i, j): eng.random(v, w, rng)
        for i, w in enumerate(D.obj.summands) for j, v in enumerate(D.obj.summands)
        if eng.hom_dim(v, w)}).stacked(sb, sb)


@pytest.mark.parametrize("name,mapping", ACTION_CASES + [("Z/4 k=1", None)],
                         ids=[f"{n}-{m}" if m else n
                              for n, m in ACTION_CASES + [("Z/4 k=1", None)]])
def test_stacked_naturality_matches_whole_map(catalog, name, mapping):
    # the stacked per-root check against both sides built whole, block by
    # block: the same residual on maps that are far from natural, and both
    # at rounding level on the images of t
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    rng = np.random.default_rng(18)
    for _ in range(3):
        T = _random_endomorphism(D, rng)
        got, want = naturality_residual(D, T), whole_map_naturality(D, T)
        assert want > 1e-3 or spec.rank == 1, name
        assert abs(got - want) <= 1e-12 * want, (name, got, want)
    for _ in range(5):
        T = t_map(A, D, A.random_element(rng))
        assert naturality_residual(D, T) < 1e-12, name
        assert whole_map_naturality(D, T) < 1e-12, name


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_f_map_sees_one_bumped_entry(catalog, name):
    # 1e-6 on one entry of one block of a natural T is ten times f_map's
    # tolerance; the check must see it wherever it sits
    spec = _spec(catalog, name)
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    T = BlockMap.cut(D.obj, D.obj, t_map(A, D, A.random_element(np.random.default_rng(19))))
    sb = D.obj.stacked()
    for key in (min(T.blocks), max(T.blocks)):
        m = T.blocks[key]
        z = max(m.blocks)
        bumped = {r: blk.copy() for r, blk in m.blocks.items()}
        bumped[z][-1, 0] += 1e-6
        blocks = dict(T.blocks)
        blocks[key] = m.engine.make(m.src, m.dst, bumped)
        with pytest.raises(NotInCommutant):
            f_map(A, D, BlockMap(D.obj, D.obj, blocks).stacked(sb, sb))


DIAGRAM_CASES = ACTION_CASES + [(name, None) for name in SU2K] + [
    (f"Z/{n} k={k}", None) for n in range(4, 8) for k in (1, 2)] + [
    ("rep_s3", {"std": 2, "sgn": 1}),  # repeated and partial
]


@pytest.mark.parametrize("name,mapping", DIAGRAM_CASES,
                         ids=[f"{n}-{m}" if m else n for n, m in DIAGRAM_CASES])
def test_compiled_t_map_matches_diagram(catalog, name, mapping):
    # t_map reads the action off the product terms; on random elements the
    # diagram drawn block by block agrees to rounding
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    rng = np.random.default_rng(16)
    for _ in range(5):
        f = A.random_element(rng)
        assert root_gap(t_map(A, D, f), t_diagram(A, D, f)) < 1e-12, name


@pytest.mark.parametrize("name,mapping", DIAGRAM_CASES,
                         ids=[f"{n}-{m}" if m else n for n, m in DIAGRAM_CASES])
def test_f_map_matches_the_closure_per_channel(catalog, name, mapping):
    # f_map caps each block once for all its channels; the closure drawn
    # again per channel a, on the five-letter words, agrees to rounding
    spec = _spec(catalog, name)
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    T = t_map(A, D, A.random_element(np.random.default_rng(23)))
    assert (f_map(A, D, T) - closure_per_channel(A, D, T)).norm() < 1e-14, name


def _left_steps(monkeypatch):
    """The (letter, morphism) of every Engine._tensor_one_left step from now on."""
    steps, real = [], Engine._tensor_one_left
    monkeypatch.setattr(Engine, "_tensor_one_left",
                        lambda eng, c, f: steps.append((c, f)) or real(eng, c, f))
    return steps


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3"])
def test_f_map_tensors_each_block_once(name, monkeypatch):
    # no step reaches a five-letter word (tensoring id_x̄ onto T_blk ⊗ id_y
    # once per channel, as closure_per_channel does, makes 18, 38 and 75 such
    # steps per call), and once the caps and vertices are drawn a call makes
    # one left step per nonzero block (x, y, l, m), not one per channel
    # a ∈ x̄⊗y
    spec = find(name)  # a fresh engine
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    T = t_map(A, D, A.random_element(np.random.default_rng(24)))
    steps = _left_steps(monkeypatch)
    f_map(A, D, T)
    cold = len(steps)
    assert all(len(f.dst) < 4 for _c, f in steps), name
    if name == "rep_s3":
        assert cold <= 114
    eng, sb, rank = A.engine, D.obj.stacked(), spec.rank
    blocks = sum(1 for l in range(len(A.slots)) for m in range(len(A.slots))
                 for x in range(rank) for y in range(rank)
                 if any(b.any() for b in cut_block(eng, T, sb, sb, D.obj.index((y, m)),
                                                   D.obj.index((x, l))).blocks.values()))
    steps.clear()
    f_map(A, D, T)
    assert len(steps) == blocks < cold, name
    assert all(len(f.dst) == 2 for _c, f in steps), name


UNITARITY_CASES = list(TUBE_DIM) + [f"Z/{n} k=1" for n in range(4, 8)]


@pytest.mark.parametrize("name", UNITARITY_CASES)
def test_unitarity_folds_match_the_per_root_loop(catalog, name, monkeypatch):
    # verify_halfbraiding folds the Grams of every root of a (letter, side)
    # at once; the per-root loop gives bit for bit the same residual, on Δ
    # (one part) and on the sum of the extracted simples (one part each)
    spec = _spec(catalog, name)
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    got = verify_halfbraiding(D.obj, D.braiding, DELTA_TOL, _delta_legs(D.obj))
    assert [p["unitarity"] for p in got] == unitarity_loop(D.obj, D.braiding).tolist()
    seen = []
    monkeypatch.setattr(tubecat.center, "verify_halfbraiding",
                        lambda obj, braiding, tol, parts: seen.append((obj, braiding, parts))
                        or verify_halfbraiding(obj, braiding, tol, parts=parts))
    extract_center_simples(A, D, decompose_blocks(A, seed=1))
    (obj, braiding, parts), = seen
    got = verify_halfbraiding(obj, braiding, 1e-8, parts=parts)
    assert len(parts) > 1 or spec.rank == 1, name
    assert [p["unitarity"] for p in got] == unitarity_loop(obj, braiding, parts).tolist()


def test_t_map_draws_no_diagram_and_makes_its_terms_once(monkeypatch):
    # extraction and t_map tensor no word: the action terms are made on the
    # first call, once per engine and slots, and a second algebra over the
    # same Λ reads the same ones; f_map still closes its diagram
    spec = find("ising")  # a fresh engine
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    dec, other = decompose_blocks(A, seed=1), build_tube_algebra(spec, lam)
    made, tensored = [], []
    real_action, real_tensor = tubecat.tables.action, Engine._tensor_one_left
    monkeypatch.setattr(tubecat.tables, "action",
                        lambda *args: made.append(args) or real_action(*args))
    monkeypatch.setattr(Engine, "_tensor_one_left",
                        lambda *args: tensored.append(args) or real_tensor(*args))
    extract_center_simples(A, D, dec)
    rng = np.random.default_rng(17)
    fs = [A.random_element(rng), other.random_element(rng)]
    Ts = [t_map(A, D, fs[0]), t_map(other, D, fs[1])]
    assert tensored == []
    assert len(made) == 1 and made[0] == (engine_for(spec), A.slots)
    for B, f, T in zip((A, other), fs, Ts):
        assert (f_map(B, D, T) - f).norm() < 1e-9 * f.norm()
    assert tensored


def test_t_map_refuses_an_element_of_another_algebra(catalog):
    # same Λ over another category, and another Λ over the same category
    spec = catalog["vec_z2"]
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    twisted = catalog["vec_z2_twisted"]
    f = build_tube_algebra(twisted, LambdaObject.all_simples(twisted)).unit
    with pytest.raises(ShapeError, match="different categories"):
        t_map(A, D, f)
    fib = catalog["fibonacci"]
    A, D = (build_tube_algebra(fib, LambdaObject.all_simples(fib)),
            build_delta(fib, LambdaObject.all_simples(fib)))
    f = build_tube_algebra(fib, LambdaObject.from_mapping(fib, {"tau": 1})).unit
    with pytest.raises(ShapeError, match="different Λ"):
        t_map(A, D, f)


@pytest.fixture(scope="module")
def mixed_categories(catalog):
    """(A over vec_z2, Δ over vec_z2_twisted), both over all simples: the
    same Λ and ranks, other categories."""
    plain, twisted = catalog["vec_z2"], catalog["vec_z2_twisted"]
    return (build_tube_algebra(plain, LambdaObject.all_simples(plain)),
            build_delta(twisted, LambdaObject.all_simples(twisted)))


def test_t_map_refuses_a_delta_over_another_category(mixed_categories):
    A, D = mixed_categories
    with pytest.raises(ShapeError, match="different categories"):
        t_map(A, D, A.unit)


def test_f_map_refuses_a_delta_over_another_category(mixed_categories):
    A, D = mixed_categories
    with pytest.raises(ShapeError, match="different categories"):
        f_map(A, D, {z: np.eye(n) for z, n in D.obj.stacked().dims.items()})


def test_extraction_refuses_a_delta_over_another_category(mixed_categories):
    A, D = mixed_categories
    with pytest.raises(ShapeError, match="different categories"):
        extract_center_simples(A, D, decompose_blocks(A, seed=1))


def test_maps_refuse_a_delta_over_another_lambda(catalog):
    spec = catalog["fibonacci"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    D = build_delta(spec, LambdaObject.from_mapping(spec, {"tau": 2}))
    with pytest.raises(ShapeError, match="different Λ"):
        t_map(A, D, A.unit)
    with pytest.raises(ShapeError, match="different Λ"):
        f_map(A, D, {z: np.eye(n) for z, n in D.obj.stacked().dims.items()})
    with pytest.raises(ShapeError, match="different Λ"):
        extract_center_simples(A, D, decompose_blocks(A, seed=1))



@pytest.mark.parametrize("name,mapping", ACTION_CASES,
                         ids=[f"{n}-{m}" if m else n for n, m in ACTION_CASES])
def test_t_map_gives_one_square_matrix_per_root(catalog, name, mapping):
    # an endomorphism of Δ in the braiding's form: exactly the roots of
    # Δ.obj.stacked(), each an (n_z, n_z) ndarray
    spec = catalog[name]
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    T = t_map(A, D, A.random_element(np.random.default_rng(21)))
    dims = D.obj.stacked().dims
    assert T.keys() == dims.keys(), name
    for z, n in dims.items():
        assert isinstance(T[z], np.ndarray) and T[z].shape == (n, n), (name, z)


def test_f_map_refuses_a_map_off_the_roots_of_delta(algebras, deltas):
    A, D = algebras["ising"], deltas["ising"]
    T = t_map(A, D, A.random_element(np.random.default_rng(22)))
    z = max(T)
    missing = {r: m for r, m in T.items() if r != z}
    wrong = {**T, z: T[z][:, :-1]}
    extra = {**T, len(A.spec.labels): np.eye(1)}
    for bad in (missing, wrong, extra):
        with pytest.raises(ShapeError, match="one \\(n_z, n_z\\) matrix per root"):
            f_map(A, D, bad)


def test_naturality_residual_refuses_a_map_off_the_roots_of_delta(deltas):
    D = deltas["fibonacci"]
    for bad in ({z: np.eye(n + 1) for z, n in D.obj.stacked().dims.items()},
                {z: np.eye(n) for z, n in D.obj.stacked().dims.items() if z}):
        with pytest.raises(ShapeError, match="one \\(n_z, n_z\\) matrix per root"):
            naturality_residual(D, bad)


def test_gram_form_positive(algebras, deltas):
    for name in ("vec_z2", "ising"):
        A, D = algebras[name], deltas[name]
        rng = np.random.default_rng(13)
        for _ in range(5):
            f = A.random_element(rng)
            val = gram(A, D, f, f)
            assert abs(val.imag) < 1e-9 * abs(val), name
            assert val.real > 0, name


def test_gram_hermitian(algebras, deltas):
    A, D = algebras["fibonacci"], deltas["fibonacci"]
    rng = np.random.default_rng(14)
    f, g = A.random_element(rng), A.random_element(rng)
    assert abs(gram(A, D, f, g) - np.conj(gram(A, D, g, f))) < 1e-9


# ---- pointed family beyond the catalog ------------------------------------------

def test_pointed_z4_tube_dim(catalog):
    spec = load_spec(pointed_category(4))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    assert A.dim == 16
    assert max(A.residuals.values()) < 1e-9


def test_pointed_z3_twisted_builds(catalog):
    spec = load_spec(pointed_category(3, k=1))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    D = build_delta(spec, LambdaObject.all_simples(spec))
    assert A.dim == 9
    rng = np.random.default_rng(15)
    f = A.random_element(rng)
    assert (f_map(A, D, t_map(A, D, f)) - f).norm() < 1e-9 * f.norm()


# ---- serialization ---------------------------------------------------------------

ENTRY_CASES = [*TUBE_DIM, *(f"Z/{n} k=1" for n in (4, 5, 6, 7)), *SU2K]


@pytest.mark.parametrize("name", ENTRY_CASES)
def test_tube_json_is_the_dense_document(catalog, name):
    # the document written from the sorted entries, byte for byte, against
    # the one written from the dense views, entry by entry in C order
    spec = _spec(catalog, name)
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    doc = tube_json(A)
    dense = {**doc, "mult_table": sparse_rows(A.mult_table, tubecat.tube.SPARSE_ZERO),
             "star_table": sparse_rows(A.star_table, tubecat.tube.SPARSE_ZERO)}
    assert dumps_canonical(doc) == dumps_canonical(dense), name


@pytest.mark.parametrize("name", [*TUBE_DIM, "Z/5 k=1"])
def test_product_and_star_are_the_dense_contractions(catalog, name):
    # tube_product and tube_star, sums over the entries, against the
    # einsum over the dense views on seeded random elements
    spec = _spec(catalog, name)
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    rng = np.random.default_rng(29)
    c, s = A.mult_table, A.star_table
    for _ in range(3):
        f, g = A.random_element(rng), A.random_element(rng)
        want = np.einsum("i,j,ijk->k", f.vector, g.vector, c)
        assert np.max(np.abs(tube_product(A, f, g).vector - want)) <= 1e-14, name
        assert np.max(np.abs(tube_star(A, f).vector - np.conj(f.vector) @ s)) <= 1e-14, name


def test_dense_views_are_made_on_each_access(algebras):
    # mult_table and star_table are read-only and never kept with A
    A = algebras["rep_s3"]
    c, s = A.mult_table, A.star_table
    assert c is not A.mult_table and s is not A.star_table
    assert not c.flags.writeable and not s.flags.writeable
    assert np.count_nonzero(c) == len(A.mult.val) and np.count_nonzero(s) == len(A.star.val)
    assert "mult_table" not in vars(A) and "star_table" not in vars(A)


@pytest.mark.parametrize("name", ["rep_s3", "Z/5 k=1"])
def test_tube_json_rows_match_the_entry_loop(catalog, name):
    # np.nonzero emits the same rows, in the same order, as a loop over
    # every entry of the dense tables
    spec = _spec(catalog, name)
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    doc = tube_json(A)
    assert doc["mult_table"] == sparse_rows(A.mult_table, 1e-12)
    assert doc["star_table"] == sparse_rows(A.star_table, 1e-12)
    assert all(type(v) is int for row in doc["mult_table"] for v in row[:3])
    assert all(type(v) is float for row in doc["mult_table"] for v in row[3:])


def test_tube_json_shape(algebras):
    A = algebras["vec_z2"]
    doc = tube_json(A)
    assert doc["dim"] == 4
    assert doc["lambda"] == {"0": 1, "1": 1}
    assert len(doc["basis"]) == 4
    assert all(len(row) == 5 for row in doc["mult_table"])
    assert all(len(row) == 4 for row in doc["star_table"])
    # every stored entry round-trips against the dense table
    for i, j, k, re, im in doc["mult_table"]:
        assert abs(A.mult_table[i, j, k] - (re + 1j * im)) < 1e-15
