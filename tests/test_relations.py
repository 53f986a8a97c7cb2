"""Vertex pairs and the rewriting-identity suites.

Frozen scalars come from the Perron-Frobenius data computed by hand:
golden ratio loops for the rank-2 category, sqrt(2) for the rank-3 one
with a 2-dimensional channel, group order for pointed categories.  The
sideways rewrite additionally gets an independent oracle: the canonical
element of the 4-boundary hom space built from a raw basis and the inverse
of its closure Gram matrix, never touching the pair machinery.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from conftest import su2k_category
from tubecat.catalog import find
from tubecat.catspec import load_spec
from tubecat.duality import coev_word, trace_right
from tubecat.errors import EmptySpace, ShapeError
from tubecat.morphism import engine_for
import tubecat.relations
from tubecat.pairs import VertexPair, canonical_pair
from tubecat.relations import (SUITES, check_bigon1, check_bigon2,
                               check_fusion, check_global_dim, check_ih,
                               check_spherical, global_dim_routes, ih_sides,
                               run_suite)
from tubecat.report import VerificationReport

GOLDEN = (1 + math.sqrt(5)) / 2


# ---- report ----------------------------------------------------------------

def test_report_folds_keep_a_later_nan():
    rep = VerificationReport(suite="s", tol=1e-9)
    for label, res in [("a", 1e-16), ("b", float("nan")), ("c", 1e-12)]:
        rep.add([label], res)
    assert math.isnan(rep.max_residual)
    assert rep.worst().labels == ("b",)
    assert not rep.ok
    clean = VerificationReport(suite="s", tol=1e-9)
    for label, res in [("a", 1e-16), ("b", 3e-16), ("c", 3e-16)]:
        clean.add([label], res)
    assert clean.max_residual == 3e-16 and clean.worst().labels == ("b",)
    empty = VerificationReport(suite="s", tol=1e-9)
    assert empty.max_residual == 0.0 and empty.worst() is None


# ---- hom spaces ------------------------------------------------------------

def test_hom_space_dims_frozen(catalog):
    fib = engine_for(catalog["fibonacci"])
    tau = fib.spec.index("tau")
    assert fib.hom_dim((tau, tau), (tau, tau)) == 2
    assert fib.hom_dim((), ()) == 1
    ising = engine_for(catalog["ising"])
    sig, psi = ising.spec.index("sigma"), ising.spec.index("psi")
    assert ising.hom_dim((sig, sig), (psi,)) == 1


def test_hom_space_dim_matches_n_table_paths(catalog):
    eng = engine_for(catalog["rep_s3"])
    N = eng.ring.N
    # dim End(a (x) b) = sum_z N[a,b,z]^2
    for a, b in itertools.product(range(eng.ring.rank), repeat=2):
        want = int(sum(N[a, b, z] ** 2 for z in range(eng.ring.rank)))
        assert eng.hom_dim((a, b), (a, b)) == want


def test_hom_basis_aligns_with_coeffs(catalog):
    # each element is one unit coefficient, in coeffs order, and
    # from_coeffs gives it back; the splitting vertices of a pair are the
    # unit columns of the trees ((z, i),) of (x, y)
    for name, spec in catalog.items():
        eng = engine_for(spec)
        for x, y, z in itertools.product(range(eng.ring.rank), repeat=3):
            for src, dst in (((x, y), (y, x)), ((z,), (x, y)), ((x, y), (x, y))):
                basis = eng.hom_basis(src, dst)
                assert len(basis) == eng.hom_dim(src, dst)
                for k, f in enumerate(basis):
                    v = f.coeffs()
                    assert v[k] == 1.0 and np.count_nonzero(v) == 1, (name, src, dst)
                    back = eng.from_coeffs(src, dst, v)
                    assert back.blocks.keys() == f.blocks.keys()
                    assert all(np.array_equal(back.blocks[r], m) for r, m in f.blocks.items())
            if eng.ring.N[x, y, z]:
                tb = eng.basis((x, y))
                for i, s in enumerate(canonical_pair(eng, x, y, z).splits):
                    col = np.zeros((tb.dim(z), 1), dtype=complex)
                    col[tb.index[z][((z, i),)], 0] = 1.0
                    assert s.src == (z,) and s.dst == (x, y)
                    assert list(s.blocks) == [z] and np.array_equal(s.blocks[z], col)


def test_from_coeffs_refuses_a_vector_of_the_wrong_length(catalog):
    eng = engine_for(catalog["fibonacci"])
    n = eng.hom_dim((1, 1), (1, 1))
    with pytest.raises(ShapeError, match="does not match the hom space"):
        eng.from_coeffs((1, 1), (1, 1), np.zeros(n + 1))


# ---- canonical pairs -------------------------------------------------------

def test_pair_scalars_frozen(catalog):
    fib = engine_for(catalog["fibonacci"])
    assert abs(canonical_pair(fib, "tau", "tau", "1").scalar - GOLDEN) < 1e-12
    unit = canonical_pair(fib, "1", "1", "1")
    assert unit.scalar == pytest.approx(1.0)
    ising = engine_for(catalog["ising"])
    assert abs(canonical_pair(ising, "sigma", "sigma", "psi").scalar
               - math.sqrt(2)) < 1e-12


def test_pair_unit_triple_members_are_unitors(catalog):
    eng = engine_for(catalog["fibonacci"])
    pair = canonical_pair(eng, "1", "1", "1")
    u = eng.ring.unit
    eye = eng.identity((u,))
    assert (pair.fuses[0] @ pair.splits[0] - eye).norm() < 1e-12
    assert (pair.splits[0].dag() - pair.fuses[0]).norm() < 1e-12


def test_pair_empty_channel_raises(catalog):
    eng = engine_for(catalog["fibonacci"])
    with pytest.raises(EmptySpace):
        canonical_pair(eng, "1", "1", "tau")


def test_pair_normalization_all_catalog(catalog):
    for name, spec in catalog.items():
        eng = engine_for(spec)
        rank = eng.ring.rank
        for x, y, z in itertools.product(range(rank), repeat=3):
            if not eng.ring.N[x, y, z]:
                continue
            assert canonical_pair(eng, x, y, z).defect() < 1e-12, name


def test_pair_defect_keeps_nan(catalog):
    eng = engine_for(catalog["fibonacci"])
    pair = VertexPair(eng, 1, 1, 1)  # fresh: the cached pair stays clean
    pair.fuses[0] = pair.fuses[0] * float("nan")
    assert math.isnan(pair.defect())


def test_pair_dagger_bookkeeping(catalog):
    # splitting vertex daggers to d_z times the fusing one
    eng = engine_for(catalog["rep_s3"])
    pair = canonical_pair(eng, 2, 2, 2)
    for s, f in zip(pair.splits, pair.fuses):
        assert (s.dag() - f * eng.d[2]).norm() < 1e-12


def test_pair_delta_in_fibonacci_unit_channel(catalog):
    eng = engine_for(catalog["fibonacci"])
    pair = canonical_pair(eng, "tau", "tau", "1")
    comp = pair.fuses[0] @ pair.splits[0]
    eye = eng.identity((eng.ring.unit,))
    assert (comp - eye).norm() < 1e-12  # d_unit = 1


# ---- composition oracle ----------------------------------------------------

def test_compose_matches_group_algebra_oracle(catalog):
    """Dense 2x2 regular-representation model of the order-2 pointed
    category: words go to products of permutation matrices, morphisms to
    scalar multiples of the identity on the group algebra."""
    eng = engine_for(catalog["vec_z2"])
    P = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    dense = lambda w: functools.reduce(np.matmul, [P[a] for a in w], np.eye(2))
    words = [(), (0,), (1,), (0, 1), (1, 0), (1, 1), (1, 0, 1), (1, 1, 1)]
    rng = np.random.default_rng(13)
    for A, B, C in itertools.product(words, repeat=3):
        ok_ab = np.array_equal(dense(A), dense(B))
        assert (eng.hom_dim(A, B) == 1) == ok_ab
        if not (ok_ab and np.array_equal(dense(B), dense(C))):
            continue
        f = eng.random(A, B, rng)
        g = eng.random(B, C, rng)
        lhs = (g @ f).coeffs()[0] * np.eye(2)
        rhs = (g.coeffs()[0] * np.eye(2)) @ (f.coeffs()[0] * np.eye(2))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_trace_pairing_positive_definite(catalog):
    eng = engine_for(catalog["fibonacci"])
    tau = eng.spec.index("tau")
    basis = eng.hom_basis((tau, tau), (tau, tau))
    G = np.array([[trace_right(b2.dag() @ b1) for b2 in basis] for b1 in basis])
    evs = np.linalg.eigvalsh((G + G.conj().T) / 2)
    assert evs.min() > 1e-9


# ---- bigons and fusion -----------------------------------------------------

def test_bigon1_fibonacci_instance_frozen(catalog):
    eng = engine_for(catalog["fibonacci"])
    pair = canonical_pair(eng, "tau", "tau", "1")
    lhs = (pair.fuses[0] @ pair.splits[0]) * pair.scalar
    val = lhs.blocks[eng.ring.unit][0, 0]
    assert abs(val - 1.6180339887) < 1e-9


def test_bigon1_unit_instance(catalog):
    for spec in catalog.values():
        eng = engine_for(spec)
        pair = canonical_pair(eng, eng.ring.unit, eng.ring.unit, eng.ring.unit)
        lhs = (pair.fuses[0] @ pair.splits[0]) * pair.scalar
        assert abs(lhs.blocks[eng.ring.unit][0, 0] - 1.0) < 1e-12


def test_bigon_fusion_suites_all_catalog(catalog):
    for name, spec in catalog.items():
        for chk in (check_bigon1, check_bigon2, check_fusion):
            rep = chk(spec, tol=1e-9)
            assert rep.ok, (name, rep.suite, rep.worst())


# ---- the sideways rewrite ---------------------------------------------------

def test_ih_suite_all_catalog(catalog):
    for name, spec in catalog.items():
        rep = check_ih(spec, tol=1e-9)
        assert rep.cases, name
        assert rep.ok, (name, rep.worst())


def _closure_pairing(eng, f, g):
    cup_in = coev_word(eng, f.src)
    cup_out = coev_word(eng, f.dst)
    return (cup_out.dag() @ f.tensor(g) @ cup_in).scalar()


def _canonical_element(eng, x, w, y, z):
    """sqrt(d_x d_y d_z d_w) . sum_k B_k (x) B^k with B^k the closure-dual
    basis of a raw elementary basis; independent of the pair machinery."""
    dual = eng.ring.dual
    B = eng.hom_basis((x, w), (y, z))
    C = eng.hom_basis((dual[w], dual[x]), (dual[z], dual[y]))
    M = np.array([[_closure_pairing(eng, b, c) for c in C] for b in B])
    cof = np.linalg.inv(M).T   # row k: coefficients of B^k over C
    pref = math.sqrt(eng.d[x] * eng.d[w] * eng.d[y] * eng.d[z])
    vb = np.array([b.coeffs() for b in B])
    vc = np.array([c.coeffs() for c in C])
    return pref * np.einsum("kp,kq->pq", vb, cof @ vc)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z2_twisted"])
def test_ih_sides_match_canonical_element(catalog, name):
    eng = engine_for(catalog[name])
    rank = eng.ring.rank
    for x, w, y, z in itertools.product(range(rank), repeat=4):
        if eng.hom_dim((x, w), (y, z)) == 0:
            continue
        side_i, side_h = ih_sides(eng, x, w, y, z)
        want = _canonical_element(eng, x, w, y, z)
        labs = tuple(eng.spec.labels[i] for i in (x, w, y, z))
        assert np.abs(side_i - want).max() < 1e-8, labs
        assert np.abs(side_h - want).max() < 1e-8, labs


# ---- global dimension -------------------------------------------------------

def test_global_dim_frozen_values(catalog):
    eng = engine_for(catalog["fibonacci"])
    tau = eng.spec.index("tau")
    direct, loops, target = global_dim_routes(eng, tau, tau)
    assert abs(direct[0, 0] - 3.6180339887) < 1e-9
    assert abs(loops - 3.6180339887) < 1e-9
    assert abs(target - 3.6180339887) < 1e-9

    eng = engine_for(catalog["ising"])
    direct, loops, target = global_dim_routes(eng, 0, 0)
    assert abs(direct[0, 0] - 4.0) < 1e-9 and abs(loops - 4.0) < 1e-9

    eng = engine_for(catalog["vec_z3"])
    direct, loops, target = global_dim_routes(eng, 1, 1)
    assert abs(direct[0, 0] - 3.0) < 1e-9 and abs(loops - 3.0) < 1e-9


def test_global_dim_off_diagonal_vanishes(catalog):
    eng = engine_for(catalog["fibonacci"])
    direct, loops, target = global_dim_routes(eng, 0, 1)
    assert direct.size == 0 and loops == 0 and target == 0


def test_global_dim_suite_all_catalog(catalog):
    for name, spec in catalog.items():
        rep = check_global_dim(spec, tol=1e-9)
        assert rep.ok, (name, rep.worst())


CATALOG = ["vec", "vec_z2", "vec_z2_twisted", "vec_z3", "fibonacci", "ising", "rep_s3"]


@pytest.mark.parametrize("name", CATALOG + ["SU(2)_2", "SU(2)_3", "SU(2)_4"])
def test_global_dim_reads_the_ih_duals(name, monkeypatch):
    # globaldim after ih draws no dual of its own, and its residuals are bit
    # for bit those of globaldim run alone on a fresh spec
    def fresh():
        return (load_spec(su2k_category(int(name[-1]))) if name.startswith("SU")
                else find(name))

    alone = [c.residual for c in check_global_dim(fresh()).cases]
    spec = fresh()
    check_ih(spec)
    real, calls = tubecat.relations.dual_morphism, []
    monkeypatch.setattr(tubecat.relations, "dual_morphism",
                        lambda f: calls.append(f) or real(f))
    after = [c.residual for c in check_global_dim(spec).cases]
    assert calls == [], name
    assert after == alone, name


# ---- sphericality -----------------------------------------------------------

def test_spherical_suite_all_catalog(catalog):
    for name, spec in catalog.items():
        rep = check_spherical(spec, tol=1e-9)
        assert rep.ok, (name, rep.worst())


# ---- report plumbing --------------------------------------------------------

def test_spherical_suite_keeps_a_later_nan(catalog, monkeypatch):
    # a NaN weighted trace on the third case: the case residual and the
    # scale must both keep it, not fold it away behind a finite value
    real = tubecat.relations.weighted_trace
    calls = []

    def nan_third(f):
        calls.append(f)
        return complex("nan") if len(calls) == 3 else real(f)

    monkeypatch.setattr(tubecat.relations, "weighted_trace", nan_third)
    rep = check_spherical(catalog["fibonacci"])
    assert math.isnan(rep.max_residual)
    assert not rep.ok


def test_global_dim_suite_keeps_nan_in_the_loop_route(catalog, monkeypatch):
    # route two alone goes NaN; route one stays finite and comes first
    monkeypatch.setattr(tubecat.relations, "trace_right",
                        lambda f: complex("nan"))
    rep = check_global_dim(catalog["fibonacci"])
    assert math.isnan(rep.max_residual)
    assert not rep.ok


def test_ih_suite_keeps_nan_in_one_case(catalog, monkeypatch):
    real = tubecat.relations.ih_sides
    calls = []

    def nan_third(eng, x, w, y, z):
        side_i, side_h = real(eng, x, w, y, z)
        calls.append((x, w, y, z))
        if len(calls) == 3:
            side_i = side_i.copy()
            side_i.flat[-1] = np.nan
        return side_i, side_h

    monkeypatch.setattr(tubecat.relations, "ih_sides", nan_third)
    rep = check_ih(catalog["fibonacci"])
    assert math.isnan(rep.max_residual)
    assert not rep.ok


def test_report_shape_and_registry(catalog):
    rep = check_bigon1(catalog["fibonacci"], tol=1e-9)
    d = rep.as_dict()
    assert set(d) == {"suite", "cases", "max_residual", "pass"}
    assert all(set(c) == {"labels", "residual", "pass"} for c in d["cases"])
    assert set(SUITES) == {"bigon1", "bigon2", "fusion", "ih",
                           "globaldim", "spherical", "pentagon"}
    assert run_suite(catalog["fibonacci"], "pentagon", tol=1e-12).ok
    with pytest.raises(KeyError):
        run_suite(catalog["fibonacci"], "nope")
