"""Engine laws: composition, dagger, strict tensor, basis-change unitarity.

These are the load-bearing checks for everything diagrammatic later; tensor
associativity and bifunctoriality in particular exercise the left-tensor
basis change (the only place F enters the engine).
"""
import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pointed_category
from oracles import lift_id_left
from tubecat.catspec import load_spec
from tubecat.errors import ShapeError
from tubecat.morphism import Engine, engine_for
from tubecat.trees import TreeBasis
from tubecat.tube import LambdaObject, build_delta

ENGINES = {}


@pytest.fixture(params=["vec_z2_twisted", "fibonacci", "ising", "rep_s3"])
def engine(request, catalog):
    if request.param not in ENGINES:
        ENGINES[request.param] = Engine(catalog[request.param])
    return ENGINES[request.param]


def words_upto(rank, n):
    out = [()]
    for _ in range(n):
        out += [w + (x,) for w in out if len(w) == _ for x in range(rank)]
    return out


def test_identity_composes(engine):
    rng = np.random.default_rng(7)
    for src in [(0,), (1, 1), (1, 0, 1)]:
        for dst in [(1,), (1, 1), (0, 1, 1)]:
            f = engine.random(src, dst, rng)
            assert (engine.identity(dst) @ f).close_to(f, 1e-12)
            assert (f @ engine.identity(src)).close_to(f, 1e-12)


def test_dagger_antihomomorphism(engine):
    rng = np.random.default_rng(11)
    a, b, c = (1,), (1, 1), (1, 1, 1)
    f = engine.random(b, c, rng)
    g = engine.random(a, b, rng)
    assert ((f @ g).dag() - (g.dag() @ f.dag())).norm() < 1e-10
    assert (f.dag().dag() - f).norm() == 0


def test_tensor_with_identity_is_identity(engine):
    for w1 in [(1,), (1, 1)]:
        for w2 in [(1,), (0, 1)]:
            lhs = engine.identity(w1).tensor(engine.identity(w2))
            assert lhs.close_to(engine.identity(w1 + w2), 1e-10)


def test_tensor_bifunctorial(engine):
    rng = np.random.default_rng(23)
    f1 = engine.random((1, 1), (1,), rng)
    f2 = engine.random((1,), (1, 1), rng)
    g1 = engine.random((1,), (1, 1), rng)
    g2 = engine.random((1, 1), (1,), rng)
    lhs = (f1 @ f2).tensor(g1 @ g2)
    rhs = f1.tensor(g1) @ f2.tensor(g2)
    assert lhs.close_to(rhs, 1e-9), (lhs - rhs).norm()


def test_tensor_associative(engine):
    rng = np.random.default_rng(31)
    f = engine.random((1,), (1, 1), rng)
    g = engine.random((1, 1), (1,), rng)
    h = engine.random((1,), (1,), rng)
    lhs = f.tensor(g).tensor(h)
    rhs = f.tensor(g.tensor(h))
    assert lhs.close_to(rhs, 1e-9), (lhs - rhs).norm()


def test_left_right_tensor_routes_agree(engine):
    # (f x id) . (id x g) = (id x g) . (f x id) on disjoint slots
    rng = np.random.default_rng(37)
    f = engine.random((1,), (1, 1), rng)
    g = engine.random((1, 1), (1,), rng)
    r1 = engine.tensor_id_left(f.dst, g) @ engine.tensor_id_right(f, g.src)
    r2 = engine.tensor_id_right(f, g.dst) @ engine.tensor_id_left(f.src, g)
    assert r1.close_to(r2, 1e-9), (r1 - r2).norm()


def test_scalar_tensor(engine):
    rng = np.random.default_rng(41)
    f = engine.random((1,), (1,), rng)
    s = engine.scalar_morphism(2.5 - 1j)
    assert s.tensor(f).close_to(f * (2.5 - 1j), 1e-10)
    assert f.tensor(s).close_to(f * (2.5 - 1j), 1e-10)


def test_omega_blocks_unitary(engine):
    # engine.omega raises on non-unitary blocks; touch a spread of words
    rank = engine.ring.rank
    for c in range(rank):
        for word in [(1,), (1, 1), (1, 0, 1), (1, 1, 1)]:
            engine.omega(c, word)


def test_zero_and_linearity(engine):
    rng = np.random.default_rng(43)
    f = engine.random((1, 1), (1, 1), rng)
    z = engine.zero((1, 1), (1, 1))
    assert (f + z - f).norm() == 0
    assert (f - f).norm() == 0
    assert (2 * f - f - f).norm() < 1e-14


def test_morphisms_of_different_categories_do_not_add(catalog):
    # the same word (1,) over two categories of rank 2: equal words, equal
    # block shapes, and still no sum
    f, g = (engine_for(catalog[name]).identity((1,)) for name in ("fibonacci", "vec_z2"))
    for op in (lambda: f - g, lambda: f + g, lambda: f.close_to(g)):
        with pytest.raises(ShapeError, match="different categories"):
            op()


def test_random_seed_determinism(engine):
    f1 = engine.random((1, 1), (1, 1), np.random.default_rng(99))
    f2 = engine.random((1, 1), (1, 1), np.random.default_rng(99))
    assert (f1 - f2).norm() == 0


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=12, deadline=None)
def test_interchange_random_words(seed):
    from tubecat.catalog import find
    spec = find("ising")
    eng = ENGINES.setdefault("ising", Engine(spec))
    rng = np.random.default_rng(seed)
    rank = spec.rank
    mk = lambda: tuple(rng.integers(0, rank, size=rng.integers(1, 3)))
    a, b, c, d = mk(), mk(), mk(), mk()
    f = eng.random(a, b, rng)
    g = eng.random(c, d, rng)
    lhs = eng.tensor_id_left(b, g) @ eng.tensor_id_right(f, c)
    rhs = eng.tensor_id_right(f, d) @ eng.tensor_id_left(a, g)
    assert lhs.close_to(rhs, 1e-9), (lhs - rhs).norm()


def test_engine_shared_per_spec_and_freed_with_it():
    spec = load_spec(pointed_category(3, k=1))
    eng = engine_for(spec)
    assert engine_for(spec) is eng
    assert engine_for(copy.copy(spec)) is not eng
    build_delta(spec, LambdaObject.all_simples(spec))  # fill its caches
    assert eng.cache
    ref = weakref.ref(eng)
    del eng, spec
    gc.collect()
    assert ref() is None


def test_engine_for_returns_an_engine_unchanged(catalog):
    eng = engine_for(catalog["fibonacci"])
    assert engine_for(eng) is eng


def test_grown_basis_matches_fresh_enumeration(catalog):
    # Engine.basis grows a word's trees from its cached prefix; the trees and
    # their order must be those of a fresh enumeration
    for name in ("fibonacci", "ising", "rep_s3"):
        eng = Engine(catalog[name])
        for word in words_upto(eng.ring.rank, 4):  # prefixes come first
            grown = eng.basis(word)
            fresh = TreeBasis.of(eng.ring, word)
            assert grown.states == fresh.states, (name, word)
            assert grown.by_root == fresh.by_root and grown.dims == fresh.dims


def multi_root_words(eng):
    return [w for w in words_upto(eng.ring.rank, 3)
            if len(w) >= 2 and len(eng.basis(w).roots()) > 1]


@pytest.mark.parametrize("source", ["rep_s3", "ising", "Z/4 k=1"])
def test_lifted_pad_matches_iterated_left_tensor(source, catalog):
    # the iterated one-letter tensor_id_left is the reference for the lift
    spec = (load_spec(pointed_category(4, k=1)) if source == "Z/4 k=1"
            else catalog[source])
    eng = Engine(spec)
    rng = np.random.default_rng(11)
    rank = spec.rank
    # every word of a pointed category has one root; take them all there
    words = multi_root_words(eng) or [w for w in words_upto(rank, 3) if len(w) >= 2]
    for src, dst in [((rank - 1,), (rank - 1,)), ((rank - 1, rank - 1), (rank - 1,)),
                     ((1, rank - 1), (rank - 1, 1))]:
        f = eng.random(src, dst, rng)
        pads = {}  # shared across words, as extend_halfbraiding shares them
        for word in words:
            lifted = lift_id_left(eng, word, f, pads)
            iterated = eng.tensor_id_left(word, f)
            assert lifted.src == iterated.src and lifted.dst == iterated.dst
            assert (lifted - iterated).norm() <= 1e-14, (source, word, src, dst)
