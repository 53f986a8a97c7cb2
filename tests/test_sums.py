"""Direct sums of words: stacked comb bases and block arithmetic.

A StackedBasis grown letter by letter must list, summand by summand, the
same trees in the same order as the engine's TreeBasis of each longer word,
and its lifts must point every parent coordinate at its own children; the
hexagon check reads both.
"""
import numpy as np
import pytest

from conftest import pointed_category
from tubecat.catspec import load_spec
from tubecat.morphism import engine_for
from tubecat.sums import BlockMorphism, StackedBasis, SumObject


def _spec(catalog, name):
    return (load_spec(pointed_category(4, k=1)) if name == "Z/4 k=1"
            else catalog[name])


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_grown_stack_matches_tree_bases(catalog, name):
    spec = _spec(catalog, name)
    eng = engine_for(spec)
    rank = spec.rank
    words = [(x, l, spec.ring.dual[x]) for x in range(rank) for l in range(rank)]
    for letters in [(0,), (rank - 1, 1 % rank), (1 % rank, rank - 1, rank - 1)]:
        sb = StackedBasis.of(eng, words)
        for letter in letters:
            parent, sb = sb, sb.extended(spec.ring, letter)
        assert sb.words == tuple(w + letters for w in words)
        for z, trees in sb.by_root.items():
            for j, w in enumerate(sb.words):
                mine = [t for (k, t) in trees if k == j]
                assert mine == eng.basis(w).by_root.get(z, []), (name, w, z)
                start, stop = sb.starts[z][j], sb.starts[z][j + 1]
                assert [k for k, _ in trees[start:stop]] == [j] * len(mine)
            # every parent coordinate at v has one child per slot ν at z
            for (v, nu), pos in sb.lifts[z].items():
                assert len(pos) == parent.dims[v]
                for (j, tree), p in zip(parent.by_root[v], pos):
                    assert trees[p] == (j, tree + ((z, nu),)), (name, z, v, nu)


def test_stacked_block_morphism_places_every_block(catalog):
    spec = catalog["rep_s3"]
    eng = engine_for(spec)
    rng = np.random.default_rng(11)
    src = SumObject(eng, [(1, 2), (2, 2, 0), (2,)])
    dst = SumObject(eng, [(2, 1), (2,), (0, 2, 2)])
    blocks = {(i, j): eng.random(w, v, rng) for i, v in enumerate(dst.summands)
              for j, w in enumerate(src.summands) if eng.common_roots(w, v)}
    f = BlockMorphism(src, dst, blocks)
    ssb, dsb = src.stacked(), dst.stacked()
    mats = f.stacked(ssb, dsb)
    for (i, j), m in blocks.items():
        for z, blk in m.blocks.items():
            rows = slice(dsb.starts[z][i], dsb.starts[z][i + 1])
            cols = slice(ssb.starts[z][j], ssb.starts[z][j + 1])
            assert np.array_equal(mats[z][rows, cols], blk)
    assert sum(np.count_nonzero(m) for m in mats.values()) == sum(
        np.count_nonzero(b) for m in blocks.values() for b in m.blocks.values())
    with pytest.raises(Exception, match="summand words"):
        f.stacked(dsb, ssb)


def test_from_stacked_inverts_stacked(catalog):
    # every entry of a root's matrix lies in exactly one block, so the two
    # readings are inverse; blocks that are exactly zero are left out
    spec = catalog["rep_s3"]
    eng = engine_for(spec)
    rng = np.random.default_rng(13)
    src = SumObject(eng, [(1, 2), (2, 2, 0), (2,)])
    dst = SumObject(eng, [(2, 1), (2,), (0, 2, 2)])
    blocks = {(i, j): eng.random(w, v, rng) for i, v in enumerate(dst.summands)
              for j, w in enumerate(src.summands) if eng.common_roots(w, v)}
    zero = min(blocks)
    blocks[zero] = blocks[zero] * 0.0
    f = BlockMorphism(src, dst, blocks)
    ssb, dsb = src.stacked(), dst.stacked()
    back = BlockMorphism.from_stacked(src, dst, f.stacked(ssb, dsb))
    assert sorted(back.blocks) == sorted(k for k in blocks if k != zero)
    for key, m in back.blocks.items():
        assert sorted(m.blocks) == sorted(blocks[key].blocks)
        for z, blk in m.blocks.items():
            assert np.array_equal(blk, blocks[key].blocks[z])
    mats = {z: rng.standard_normal((n, ssb.dims[z])) + 0j
            for z, n in dsb.dims.items() if z in ssb.dims}
    again = BlockMorphism.from_stacked(src, dst, mats).stacked(ssb, dsb)
    assert sorted(again) == sorted(mats)
    for z, m in mats.items():
        assert np.array_equal(again[z], m)
    # a root missing from the matrices reads as zero
    z = min(mats)
    part = BlockMorphism.from_stacked(src, dst, {z: mats[z]})
    assert all(not b.any() for m in part.blocks.values()
               for r, b in m.blocks.items() if r != z)


def test_block_difference_is_blockwise(catalog):
    spec = catalog["ising"]
    eng = engine_for(spec)
    rng = np.random.default_rng(12)
    obj = SumObject(eng, [(0, 1), (1, 1), (2, 1)])
    f = BlockMorphism(obj, obj, {(0, 0): eng.random((0, 1), (0, 1), rng),
                                 (1, 2): eng.random((2, 1), (1, 1), rng)})
    g = BlockMorphism(obj, obj, {(0, 0): eng.random((0, 1), (0, 1), rng),
                                 (2, 2): eng.random((2, 1), (2, 1), rng)})
    got, want = f - g, f + g * (-1.0)
    assert sorted(got.blocks) == sorted(want.blocks)
    for key, m in want.blocks.items():
        for z, blk in m.blocks.items():
            assert np.array_equal(got.blocks[key].blocks[z], blk)
    g.blocks[(2, 2)].blocks[max(g.blocks[(2, 2)].blocks)][0, 0] = np.nan
    assert np.isnan((f - g).norm())
