"""Direct sums of words: stacked comb bases and block placement.

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
from tubecat.sums import StackedBasis, SumObject, cut_block, stack_blocks


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


def _random_blocks(eng, rng, src, dst):
    return {(i, j): eng.random(w, v, rng) for i, v in enumerate(dst.summands)
            for j, w in enumerate(src.summands) if eng.common_roots(w, v)}


def test_stacked_block_morphism_places_every_block(catalog):
    # a map in block form, stacked per root: every block lands at its
    # summands' rows and columns, and nothing else is written
    spec = catalog["rep_s3"]
    eng = engine_for(spec)
    rng = np.random.default_rng(11)
    src = SumObject(eng, [(1, 2), (2, 2, 0), (2,)])
    dst = SumObject(eng, [(2, 1), (2,), (0, 2, 2)])
    blocks = _random_blocks(eng, rng, src, dst)
    ssb, dsb = src.stacked(), dst.stacked()
    mats = stack_blocks({k: m.blocks for k, m in blocks.items()}, ssb, dsb)
    for (i, j), m in blocks.items():
        for z, blk in m.blocks.items():
            rows = slice(dsb.starts[z][i], dsb.starts[z][i + 1])
            cols = slice(ssb.starts[z][j], ssb.starts[z][j + 1])
            assert np.array_equal(mats[z][rows, cols], blk)
    assert sum(np.count_nonzero(m) for m in mats.values()) == sum(
        np.count_nonzero(b) for m in blocks.values() for b in m.blocks.values())


def test_from_stacked_inverts_stacked(catalog):
    # every entry of a root's matrix lies in exactly one block, so cutting
    # the blocks out of the stacked matrices (cut_block) inverts stack_blocks
    spec = catalog["rep_s3"]
    eng = engine_for(spec)
    rng = np.random.default_rng(13)
    src = SumObject(eng, [(1, 2), (2, 2, 0), (2,)])
    dst = SumObject(eng, [(2, 1), (2,), (0, 2, 2)])
    blocks = _random_blocks(eng, rng, src, dst)
    ssb, dsb = src.stacked(), dst.stacked()
    mats = stack_blocks({k: m.blocks for k, m in blocks.items()}, ssb, dsb)
    for (i, j), m in blocks.items():
        back = cut_block(eng, mats, ssb, dsb, i, j)
        assert (back.src, back.dst) == (m.src, m.dst)
        assert sorted(back.blocks) == sorted(m.blocks)
        for z, blk in m.blocks.items():
            assert np.array_equal(back.blocks[z], blk)
    mats = {z: rng.standard_normal((n, ssb.dims[z])) + 0j
            for z, n in dsb.dims.items() if z in ssb.dims}
    cut = {(i, j): cut_block(eng, mats, ssb, dsb, i, j).blocks
           for i in range(len(dst)) for j in range(len(src))}
    again = stack_blocks(cut, ssb, dsb)
    assert sorted(again) == sorted(mats)
    for z, m in mats.items():
        assert np.array_equal(again[z], m)
    # a root missing from the matrices reads as zero
    z = min(mats)
    part = [cut_block(eng, {z: mats[z]}, ssb, dsb, i, j)
            for i in range(len(dst)) for j in range(len(src))]
    assert all(not b.any() for m in part for r, b in m.blocks.items() if r != z)
    assert any(b.any() for m in part for b in m.blocks.values())


def test_block_difference_is_blockwise(catalog):
    # a tube element is its coefficient vector, so two subtract span by
    # span, entry by entry, zero spans included, and a NaN in any block
    # reaches the norm
    from tubecat.tube import LambdaObject, build_tube_algebra
    spec = catalog["ising"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    rng = np.random.default_rng(12)
    f, g = A.random_element(rng), A.random_element(rng)
    spans = [span for span in A.spans.values() if span.stop > span.start]
    f.vector[spans[0]] = 0
    g.vector[spans[-1]] = 0
    got, want = f - g, f + g * (-1.0)
    assert np.array_equal(got.vector, want.vector)
    assert np.array_equal(got.vector, f.vector - g.vector)
    assert np.array_equal(got.vector[spans[0]], -g.vector[spans[0]])
    assert np.array_equal(got.vector[spans[-1]], f.vector[spans[-1]])
    g.vector[spans[0].stop - 1] = np.nan
    assert np.isnan((f - g).norm())

