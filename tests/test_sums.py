"""Direct sums of words: stacked comb bases and block placement.

A StackedBasis, grown as arrays from the words' letters, must list,
summand by summand, the same trees in the same order as TreeBasis.of on
each word, and the trees of the words grown by one more letter must keep
their parents' order in each group (v, ν) of their last vertex (the
oracle's stacked_lifts), since f ⊗ id_x reads those groups as the parent
coordinates in order; the hexagon check reads both.  A map lifted onto
grown states by one masked gather (sums.lift) keeps a non-finite entry on
its own entries.
"""
import numpy as np
import pytest

from conftest import pointed_category, rep_a4_random_table
from oracles import stacked_lifts, stacked_trees
from tubecat.catspec import load_spec
from tubecat.errors import ShapeError
from tubecat.morphism import engine_for
from tubecat.sums import (StackedBasis, SumObject, block_diagonal, cut_block, lift,
                          lifts_of, stack_blocks)
from tubecat.trees import TreeBasis


def _spec(catalog, name):
    return (load_spec(pointed_category(4, k=1)) if name == "Z/4 k=1"
            else catalog[name])


def _ring(catalog, name):
    # Rep(A4)'s ring has N[3, 3, 3] = 2: two slots μ on one vertex
    return rep_a4_random_table(0).ring if name == "rep_a4" else _spec(catalog, name).ring


def _same_trees(ring, sb):
    """sb's trees at every root, summand by summand, are TreeBasis.of's,
    and each summand's run at a root starts where ``starts`` says."""
    trees = stacked_trees(sb)
    assert sorted(trees) == sorted(sb.dims) == list(sb.dims)
    for z, at in trees.items():
        for j, w in enumerate(sb.words):
            mine = [t for (k, t) in at if k == j]
            assert mine == TreeBasis.of(ring, w).by_root.get(z, []), (w, z)
            start, stop = sb.starts[z][j], sb.starts[z][j + 1]
            assert [k for k, _ in at[start:stop]] == [j] * len(mine)
    return trees


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "Z/4 k=1", "rep_a4"])
def test_grown_stack_matches_tree_bases(catalog, name):
    # Δ's words, the left-prefixed words (a,) + w of every letter a, and a
    # sum of words of mixed lengths, each grown by up to three letters
    ring = _ring(catalog, name)
    rank = ring.rank
    delta = [(x, l, ring.dual[x]) for x in range(rank) for l in range(rank)]
    mixed = [(1 % rank, rank - 1), (rank - 1, rank - 1, 0), (rank - 1,)]
    for words in (delta, [(a,) + w for a in range(rank) for w in delta], mixed):
        for letters in [(0,), (rank - 1, 1 % rank), (1 % rank, rank - 1, rank - 1)]:
            sb = StackedBasis.of(ring, words)
            trees = _same_trees(ring, sb)
            for k in range(1, len(letters) + 1):
                parent, parent_trees = sb, trees
                sb = StackedBasis.of(ring, [tuple(w) + letters[:k] for w in words])
                trees = _same_trees(ring, sb)
                lifts = stacked_lifts(sb)
                for z, at in trees.items():
                    # every parent coordinate at v has one child per slot ν
                    # at z, in the parents' order, and every child is some
                    # parent's
                    for (v, nu), pos in lifts[z].items():
                        assert len(pos) == parent.dims[v]
                        for (j, tree), p in zip(parent_trees[v], pos):
                            assert at[p] == (j, tree + ((z, nu),)), (name, z, v, nu)
                    assert sorted(np.concatenate(list(lifts[z].values()))) == list(range(len(at)))
            assert sb.words == tuple(tuple(w) + letters for w in words)


def test_stacked_words_must_be_nonempty(catalog):
    with pytest.raises(ShapeError, match="nonempty"):
        StackedBasis.of(catalog["fibonacci"].ring, [(1,), ()])


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


def test_lift_keeps_a_nan_on_its_own_entries():
    # f ⊗ id_a on Rep(A4)'s 3 + 3 (two slots ν on (3, 3; 3)), as one masked
    # gather of f's block-diagonal matrix: a NaN in f at root 3 reaches only
    # the entries whose parents it joins and whose slots agree, and the
    # finite entries are f's, zero across slots (a product with the mask
    # would carry the NaN onto every entry of its rows and columns)
    ring = rep_a4_random_table(0).ring
    words, three = [(3,), (3,)], 3
    root = StackedBasis.of(ring, words).root
    f = {three: np.arange(4.0).reshape(2, 2) + 1j}
    f[three][0, 1] = np.nan
    full = block_diagonal(f, root, root)
    lifts = lifts_of(ring.N[np.array([w[0] for w in words])].transpose(1, 0, 2))
    parents, slots = rows = lifts[three, three]
    assert parents.tolist() == [0, 0, 1, 1] and slots.tolist() == [0, 1, 0, 1]
    (a, _nan), (c, d) = f[three]
    np.testing.assert_array_equal(lift(full, rows, rows), [[a, 0, np.nan, 0], [0, a, 0, np.nan],
                                                           [c, 0, d, 0], [0, c, 0, d]])
