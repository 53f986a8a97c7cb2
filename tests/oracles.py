"""Whole-map formulas that the library computes another way, kept as the
tests' oracles.

Each one builds the maps of an identity whole, block by block in Morphism
algebra (Engine.tensor_id_left / tensor_id_right on every summand, on the
BlockMap form below), where the library reads the same identity on stacked
per-root matrices.  They are slow and independent of the stacked kernel in
tubecat.tube, which is what makes them worth comparing against.

The tube algebra's product and star are here as diagrams (diagram_product,
diagram_star, and the tables filled from them pair by pair), where
tubecat.tables fills the tables from joins over the F entries; so is its
action on Δ (t_diagram_block, t_diagram), where tubecat.tube.t_map reads
it off the same product terms.  The diagrams read a tube element as
Morphism blocks (element_blocks), where the library keeps only its
coefficient vector.  The inverse map's closure is here drawn once per
channel a on the full five-letter words (closure_per_channel), where
tubecat.tube.f_map caps each block once for all its channels.  The
unitarity residual of a half-braiding is here one Gram, identity and fold
per letter, root and side (unitarity_loop), where
tubecat.tube.verify_halfbraiding folds all roots of a letter and side at
once.

The three-letter pieces of Δ's half-braiding are here as the engine
draws them (engine_vertex_pad, engine_top, engine_pad, with the channel
rows of a comb, engine_channel_rows and lead_runs), where
tubecat.tables.vertex_pieces reads them off the F entries as flat
entries, and so are the fusion halves bent onto the conjugate strand
(rotated_fuses), where tubecat.tables.rotations reads each off one F
entry.  dense_pieces gathers the flat entries into one array per label
tuple and root.  Δ's hexagon legs are here as one Kronecker sum and one
scatter per tree group of a grown two-letter stack (vertex_leg_loop), the
legs of any half-braided sum as the channel rows of the whole map
id_a ⊗ e_b (generic_leg), and the hexagon itself one pair, channel and root
at a time, with the pads drawn by the engine (hexagon_residual), where
tubecat.tube forms the legs of a run of letters a as one join, from Δ's
vertex pieces (_delta_legs) or from a stored e_b between two F entries
(_word_legs), and the defects of its pairs (a, b) as another (_hexagons);
leg_matrices reads one channel of the joined legs back as matrices.  A
StackedBasis keeps its trees as integer arrays, and stacked_trees reads
them back as the tuples TreeBasis lists, root by root; stacked_lifts
groups a grown stack's trees by their parent's root and last slot, and
right_blocks multiplies by f ⊗ id_x group by group, where the library
reads each grown state's parent and slot off the counts N
(tubecat.sums.lifts_of) and lifts f by one masked gather.  Ω, the basis
change from id_c ⊗ comb to the combs of (c,) + w, is here the engine's,
recursed a letter at a time and summed over the summands (sum_omega),
where tubecat.tube._Omega joins the F entries of every state at once.
The block maps live between sums whose words are shifted by a letter
(shifted), a SumObject the library itself never forms.

The F table is here as the loader built it before it stored one flat
table: the file's entries read one at a time (doc_entries), staged into
dense per-(a,b,c,d) blocks (staged_blocks) and the blocks concatenated
into the flat table (entry_table), where tubecat.fsymbols takes the
table's index part from N alone and scatters the entries into its values.

The pentagon's two routes are here too, one word and one root at a time, as
loops over block rows and columns (trees_T1 … pentagon_residual), where
tubecat.pentagon runs them as joins on the flat F entry table.
"""
import itertools
import math

import numpy as np

from tubecat.duality import coev, ev, rotate_clockwise
from tubecat.errors import worst
from tubecat.morphism import Linear, cached
from tubecat.pairs import canonical_pair
from tubecat.sums import SumObject, cut_block, stack_blocks
from tubecat.trees import tree_root
from tubecat.tube import TubeElement, _pieces, _sides, _Stacked, t_map


class BlockMap(Linear):
    """A map between two SumObjects in block form, the oracles' own:
    ``blocks[(i, j)]`` is a Morphism from src.summands[j] to
    dst.summands[i], and absent blocks are zero."""

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src, dst, blocks):
        self.src, self.dst, self.blocks = src, dst, dict(blocks)

    def norm(self):
        """Linear's norm over the Morphism blocks: NaN in any one is kept."""
        return worst(m.norm() for m in self.blocks.values())

    @property
    def engine(self):
        return self.src.engine

    def _like(self, blocks):
        return BlockMap(self.src, self.dst, blocks)

    def _check_parallel(self, other):
        assert (self.src.summands, self.dst.summands) == (other.src.summands, other.dst.summands)

    def __matmul__(self, other):
        """self after other, block matrix product."""
        out = {}
        for (i, j), f in self.blocks.items():
            for (k, l), g in other.blocks.items():
                if k == j:
                    out[(i, l)] = out[(i, l)] + f @ g if (i, l) in out else f @ g
        return BlockMap(other.src, self.dst, out)

    def dag(self):
        return BlockMap(self.dst, self.src, {(j, i): m.dag() for (i, j), m in self.blocks.items()})

    def stacked(self, src, dst):
        """One matrix per root from the stacked trees src to dst (stack_blocks)."""
        return stack_blocks({k: m.blocks for k, m in self.blocks.items()}, src, dst)

    @classmethod
    def cut(cls, src, dst, mats):
        """mats, one matrix per root from src.stacked() to dst.stacked(), cut
        into blocks (cut_block); a block exactly zero at every root is left out."""
        ssb, dsb = src.stacked(), dst.stacked()
        blocks = {}
        for i in range(len(dst)):
            for j in range(len(src)):
                m = cut_block(src.engine, mats, ssb, dsb, i, j)
                if any(b.any() for b in m.blocks.values()):
                    blocks[(i, j)] = m
        return cls(src, dst, blocks)


def shifted(obj, left=(), right=()):
    """The sum of the words left + w + right over the summands w of obj,
    with obj's tags: the source and target of f ⊗ id and id ⊗ f."""
    return SumObject(obj.engine, [tuple(left) + w + tuple(right) for w in obj.summands],
                     obj.tags)


def tensor_id_right(f, word):
    """f ⊗ id_word for a block map f, block by block."""
    eng = f.engine
    return BlockMap(shifted(f.src, right=word), shifted(f.dst, right=word),
                    {k: eng.tensor_id_right(m, word) for k, m in f.blocks.items()})


def tensor_id_left(f, word):
    """id_word ⊗ f for a block map f, block by block."""
    eng = f.engine
    return BlockMap(shifted(f.src, left=word), shifted(f.dst, left=word),
                    {k: eng.tensor_id_left(word, m) for k, m in f.blocks.items()})


def braiding_blocks(obj, braiding):
    """A half-braiding on obj as the library stores it, letter a -> root
    -> matrix on stacked trees, cut into block maps obj + (a,) → (a,) + obj."""
    return {a: BlockMap.cut(shifted(obj, right=(a,)), shifted(obj, left=(a,)), m)
            for a, m in braiding.items()}


def rotated_fuses(eng, a, y, x):
    """Fusion halves of the (a, y; x) dual pair, rotated by exact bends to
    sit on a downward strand: each maps (x̄, a) → (ȳ,), where
    tubecat.tables.rotations reads them off one F entry each."""
    return cached(eng.cache, ("oracle rotfuse", a, y, x), lambda: tuple(
        rotate_clockwise(f) for f in canonical_pair(eng, a, y, x).fuses))


def dense_pieces(eng, pieces):
    """(vertex_pads, tops, pads) of tubecat.tables.vertex_pieces, flat,
    gathered into dense arrays per label tuple and root, stacked over one
    vertex index, tree columns in the engine's basis order:
    vertex_pads[(u, a, b, c)][z][μ] is id_u ⊗ ι_μ† at z, tops[(a, b, c, μ,
    y, x)][w][t] the top of the t-th (b, y; x) vertex at w, and
    pads[(u, b, y, x)][z][t] the pad id_u ⊗ g_t at z."""
    N, dual = eng.ring.N, eng.ring.dual
    (vp, _), (top, _), (pad, _) = pieces
    vpads, tops, pads = {}, {}, {}

    def cols(word, z, v, n1, n2):
        basis = eng.basis(word)
        return basis.dims[z], basis.index[z][((v, n1), (z, n2))]

    for i in range(len(vp["val"])):
        u, a, b, c, mu, z, rho, v, n1, n2 = (int(vp[f][i]) for f in (
            "u", "a", "b", "c", "mu", "z", "rho", "v", "nu1", "nu2"))
        n, col = cols((u, a, b), z, v, n1, n2)
        arr = vpads.setdefault((u, a, b, c), {}).setdefault(
            z, np.zeros((N[a, b, c], N[u, c, z], n), dtype=complex))
        arr[mu, rho, col] = vp["val"][i]
    for i in range(len(top["val"])):
        a, b, c, mu, y, x, w, t, n2, nu = (int(top[f][i]) for f in (
            "a", "b", "c", "mu", "y", "x", "w", "t", "nu2", "nu"))
        arr = tops.setdefault((a, b, c, mu, y, x), {}).setdefault(
            w, np.zeros((N[b, y, x], N[c, y, w], N[a, x, w]), dtype=complex))
        arr[t, n2, nu] = top["val"][i]
    for i in range(len(pad["val"])):
        u, b, y, x, t, z, rho, v, n1, n2 = (int(pad[f][i]) for f in (
            "u", "b", "y", "x", "t", "z", "rho", "v", "nu1", "nu2"))
        n, col = cols((u, dual[x], b), z, v, n1, n2)
        arr = pads.setdefault((u, b, y, x), {}).setdefault(
            z, np.zeros((N[b, y, x], N[u, dual[y], z], n), dtype=complex))
        arr[t, rho, col] += pad["val"][i]
    return vpads, tops, pads


def stacked_trees(sb):
    """root z -> [(summand, tree)] of a StackedBasis, each tree a tuple of
    (channel, μ) pairs as TreeBasis lists it, at its position at z."""
    out = {z: [None] * n for z, n in sb.dims.items()}
    for j, z, p, tree in zip(sb.summand.tolist(), sb.root.tolist(), sb.pos.tolist(),
                             sb.trees.tolist()):
        out[z][p] = (j, tuple(map(tuple, tree[:len(sb.words[j]) - 1])))
    return out


def stacked_lifts(sb):
    """root z -> (v, ν) -> the positions at z, in order, of the trees of a
    stack of words of two letters or more whose last vertex is (v, x; z)
    in slot ν: the children of the trees at v of the words one letter
    shorter, in their order (StackedBasis.of), so f ⊗ id_x is
    block-diagonal over them with block f at v."""
    out = {}
    for z, trees in stacked_trees(sb).items():
        for p, (j, tree) in enumerate(trees):
            v = tree[-2][0] if len(tree) > 1 else sb.words[j][0]
            out.setdefault(z, {}).setdefault((v, tree[-1][1]), []).append(p)
    return {z: {key: np.array(p) for key, p in at.items()} for z, at in out.items()}


def right_blocks(M, F, dst, src, n):
    """M·B with B block-diagonal over the keys (v, ν) of src: block F_v from
    the columns src[key] of an n-column result to M's columns dst[key], as
    stacked_lifts groups them for f ⊗ id_x."""
    out = np.zeros((M.shape[0], n), dtype=complex)
    for key, C in src.items():
        if key in dst and key[0] in F:
            out[:, C] = M[:, dst[key]] @ F[key[0]]
    return out


def sum_omega(obj, c):
    """id_c ⊗ − on the stacked comb trees of a sum of words: root r -> Ω,
    the direct sum over the summands w_j of Engine.omega(c, w_j)[r], from
    the 'id_c ⊗ comb' coordinates (Engine.right_basis: by the root z of
    w_j's tree, then the tree, then the slot ν of (c, z; r)) onto the
    stacked combs of (c,) + w_j at r, where tubecat.tube._Omega joins the
    same entries from F at once."""
    eng = obj.engine
    mats, size = {}, {}
    for w in obj.summands:
        om = eng.omega(c, w)
        for r, ents in eng.right_basis(c, w).items():
            off = size.get(r, 0)
            mats.setdefault(r, []).append((off, om[r]))
            size[r] = off + len(ents)
    out = {}
    for r, blocks in mats.items():
        out[r] = np.zeros((size[r], size[r]), dtype=complex)
        for off, m in blocks:
            out[r][off:off + len(m), off:off + len(m)] = m
    return out


def vertex_groups(sb):
    """Positions of sb's trees at each root z, grouped by (summand, channel
    w of the first vertex, second vertex (u, ν), z), in generation order:
    one list per group."""
    groups = {}
    for z, trees in stacked_trees(sb).items():
        for pos, (j, tree) in enumerate(trees):
            groups.setdefault((j, tree[0][0], tree[1], z), []).append(pos)
    return groups


def vertex_leg_loop(obj, a, b, memo, c, mu, src):
    """Channel (c, μ) of id_a ⊗ e_b on Δ, one matrix per root z from src,
    the grown stack of (a,) + Δ + (b,), to the trees of (c,) + Δ, from the
    engine's vertex pieces (tubecat.tube._pieces, dense_pieces), one tree
    group at a time.  Block (i, j), from j = (x, l, x̄) to i = (y, l, ȳ)
    of the same slot, is Σ_t √(d_x d_y)·top_t[w] ⊗ pad_{t,u}[z] on the
    trees that share (w, u, ν): per column group (j, w, (u, ν), z)
    (vertex_groups) and y, one Kronecker sum over t and one scatter, where
    tubecat.tube._delta_legs joins every leg at once.  ``memo`` keeps the
    dense pieces and row groups between calls."""
    eng = obj.engine
    ring, d = eng.ring, eng.d
    _vpads, tops, pads = cached(memo, ("dense",), lambda: dense_pieces(
        eng, _pieces(eng)))
    dst = obj.stacked((c,))
    rows = cached(memo, ("rows", c), lambda: vertex_groups(dst))
    out = {z: np.zeros((n, src.dims[z]), dtype=complex)
           for z, n in dst.dims.items() if z in src.dims}
    for (j, w, un, z), C in vertex_groups(src).items():
        x, s = obj.tags[j]
        for y in range(ring.rank):
            R = rows.get((obj.index((y, s)), w, un, z))
            if ring.N[b, y, x] and R is not None:
                per_t = zip(tops[(a, b, c, mu, y, x)][w], pads[(un[0], b, y, x)][z])
                out[z][np.ix_(R, C)] = (sum(np.kron(p, q) for p, q in per_t)
                                         * math.sqrt(d[x] * d[y]))
    return out


def leg_matrices(obj, legs, a, b, c, mu):
    """Channel (c, μ) of the leg id_a ⊗ e_b from flat legs, ``legs([a])`` in
    tubecat.tube._delta_legs' fields, one matrix per root z from the grown
    stack of (a,) + obj + (b,) to the trees of (c,) + obj, its terms added
    in order."""
    src, dst = obj.stacked((a,), (b,)).dims, obj.stacked((c,)).dims
    out = {z: np.zeros((n, src[z]), dtype=complex) for z, n in dst.items() if z in src}
    legs = legs([a])
    on = (legs["a"] == a) & (legs["b"] == b) & (legs["c"] == c) & (legs["mu"] == mu)
    for z, row, col, val in zip(*(legs[f][on] for f in ("z", "row", "col", "val"))):
        out[int(z)][row, col] += val
    return out


def hexagon_residual(obj, braiding, a, b, left=None):
    """Max-abs defect of e_{a⊗b} against S = (id_a ⊗ e_b) ∘ (e_a ⊗ id_b) at
    one pair, for a half-braiding letter -> root -> matrix on stacked
    trees, one channel and root at a time, where tubecat.tube._hexagons
    joins every pair, channel and root at once.

    With ι = ι_{c,μ} : c → a⊗b, e_{a⊗b} = Σ (ι ⊗ id) ∘ e_c ∘ (id ⊗ ι†), and
    ι ⊗ id_W embeds the combs of (a, b) + W that begin with (c, μ).  So the
    defect is the max over (c, μ) of ‖e_c ∘ (id ⊗ ι†) − (ι† ⊗ id) ∘ S‖, one
    matrix per root z from the grown stack of W + (a, b) to the trees of
    (c,) + W: e_a ⊗ id_b is e_a on the lifts (v, ν), and id_W ⊗ ι† the
    engine's id_u ⊗ ι† (engine_vertex_pad) on the trees of W at u.
    ``left(c, mu, mid)`` is (ι† ⊗ id) ∘ (id_a ⊗ e_b) per root from mid, the
    grown stack of (a,) + W + (b,); by default the channel rows of the
    whole map id_a ⊗ e_b (generic_leg).
    """
    eng = obj.engine
    if left is None:
        left = generic_leg(obj, braiding_blocks(obj, {b: braiding[b]}), a, b)
    base, lower = obj.stacked(), stacked_lifts(obj.stacked((), (a,)))
    src, mid = obj.stacked((), (a, b)), obj.stacked((a,), (b,))
    src_lifts, mid_lifts = stacked_lifts(src), stacked_lifts(mid)
    # columns at z that continue the trees of W at u: one row per tree of W
    # at u, one column per tree ((v, ν1), (z, ν2)) of (u, a, b) at z
    tails = {u: {z: np.array([src_lifts[z][(v, nu2)][lower[v][(u, nu1)]]
                              for (v, nu1), (_z, nu2) in trees]).T
                 for z, trees in eng.basis((u, a, b)).by_root.items()}
             for u in base.dims}
    out = 0.0
    for c, n in eng.ring.channels[a][b].items():
        joined, e_c = stacked_lifts(obj.stacked((), (c,))), braiding[c]
        for mu in range(n):
            leg = left(c, mu, mid)
            lhs = {z: np.zeros((m.shape[0], src.dims[z]), dtype=complex)
                   for z, m in e_c.items() if z in src.dims}
            for u in base.dims:
                pad = cached(eng.cache, ("oracle vertex pad", u, a, b, c, mu),
                             lambda: engine_vertex_pad(eng, u, a, b, c, mu).blocks)
                for z, m in pad.items():
                    if z in lhs:
                        heads = np.array([joined[z][(u, nu)]
                                          for nu in range(m.shape[0])]).T
                        lhs[z][:, tails[u][z]] = e_c[z][:, heads] @ m
            for z, m in lhs.items():
                rhs = (right_blocks(leg[z], braiding[a], mid_lifts[z], src_lifts[z],
                                    src.dims[z]) if z in leg else 0)
                out = worst((out, float(np.max(np.abs(m - rhs), initial=0.0))))
    return out


def delta_braiding_component(eng, obj, a):
    """Blocks (i, j) of Δ's e_a, one per summand j = (x, l, x̄) of Δ and y
    with N[a, y, x] > 0, where i is summand (y, l, ȳ) of the same slot: on
    the t-th (a, y; x) vertex, split x into (a, y) on the left line and
    absorb a into the conjugate line with the transported fusion half on
    the right, each block built whole on four-letter words.  Coefficient
    per (x, y): √(d_a⁻¹)·√(d_a d_y d_x) = √(d_x d_y)."""
    ring, d = eng.ring, eng.d
    blocks = {}
    for j, (x, s) in enumerate(obj.tags):
        l = obj.summands[j][1]
        for y in range(ring.rank):
            acc = None
            for t in range(int(ring.N[a, y, x])):
                split = canonical_pair(eng, a, y, x).splits[t]
                term = (eng.tensor_id_right(split, (l, ring.dual[y]))
                        @ eng.tensor_id_left((x, l), rotated_fuses(eng, a, y, x)[t]))
                acc = term if acc is None else acc + term
            if acc is not None:
                blocks[(obj.index((y, s)), j)] = acc * math.sqrt(d[x] * d[y])
    return BlockMap(shifted(obj, right=(a,)), shifted(obj, left=(a,)), blocks)


def engine_vertex_pad(eng, u, a, b, c, mu):
    """id_u ⊗ ι† : (u, a, b) → (u, c) for the μ-th vertex ι : c → a⊗b, by
    the engine's left tensoring, where tubecat.tables.vertex_pieces gathers
    it from F entries."""
    return eng._tensor_one_left(u, canonical_pair(eng, a, b, c).splits[mu].dag())


def lead_runs(basis):
    """(c, μ) -> {root: slice} over the trees of a TreeBasis whose first
    vertex is (c, μ), i.e. whose first two letters fuse to c in slot μ.

    Generation order expands the first vertex before any later one, so
    each run is contiguous, and it lists its trees in the order of the
    trees of (c,) + word[2:] with that first pair dropped."""
    leads = {}
    for z, ts in basis.by_root.items():
        start = 0
        for i in range(1, len(ts) + 1):
            if i == len(ts) or ts[i][0] != ts[start][0]:
                leads.setdefault(ts[start][0], {})[z] = slice(start, i)
                start = i
    return leads


def engine_channel_rows(eng, f, c, mu):
    """(ι† ⊗ id_W) ∘ f for a Morphism f into (a, b) + W, where ι: (c,) ->
    (a, b) is the μ-th vertex of a ⊗ b at c (``hom_basis((c,), (a, b))[mu]``).

    A comb of (a, b) + W begins with a vertex (c', μ') of a ⊗ b and goes
    on as a comb of (c',) + W.  So ι ⊗ id_W embeds the comb basis of
    (c,) + W as the rows of (a, b) + W that begin with (c, μ) (lead_runs),
    and its adjoint picks those rows out.  The blocks are exact copies of
    f's entries; summed over (c, μ), tensor_id_right(ι, W) ∘
    engine_channel_rows(eng, f, c, μ) gives f back.
    """
    assert len(f.dst) >= 2 and mu < eng.ring.N[f.dst[0], f.dst[1], c], (f.dst, c, mu)
    dst2 = (c,) + f.dst[2:]
    runs = lead_runs(eng.basis(f.dst))[(c, mu)]
    roots = eng.common_roots(f.src, dst2)
    return eng.make(f.src, dst2, {z: f.blocks[z][runs[z]] for z, _, _ in roots
                                  if z in f.blocks}, roots)


def engine_top(eng, a, b, y, x, t, c, mu):
    """(ι† ⊗ id_y) ∘ (id_a ⊗ split_t) : (a, x) → (c, y), split_t the t-th
    vertex x → b⊗y and ι the μ-th vertex c → a⊗b: the channel rows of the
    engine's id_a ⊗ split_t."""
    full = eng.tensor_id_left((a,), canonical_pair(eng, b, y, x).splits[t])
    return engine_channel_rows(eng, full, c, mu)


def engine_pad(eng, b, y, x, row, u):
    """id_u ⊗ g : (u, x̄, b) → (u, ȳ) by the engine's left tensoring, g the
    fusion vertex Σ_σ row[σ]·ι_σ† over the vertices ι_σ : ȳ → x̄⊗b (a row
    of tubecat.tables.rotations for Δ's pads)."""
    dual = eng.ring.dual
    return eng._tensor_one_left(u, eng.from_coeffs((dual[x], b), (dual[y],), row))


def element_blocks(A, f):
    """The tube element f as Morphism blocks, ``(a, m, l)`` -> the block
    x_l⊗a → a⊗x_m read off its span of f's coefficient vector; a span that
    is all zero gives no block."""
    slots = A.slots
    return {(a, m, l): A.engine.from_coeffs((slots[l][0], a), (a, slots[m][0]), f.vector[span])
            for (a, m, l), span in A.spans.items() if f.vector[span].any()}


def blocks_element(A, blocks):
    """The tube element with these Morphism blocks (element_blocks' form),
    each block's coeffs() written into its span."""
    vec = np.zeros(A.dim, dtype=complex)
    for (a, m, l), blk in blocks.items():
        assert (blk.src, blk.dst) == ((A.slots[l][0], a), (a, A.slots[m][0])), (a, m, l)
        vec[A.spans[(a, m, l)]] = blk.coeffs()
    return A.element(vec)


def t_diagram_block(A, delta, a, m, l, blk):
    """The endomorphism of Δ that the block blk : x_l⊗a → a⊗x_m acts as,
    drawn: thread its direction line through the conjugate sandwich, the
    (x, a; y) dual pair crossing the a-line over the summand boundary, one
    half transported to the conjugate strand.  One matrix per root on
    Δ.obj.stacked(), each block summed whole before it is placed
    (stack_blocks), where tubecat.tube.t_map reads the action off the tube
    algebra's product terms."""
    eng = A.engine
    ring, d = eng.ring, eng.d
    xl, xm = A.slots[l][0], A.slots[m][0]
    obj = delta.obj
    out = {}
    for x in range(ring.rank):
        for y, n in ring.channels[x][a].items():
            yd = ring.dual[y]
            pair = canonical_pair(eng, x, a, y)
            # splitting halves rotated onto the conjugate strand: (xbar,) -> (a, ybar)
            rots = cached(eng.cache, ("oracle rotsplit", x, a, y), lambda: [
                rotate_clockwise(s) for s in pair.splits])
            coeff = math.sqrt(d[x] * d[a] * d[y])
            mid = eng.tensor_id_left((x,), eng.tensor_id_right(blk, (yd,)))
            term = None
            for t in range(n):
                lo = cached(eng.cache, ("oracle t_lo", x, xl, a, y, t),
                            lambda: eng.tensor_id_left((x, xl), rots[t]))
                hi = cached(eng.cache, ("oracle t_hi", x, a, y, t, xm),
                            lambda: eng.tensor_id_right(pair.fuses[t], (xm, yd)))
                piece = hi @ mid @ lo
                term = piece if term is None else term + piece
            out[(obj.index((y, m)), obj.index((x, l)))] = (term * coeff).blocks
    sb = obj.stacked()
    return stack_blocks(out, sb, sb)


def t_diagram(A, delta, f):
    """The endomorphism of Δ that f acts as, drawn block by block
    (t_diagram_block on each of f's blocks) and summed per root."""
    out = {}
    for (a, m, l), blk in element_blocks(A, f).items():
        for z, mat in t_diagram_block(A, delta, a, m, l, blk).items():
            out[z] = out[z] + mat if z in out else mat
    return out


def diagram_product(A, f, g):
    """f·g as a diagram: split the direction line into (c, b) with a dual
    pair, run g along c below f along b, and fuse back.  Coefficient per
    (b, c): √(d_c d_b d_a)."""
    eng = A.engine
    ring, d = eng.ring, eng.d
    slots = A.slots
    acc = {}
    gblocks = element_blocks(A, g)
    for (b, m, p), fblk in element_blocks(A, f).items():
        xm = slots[m][0]
        for (c, p2, l), gblk in gblocks.items():
            if p2 != p:
                continue
            xl = slots[l][0]
            mid = eng.tensor_id_left((c,), fblk) @ eng.tensor_id_right(gblk, (b,))
            for a in ring.channels[c][b]:
                pair = canonical_pair(eng, c, b, a)
                term = None
                for t in range(pair.n):
                    piece = (eng.tensor_id_right(pair.fuses[t], (xm,)) @ mid
                             @ eng.tensor_id_left((xl,), pair.splits[t]))
                    term = piece if term is None else term + piece
                add = term * math.sqrt(d[c] * d[b] * d[a])
                key = (a, m, l)
                acc[key] = acc[key] + add if key in acc else add
    return blocks_element(A, acc)


def diagram_star(A, f):
    """f* as a diagram: the adjoint of the opposite-direction component,
    bent back into shape with one calibrated cup and cap; no vertex
    weights enter."""
    eng = A.engine
    slots = A.slots
    blocks = {}
    for (b, m, l), blk in element_blocks(A, f).items():
        a = eng.ring.dual[b]
        xl, xm = slots[l][0], slots[m][0]
        # cup: () -> (a, abar), cap: (abar, a) -> (); blk† : (b, x_m) -> (x_l, b)
        h1 = eng.tensor_id_right(coev(eng, a), (xm, a))
        h2 = eng.tensor_id_left((a,), eng.tensor_id_right(blk.dag(), (a,)))
        h3 = eng.tensor_id_left((a, xl), ev(eng, a))
        blocks[(a, l, m)] = h3 @ h2 @ h1
    return blocks_element(A, blocks)


def diagram_mult_table(A):
    """A's mult_table filled basis pair by basis pair from diagram_product;
    a pair whose slots do not meet is an empty product and stays zero."""
    ends = []  # (source slot, target slot) per basis element
    for (_a, m, l), span in A.spans.items():
        ends += [(l, m)] * (span.stop - span.start)
    basis = [A.basis_element(k) for k in range(A.dim)]
    mult = np.zeros_like(A.mult_table)
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            if ends[j][1] == ends[i][0]:
                mult[i, j] = A.vector_of(diagram_product(A, ei, ej))
    return mult


def diagram_star_table(A):
    """A's star_table filled row by row from diagram_star."""
    return np.array([A.vector_of(diagram_star(A, A.basis_element(k))) for k in range(A.dim)])


def sparse_rows(table, threshold):
    """[*index, re, im] of every entry of table above threshold in modulus,
    in C order, one entry at a time."""
    return [[*idx, float(v.real), float(v.imag)]
            for idx, v in np.ndenumerate(table) if abs(v) > threshold]


def lift_id_left(eng, word, f, pads):
    """id_word ⊗ f, lifted from one-letter pads over the roots of word.

    A left comb of word + S at root z is a tree of word rooted at some u
    followed by a comb of (u,) + S at root z.  So in comb coordinates
    id_word ⊗ f is block-diagonal over the trees of word, and the block of
    a tree rooted at u is id_u ⊗ f.  ``pads`` memoizes id_u ⊗ f by u;
    callers share it between words padding the same f.  Engine.
    tensor_id_left, one letter at a time, is the reference it is checked
    against.  Words of length <= 1 take tensor_id_left itself.
    """
    word = tuple(word)
    if len(word) <= 1:
        return eng.tensor_id_left(word, f)
    cut = len(word) - 1  # tree pairs that belong to word
    unit = eng.ring.unit
    src2, dst2 = word + f.src, word + f.dst
    sb2, db2 = eng.basis(src2), eng.basis(dst2)
    roots = eng.common_roots(src2, dst2)
    blocks = {}
    for z, dd, sd in roots:
        cols: dict = {}
        for j, t in enumerate(sb2.by_root[z]):
            cols.setdefault(t[:cut], []).append((j, t[cut:]))
        blk = np.zeros((dd, sd), dtype=complex)
        for i, t in enumerate(db2.by_root[z]):
            pre = t[:cut]
            src_cols = cols.get(pre)
            if src_cols is None:
                continue
            u = tree_root(word, pre, unit)
            pad = pads.get(u)
            if pad is None:
                pad = pads[u] = eng._tensor_one_left(u, f)
            row = pad.blocks[z][eng.basis((u,) + f.dst).index[z][t[cut:]]]
            col_of = eng.basis((u,) + f.src).index[z]
            for j, ext in src_cols:
                blk[i, j] = row[col_of[ext]]
        blocks[z] = blk
    return eng.make(src2, dst2, blocks, roots)


def extend_halfbraiding(obj, braiding, word):
    """Half-braiding against an arbitrary word, assembled from the simple
    components through the tree isometries of Hom(c, word):
    e_word = Σ_{c,ι} (ι ⊗ id) ∘ e_c ∘ (id ⊗ ι†).  The pad id_{Δ_j} ⊗ ι† is
    lifted over the roots of Δ_j (lift_id_left), one id_u ⊗ ι† per
    (u, c, ι) shared by every summand with a tree rooted at u."""
    word = tuple(word)
    eng = obj.engine
    if len(word) == 1:
        return braiding[word[0]]
    src, dst = shifted(obj, right=word), shifted(obj, left=word)
    out: dict = {}
    for c in eng.basis(word).roots():
        for iota in eng.hom_basis((c,), word):
            e_c = braiding[c]
            iota_dag = iota.dag()
            pads: dict = {}  # root u -> id_u ⊗ ι†
            for (i, j), m in e_c.blocks.items():
                left = eng.tensor_id_right(iota, obj.summands[i])
                right = lift_id_left(eng, obj.summands[j], iota_dag, pads)
                term = left @ m @ right
                out[(i, j)] = out[(i, j)] + term if (i, j) in out else term
    return BlockMap(src, dst, out)


def channel_rows(f, c, mu):
    """(ι† ⊗ id) ∘ f block by block (engine_channel_rows), for a block map
    into summands that all begin with the same pair (a, b): each target
    summand (a, b) + W becomes (c,) + W."""
    eng = f.engine
    dst = SumObject(eng, [(c,) + w[2:] for w in f.dst.summands], f.dst.tags)
    return BlockMap(f.src, dst, {k: engine_channel_rows(eng, m, c, mu)
                                 for k, m in f.blocks.items()})


def generic_leg(obj, braiding, a, b):
    """(c, μ, src) -> the channel rows of tensor_id_left(braiding[b], (a,)),
    stacked as leg_matrices reads tubecat.tube's joined legs: the
    hexagon's left leg for any half-braided sum, from the whole map
    id_a ⊗ e_b."""
    full = tensor_id_left(braiding[b], (a,))
    return lambda c, mu, src: channel_rows(full, c, mu).stacked(src, obj.stacked((c,)))


def whole_map_naturality(delta, T):
    """max_b ‖(id_b ⊗ T) ∘ e_b − e_b ∘ (T ⊗ id_b)‖ with both sides built
    whole, block by block, for T given per root as t_map gives it."""
    T = BlockMap.cut(delta.obj, delta.obj, T)
    return max((tensor_id_left(T, (b,)) @ e - e @ tensor_id_right(T, (b,))).norm()
               for b, e in braiding_blocks(delta.obj, delta.braiding).items())


def closure_per_channel(A, delta, T):
    """f_map's closure as a tube element, drawn once per channel a: for
    every a, (x, y) with a ∈ x̄⊗y and vertex slot t, the piece
    g5 ∘ g4 ∘ g3 ∘ g21 · √(d_x d_y d_a) on the full five-letter words,
    g3 = id_x̄ ⊗ T_blk ⊗ id_y and g4 = id_(x̄,y,x_m) ⊗ ev(y), so every
    channel tensors its block again; prefactor 1/dim(C).  No naturality
    check."""
    eng = A.engine
    ring, d = eng.ring, eng.d
    sb = delta.obj.stacked()
    vec = np.zeros(A.dim, dtype=complex)
    for a in range(ring.rank):
        for l, (xl_lab, _cl) in enumerate(A.slots):
            for m, (xm_lab, _cm) in enumerate(A.slots):
                acc = None
                for x in range(ring.rank):
                    xd = ring.dual[x]
                    for y in range(ring.rank):
                        if int(ring.N[xd, y, a]) == 0:
                            continue
                        blk = cut_block(eng, T, sb, sb, delta.obj.index((y, m)),
                                        delta.obj.index((x, l)))
                        pair = canonical_pair(eng, xd, y, a)
                        g3 = eng.tensor_id_left((xd,), eng.tensor_id_right(blk, (y,)))
                        g4 = eng.tensor_id_left((xd, y, xm_lab), ev(eng, y))
                        for t in range(pair.n):
                            g21 = (eng.tensor_id_right(ev(eng, x).dag(), (xl_lab, xd, y))
                                   @ eng.tensor_id_left((xl_lab,), pair.splits[t]))
                            g5 = eng.tensor_id_right(pair.fuses[t], (xm_lab,))
                            piece = (g5 @ (g4 @ g3) @ g21) * math.sqrt(d[x] * d[y] * d[a])
                            acc = piece if acc is None else acc + piece
                if acc is not None:
                    vec[A.spans[(a, m, l)]] = (acc * (1.0 / A.spec.dims.global_dim)).coeffs()
    return TubeElement(A, vec)


def unitarity_loop(obj, braiding, parts=(0,)):
    """verify_halfbraiding's unitarity residual of each part, an array, as
    one Gram product, identity, abs-max fold and running maximum per
    (letter, root, side); a part that an e_a non-finite on its rows enters
    reads NaN, and those entries are zeroed in copies first, so they reach
    no other part."""
    hb, S = _Stacked(obj, braiding, parts), _sides(obj)
    res, lost = np.zeros(hb.nparts), np.zeros(hb.nparts, dtype=bool)

    def defects(D, side, z):
        if hb.nparts == 1:
            return np.array([np.max(np.abs(D), initial=0.0)])
        out = np.zeros(hb.nparts)
        np.maximum.at(out, hb.ids(side, z), np.max(np.abs(D), axis=1, initial=0.0))
        return out

    for a in range(obj.engine.ring.rank):
        e = dict(braiding[a])
        for z, m in e.items() if hb.nparts > 1 else ():
            bad = ~np.isfinite(m)
            if bad.any():
                lost[hb.ids(((a,), ()), z)[bad.any(axis=1)]] = True
                e[z] = np.where(bad, 0.0, m)
        for side, dims, gram in ((((), (a,)), S.rdims[a], lambda m: m.conj().T @ m),
                                 (((a,), ()), S.dims[a], lambda m: m @ m.conj().T)):
            for z in np.flatnonzero(dims).tolist():
                m = e.get(z)
                D = (0 if m is None else gram(m)) - np.eye(dims[z])
                res = np.maximum(res, defects(D, side, z))
    res[lost] = np.nan
    return res


def per_summand_compression(delta, X, iso, a):
    """e_X for the letter a: Σ (id_a ⊗ u_i[s]†) ∘ e_a[s, s′] ∘ (u_j[s′] ⊗ id_a)
    over the blocks (s, s′) of e_a, where iso[i][s] : X_i → Δ_s are the
    pieces of the isometry on the summands of Δ.  Blocks of norm up to
    1e-14 are left out."""
    eng = X.engine
    e = braiding_blocks(delta.obj, {a: delta.braiding[a]})[a]
    blocks = {}
    for i, ui in iso.items():
        for j, uj in iso.items():
            acc = None
            for (si, sj), m in e.blocks.items():
                if si in ui and sj in uj:
                    term = (eng.tensor_id_left((a,), ui[si].dag()) @ m
                            @ eng.tensor_id_right(uj[sj], (a,)))
                    acc = term if acc is None else acc + term
            if acc is not None and acc.norm() > 1e-14:
                blocks[(i, j)] = acc
    return BlockMap(shifted(X, right=(a,)), shifted(X, left=(a,)), blocks)


def gram(A, delta, f, g):
    """⟨f, g⟩ = tr_Δ(T_g† ∘ T_f) = Σ_z d_z·tr(T_g[z]†·T_f[z]), the loop trace
    summed over the roots; positive definite on the tube algebra."""
    d = A.engine.d
    Tf, Tg = t_map(A, delta, f), t_map(A, delta, g)
    return sum((d[z] * np.trace(Tg[z].conj().T @ Tf[z]) for z in Tf), 0.0j)


def trees_T1(ring, a, b, c, d):
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


def basis_T4(ring, a, b, c, d, root):
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


def route_via_pair(F, a, b, c, d, root, src, dst):
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


def route_via_middle(F, a, b, c, d, root, src, dst):
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


def pentagon_cases(F):
    """((a,b,c,d), residual) per word, one word and one root at a time: the
    loop that tubecat.pentagon runs as sparse joins."""
    ring = F.ring
    for word in itertools.product(range(ring.rank), repeat=4):
        gaps = []
        trees = trees_T1(ring, *word)
        for root in sorted(trees):
            src = trees[root]
            dst = basis_T4(ring, *word, root)
            gap = np.abs(route_via_pair(F, *word, root, src, dst)
                         - route_via_middle(F, *word, root, src, dst))
            gaps.append(float(np.max(gap)))
        yield word, worst(gaps)


def pentagon_residual(F):
    """(residual, word) from pentagon_cases: the first NaN word, else the
    last word attaining the max."""
    top, where = 0.0, None
    for word, res in pentagon_cases(F):
        if res != res:
            return res, word
        if res >= top:
            top, where = res, word
    return top, where


def doc_entries(doc):
    """A category file's F list as FSymbolTable.from_entries reads it, one
    entry at a time and unchecked."""
    idx = {lab: i for i, lab in enumerate(doc["labels"])}
    return [(tuple(idx[l] for l in ent["abcd"]), idx[ent["e"]], idx[ent["f"]],
             tuple(ent.get("mu", [0, 0])), tuple(ent.get("nu", [0, 0])),
             complex(float(ent.get("re", 0.0)), float(ent.get("im", 0.0))))
            for ent in doc["F"]]


def staged_blocks(ring, entries):
    """(a,b,c,d) -> dense block of every admissible tuple: each entry
    written at its channel row and column, the identity where a, b or c is
    the unit, unchecked."""
    N = ring.N
    size = np.einsum("abe,ecd->abcd", N, N)
    blocks = {}
    for key in map(tuple, np.argwhere(size).tolist()):
        n = int(size[key])
        blocks[key] = np.eye(n, dtype=complex) if ring.unit in key[:3] else np.zeros((n, n), complex)
    for abcd, e, f, (m1, m2), (n1, n2), val in entries:
        a, b, c, d = abcd
        if ring.unit not in abcd[:3]:
            i = int(sum(N[a, b, k] * N[k, c, d] for k in range(e))) + m1 * int(N[e, c, d]) + m2
            j = int(sum(N[b, c, k] * N[a, k, d] for k in range(f))) + n1 * int(N[a, f, d]) + n2
            blocks[abcd][i, j] = val
    return blocks


def block_entries(ring, blocks):
    """The nonzero entries of the non-unit blocks, block by block in
    (a,b,c,d) order and row-major, as FSymbolTable.iter_entries yields
    them: channel rows and columns as the blocks number them."""
    N, out = ring.N, []
    for key, mat in sorted(blocks.items()):
        a, b, c, d = key
        if ring.unit in key[:3]:
            continue
        rows = [(e, i, j) for e in range(ring.rank)
                for i in range(N[a, b, e]) for j in range(N[e, c, d])]
        cols = [(f, i, j) for f in range(ring.rank)
                for i in range(N[b, c, f]) for j in range(N[a, f, d])]
        for i, j in zip(*np.nonzero(mat)):
            (e, m1, m2), (f, n1, n2) = rows[i], cols[j]
            out.append((key, int(e), int(f), (int(m1), int(m2)), (int(n1), int(n2)),
                        complex(mat[i, j])))
    return out


def entry_table(ring, blocks):
    """(x, y, z, row, col, val) of dense blocks: vertex v = (x[v], y[v],
    z[v], μ) in that order, pair (v, w) = v·V + w, blocks in (a,b,c,d)
    order, row-major; the rows and columns found by joins over the
    vertices, the values the blocks concatenated."""
    from tubecat.fsymbols import join
    N, r = ring.N, ring.rank
    x, y, z = np.nonzero(N)
    n = N[x, y, z]
    x, y, z = np.repeat(x, n), np.repeat(y, n), np.repeat(z, n)
    V = len(x)
    v, w = join(x, z)  # rows (a,b,e,mu), (e,c,d,nu)
    block = ((x[v] * r + y[v]) * r + y[w]) * r + z[w]
    order = np.argsort(block, kind="stable")
    rows, block = (v * V + w)[order], block[order]
    by_y = np.argsort(y, kind="stable")
    v, w = join(y[by_y], z)  # columns (b,c,f,rho), (a,f,d,sigma)
    w = by_y[w]
    cols = (v * V + w)[np.argsort(((x[w] * r + x[v]) * r + y[v]) * r + z[w], kind="stable")]
    start = np.flatnonzero(np.diff(block, prepend=-1))
    keys, n = block[start], np.diff(start, append=len(block))
    k = np.repeat(np.arange(len(keys)), n * n)
    i, j = np.divmod(np.arange(len(k)) - np.repeat(np.cumsum(n * n) - n * n, n * n), n[k])
    labels = (t.tolist() for t in np.unravel_index(keys, (r,) * 4))
    val = np.concatenate([blocks[key].ravel() for key in zip(*labels)])
    assert len(val) == len(k), "F blocks do not fit the fusion ring"
    return x, y, z, rows[start[k] + i], cols[start[k] + j], val.astype(complex)


def split_table(ring, table):
    """The table with each entry's vertices split out, ((x, y, z, μ), rv,
    rw, cv, cw, val): μ counted along each run of equal (x, y, z)."""
    x, y, z, row, col, val = table
    n, r = len(x), ring.rank
    new = np.diff((x * r + y) * r + z, prepend=-1) != 0
    mu = np.arange(n) - np.maximum.accumulate(np.where(new, np.arange(n), 0))
    return (x, y, z, mu), *np.divmod(row, n), *np.divmod(col, n), val
