"""F-table assembly, unit synthesis, unitarity, entry round trips."""
import re

import numpy as np
import pytest

from tubecat.errors import SchemaError
from tubecat.fsymbols import FSymbolTable

from conftest import table_docs


def test_catalog_unitarity(catalog):
    for spec in catalog.values():
        assert spec.fsymbols.check_unitary(1e-10) < 1e-10, spec.name


def test_unit_blocks_are_identity(catalog):
    spec = catalog["ising"]
    ring = spec.ring
    u = ring.unit
    unit_first = [blk for key, blk in spec.fsymbols._blocks.items() if key[0] == u]
    assert len(unit_first) == sum(1 for x in range(ring.rank) for y in range(ring.rank)
                                  for d in range(ring.rank) if np.dot(ring.N[u, x], ring.N[:, y, d]))
    for blk in unit_first:
        assert np.array_equal(blk, np.eye(len(blk)))


def test_entries_roundtrip(catalog):
    for spec in catalog.values():
        entries = list(spec.fsymbols.iter_entries())
        rebuilt = FSymbolTable.from_entries(spec.ring, entries)
        for key, mat in spec.fsymbols._blocks.items():
            assert np.allclose(rebuilt.block(*key), mat, atol=0)


def test_inadmissible_entry_rejected(catalog):
    ring = catalog["fibonacci"].ring
    # tau tensor tau never contains... a channel (e=1) into root 1 does not
    # exist for word (tau,tau,tau) since N[1,tau,1] = 0
    bad = [((1, 1, 1, 0), 0, 1, (0, 0), (0, 0), 1.0)]
    with pytest.raises(SchemaError, match="admissible"):
        FSymbolTable.from_entries(ring, bad)



def test_entry_off_the_labels_or_negative_rejected(catalog):
    # channels are read by position, so an e or f past the labels, or a
    # negative μ or ν (which numpy would read from the end), must be refused
    # as the dict lookup refused it
    spec = catalog["fibonacci"]
    good = list(spec.fsymbols.iter_entries())
    (abcd, e, f, mu, nu, val), r = good[-1], spec.rank
    for bad in ((abcd, r, f, mu, nu, val), (abcd, e, -1, mu, nu, val),
                (abcd, e, f, (-1, 0), nu, val), (abcd, e, f, mu, (0, -1), val)):
        with pytest.raises(SchemaError, match=r"^F entry .* is not an admissible channel$"):
            FSymbolTable.from_entries(spec.ring, good[:-1] + [bad])

def test_missing_block_rejected(catalog):
    ring = catalog["fibonacci"].ring
    good = list(catalog["fibonacci"].fsymbols.iter_entries())
    partial = [e for e in good if e[0] != (1, 1, 1, 1)]
    with pytest.raises(SchemaError, match="missing"):
        FSymbolTable.from_entries(ring, partial)


def test_nan_on_a_unit_tuple_rejected(catalog):
    # a NaN entry on a unit-constrained tuple is off the identity; it must
    # not be replaced by the identity unseen
    spec = catalog["fibonacci"]
    entries = list(spec.fsymbols.iter_entries())
    entries.append(((0, 1, 1, 0), 1, 0, (0, 0), (0, 0), complex(np.nan)))
    with pytest.raises(SchemaError, match=r"unit-constrained F block \(0, 1, 1, 0\)"):
        FSymbolTable.from_entries(spec.ring, entries)


def test_block_indexing_matches_entry(catalog):
    spec = catalog["fibonacci"]
    f = spec.fsymbols
    phi = spec.dims.d[1]
    blk = f.block(1, 1, 1, 1)
    rows, cols = f.rows(1, 1, 1, 1), f.cols(1, 1, 1, 1)
    assert blk[rows.index((0, 0, 0)), cols.index((0, 0, 0))] == \
        pytest.approx(1 / phi, abs=1e-12)
    assert blk[rows.index((1, 0, 0)), cols.index((1, 0, 0))] == \
        pytest.approx(-1 / phi, abs=1e-12)


def _tables(catalog):
    from conftest import rep_a4_random_table
    return [s.fsymbols for s in catalog.values()] + [rep_a4_random_table(s) for s in range(3)]


def test_unitarity_matches_block_loop(catalog):
    from tubecat.errors import worst
    for F in _tables(catalog):
        want = worst(float(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))))
                     for m in F._blocks.values())
        assert F.check_unitary(1e-10) == want


def test_unitarity_defect_and_shape_errors():
    from conftest import rep_a4_random_blocks
    from tubecat.errors import ConsistencyError
    ring, blocks = rep_a4_random_blocks(0)
    key = (3, 3, 3, 3)
    F = FSymbolTable(ring, {**blocks, key: 2 * blocks[key]})
    with pytest.raises(ConsistencyError, match="F blocks fail unitarity at 3.000e"):
        F.check_unitary(1e-10)
    with pytest.raises(ConsistencyError, match=r"\(3, 3, 3, 3\) is not square"):
        FSymbolTable(ring, {**blocks, key: blocks[key][:, :6]})


def test_entries_roundtrip_with_multiplicity():
    from conftest import rep_a4_random_table
    for seed in range(3):
        F = rep_a4_random_table(seed)
        rebuilt = FSymbolTable.from_entries(F.ring, list(F.iter_entries()))
        assert rebuilt._blocks.keys() == F._blocks.keys()
        for key, mat in F._blocks.items():
            assert np.array_equal(rebuilt.block(*key), mat), key


def test_entry_table_keys_name_channels(catalog):
    """Every table entry decodes, through the vertex numbering (x, y, z, μ),
    to the block entry at its row (e, μ1, μ2) and column (f, ν1, ν2)."""
    for F in _tables(catalog):
        x, y, z, row, col, val = F.table
        V = len(x)
        mu = np.arange(V) - np.searchsorted(x * V * V + y * V + z, x * V * V + y * V + z)
        assert len(val) == sum(m.size for m in F._blocks.values())
        seen = set()
        for r, c, v in zip(row.tolist(), col.tolist(), val.tolist()):
            (v1, v2), (w1, w2) = divmod(r, V), divmod(c, V)
            a, b, e, cc, d = x[v1], y[v1], z[v1], y[v2], z[v2]
            assert (x[v2], x[w1], y[w1], x[w2], z[w2], z[w1]) == (e, b, cc, a, d, y[w2])
            key = (a, b, cc, d)
            i = F.rows(*key).index((e, mu[v1], mu[v2]))
            j = F.cols(*key).index((z[w1], mu[w1], mu[w2]))
            assert F.block(*key)[i, j] == v
            seen.add((key, i, j))
        assert len(seen) == len(val)


def test_inadmissible_multiplicity_rejected():
    from conftest import rep_a4_random_table
    ring = rep_a4_random_table(0).ring
    # (3,3,3,3) has e = 3 with N[3,3,3] = 2, so mu = (2, 0) is no channel
    bad = [((3, 3, 3, 3), 3, 3, (2, 0), (0, 0), 1.0)]
    with pytest.raises(SchemaError, match="admissible"):
        FSymbolTable.from_entries(ring, bad)


def test_entry_table_rejects_block_of_wrong_size():
    from conftest import rep_a4_random_blocks
    from tubecat.errors import ConsistencyError
    ring, blocks = rep_a4_random_blocks(0)
    with pytest.raises(ConsistencyError, match="do not fit the fusion ring"):
        FSymbolTable(ring, {**blocks, (3, 3, 3, 3): blocks[(3, 3, 3, 3)][:6, :6]})


# ---- the flat table against the block layout it replaced -----------------

DOCS = table_docs()


def _bits(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _flat_parts(split):
    (x, y, z, mu), *rest = split
    return (x, y, z, mu, *rest)


def _assert_is_the_block_layout(F, blocks):
    """F's table, split and block views are bit for bit the blocks laid out
    by the oracle's joins; every part is read-only."""
    import oracles
    want = oracles.entry_table(F.ring, blocks)
    assert _bits(F.table) == _bits(want)
    assert _bits(_flat_parts(F.split)) == _bits(_flat_parts(oracles.split_table(F.ring, want)))
    for part in (*F.table, *_flat_parts(F.split)):
        assert not part.flags.writeable
    for key, mat in blocks.items():
        view = F.block(*key)
        assert _bits([view]) == _bits([mat.astype(complex)]) and not view.flags.writeable, key


@pytest.mark.parametrize("name", list(DOCS))
def test_loaded_table_is_the_staged_block_layout(name):
    import oracles
    from tubecat.catspec import load_spec
    doc = DOCS[name]
    spec = load_spec(doc)
    blocks = oracles.staged_blocks(spec.ring, oracles.doc_entries(doc))
    _assert_is_the_block_layout(spec.fsymbols, blocks)
    assert list(spec.fsymbols.iter_entries()) == oracles.block_entries(spec.ring, blocks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_constructor_and_entries_with_multiplicity(seed):
    # Rep(A4)'s ring has μ, ν up to 1: the blocks constructor and
    # from_entries of its entries both give the oracle's table
    import oracles
    from conftest import rep_a4_random_blocks
    ring, blocks = rep_a4_random_blocks(seed)
    F = FSymbolTable(ring, blocks)
    _assert_is_the_block_layout(F, blocks)
    entries = list(F.iter_entries())
    assert entries == oracles.block_entries(ring, blocks)
    assert max(max(mu + nu) for *_k, mu, nu, _v in entries) == 1
    _assert_is_the_block_layout(FSymbolTable.from_entries(ring, entries), blocks)


def test_block_views_refuse_writes(catalog):
    blk = catalog["fibonacci"].fsymbols.block(1, 1, 1, 1)
    with pytest.raises(ValueError, match="read-only"):
        blk[0, 0] = 0.0


# ---- every refusal, by its exact text --------------------------------------

def _fib():
    from tubecat.catalog import find
    spec = find("fibonacci")
    return spec.ring, list(spec.fsymbols.iter_entries())


def test_inadmissible_channel_text_names_the_first_entry():
    ring, good = _fib()
    bad = [((1, 1, 1, 0), 0, 1, (0, 0), (0, 0), 1.0), ((1, 1, 1, 1), 0, 0, (0, 1), (0, 0), 1.0)]
    with pytest.raises(SchemaError, match=r"^F entry \(1, 1, 1, 0\) e=0 f=1 mu=\(0, 0\) "
                       r"nu=\(0, 0\) is not an admissible channel$"):
        FSymbolTable.from_entries(ring, good + bad)
    with pytest.raises(SchemaError, match=r"^F entry \(1, 1, 1, 1\) e=0 f=0 mu=\(0, 1\) "
                       r"nu=\(0, 0\) is not an admissible channel$"):
        FSymbolTable.from_entries(ring, good + bad[::-1])


@pytest.mark.parametrize("gap, refused", [(2e-12, True), (0.5e-12, False), (np.nan, True)])
def test_unit_block_tolerance(gap, refused):
    ring, good = _fib()
    entries = good + [((0, 1, 1, 0), 1, 0, (0, 0), (0, 0), complex(1.0 + gap))]
    if refused:
        with pytest.raises(SchemaError, match=r"^unit-constrained F block \(0, 1, 1, 0\) "
                           r"is not the identity$"):
            FSymbolTable.from_entries(ring, entries)
    else:
        assert FSymbolTable.from_entries(ring, entries).block(0, 1, 1, 0)[0, 0] == 1.0


def test_unit_block_given_in_part_is_off_the_identity():
    # a unit tuple's block is compared whole: (1, 3, 3, 3) of Rep(A4) is
    # 2 x 2, and giving its (0, 0) entry alone leaves (1, 1) at zero
    from conftest import rep_a4_random_blocks
    ring, blocks = rep_a4_random_blocks(0)
    entries = list(FSymbolTable(ring, blocks).iter_entries())
    assert FSymbolTable(ring, blocks).block(0, 3, 3, 3).shape == (2, 2)
    with pytest.raises(SchemaError, match=r"^unit-constrained F block \(0, 3, 3, 3\) "
                       r"is not the identity$"):
        FSymbolTable.from_entries(ring, entries + [((0, 3, 3, 3), 3, 3, (0, 0), (0, 0), 1.0)])


def test_missing_block_text_names_the_first_tuple():
    ring, good = _fib()
    partial = [e for e in good if e[0] not in ((1, 1, 1, 0), (1, 1, 1, 1))]
    with pytest.raises(SchemaError, match=r"^missing F block for admissible tuple "
                       r"\(1, 1, 1, 0\)$"):
        FSymbolTable.from_entries(ring, partial)


def test_missing_and_unit_refusals_meet_in_tuple_order(catalog):
    # Ising: (σ,σ,σ,σ) is a non-unit tuple between the unit tuples
    # (1,σ,σ,1) and (σ,ψ,1,σ), so whichever of the two faults comes first
    # in (a,b,c,d) order is the one named
    spec = catalog["ising"]
    u, s, p = spec.ring.unit, spec.index("sigma"), spec.index("psi")
    assert (u, s, s, u) < (s, s, s, s) < (s, p, u, s)
    good = list(spec.fsymbols.iter_entries())
    partial = [e for e in good if e[0] != (s, s, s, s)]
    for unit_key, named in (((u, s, s, u), f"unit-constrained F block {(u, s, s, u)}"),
                            ((s, p, u, s), f"missing F block for admissible tuple {(s, s, s, s)}")):
        e = next(f for f in spec.fsymbols.rows(*unit_key))[0]
        f = next(f for f in spec.fsymbols.cols(*unit_key))[0]
        off = (unit_key, e, f, (0, 0), (0, 0), -1.0)
        with pytest.raises(SchemaError, match="^" + re.escape(named)):
            FSymbolTable.from_entries(spec.ring, partial + [off])


def test_block_constructor_refusals_in_tuple_order():
    from conftest import rep_a4_random_blocks
    from tubecat.errors import ConsistencyError
    ring, blocks = rep_a4_random_blocks(0)
    cut = {**blocks, (3, 3, 3, 3): blocks[(3, 3, 3, 3)][:, :6],
           (1, 3, 3, 3): blocks[(1, 3, 3, 3)][:1]}
    with pytest.raises(ConsistencyError, match=r"^F block \(1, 3, 3, 3\) is not square: "
                       r"\(1, 2\)$"):
        FSymbolTable(ring, cut)
    with pytest.raises(ConsistencyError, match=r"^F block \(3, 3, 3, 3\) is not square: "
                       r"\(7, 6\)$"):
        FSymbolTable(ring, {**blocks, (3, 3, 3, 3): blocks[(3, 3, 3, 3)][:, :6]})
    missing = {k: v for k, v in blocks.items() if k != (3, 3, 3, 3)}
    assert (1, 1, 1, 1) not in blocks
    extra = {**blocks, (1, 1, 1, 1): np.eye(1)}
    small = {**blocks, (3, 3, 3, 3): blocks[(3, 3, 3, 3)][:6, :6]}
    for bad in (missing, extra, small):
        with pytest.raises(ConsistencyError, match="^F blocks do not fit the fusion ring$"):
            FSymbolTable(ring, bad)


def test_unitarity_text():
    from conftest import rep_a4_random_blocks
    from tubecat.errors import ConsistencyError
    ring, blocks = rep_a4_random_blocks(1)
    F = FSymbolTable(ring, {**blocks, (3, 1, 3, 2): 1.5 * blocks[(3, 1, 3, 2)]})
    with pytest.raises(ConsistencyError, match=r"^F blocks fail unitarity at 1\.250e\+00$"):
        F.check_unitary(1e-10)
