"""F-table assembly, unit synthesis, unitarity, entry round trips."""
import numpy as np
import pytest

from tubecat.errors import SchemaError
from tubecat.fsymbols import FSymbolTable


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
    from conftest import rep_a4_random_table
    from tubecat.errors import ConsistencyError
    F = rep_a4_random_table(0)
    F._blocks[(3, 3, 3, 3)] = 2 * F.block(3, 3, 3, 3)
    with pytest.raises(ConsistencyError, match="F blocks fail unitarity at 3.000e"):
        F.check_unitary(1e-10)
    F._blocks[(3, 3, 3, 3)] = F.block(3, 3, 3, 3)[:, :6]
    with pytest.raises(ConsistencyError, match=r"\(3, 3, 3, 3\) is not square"):
        F.check_unitary(1e-10)


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
    from conftest import rep_a4_random_table
    from tubecat.errors import ConsistencyError
    F = rep_a4_random_table(0)
    F._blocks[(3, 3, 3, 3)] = F.block(3, 3, 3, 3)[:6, :6]
    with pytest.raises(ConsistencyError, match="do not fit the fusion ring"):
        F.table
