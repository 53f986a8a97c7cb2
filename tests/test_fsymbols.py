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
    for x in range(ring.rank):
        for y in range(ring.rank):
            for d in range(ring.rank):
                if spec.fsymbols.has_block(u, x, y, d):
                    blk = spec.fsymbols.block(u, x, y, d)
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


def test_missing_block_rejected(catalog):
    ring = catalog["fibonacci"].ring
    good = list(catalog["fibonacci"].fsymbols.iter_entries())
    partial = [e for e in good if e[0] != (1, 1, 1, 1)]
    with pytest.raises(SchemaError, match="missing"):
        FSymbolTable.from_entries(ring, partial)


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
