"""Fusion ring axioms and Perron-Frobenius dimensions.

Dimension oracles are closed forms, not engine output: golden ratio from
x^2 = x + 1, sqrt(2) from x^2 = 2, Rep(S3) dims from character theory.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubecat.errors import ConsistencyError
from tubecat.ring import FusionRing, compute_fp_dims

PHI = (1 + np.sqrt(5)) / 2


def pointed_ring(n: int) -> FusionRing:
    N = np.zeros((n, n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            N[x, y, (x + y) % n] = 1
    return FusionRing(labels=tuple(str(x) for x in range(n)), unit=0,
                      dual=tuple((-x) % n for x in range(n)), N=N)


def test_fib_dims_against_golden_ratio(catalog):
    spec = catalog["fibonacci"]
    assert spec.dims.d[spec.index("tau")] == pytest.approx(PHI, abs=1e-12)
    assert spec.dims.global_dim == pytest.approx(2 + PHI, abs=1e-12)
    # the acceptance constant, 10 digits
    assert abs(spec.dims.global_dim - 3.6180339887) < 1e-9


def test_ising_dims(catalog):
    spec = catalog["ising"]
    assert spec.dims.d[spec.index("sigma")] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert spec.dims.global_dim == pytest.approx(4.0, abs=1e-12)


def test_rep_s3_dims_character_oracle(catalog):
    spec = catalog["rep_s3"]
    assert list(spec.dims.d) == pytest.approx([1.0, 1.0, 2.0], abs=1e-12)
    assert spec.dims.global_dim == pytest.approx(6.0, abs=1e-12)


def test_pointed_dims_all_one(catalog):
    for name in ("vec", "vec_z2", "vec_z2_twisted", "vec_z3"):
        d = catalog[name].dims.d
        assert np.allclose(d, 1.0, atol=1e-14)


def test_dims_are_ring_homomorphism(catalog):
    # d_x d_y = sum_z N_xy^z d_z, the defining property of PF dims, at 1e-10
    for spec in catalog.values():
        d = spec.dims.d
        lhs = np.outer(d, d)
        rhs = np.einsum("xyz,z->xy", spec.ring.N, d)
        assert np.max(np.abs(lhs - rhs)) < 1e-10, spec.name


def test_duals_preserve_dims(catalog):
    for spec in catalog.values():
        d = spec.dims.d
        assert np.allclose(d, d[list(spec.ring.dual)], atol=1e-12)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_cyclic_group_rings_validate(n):
    ring = pointed_ring(n)
    ring.validate()
    dims = compute_fp_dims(ring)
    assert np.allclose(dims.d, 1.0)
    assert dims.global_dim == pytest.approx(float(n))


def test_nonassociative_ring_rejected():
    # tamper one multiplicity of the Z/3 table
    ring = pointed_ring(3)
    N = ring.N.copy()
    N[1, 1, 1] = 1
    bad = FusionRing(labels=ring.labels, unit=0, dual=ring.dual, N=N)
    with pytest.raises(ConsistencyError):
        bad.validate()


def test_bad_dual_rejected():
    ring = pointed_ring(3)
    bad = FusionRing(labels=ring.labels, unit=0, dual=(0, 1, 2), N=ring.N)
    with pytest.raises(ConsistencyError):
        bad.validate()


def test_negative_multiplicity_rejected():
    ring = pointed_ring(2)
    N = ring.N.copy()
    N[1, 1, 0] = -1
    with pytest.raises(ConsistencyError):
        FusionRing(labels=ring.labels, unit=0, dual=ring.dual, N=N).validate()


def test_fib_ring_from_scratch():
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(labels=("1", "tau"), unit=0, dual=(0, 1), N=N)
    ring.validate()
    dims = compute_fp_dims(ring)
    assert dims.d[1] == pytest.approx(PHI, abs=1e-12)


def test_channel_table_matches_N(catalog):
    rings = [spec.ring for spec in catalog.values()] + [pointed_ring(5)]
    for ring in rings:
        r = ring.rank
        table = np.zeros((r, r, r), dtype=np.int64)
        for x in range(r):
            for y in range(r):
                fused = ring.channels[x][y]
                assert list(fused) == sorted(fused), ring.labels
                for z, n in fused.items():
                    assert type(n) is int and n > 0
                    table[x, y, z] = n
        assert np.array_equal(table, ring.N), ring.labels


def test_pf_dims_match_one_eigvals_call_per_label():
    # the batched eigenvalue call gives each label's leading eigenvalue to
    # the bit, as one call per fusion matrix did
    from conftest import table_docs
    from tubecat.catspec import load_spec
    for name, doc in table_docs().items():
        ring = load_spec(doc).ring
        want = []
        for x in range(ring.rank):
            evals = np.linalg.eigvals(ring.N[x].astype(np.float64))
            want.append(evals[np.argmax(evals.real)].real)
        assert compute_fp_dims(ring).d.tobytes() == np.array(want).tobytes(), name


def test_pf_refusals_name_the_first_label():
    # unvalidated rings: b's leading eigenvalue is ±i and c's fusion matrix
    # is zero, so d[c] = 0 < 1; whichever label comes first is named
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = np.eye(3, dtype=np.int64)
    N[1] = [[0, -1, 0], [1, 0, 0], [0, 0, -5]]
    ring = FusionRing(labels=("a", "b", "c"), unit=0, dual=(0, 1, 2), N=N)
    with pytest.raises(ConsistencyError, match=r"^leading eigenvalue of N_b is not real: "):
        compute_fp_dims(ring)
    swapped = FusionRing(labels=("a", "b", "c"), unit=0, dual=(0, 1, 2), N=N[[0, 2, 1]])
    with pytest.raises(ConsistencyError, match=r"^d\[b\] = 0\.0 < 1$"):
        compute_fp_dims(swapped)
