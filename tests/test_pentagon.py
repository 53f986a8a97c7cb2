"""Pentagon sweeps on the catalog plus gauge-invariance of the checker."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubecat.catalog import find
from tubecat.fsymbols import FSymbolTable
from tubecat.pentagon import pentagon_residual, verify_pentagon


def test_catalog_pentagon_tight(catalog):
    for spec in catalog.values():
        rep = verify_pentagon(spec, tol=1e-12)
        assert rep.ok, (spec.name, rep.max_residual)


def test_rank_one_residual_exactly_zero(catalog):
    res, _ = pentagon_residual(catalog["vec"].fsymbols)
    assert res == 0.0


def test_report_shape(catalog):
    rep = verify_pentagon(catalog["ising"], tol=1e-10)
    doc = rep.as_dict()
    assert doc["suite"] == "pentagon"
    assert doc["pass"] is True
    assert len(doc["cases"]) == 3 ** 4
    assert set(doc["cases"][0]) == {"labels", "residual", "pass"}


def test_broken_table_located(catalog):
    spec = catalog["fibonacci"]
    blocks = {k: v.copy() for k, v in spec.fsymbols._blocks.items()}
    blocks[(1, 1, 1, 1)][0, 1] *= np.exp(0.01j)
    res, word = pentagon_residual(FSymbolTable(spec.ring, blocks))
    assert res > 1e-4
    assert word == (1, 1, 1, 1)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_gauge_orbit_keeps_pentagon(seed):
    """Rephasing every non-unit vertex is a gauge move; residual must stay 0.

    The gauge acts on a vertex (a,b)->e by a phase u[a,b,e], and on the block
    F[a,b,c,d][(e),(f)] by u[a,b,e] u[e,c,d] conj(u[b,c,f] u[a,f,d]).
    """
    spec = find("ising")
    ring = spec.ring
    rng = np.random.default_rng(seed)
    u = np.exp(2j * np.pi * rng.random((ring.rank,) * 3))
    unit = ring.unit
    for a in range(ring.rank):
        for b in range(ring.rank):
            u[unit, a, b] = u[a, unit, b] = 1.0
    blocks = {}
    for (a, b, c, d), mat in spec.fsymbols._blocks.items():
        mat = mat.copy()
        rows = spec.fsymbols.rows(a, b, c, d)
        cols = spec.fsymbols.cols(a, b, c, d)
        for i, (e, _, _) in enumerate(rows):
            mat[i, :] *= u[a, b, e] * u[e, c, d]
        for j, (f, _, _) in enumerate(cols):
            mat[:, j] *= np.conj(u[b, c, f] * u[a, f, d])
        blocks[(a, b, c, d)] = mat
    table = FSymbolTable(ring, blocks)
    res, _ = pentagon_residual(table)
    assert res < 1e-12
    assert table.check_unitary(1e-12) < 1e-12


def _per_root_cases(F):
    """Every root of every word tried in turn: trees enumerated from N for
    each root, roots without trees skipped."""
    from oracles import basis_T4, route_via_middle, route_via_pair
    ring = F.ring
    rank, N = ring.rank, ring.N
    out = []
    for word in itertools.product(range(rank), repeat=4):
        a, b, c, d = word
        gaps = []
        for root in range(rank):
            src = [(e1, m1, e2, m2, m3)
                   for e1 in range(rank) for m1 in range(int(N[a, b, e1]))
                   for e2 in range(rank) for m2 in range(int(N[e1, c, e2]))
                   for m3 in range(int(N[e2, d, root]))]
            if not src:
                continue
            dst = basis_T4(ring, a, b, c, d, root)
            gap = np.abs(route_via_pair(F, a, b, c, d, root, src, dst)
                         - route_via_middle(F, a, b, c, d, root, src, dst))
            gaps.append(float(np.max(gap)))
        out.append((word, max(gaps)))
    return out


@pytest.mark.parametrize("name", ["vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                                  "fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_cases_visit_admissible_roots_only(catalog, name):
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    from tubecat.pentagon import iter_pentagon_cases
    spec = (load_spec(pointed_category(4, k=1)) if name == "Z/4 k=1"
            else catalog[name])
    assert list(iter_pentagon_cases(spec.fsymbols)) == _per_root_cases(spec.fsymbols)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pointed_cases_match_loop(n):
    """The joins form and sum each tree's terms in the loop's order, with an
    unfused complex product, so the residuals agree to the bit."""
    import oracles
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    from tubecat.pentagon import iter_pentagon_cases
    F = load_spec(pointed_category(n, k=1)).fsymbols
    assert list(iter_pentagon_cases(F)) == list(oracles.pentagon_cases(F))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cases_match_loop_with_multiplicity(seed):
    """Random unitary blocks on Rep(A4)'s ring, where N[3,3,3] = 2: no
    pentagon holds, and every multiplicity index of both routes is used."""
    import oracles
    from conftest import rep_a4_random_table
    from tubecat.pentagon import iter_pentagon_cases
    F = rep_a4_random_table(seed)
    got, want = list(iter_pentagon_cases(F)), list(oracles.pentagon_cases(F))
    assert [w for w, _ in got] == [w for w, _ in want]
    assert np.allclose([r for _, r in got], [r for _, r in want], rtol=0, atol=1e-14)
    assert max(r for _, r in got) > 1.0
    assert pentagon_residual(F) == oracles.pentagon_residual(F)


@pytest.mark.parametrize("key", [(3, 3, 3, 3), (3, 1, 3, 2), (1, 2, 3, 3)])
def test_nan_word_matches_loop(key):
    import oracles
    from conftest import rep_a4_random_blocks
    ring, blocks = rep_a4_random_blocks(3)
    blocks[key][-1, 0] = np.nan
    F = FSymbolTable(ring, blocks)
    res, word = pentagon_residual(F)
    assert res != res
    want = oracles.pentagon_residual(F)
    assert want[0] != want[0] and word == want[1]


def test_residuals_are_computed_once_per_table(monkeypatch):
    # load_spec's gate and the pentagon suite read one per-word array, kept
    # with the read-only table; a new table computes its own
    import tubecat.pentagon
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    real, calls = tubecat.pentagon._word_residuals, []
    monkeypatch.setattr(tubecat.pentagon, "_word_residuals",
                        lambda F: calls.append(F) or real(F))
    spec = load_spec(pointed_category(3, k=1))
    rep = verify_pentagon(spec)
    pentagon_residual(spec.fsymbols)
    assert rep.ok and calls == [spec.fsymbols]
    fresh = real(spec.fsymbols)
    assert [c["residual"] for c in rep.as_dict()["cases"]] == fresh.tolist()
    again = load_spec(pointed_category(3, k=1))
    assert len(calls) == 2 and calls[1] is again.fsymbols
