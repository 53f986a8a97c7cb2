"""Block decomposition and center-object extraction.

Block sizes and twists are frozen from independent sources: the doubles of
Z/2, Z/3 and S3 admit a complete hand calculation (sectors are labeled by a
conjugacy class with a character of its centralizer; the twist is the
character value at the class), and the doubled Fibonacci / Ising data is
the standard anyon tables.  Underlying objects follow from decomposing the
class functions into irreducibles, e.g. functions on the transpositions of
S3 carry triv ⊕ std.  Everything here is seeded; two runs at the same seed
must agree byte for byte.
"""
import cmath
import math

import numpy as np
import pytest

import tubecat.center
from tubecat.center import (center_report, decompose_blocks,
                            extract_center_simples)
from tubecat.errors import DegenerateSpectrum, ToleranceError
from tubecat.jsonutil import dumps_canonical
from tubecat.sums import SumObject
from tubecat.tube import LambdaObject, build_delta, build_tube_algebra
from oracles import blocks_element, braiding_blocks

BLOCK_SIZES = {
    "vec": (1,),
    "vec_z2": (1, 1, 1, 1),
    "vec_z2_twisted": (1, 1, 1, 1),
    "vec_z3": (1,) * 9,
    "fibonacci": (1, 1, 1, 2),
    "ising": (1, 1, 1, 1, 1, 1, 1, 1, 2),
    "rep_s3": (1, 1, 1, 1, 1, 2, 2, 2),
}

W3 = cmath.exp(2j * math.pi / 3)
FIB = cmath.exp(4j * math.pi / 5)

# multisets of twists, rounded to 6 places for comparison
TWISTS = {
    "vec": [1],
    "vec_z2": [1, 1, 1, -1],
    "vec_z2_twisted": [1, 1, 1j, -1j],
    "vec_z3": [1] * 5 + [W3, W3, W3.conjugate(), W3.conjugate()],
    "fibonacci": [1, 1, FIB, FIB.conjugate()],
    "rep_s3": [1, 1, 1, 1, 1, -1, W3, W3.conjugate()],
}


def twist_key(t):
    return (round(t.real, 6), round(t.imag, 6))


@pytest.fixture(scope="module")
def reports(catalog):
    return {name: center_report(spec, seed=1) for name, spec in catalog.items()}


def test_frozen_block_sizes(reports):
    for name, expect in BLOCK_SIZES.items():
        got = tuple(sorted(b["size"] for b in reports[name]["blocks"]))
        assert got == tuple(sorted(expect)), name
        assert reports[name]["rank"] == len(expect), name


def test_frozen_twists(reports):
    for name, expect in TWISTS.items():
        got = sorted(twist_key(complex(*b["twist"]))
                     for b in reports[name]["blocks"])
        want = sorted(twist_key(complex(t)) for t in expect)
        assert got == want, name


def test_all_reports_pass(reports):
    for name, rep in reports.items():
        assert rep["pass"], name
        assert rep["tube_dim"] == sum(b["size"] ** 2 for b in rep["blocks"]), name


def test_toric_code_sectors(reports):
    rep = reports["vec_z2"]
    unders = sorted(tuple(sorted(b["underlying"].items())) for b in rep["blocks"])
    assert unders == [(("0", 1),), (("0", 1),), (("1", 1),), (("1", 1),)]
    # the fermion: twist -1 rides on a g-graded sector
    eps = [b for b in rep["blocks"] if abs(complex(*b["twist"]) + 1) < 1e-9]
    assert len(eps) == 1 and eps[0]["underlying"] == {"1": 1}


def test_fibonacci_underlying(reports):
    rep = reports["fibonacci"]
    unders = sorted(tuple(sorted(b["underlying"].items())) for b in rep["blocks"])
    assert unders == [
        (("1", 1),), (("1", 1), ("tau", 1)), (("tau", 1),), (("tau", 1),)]
    # the doubled block carries both labels and trivial twist
    big = [b for b in rep["blocks"] if b["size"] == 2]
    assert big[0]["underlying"] == {"1": 1, "tau": 1}
    assert abs(complex(*big[0]["twist"]) - 1) < 1e-9


def test_rep_s3_underlying_multiset(reports):
    rep = reports["rep_s3"]
    unders = sorted(tuple(sorted(b["underlying"].items())) for b in rep["blocks"])
    assert unders == sorted([
        (("triv", 1),), (("sgn", 1),),
        (("std", 1),), (("std", 1),), (("std", 1),),
        (("sgn", 1), ("triv", 1)),
        (("std", 1), ("triv", 1)),
        (("sgn", 1), ("std", 1)),
    ])


def test_squared_dims_fill_global_dim(catalog, reports):
    for name, rep in reports.items():
        spec = catalog[name]
        d = {lab: float(v) for lab, v in zip(spec.labels, spec.dims.d)}
        total = sum(sum(m * d[lab] for lab, m in b["underlying"].items()) ** 2
                    for b in rep["blocks"])
        assert abs(total - spec.dims.global_dim ** 2) < 1e-6, name


def test_hexagon_residuals_reported_small(reports):
    for name, rep in reports.items():
        for b in rep["blocks"]:
            assert b["hexagon_residual"] < 1e-8, name


def test_summand_content_accounts_for_delta(catalog):
    # sum over blocks of size * multiplicity must reproduce hom(x, Δ)
    for name in ("fibonacci", "ising"):
        spec = catalog[name]
        lam = LambdaObject.all_simples(spec)
        A = build_tube_algebra(spec, lam)
        D = build_delta(spec, lam)
        dec = decompose_blocks(A, seed=1)
        simples = extract_center_simples(A, D, dec)
        eng = A.engine
        for x in range(spec.ring.rank):
            want = sum(eng.hom_dim((x,), w) for w in D.obj.summands)
            got = sum(n * s.underlying.get(spec.labels[x], 0)
                      for n, s in zip(dec.sizes, simples))
            assert got == want, (name, spec.labels[x])


def test_idempotents_orthogonal_resolution(catalog):
    spec = catalog["ising"]
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    dec = decompose_blocks(A, seed=1)
    from tubecat.tube import tube_product, tube_star
    idempotents = [A.element(v) for v in dec.vectors]
    total = None
    for i, p in enumerate(idempotents):
        assert (tube_product(A, p, p) - p).norm() < 1e-10
        assert (tube_star(A, p) - p).norm() < 1e-10
        for q in idempotents[i + 1:]:
            assert tube_product(A, p, q).norm() < 1e-8
        total = p if total is None else total + p
    assert (total - A.unit).norm() < 1e-8


def test_idempotent_system_fold_keeps_nan(catalog, monkeypatch):
    # a NaN in the self-adjointness defect of the last block's idempotent
    # must not be folded away behind the finite defects measured before it,
    # and no seed mends a non-finite defect
    spec = catalog["ising"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    real_projection, real_star = (tubecat.center._projection_from,
                                  tubecat.center._star)
    made = []

    def projection(A, w):
        made.append(real_projection(A, w))
        return made[-1]

    def star(A, v):
        last = len(made) == len(BLOCK_SIZES["ising"])
        if last and v is made[-1]:
            return v * np.nan
        return real_star(A, v)

    monkeypatch.setattr(tubecat.center, "_projection_from", projection)
    monkeypatch.setattr(tubecat.center, "_star", star)
    with pytest.raises(ToleranceError, match="decompose_blocks: .*defect nan"):
        decompose_blocks(A, seed=1)


def test_finite_split_defect_asks_for_another_seed(catalog, monkeypatch):
    # a finite draw that fails the verified defects is the one refusal a
    # new seed can mend
    spec = catalog["ising"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    real = tubecat.center._projection_from
    monkeypatch.setattr(tubecat.center, "_projection_from",
                        lambda A, w: 2.0 * real(A, w))
    with pytest.raises(DegenerateSpectrum,
                       match="decompose_blocks: .*; try another seed"):
        decompose_blocks(A, seed=1)


def test_refinement_names_a_non_finite_defect(catalog, monkeypatch):
    spec = catalog["fibonacci"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    dec = decompose_blocks(A, seed=1)
    k = dec.sizes.index(2)
    monkeypatch.setattr(tubecat.center, "_projection_from",
                        lambda A, w: w * np.nan)
    with pytest.raises(ToleranceError, match=f"block {k} refinement: .*defect nan"):
        tubecat.center._refine_minimal(A, dec.vectors[k], 2, dec.seed, k)


def test_refined_idempotent_is_subordinate(catalog):
    # each size-n block (fibonacci: one, ising: one, rep_s3: three) refines
    # to a projector q ≤ p with trace(L_q) = n, i.e. rank one in M_n
    from tubecat.tube import tube_product, tube_star
    refined = 0
    for name in ("fibonacci", "ising", "rep_s3"):
        spec = catalog[name]
        lam = LambdaObject.all_simples(spec)
        A = build_tube_algebra(spec, lam)
        D = build_delta(spec, lam)
        dec = decompose_blocks(A, seed=1)
        simples = extract_center_simples(A, D, dec)
        for k, (n, s) in enumerate(zip(dec.sizes, simples)):
            p, q = A.element(dec.vectors[k]), A.element(s.vector)
            assert (tube_product(A, p, q) - q).norm() < 1e-9, (name, k)
            assert (tube_product(A, q, p) - q).norm() < 1e-9, (name, k)
            if n == 1:
                assert (q - p).norm() < 1e-10, (name, k)
                continue
            refined += 1
            assert (tube_product(A, q, q) - q).norm() < 1e-9, (name, k)
            assert (tube_star(A, q) - q).norm() < 1e-9, (name, k)
            weight = np.einsum("m,mjj->", q.vector, A.mult_table)
            assert abs(weight - n) < 1e-9, (name, k, weight)
    assert refined == 5


def test_same_seed_byte_identical(catalog):
    a = dumps_canonical(center_report(catalog["fibonacci"], seed=7))
    b = dumps_canonical(center_report(catalog["fibonacci"], seed=7))
    assert a == b


def test_sorted_sizes_seed_invariant(catalog):
    for name in ("vec_z2_twisted", "fibonacci", "ising"):
        spec = catalog[name]
        runs = [center_report(spec, seed=s) for s in (1, 2)]
        sized = [sorted(b["size"] for b in r["blocks"]) for r in runs]
        assert sized[0] == sized[1], name
        tw = [sorted(twist_key(complex(*b["twist"])) for b in r["blocks"])
              for r in runs]
        assert tw[0] == tw[1], name


def test_partial_lambda_sees_partial_center(catalog):
    # Λ = tau alone: the vacuum block has no tau summand and drops out
    spec = catalog["fibonacci"]
    lam = LambdaObject.from_mapping(spec, {"tau": 1})
    rep = center_report(spec, lam=lam, seed=1)
    assert rep["tube_dim"] == 3
    assert rep["rank"] == 3
    assert sorted(b["size"] for b in rep["blocks"]) == [1, 1, 1]
    got = sorted(twist_key(complex(*b["twist"])) for b in rep["blocks"])
    assert got == sorted(twist_key(t) for t in (1, FIB, FIB.conjugate()))
    assert rep["pass"]  # dimension completeness check is not applicable here


def group_category(name: str, elements: list, unit) -> dict:
    """Category-JSON dict for Vec_G with trivial ω, from the multiplication
    of the group elements (Python objects with ``*`` and ``**-1``), labeled
    by position; F = 1 on every triple without the unit."""
    labels = [str(i) for i in range(len(elements))]
    at = {g: i for i, g in enumerate(elements)}
    lab = lambda g: labels[at[g]]
    doc = {"name": name, "labels": labels, "unit": lab(unit),
           "dual": {lab(g): lab(g ** -1) for g in elements},
           "N": [[lab(g), lab(h), lab(g * h), 1] for g in elements for h in elements],
           "convention": "isometry", "F": []}
    for a in elements:
        for b in elements:
            for c in elements:
                if unit not in (a, b, c):
                    doc["F"].append({"abcd": [lab(a), lab(b), lab(c), lab(a * b * c)],
                                     "e": lab(a * b), "f": lab(b * c), "re": 1.0, "im": 0.0})
    return doc


class Perm(tuple):
    """A permutation of range(n) as the tuple of images; p * q = p ∘ q."""

    def __mul__(self, other):
        return Perm(self[i] for i in other)

    def __pow__(self, k):
        assert k == -1
        out = [0] * len(self)
        for i, j in enumerate(self):
            out[j] = i
        return Perm(out)


def _dims_and_twists(spec, report):
    d = dict(zip(spec.labels, spec.dims.d))
    return sorted((round(sum(m * d[x] for x, m in b["underlying"].items()), 6),
                   round(b["twist"][0], 6) + 0.0, round(b["twist"][1], 6) + 0.0)
                  for b in report["blocks"])


def test_vec_s3_is_morita_equivalent_to_rep_s3(catalog, reports):
    # Z(Vec_S3) ≅ Z(Rep S3) = D(S3): Vec_S3, built here from the S3
    # multiplication table, has the same center as the shipped rep_s3, seen
    # through the multiset of (d_X, θ_X)
    import itertools
    from tubecat.catspec import load_spec
    s3 = [Perm(p) for p in itertools.permutations(range(3))]
    spec = load_spec(group_category("Vec_S3", s3, Perm(range(3))))
    report = center_report(spec, seed=1)
    assert (report["tube_dim"], report["rank"], report["pass"]) == (36, 8, True)
    assert _dims_and_twists(spec, report) == _dims_and_twists(catalog["rep_s3"],
                                                              reports["rep_s3"])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_su2k_center_is_the_doubled_theory(k):
    # Z(SU(2)_k) ≃ SU(2)_k ⊠ its reverse: (k+1)² simples with twists
    # θ_i·conj(θ_j), θ_j = exp(2πi·j(j+2)/(4(k+2))) on labels j = 2·spin; the
    # first non-pointed family that grows, with non-integer dimensions
    from conftest import su2k_category
    from tubecat.catspec import load_spec
    rep = center_report(load_spec(su2k_category(k)))
    assert rep["pass"] and rep["rank"] == (k + 1) ** 2
    theta = [cmath.exp(2j * math.pi * j * (j + 2) / (4 * (k + 2))) for j in range(k + 1)]
    want = [a * b.conjugate() for a in theta for b in theta]
    for b in rep["blocks"]:
        got = complex(*b["twist"])
        at = min(range(len(want)), key=lambda i: abs(want[i] - got))
        assert abs(want.pop(at) - got) < 1e-9, (k, got)


def test_trivial_category_center(catalog, reports):
    rep = reports["vec"]
    assert rep["rank"] == 1
    assert rep["blocks"][0]["underlying"] == {"1": 1}
    assert abs(complex(*rep["blocks"][0]["twist"]) - 1) < 1e-12


def test_report_schema(reports):
    for rep in reports.values():
        assert set(rep) == {"category", "lambda", "tube_dim", "rank",
                            "blocks", "seed", "pass"}
        for b in rep["blocks"]:
            assert set(b) == {"size", "underlying", "twist", "hexagon_residual"}


def test_center_nullspace_svd_is_thin():
    # the full SVD of the dim²×dim commutator stack allocated a dim²×dim²
    # complex U and dropped it; only the singular values and V are used
    import tracemalloc
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    spec = load_spec(pointed_category(5, k=1))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    full_u = (A.dim * A.dim) ** 2 * 16
    tracemalloc.start()
    try:
        decompose_blocks(A, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_u, (peak, full_u)


def test_a_degenerate_draw_fails_the_centrality_check(catalog, monkeypatch):
    # x and y multiples of the unit commute with everything, so their
    # commutant is all of A, not its center: the check of every found
    # vector against every basis element refuses it as a bad draw
    from tubecat.tube import TubeAlgebra
    spec = catalog["rep_s3"]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    scale = iter((2.0, -0.5j))
    monkeypatch.setattr(TubeAlgebra, "random_element", lambda self, rng: self.unit * next(scale))
    with pytest.raises(DegenerateSpectrum,
                       match="decompose_blocks: centrality defect .*; try another seed"):
        decompose_blocks(A, seed=1)


@pytest.mark.parametrize("name", ["fibonacci", "rep_s3"])
def test_a_non_central_vector_fails_the_centrality_check(catalog, name, monkeypatch):
    # one vector of the found center basis swapped for a basis element
    # from slot l to slot m ≠ l, which the unit's summand at slot l fixes
    # on one side and kills on the other, so it is not central
    spec = catalog[name]
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    k = next(span.start for (_a, m, l), span in A.spans.items()
             if m != l and span.stop > span.start)
    real = tubecat.center._commutant

    def slipped(A, x, y):
        V = real(A, x, y)
        V[:, -1] = np.eye(A.dim)[k]
        return V

    monkeypatch.setattr(tubecat.center, "_commutant", slipped)
    with pytest.raises(DegenerateSpectrum, match="decompose_blocks: centrality defect"):
        decompose_blocks(A, seed=1)


def test_block_split_holds_no_dense_table():
    # Vec[Z/12]^ω, tube dim 144: the build and the block split peak under
    # 16 MiB (about 4.5 here), where the dense dim³ table alone held 47.8
    import tracemalloc
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    spec = load_spec(pointed_category(12, k=1))
    lam = LambdaObject.all_simples(spec)
    tracemalloc.start()
    try:
        A = build_tube_algebra(spec, lam)
        dec = decompose_blocks(A, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (A.dim, dec.rank) == (144, 144)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


# ---- Vec[Z/n]^ω past rank 36: the twisted double D^ω(Z/n) ----------------------

def _twisted_double_twists(n, k):
    return [cmath.exp(2j * math.pi * (a * q / n + k * a * a / (n * n)))
            for a in range(n) for q in range(n)]


def _same_multiset(got, want, tol=1e-9):
    left = list(got)
    for t in want:
        i = min(range(len(left)), key=lambda i: abs(left[i] - t))
        if abs(left[i] - t) > tol:
            return False
        left.pop(i)
    return not left


@pytest.fixture(scope="module")
def pointed_level1():
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    return {n: load_spec(pointed_category(n, k=1)) for n in (6, 7)}


@pytest.mark.parametrize("n", [6, 7])
def test_pointed_center_matches_twisted_double(pointed_level1, n):
    rep = center_report(pointed_level1[n], seed=1)
    assert rep["rank"] == n * n
    assert rep["pass"]
    got = [complex(*b["twist"]) for b in rep["blocks"]]
    assert _same_multiset(got, _twisted_double_twists(n, 1))


@pytest.fixture(scope="module")
def z6_algebra(pointed_level1):
    spec = pointed_level1[6]
    return build_tube_algebra(spec, LambdaObject.all_simples(spec))


@pytest.mark.parametrize("seed", [2, 3])
def test_pointed_blocks_split_on_other_seeds(z6_algebra, seed):
    A = z6_algebra
    dec = decompose_blocks(A, seed=seed)
    assert dec.rank == 36
    assert dec.sizes == (1,) * 36
    assert np.max(np.abs(sum(dec.vectors) - A.vector_of(A.unit))) < 1e-8


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "vec_z3", "Z/4", "Z/5 k=1"])
def test_block_order_is_the_same_on_every_seed(catalog, name):
    # the blocks come sorted by size, then by the idempotent's vector
    # rounded to 1e-9, not in the eigensolver's order, so every seed
    # numbers them alike: fibonacci's size-2 block sits last on seeds 1 and 2
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    spec = (catalog[name] if name in catalog
            else load_spec(pointed_category(int(name[2]), k=int(name[-1]) if "k=" in name else 0)))
    A = build_tube_algebra(spec, LambdaObject.all_simples(spec))
    first = decompose_blocks(A, seed=1)
    assert list(first.sizes) == sorted(first.sizes), name
    for seed in range(2, 6):
        dec = decompose_blocks(A, seed=seed)
        assert dec.sizes == first.sizes, (name, seed)
        gap = max(float(np.max(np.abs(p - q))) for p, q in zip(dec.vectors, first.vectors))
        assert gap < 1e-10, (name, seed, gap)


# ---- a second route to the twists: the Dehn twist τ of the annulus -------------

def _dehn_twist(A, power):
    """Σ_l d_{x_l}^power·e_l, with e_l the strand x_l wound once around the
    annulus: the tube element whose one block (x_l, l, l) is id_(x_l, x_l)."""
    eng = A.engine
    return blocks_element(A, {(x, l, l): eng.identity((x, x)) * eng.d[x] ** power
                              for l, (x, _c) in enumerate(A.slots)}).vector


@pytest.mark.parametrize("name, mapping", [
    *((name, None) for name in ("vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                                "fibonacci", "ising", "rep_s3")),
    ("Z/4", None), ("Z/5", None), ("Z/6", None),
    ("fibonacci", {"tau": 1}), ("fibonacci", {"tau": 2}), ("ising", {"sigma": 1}),
    ("SU(2)_2", None), ("SU(2)_3", None)])
def test_dehn_twist_is_the_twists_on_the_blocks(catalog, name, mapping):
    # τ = Σ_l d^(−1/2)·e_l is central, and on block X it is conj(θ_X): a
    # route to the twists that reads neither Δ, t_map nor extraction (Izumi,
    # CMP 213, 2000).  With the weight d^(−1), a category with a label of
    # d ≠ 1 misses by 0.13–0.21, so the check can fail.  SU(2)_k brings
    # dimensions that are not integers and blocks of size > 1 through the
    # extracted simples' hexagon legs
    from conftest import pointed_category, su2k_category
    from tubecat.catspec import load_spec
    spec = (load_spec(pointed_category(int(name[2:]), k=1)) if name.startswith("Z/")
            else load_spec(su2k_category(int(name[6:]))) if name.startswith("SU(2)_")
            else catalog[name])
    lam = (LambdaObject.all_simples(spec) if mapping is None
           else LambdaObject.from_mapping(spec, mapping))
    A = build_tube_algebra(spec, lam)
    dec = decompose_blocks(A, seed=1)
    thetas = tubecat.center.compute_twists(
        extract_center_simples(A, build_delta(spec, lam), dec))
    want = sum(np.conj(t) * p for t, p in zip(thetas, dec.vectors))
    c = A.mult_table
    tau = _dehn_twist(A, -0.5)
    assert np.max(np.abs(np.einsum("i,ijk->jk", tau, c)
                         - np.einsum("j,ijk->ik", tau, c))) <= 1e-12
    assert np.max(np.abs(tau - want)) <= 1e-12
    if mapping is None and name in ("fibonacci", "ising", "rep_s3"):
        assert np.max(np.abs(_dehn_twist(A, -1.0) - want)) >= 0.1


@pytest.fixture(scope="module")
def fibonacci_simples(catalog):
    spec = catalog["fibonacci"]
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    simples = extract_center_simples(A, build_delta(spec, lam), decompose_blocks(A, 1))
    tubecat.center.compute_twists(simples)
    return spec, lam, simples


def test_gauss_sum_sees_one_conjugated_twist(fibonacci_simples):
    spec, lam, simples = fibonacci_simples
    assert all(tubecat.center._soft_checks(spec, lam, simples).values())
    s = next(s for s in simples if abs(s.twist.imag) > 0.1)
    real = s.twist
    try:
        s.twist = real.conjugate()
        checks = tubecat.center._soft_checks(spec, lam, simples)
    finally:
        s.twist = real
    assert [k for k, ok in checks.items() if not ok] == ["gauss sum"]


def test_induction_sees_one_bumped_multiplicity(fibonacci_simples):
    spec, lam, simples = fibonacci_simples
    s = simples[-1]
    real = dict(s.underlying)
    try:
        s.underlying["tau"] = real.get("tau", 0) + 1
        checks = tubecat.center._soft_checks(spec, lam, simples)
    finally:
        s.underlying = real
    assert [k for k, ok in checks.items() if not ok] == ["induction"]


def test_report_pass_reads_the_soft_checks(catalog, monkeypatch):
    # a conjugated twist keeps |θ| = 1 and every printed dimension, so only
    # the Gauss sum can turn pass false
    real = tubecat.center.compute_twists

    def conjugate_last(simples):
        out = real(simples)
        s = max(simples, key=lambda s: s.twist.imag)
        s.twist = s.twist.conjugate()
        return out

    monkeypatch.setattr(tubecat.center, "compute_twists", conjugate_last)
    assert not center_report(catalog["fibonacci"], seed=1)["pass"]


def test_partial_lambda_skips_the_sums_over_all_simples(catalog):
    spec = catalog["ising"]
    lam = LambdaObject.from_mapping(spec, {"sigma": 1})
    A = build_tube_algebra(spec, lam)
    simples = extract_center_simples(A, build_delta(spec, lam), decompose_blocks(A, 1))
    tubecat.center.compute_twists(simples)
    assert tubecat.center._soft_checks(spec, lam, simples) == {"unit twists": True}


@pytest.mark.parametrize("name", ["ising", "rep_s3"])
def test_twists_make_no_lifts(name, monkeypatch):
    # compute_twists reads only the counts of each simple's one-letter
    # trees (OneLetter.left/right), so on a fresh extraction it makes no
    # lifts_of call; the compression onto ⊕X makes its lifts on first read,
    # and its braidings come out bit for bit as with lifts made eagerly
    import tubecat.sums
    from tubecat.catalog import find
    real, calls, init = tubecat.sums.lifts_of, [], tubecat.sums.OneLetter.__init__

    def made_eagerly(one, *args):  # the lifts made in the constructor
        init(one, *args)
        one.lifts

    def extract(eager):
        with monkeypatch.context() as m:
            if eager:
                m.setattr(tubecat.sums.OneLetter, "__init__", made_eagerly)
            spec = find(name)  # a fresh spec: a fresh engine and its cache
            lam = LambdaObject.all_simples(spec)
            A = build_tube_algebra(spec, lam)
            return extract_center_simples(A, build_delta(spec, lam), decompose_blocks(A, 1))

    eager = extract(True)
    monkeypatch.setattr(tubecat.sums, "lifts_of", lambda count: calls.append(1) or real(count))
    simples = extract(False)
    assert len(calls) == 2  # the left and right lifts of ⊕X, once
    tubecat.center.compute_twists(simples)
    assert len(calls) == 2
    assert all("lifts" not in vars(s.obj.one_letter()) for s in simples)
    for s, e in zip(simples, eager, strict=True):
        assert s.braiding.keys() == e.braiding.keys()
        for a, per_root in s.braiding.items():
            assert per_root.keys() == e.braiding[a].keys()
            assert all(np.array_equal(m, e.braiding[a][r]) for r, m in per_root.items())


def test_extraction_builds_no_hom_basis_into_delta(monkeypatch):
    # the isometries are read off the stacked coordinates of Hom(z, Δ), so
    # no basis of Hom(z, w) is built for a summand w of Δ, on any block
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    from tubecat.morphism import Engine
    spec = load_spec(pointed_category(6, k=1))
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    dec = decompose_blocks(A, seed=1)
    built = []
    real = Engine.hom_basis
    monkeypatch.setattr(Engine, "hom_basis",
                        lambda self, src, dst: built.append(tuple(dst))
                        or real(self, src, dst))
    simples = extract_center_simples(A, D, dec)
    assert len(simples) == 36
    assert not set(built) & set(D.obj.summands)


def _extract_with_isometries(spec, monkeypatch):
    # one extraction over all simples, recording each isometry V_z in the
    # order extraction makes them: simple by simple, roots ascending
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    made = []
    real = tubecat.center._polar
    monkeypatch.setattr(tubecat.center, "_polar",
                        lambda V: made.append(real(V)) or made[-1])
    simples = extract_center_simples(A, D, decompose_blocks(A, seed=1))
    return D, simples, iter(made)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3"])
def test_compressed_braiding_matches_per_summand(catalog, name, monkeypatch):
    # the stacked compression against (id_a ⊗ u_i†) ∘ e_a ∘ (u_j ⊗ id_a)
    # summed block by block over the pieces u_i[s] : X_i → Δ_s of V
    from oracles import per_summand_compression
    D, simples, isometries = _extract_with_isometries(catalog[name], monkeypatch)
    eng, obj = D.engine, D.obj
    first = obj.stacked().starts
    for s in simples:
        V = {}
        for z, _copy in s.obj.tags:
            if z not in V:
                V[z] = next(isometries)
        iso = {i: {j: eng.make((z,), w, {z: V[z][first[z][j]:first[z][j + 1], c:c + 1]})
                   for j, w in enumerate(obj.summands) if first[z][j + 1] > first[z][j]}
               for i, (z, c) in enumerate(s.obj.tags)}
        for a in range(spec_rank(D)):
            want = per_summand_compression(D, s.obj, iso, a).stacked(
                s.obj.stacked((), (a,)), s.obj.stacked((a,)))
            got = s.braiding[a]
            assert sorted(got) == sorted(want), (name, s.underlying, a)
            assert max(float(np.max(np.abs(got[r] - m), initial=0.0))
                       for r, m in want.items()) <= 1e-13, (name, s.underlying, a)
    assert next(isometries, None) is None


def test_compression_refuses_a_mismatched_isometry(catalog):
    # compress_halfbraiding checks V as naturality_residual checks T: a V_z
    # of the wrong shape, a V that lacks a root of X, and an X over another
    # category than Δ each raise ShapeError (numpy's ValueError, a braiding
    # read as if V were zero there, and ValueError before)
    from tubecat.errors import ShapeError
    spec = catalog["fibonacci"]
    lam = LambdaObject.all_simples(spec)
    D = build_delta(spec, lam)
    unit, tau = spec.ring.unit, spec.index("tau")
    X = SumObject(D.engine, [(unit,), (tau,)], [(unit, 0), (tau, 0)])
    n = D.obj.stacked().dims
    V = {z: np.eye(n[z], 1) for z in (unit, tau)}
    assert sorted(tubecat.center.compress_halfbraiding(D, X, V)) == list(range(spec.rank))
    other = build_delta(catalog["vec_z2"], LambdaObject.all_simples(catalog["vec_z2"]))
    for delta, iso in ((D, {**V, tau: np.eye(n[tau], 2)}), (D, {unit: V[unit]}),
                       (D, {**V, unit: V[unit][:-1]}), (other, V)):
        with pytest.raises(ShapeError):
            tubecat.center.compress_halfbraiding(delta, X, iso)


def spec_rank(D):
    return D.spec.rank


def _conjugate_one_block(X, e, letter):
    """e with one complex block of e[letter] (braiding_blocks, the lowest
    key whose imaginary part exceeds 0.1) conjugated."""
    m = braiding_blocks(X, {letter: e[letter]})[letter]
    key = min(k for k, b in m.blocks.items()
              if max(np.abs(v.imag).max() for v in b.blocks.values()) > 0.1)
    blocks = dict(m.blocks)
    b = blocks[key]
    blocks[key] = b.engine.make(b.src, b.dst, {z: v.conj() for z, v in b.blocks.items()})
    return {**e, letter: type(m)(m.src, m.dst, blocks).stacked(
        X.stacked((), (letter,)), X.stacked((letter,)))}


def test_extraction_names_a_conjugated_block(catalog, monkeypatch):
    # one complex block of the two-summand simple's e_τ conjugated after
    # compression (conjugating all of a one-summand simple's e_τ gives the
    # other chirality, a genuine half-braiding): the checks on the stored
    # e_X must see it and name the simple's block
    spec = catalog["fibonacci"]
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    dec = decompose_blocks(A, seed=1)
    tau = spec.index("tau")
    k = dec.sizes.index(2)  # the two-summand simple's block
    made = _corrupt_simple(monkeypatch, k, lambda X, e: _conjugate_one_block(X, e, tau))
    with pytest.raises(ToleranceError, match=rf"^block {k}: half-braiding unitarity "
                       r"defect \S+ >= 1e-08 on the extracted simple$") as err:
        extract_center_simples(A, D, dec)
    # Δ's braiding is compressed once, onto the sum of every block's
    # simple, before the one check on that sum
    assert len(made) == 1, err.value
    assert [len(X) for X in made[0]] == list(dec.sizes)
    assert sorted(dec.sizes, reverse=True) == [2, 1, 1, 1]


def test_extraction_and_round_trips_tensor_no_block_map(catalog):
    # compression, the simples' hexagons and the naturality check of f_map
    # all run on stacked per-root matrices, and the library keeps no block
    # map to tensor (the block-by-block versions are the oracles in
    # tests/oracles.py)
    import tubecat.sums
    from tubecat.tube import f_map, t_map
    assert not hasattr(tubecat.sums, "BlockMorphism")
    spec = catalog["rep_s3"]
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    assert len(extract_center_simples(A, D, decompose_blocks(A, seed=1))) == 8
    rng = np.random.default_rng(20)
    for _ in range(2):
        f = A.random_element(rng)
        assert (f_map(A, D, t_map(A, D, f)) - f).norm() < 1e-9 * f.norm()


def _z4(k=1):
    from conftest import pointed_category
    from tubecat.catspec import load_spec
    return load_spec(pointed_category(4, k=k))


def _extraction(spec, seed=1):
    lam = LambdaObject.all_simples(spec)
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    return A, D, decompose_blocks(A, seed)


@pytest.mark.parametrize("name", ["vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                                  "fibonacci", "ising", "rep_s3", "Z/4 k=1"])
def test_sum_check_matches_each_simple_alone(catalog, name):
    # the per-part residuals of the one check on ⊕X against verify_halfbraiding
    # run on each simple by itself
    from tubecat.tube import verify_halfbraiding
    spec = _z4() if name == "Z/4 k=1" else catalog[name]
    simples = extract_center_simples(*_extraction(spec))
    for s in simples:
        alone = verify_halfbraiding(s.obj, s.braiding, 1e-8)
        assert len(alone) == 1, name
        assert abs(alone[0]["hexagon"] - s.hexagon_defect) <= 1e-15, (name, s.underlying)
        assert abs(max(alone[0]["unitarity"], alone[0]["unit"])
                   - s.unitarity_defect) <= 1e-15, (name, s.underlying)


def _corrupt_simple(monkeypatch, k, change):
    # change(X, e_X) for the k-th simple X, aimed at its diagonal blocks of
    # the one braiding compressed onto ⊕X (tags (simple, tag)); returns, per
    # compression, the summands of each simple in ⊕X
    real = tubecat.center.compress_halfbraiding
    made = []

    def corrupted(delta, total, V):
        out = real(delta, total, V)
        at = [[n for n, (simple, _t) in enumerate(total.tags) if simple == j]
              for j in range(total.tags[-1][0] + 1)]
        made.append(at)
        X = SumObject(total.engine, [total.summands[n] for n in at[k]],
                      [total.tags[n][1] for n in at[k]])
        p, q = at[k][0], at[k][-1] + 1
        cut = {}
        for a, per_root in out.items():
            rows, cols = total.stacked((a,)).starts, total.stacked((), (a,)).starts
            cut[a] = {r: (slice(rows[r][p], rows[r][q]), slice(cols[r][p], cols[r][q]))
                      for r in per_root if rows[r][q] > rows[r][p]}
        changed = change(X, {a: {r: out[a][r][blk] for r, blk in c.items()}
                             for a, c in cut.items()})
        for a, c in cut.items():
            for r, blk in c.items():
                out[a][r][blk] = changed[a][r]
        return out

    monkeypatch.setattr(tubecat.center, "compress_halfbraiding", corrupted)
    return made


def _negate_one_block(X, e, letter):
    """e with the lowest-key block of e[letter] (braiding_blocks) negated."""
    m = braiding_blocks(X, {letter: e[letter]})[letter]
    blocks = dict(m.blocks)
    key = min(blocks)
    blocks[key] = blocks[key] * -1.0
    return {**e, letter: type(m)(m.src, m.dst, blocks).stacked(
        X.stacked((), (letter,)), X.stacked((letter,)))}


def test_extraction_names_the_last_simple(monkeypatch):
    # one block of e_1 negated in the last simple, on Vec[Z/4]^ω
    # (its braiding is real, so conjugating a block would not change it):
    # only that block fails, and the error names it
    A, D, dec = _extraction(_z4())
    r = dec.rank
    _corrupt_simple(monkeypatch, r - 1, lambda X, e: _negate_one_block(X, e, 1))
    with pytest.raises(ToleranceError, match=rf"^block {r - 1}: \S+ .*defect \S+ >= 1e-08 "
                       r"at \(a, b\) = \(\S+, \S+\) on the extracted simple$") as err:
        extract_center_simples(A, D, dec)
    per_part = err.value.__cause__.residuals
    assert all(max(p.values()) < 1e-12 for p in per_part[:-1])
    assert err.value.__cause__.part == r - 1


def test_nan_in_one_simple_stays_in_its_part(catalog, monkeypatch):
    # NaN on every block of one simple's e_τ (fibonacci, the second
    # simple): its unitarity and hexagon residuals read NaN, its unit
    # residual and every other simple's residuals stay finite and small, and
    # the error names that simple's block
    def poisoned(X, e):
        tau = 1
        m = braiding_blocks(X, {tau: e[tau]})[tau]
        nan = type(m)(m.src, m.dst, {k: b * np.nan for k, b in m.blocks.items()})
        return {**e, tau: nan.stacked(X.stacked((), (tau,)), X.stacked((tau,)))}

    A, D, dec = _extraction(catalog["fibonacci"])
    _corrupt_simple(monkeypatch, 1, poisoned)
    with pytest.raises(ToleranceError, match=r"^block 1: half-braiding unitarity "
                       r"defect nan >= 1e-08 on the extracted simple$") as err:
        extract_center_simples(A, D, dec)
    per_part = err.value.__cause__.residuals
    assert len(per_part) == dec.rank
    assert np.isnan(per_part[1]["unitarity"]) and np.isnan(per_part[1]["hexagon"])
    assert per_part[1]["unit"] < 1e-12
    for k, p in enumerate(per_part):
        if k != 1:
            assert all(v < 1e-12 for v in p.values()), (k, p)


def test_verifier_leaves_the_checked_braiding_unchanged(catalog, monkeypatch):
    # the two simples over Λ = 1 of fibonacci, summed as extraction sums
    # them, with a NaN on one entry of the second's e_τ: that part reads NaN
    # and the first stays clean, and the caller's dicts and matrices are as
    # they were (the verifier zeroes the NaN in a copy of its own); the
    # unitarity residuals, folded once per letter and side, are bit for bit
    # those of the per-root loop
    from oracles import unitarity_loop
    from tubecat.tube import verify_halfbraiding
    spec = catalog["fibonacci"]
    lam = LambdaObject.from_mapping(spec, {"1": 1})
    A, D = build_tube_algebra(spec, lam), build_delta(spec, lam)
    seen = []
    monkeypatch.setattr(tubecat.center, "verify_halfbraiding",
                        lambda obj, braiding, tol, parts: seen.append((obj, braiding, parts))
                        or verify_halfbraiding(obj, braiding, tol, parts=parts))
    extract_center_simples(A, D, decompose_blocks(A, seed=1))
    (obj, braiding, parts), = seen
    assert len(parts) == 2
    tau, p = spec.index("tau"), parts[1]
    rows, cols = obj.stacked((tau,)).starts, obj.stacked((), (tau,)).starts
    r = next(r for r in braiding[tau] if rows[r][p] < rows[r][-1] and cols[r][p] < cols[r][-1])
    braiding[tau][r][rows[r][p], cols[r][p]] = np.nan
    before = {a: dict(e) for a, e in braiding.items()}
    copies = {a: {r: m.copy() for r, m in e.items()} for a, e in braiding.items()}
    with pytest.raises(ToleranceError, match="^half-braiding unitarity defect nan") as err:
        verify_halfbraiding(obj, braiding, 1e-8, parts=parts)
    res = err.value.residuals
    assert err.value.part == 1
    assert np.isnan(res[1]["unitarity"]) and np.isnan(res[1]["hexagon"])
    assert all(v < 1e-12 for v in res[0].values()), res[0]
    assert np.array_equal([p["unitarity"] for p in res], unitarity_loop(obj, braiding, parts),
                          equal_nan=True)
    for a, e in braiding.items():
        assert e.keys() == before[a].keys()
        assert all(m is before[a][r] and np.array_equal(m, copies[a][r], equal_nan=True)
                   for r, m in e.items()), a


@pytest.mark.parametrize("name", ["fibonacci", "rep_s3", "Z/4 k=1"])
def test_one_check_per_extraction(catalog, name, monkeypatch):
    # every simple of an extraction is checked by one verify_halfbraiding
    # call on their direct sum, one part per simple
    spec = _z4() if name == "Z/4 k=1" else catalog[name]
    A, D, dec = _extraction(spec)
    real = tubecat.center.verify_halfbraiding
    calls = []
    monkeypatch.setattr(tubecat.center, "verify_halfbraiding",
                        lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    simples = extract_center_simples(A, D, dec)
    assert len(calls) == 1
    assert len(calls[0]) == sum(len(s.obj) for s in simples)
