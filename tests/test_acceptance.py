"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Covered in order: the four local rewrite suites; the global-dimension
identity with its two evaluation routes and frozen dimension values; the
canonical half-braiding's unitarity and hexagon; threading/averaging round
trips on seeded random elements; frozen tube-algebra integer invariants;
the D(Z/2) group-double oracle; center-simple quality gates with the frozen
toric twists and the twisted-cocycle rank; byte-level determinism; and the
full command-line sweep.  Wall-clock budgets: rewrite suites < 10 s,
half-braiding build < 20 s, CLI sweep < 60 s.  Run with -s (or -rP) to see
the per-criterion lines.
"""
import time

import numpy as np
import pytest

from conftest import root_gap
from test_tube import double_z2_tables
from tubecat.catalog import BUILTIN_NAMES
from tubecat.center import (center_report, compute_twists, decompose_blocks,
                            extract_center_simples)
from tubecat.cli import main
from tubecat.jsonutil import dumps_canonical
from tubecat.relations import (check_bigon1, check_bigon2, check_fusion,
                               check_global_dim, check_ih)
from tubecat.tube import (LambdaObject, build_delta, build_tube_algebra,
                          f_map, t_map, tube_product, tube_star)

# dim and sorted block sizes for the four categories pinned by hand
FROZEN_BLOCKS = {
    "vec_z2": (4, (1, 1, 1, 1)),
    "vec_z3": (9, (1,) * 9),
    "fibonacci": (7, (1, 1, 1, 2)),
    "ising": (12, (1, 1, 1, 1, 1, 1, 1, 1, 2)),
}


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def machines(catalog):
    """(tube algebras, half-braided deltas, delta build seconds)."""
    deltas = {}
    t0 = time.perf_counter()
    for name, spec in catalog.items():
        deltas[name] = build_delta(spec, LambdaObject.all_simples(spec))
    delta_secs = time.perf_counter() - t0
    algebras = {name: build_tube_algebra(spec, LambdaObject.all_simples(spec))
                for name, spec in catalog.items()}
    return algebras, deltas, delta_secs


def test_criterion_1_rewrite_suites(catalog):
    t0 = time.perf_counter()
    worst = 0.0
    for spec in catalog.values():
        for check in (check_bigon1, check_bigon2, check_fusion, check_ih):
            worst = max(worst, check(spec, tol=1e-9).max_residual)
    took = time.perf_counter() - t0
    verdict(1, worst < 1e-9 and took < 10.0,
            f"bigon1/bigon2/fusion/ih on {len(catalog)} categories, "
            f"worst residual {worst:.2e}, {took:.2f} s")


def test_criterion_2_global_dimension(catalog):
    worst = 0.0
    for spec in catalog.values():
        # the suite compares the direct contraction, the collapsed-loop
        # route, and the target, pairwise
        worst = max(worst, check_global_dim(spec, tol=1e-9).max_residual)
    off = max(abs(float(catalog["fibonacci"].dims.global_dim) - 3.6180339887),
              abs(float(catalog["ising"].dims.global_dim) - 4.0))
    verdict(2, worst < 1e-9 and off < 1e-9,
            f"double-bigon sum residual {worst:.2e}, "
            f"frozen dims off by {off:.2e}")


def test_criterion_3_half_braiding(machines):
    _, deltas, took = machines
    worst = max(max(d.residuals.values()) for d in deltas.values())
    verdict(3, worst < 1e-9 and took < 20.0,
            f"unitarity both ways + hexagon, worst {worst:.2e}, "
            f"built in {took:.2f} s")


def test_criterion_4_round_trips(machines):
    algebras, deltas, _ = machines
    worst = 0.0
    for name, A in algebras.items():
        D = deltas[name]
        rng = np.random.default_rng(2024)
        for _ in range(100):
            f = A.random_element(rng)
            T = t_map(A, D, f)
            back = f_map(A, D, T)
            worst = max(worst, (back - f).norm())
            worst = max(worst, root_gap(t_map(A, D, back), T))
        for _ in range(10):
            f, g = A.random_element(rng), A.random_element(rng)
            Tf, Tg = t_map(A, D, f), t_map(A, D, g)
            worst = max(worst,
                        root_gap(t_map(A, D, tube_product(A, f, g)),
                                 {z: Tf[z] @ Tg[z] for z in Tf}),
                        root_gap(t_map(A, D, tube_star(A, f)),
                                 {z: m.conj().T for z, m in Tf.items()}))
    verdict(4, worst < 1e-9,
            f"100 seeded draws per category + product/star transport, "
            f"worst residual {worst:.2e}")


def test_criterion_5_integer_invariants(machines):
    algebras, _, _ = machines
    ok = True
    for name, A in algebras.items():
        dec = decompose_blocks(A, seed=1)
        ok = ok and sum(n * n for n in dec.sizes) == A.dim
        if name in FROZEN_BLOCKS:
            dim, sizes = FROZEN_BLOCKS[name]
            ok = ok and A.dim == dim
            ok = ok and tuple(sorted(dec.sizes)) == sizes
    verdict(5, ok, "frozen dims/blocks for vec_z2, vec_z3, fibonacci, "
                   "ising; sum n^2 = dim exactly on the whole catalog")


def test_criterion_6_group_double_oracle(machines):
    algebras, _, _ = machines
    A = algebras["vec_z2"]
    c, s = double_z2_tables(A)
    res = max(float(np.max(np.abs(A.mult_table - c))),
              float(np.max(np.abs(A.star_table - s))))
    verdict(6, res < 1e-10,
            f"D(Z/2) structure constants, entrywise off by {res:.2e}")


def test_criterion_7_center_quality(machines):
    algebras, deltas, _ = machines
    worst = 0.0
    toric = None
    twisted_rank = 0
    for name, A in algebras.items():
        dec = decompose_blocks(A, seed=1)
        simples = extract_center_simples(A, deltas[name], dec)
        compute_twists(simples)
        for s in simples:
            worst = max(worst, s.unitarity_defect, s.hexagon_defect)
        if name == "vec_z2":
            toric = sorted((round(s.twist.real, 9), round(s.twist.imag, 9))
                           for s in simples)
        if name == "vec_z2_twisted":
            twisted_rank = dec.rank
    toric_ok = toric == [(-1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
    verdict(7, worst < 1e-8 and toric_ok and twisted_rank == 4,
            f"simples pass at 1e-8 (worst {worst:.2e}), toric twists "
            f"(1,1,1,-1): {toric_ok}, twisted-cocycle rank {twisted_rank}")


def test_criterion_8_determinism(catalog):
    ok = True
    for name in ("vec_z2_twisted", "fibonacci", "ising"):
        spec = catalog[name]
        one = dumps_canonical(center_report(spec, seed=3, category=name))
        two = dumps_canonical(center_report(spec, seed=3, category=name))
        ok = ok and one == two
        sizes = [sorted(b["size"] for b in
                        center_report(spec, seed=s, category=name)["blocks"])
                 for s in (1, 2)]
        ok = ok and sizes[0] == sizes[1]
    verdict(8, ok, "equal seeds byte-identical, sorted sizes seed-free "
                   "(vec_z2_twisted, fibonacci, ising)")


def test_criterion_9_cli_sweep(capsys):
    t0 = time.perf_counter()
    codes = []
    for name in BUILTIN_NAMES:
        codes.append(main(["verify", "--category", name]))
        codes.append(main(["center", "--category", name]))
    took = time.perf_counter() - t0
    capsys.readouterr()
    verdict(9, all(c == 0 for c in codes) and took < 60.0,
            f"verify+center over {len(BUILTIN_NAMES)} categories, "
            f"{took:.2f} s, exit codes {sorted(set(codes))}")
