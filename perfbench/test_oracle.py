"""Self-test of the benchmark's oracle: it accepts the engine's real results
and rejects corrupted ones, and the ledger counts each rejection as a
failed operation.

Run from the root of a checkout:  python -m pytest perfbench/test_oracle.py
"""
import cmath
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
from harness import AFTER, Ledger, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def fibonacci():
    """(block sizes, twists) as the engine computes them for fibonacci."""
    from tubecat import (LambdaObject, build_delta, build_tube_algebra,
                         compute_twists, decompose_blocks,
                         extract_center_simples, load_spec)

    spec = load_spec(inputs.catalog_inputs(HERE.parent)["fibonacci"])
    lam = LambdaObject.all_simples(spec)
    A = build_tube_algebra(spec, lam)
    dec = decompose_blocks(A, seed=1)
    twists = compute_twists(extract_center_simples(A, build_delta(spec, lam), dec))
    return list(dec.sizes), twists


def _record(sizes, twists):
    """Push one result through the ledger as the workloads do."""
    ledger = Ledger("selftest", Tracer())
    exp = oracle.CATALOG["fibonacci"]
    ledger.run("center.decompose_blocks", "fibonacci", lambda: sizes,
               check=lambda s: oracle.sizes_problem(s, exp))
    ledger.run("center.compute_twists", "fibonacci", lambda: twists,
               check=lambda tw: oracle.blocks_problem(zip(sizes, tw), exp))
    return ledger


def test_real_result_passes(fibonacci):
    ledger = _record(*fibonacci)
    assert ledger.failed == 0 and ledger.wrong == 0 and ledger.attempted == 2


def test_perturbed_twist_is_rejected_and_counted(fibonacci):
    sizes, twists = fibonacci
    bad = list(twists)
    bad[1] *= cmath.exp(1e-6j)
    ledger = _record(sizes, bad)
    assert ledger.failed == 1 and ledger.wrong == 1
    assert ledger.failed / ledger.attempted == 0.5
    assert ledger.failures[0]["stage"] == "center.compute_twists"
    assert ledger.failures[0]["error"] == "OracleMismatch"


def test_dropped_block_is_rejected_and_counted(fibonacci):
    sizes, twists = fibonacci
    ledger = _record(sizes[:-1], twists[:-1])
    assert ledger.failed == 2 and ledger.wrong == 2
    assert {f["stage"] for f in ledger.failures} == {
        "center.decompose_blocks", "center.compute_twists"}


def _raise(exc):
    def fn():
        raise exc
    return fn


def test_raise_is_wrong_unless_it_is_the_documented_refusal():
    from tubecat import DegenerateSpectrum, ToleranceError
    from workloads import CliExit, is_refusal

    ledger = Ledger("selftest", Tracer(), is_refusal)
    assert ledger.run("center.decompose_blocks", "z7",
                      _raise(DegenerateSpectrum("try another seed"))) is None
    assert ledger.failed == 1 and ledger.wrong == 0
    stderr = "verification failure: idempotent polish did not converge; try another seed\n"
    ledger.run("cli.center", "ising", _raise(CliExit(1, stderr)))
    assert ledger.failed == 2 and ledger.wrong == 0
    ledger.run("tube.build_tube_algebra", "z7", _raise(ToleranceError("1e-3")))
    ledger.run("cli.verify", "ising", _raise(CliExit(1, "")))
    ledger.run("tube.t_map", "ising", lambda: 1 / 0)
    assert ledger.failed == 5 and ledger.wrong == 3
    assert [f["error"] for f in ledger.failures] == [
        "DegenerateSpectrum", "CliExit", "ToleranceError", "CliExit",
        "ZeroDivisionError"]


def test_skipped_stages_count_as_failed():
    ledger = Ledger("selftest", Tracer())
    ledger.skip("z7", ("center.extract_center_simples", "center.compute_twists"),
                "center.decompose_blocks")
    assert ledger.attempted == 2 and ledger.failed == 2 and ledger.wrong == 0


def test_failed_ratio_counts_a_fixed_set_of_operations():
    tracer = Tracer()
    ledger = Ledger("selftest", tracer)
    tracer.pass_id = None
    ledger.run("cli.catalog", "catalog", lambda: 0)
    for k in range(10):  # one failure in every pass
        tracer.pass_id = k
        ledger.run("tube.t_map", "ising", lambda: 0)
        ledger.skip("ising", ("tube.f_map",), "tube.t_map")
    tracer.pass_id = AFTER
    ledger.run("center.decompose_blocks", "z7", lambda: 0)
    # before, passes 0 and 1, after: 2 of 6 operations failed
    assert ledger.failed_ratio(2) == pytest.approx(2 / 6)
    assert ledger.failed_ratio(10) == pytest.approx(10 / 22)


def test_residual_limit():
    assert oracle.residual_problem("hexagon", 1e-13) is None
    assert oracle.residual_problem("hexagon", 2e-12) is not None
    assert oracle.residual_problem("hexagon", float("nan")) is not None


def test_closed_forms_match_the_published_table():
    # tube dims and ranks as listed in the README's catalog table
    table = {"vec": (1, 1), "vec_z2": (4, 4), "vec_z2_twisted": (4, 4),
             "vec_z3": (9, 9), "fibonacci": (7, 4), "ising": (12, 9),
             "rep_s3": (17, 8)}
    assert {k: (e.tube_dim, e.rank) for k, e in oracle.CATALOG.items()} == table
    semion = sorted((round(t.real, 9), round(t.imag, 9))
                    for _, t in oracle.CATALOG["vec_z2_twisted"].blocks)
    assert semion == [(0.0, -1.0), (0.0, 1.0), (1.0, 0.0), (1.0, 0.0)]
    assert oracle.CATALOG["rep_s3"].sizes == (1, 1, 1, 1, 1, 2, 2, 2)
    assert oracle.twisted_double(7, 1).tube_dim == 49
