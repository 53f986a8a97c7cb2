"""The library calls that the benchmark in perfbench/ makes.

perfbench/ lies outside the test paths, so a name it takes from tubecat
that no longer resolves, or a call whose result it reads that changed
shape, would first show when the benchmark runs.  These tests import its
workloads module and repeat, on fibonacci, the calls its t/f round trips
(_round_trips) and table replay (_replay_fill) make, judged by its own
oracle.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from tubecat import (LambdaObject, build_delta, build_tube_algebra, f_map, t_map,
                     tube_product, tube_star)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported with perfbench/ on the path for its
    sibling modules (inputs, oracle, harness)."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def fibonacci(catalog):
    spec = catalog["fibonacci"]
    lam = LambdaObject.all_simples(spec)
    return build_tube_algebra(spec, lam), build_delta(spec, lam)


def test_workloads_import_every_name_they_take(workloads):
    assert set(workloads.WORKLOADS) == {"catalog", "pointed-scaling", "cli"}


def test_round_trip_calls(workloads, fibonacci):
    A, D = fibonacci
    rng = np.random.default_rng([1, 0])
    for _ in range(2):
        f = A.random_element(rng)
        back = f_map(A, D, t_map(A, D, f))
        assert workloads.oracle.residual_problem(
            "t/f round trip", (back - f).norm() / f.norm()) is None


def test_replay_fill_calls(workloads, fibonacci):
    A, _D = fibonacci
    basis = [A.basis_element(k) for k in range(A.dim)]
    mult = np.zeros_like(A.mult_table)
    star = np.zeros_like(A.star_table)
    for i, ei in enumerate(basis):
        star[i] = A.vector_of(tube_star(A, ei))
        for j, ej in enumerate(basis):
            mult[i, j] = A.vector_of(tube_product(A, ei, ej))
    assert workloads._fill_problem((mult, star), A) is None
