import math

import numpy as np
import pytest

from tubecat.catalog import BUILTIN_NAMES, find
from tubecat.errors import worst
from tubecat.fsymbols import FSymbolTable
from tubecat.ring import FusionRing


@pytest.fixture(scope="session")
def catalog():
    """name -> loaded spec, shared across the whole run (loads validate)."""
    return {name: find(name) for name in BUILTIN_NAMES}


def root_norm(T: dict) -> float:
    """Max-abs entry of a map given as one matrix per root, NaN kept: the
    Linear.norm convention for t_map's endomorphisms of Δ."""
    return worst(float(np.max(np.abs(m), initial=0.0)) for m in T.values())


def root_gap(S: dict, T: dict) -> float:
    """root_norm(S − T) for two maps on the same roots."""
    assert S.keys() == T.keys()
    return root_norm({z: S[z] - T[z] for z in S})


def pointed_category(n: int, k: int = 0, name: str | None = None) -> dict:
    """Category-JSON dict for Vec[Z/n] with the standard 3-cocycle at level k.

    omega(a,b,c) = exp(2 pi i k a floor((b+c)/n) / n); k = 0 is the trivial
    class.  Handy for tests that need complex F data without a data file.
    """
    labels = [str(x) for x in range(n)]
    doc = {
        "name": name or f"Vec[Z/{n}] k={k}",
        "labels": labels,
        "unit": "0",
        "dual": {str(x): str((-x) % n) for x in range(n)},
        "N": [[str(x), str(y), str((x + y) % n), 1]
              for x in range(n) for y in range(n)],
        "convention": "isometry",
        "F": [],
    }
    for a in range(1, n):
        for b in range(1, n):
            for c in range(1, n):
                w = math.e ** (2j * math.pi * k * a * ((b + c) // n) / n)
                doc["F"].append({
                    "abcd": [str(a), str(b), str(c), str((a + b + c) % n)],
                    "e": str((a + b) % n), "f": str((b + c) % n),
                    "re": w.real, "im": w.imag,
                })
    return doc


def rep_a4_random_table(seed: int) -> FSymbolTable:
    """Rep(A4)'s fusion ring, labels 1, 1′, 1″, 3 with 3⊗3 = 1+1′+1″+2·3,
    carrying seeded random unitary F blocks (identity where a, b or c is the
    unit).  No pentagon holds; it feeds a checker every multiplicity index."""
    N = np.zeros((4, 4, 4), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            N[a, b, (a + b) % 3] = 1
        N[a, 3, 3] = N[3, a, 3] = N[3, 3, a] = 1
    N[3, 3, 3] = 2
    ring = FusionRing(labels=("1", "1'", "1''", "3"), unit=0, dual=(0, 2, 1, 3), N=N)
    ring.validate()
    size = np.einsum("abe,ecd->abcd", N, N)
    rng = np.random.default_rng(seed)
    blocks = {}
    for key in map(tuple, np.argwhere(size).tolist()):
        n = int(size[key])
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks[key] = np.eye(n, dtype=complex) if 0 in key[:3] else np.linalg.qr(g)[0]
    return FSymbolTable(ring, blocks)
