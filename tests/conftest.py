import cmath
import json
import itertools
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

    omega(a,b,c) = exp(2 pi i m / n) with m = k a floor((b+c)/n) mod n; k = 0
    is the trivial class.  The exponent is reduced before the exponential,
    so each entry is the root of unity to rounding.  Handy for tests that
    need complex F data without a data file.
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
                w = cmath.exp(2j * math.pi * (k * a * ((b + c) // n) % n) / n)
                doc["F"].append({
                    "abcd": [str(a), str(b), str(c), str((a + b + c) % n)],
                    "e": str((a + b) % n), "f": str((b + c) % n),
                    "re": w.real, "im": w.imag,
                })
    return doc


def su2k_category(k: int) -> dict:
    """Category-JSON dict for SU(2)_k, labels 2j = 0..k, with the F-symbols
    of the quantum 6j-symbols in the unitary gauge (Kirillov–Reshetikhin,
    1989): F^{abc}_d[e,f] = (−1)^{(a+b+c+d)/2}·√([e+1][f+1])·{a b e; c d f}_q,
    [n] = sin(nπ/(k+2))/sin(π/(k+2)), the 6j-symbol by the q-Racah formula.
    Its dimensions [2j+1] are not integers past k = 2."""
    q = math.pi / (k + 2)

    def qint(n):  # [n]
        return math.sin(n * q) / math.sin(q)

    def fact(n):  # [n]!
        return math.prod(qint(i) for i in range(1, n + 1))

    def ok(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * k - a - b)

    def tri(a, b, c):
        return math.sqrt(fact((a + b - c) // 2) * fact((a - b + c) // 2)
                         * fact((b + c - a) // 2) / fact((a + b + c) // 2 + 1))

    def sixj(a, b, e, c, d, f):
        sides = ((a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2)
        quads = ((a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2)
        total = sum((-1) ** z * fact(z + 1)
                    / math.prod([fact(z - s) for s in sides] + [fact(t - z) for t in quads])
                    for z in range(max(sides), min(quads) + 1))
        return tri(a, b, e) * tri(e, c, d) * tri(b, c, f) * tri(a, f, d) * total

    labels = [str(a) for a in range(k + 1)]
    doc = {
        "name": f"SU(2)_{k}",
        "labels": labels,
        "unit": "0",
        "dual": {lab: lab for lab in labels},
        "N": [[str(a), str(b), str(c), 1] for a in range(k + 1) for b in range(k + 1)
              for c in range(k + 1) if ok(a, b, c)],
        "convention": "isometry",
        "F": [],
    }
    for a, b, c, d in itertools.product(range(1, k + 1), range(1, k + 1), range(1, k + 1),
                                        range(k + 1)):
        for e in range(k + 1):
            for f in range(k + 1):
                if ok(a, b, e) and ok(e, c, d) and ok(b, c, f) and ok(a, f, d):
                    val = ((-1) ** ((a + b + c + d) // 2) * math.sqrt(qint(e + 1) * qint(f + 1))
                           * sixj(a, b, e, c, d, f))
                    doc["F"].append({"abcd": [str(a), str(b), str(c), str(d)],
                                     "e": str(e), "f": str(f), "re": val, "im": 0.0})
    return doc


def table_docs() -> dict:
    """name -> category file: the catalog, Vec[Z/n]^ω for n = 2..8 at
    k = 1, 2, and SU(2)_2..4."""
    from tubecat.catalog import _DATA_DIR
    docs = {name: json.loads((_DATA_DIR / f"{name}.json").read_text()) for name in BUILTIN_NAMES}
    docs.update({f"Z/{n} k={k}": pointed_category(n, k=k) for n in range(2, 9) for k in (1, 2)})
    docs.update({f"SU(2)_{k}": su2k_category(k) for k in (2, 3, 4)})
    return docs


def rep_a4_random_table(seed: int) -> FSymbolTable:
    """Rep(A4)'s fusion ring, labels 1, 1′, 1″, 3 with 3⊗3 = 1+1′+1″+2·3,
    carrying seeded random unitary F blocks (identity where a, b or c is the
    unit).  No pentagon holds; it feeds a checker every multiplicity index."""
    return FSymbolTable(*rep_a4_random_blocks(seed))


def rep_a4_random_blocks(seed: int) -> tuple:
    """(ring, blocks) of rep_a4_random_table(seed), the blocks a dict
    (a,b,c,d) -> dense block that a test may alter before building a table."""
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
    return ring, blocks
