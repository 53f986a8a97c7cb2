"""Workload inputs as category-JSON bytes.

Only the standard library is imported here, so a set-up probe can build its
inputs before it starts the clock on ``import tubecat``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# The shipped catalog, in the order the engine lists it.
CATALOG_NAMES = ("vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                 "fibonacci", "ising", "rep_s3")
# Vec[Z/n]^ω family: tube dim n² from 16 to 49, cocycle level k.
POINTED_NS = (4, 5, 6, 7)
POINTED_LEVEL = 1
# Categories the CLI workload runs `verify` and `center` on.
CLI_NAMES = ("fibonacci", "ising", "rep_s3")


def pointed_name(n: int) -> str:
    return f"z{n}"


def pointed_category(n: int, k: int) -> dict:
    """Category-JSON document for Vec[Z/n] with the level-k 3-cocycle.

    ω(a,b,c) = exp(2πi·k·a·⌊(b+c)/n⌋/n), entered as the F-symbol of every
    non-unit triple; the same construction as the test suite's
    ``pointed_category`` fixture.
    """
    labels = [str(x) for x in range(n)]
    doc = {
        "name": f"Vec[Z/{n}] k={k}",
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


def catalog_inputs(root: Path) -> dict:
    data = root / "src" / "tubecat" / "data"
    return {name: (data / f"{name}.json").read_bytes() for name in CATALOG_NAMES}


def pointed_inputs() -> dict:
    return {pointed_name(n): json.dumps(pointed_category(n, POINTED_LEVEL)).encode()
            for n in POINTED_NS}


def workload_inputs(workload: str, root: Path) -> dict:
    """name -> category bytes that a workload loads in-process."""
    if workload == "catalog":
        return catalog_inputs(root)
    if workload == "pointed-scaling":
        return pointed_inputs()
    return {}
