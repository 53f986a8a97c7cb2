"""Expected results that do not come from tubecat.

Every value here is a closed form or a hand-derived table of a known
Drinfeld center, written out without calling the engine:

* Vec[Z/n]^ω at cocycle level k is the twisted quantum double D^ω(Z/n).
  Its n² simples are pairs (flux a, charge q), each of size 1 over
  Λ = all simples, with twist θ(a,q) = exp(2πi(aq/n + k·a²/n²)).  This
  covers vec (n=1), the toric code (vec_z2), the double semion
  (vec_z2_twisted) and D(Z/3).
* A modular category C has Z(C) ≅ C ⊠ C̄.  The simple a⊠b̄ has twist
  θ_a·conj(θ_b), and its block in the tube algebra over Λ = all simples
  has size Σ_c N_ab^c, the number of simple summands of a⊗b.  This gives
  the doubled Fibonacci and doubled Ising rows.
* D(S3) is listed sector by sector: (conjugacy class, centralizer irrep),
  twist χ(g)/χ(e), and size the number of S3 irreps in the induced
  representation.

The tube dimension is Σ size², because the tube algebra over Λ is the sum
of the matrix blocks.  Only comparisons live here; nothing imports tubecat.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# A reported residual above this makes the operation fail.
RESIDUAL_LIMIT = 1e-12
# Largest allowed |θ_reported - θ_expected| when matching twists.
TWIST_TOL = 1e-10


def _e(x: float) -> complex:
    """exp(2πi·x)."""
    return cmath.exp(2j * math.pi * x)


@dataclass(frozen=True)
class CenterExpectation:
    """What a correct run must report for one category over Λ = all simples."""

    global_dim: float
    blocks: tuple  # ((size, twist), ...) as a multiset

    @property
    def rank(self) -> int:
        return len(self.blocks)

    @property
    def tube_dim(self) -> int:
        return sum(n * n for n, _ in self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(sorted(n for n, _ in self.blocks))


def twisted_double(n: int, k: int) -> CenterExpectation:
    """D^ω(Z/n) for the level-k cocycle ω(a,b,c) = exp(2πi k a⌊(b+c)/n⌋/n)."""
    blocks = tuple((1, _e(a * q / n + k * a * a / (n * n)))
                   for a in range(n) for q in range(n))
    return CenterExpectation(global_dim=float(n), blocks=blocks)


def _doubled(fusion: dict, twist: dict) -> tuple:
    """Blocks of C ⊠ C̄ from C's fusion rules {(a,b): [c,...]} and twists."""
    labels = list(twist)
    return tuple((len(fusion[(a, b)]), twist[a] * twist[b].conjugate())
                 for a in labels for b in labels)


def _fibonacci() -> CenterExpectation:
    fusion = {("1", "1"): ["1"], ("1", "t"): ["t"], ("t", "1"): ["t"],
              ("t", "t"): ["1", "t"]}
    twist = {"1": 1 + 0j, "t": _e(2 / 5)}
    return CenterExpectation(global_dim=(5 + math.sqrt(5)) / 2,
                             blocks=_doubled(fusion, twist))


def _ising() -> CenterExpectation:
    fusion = {("1", "1"): ["1"], ("1", "s"): ["s"], ("1", "p"): ["p"],
              ("s", "1"): ["s"], ("s", "s"): ["1", "p"], ("s", "p"): ["s"],
              ("p", "1"): ["p"], ("p", "s"): ["s"], ("p", "p"): ["1"]}
    twist = {"1": 1 + 0j, "s": _e(1 / 16), "p": -1 + 0j}
    return CenterExpectation(global_dim=4.0, blocks=_doubled(fusion, twist))


def _double_s3() -> CenterExpectation:
    w = _e(1 / 3)
    blocks = (
        (1, 1 + 0j), (1, 1 + 0j), (1, 1 + 0j),  # class e: triv, sgn, std
        (2, 1 + 0j), (2, -1 + 0j),              # transpositions, Z/2 irreps ±
        (2, 1 + 0j), (1, w), (1, w.conjugate()),  # 3-cycles, Z/3 irreps 1, ω, ω²
    )
    return CenterExpectation(global_dim=6.0, blocks=blocks)


CATALOG = {
    "vec": twisted_double(1, 0),
    "vec_z2": twisted_double(2, 0),
    "vec_z2_twisted": twisted_double(2, 1),
    "vec_z3": twisted_double(3, 0),
    "fibonacci": _fibonacci(),
    "ising": _ising(),
    "rep_s3": _double_s3(),
}


# ---- comparisons: each returns None when the value is right, else why not ----

def residual_problem(what: str, value) -> str | None:
    value = float(value)
    if not value <= RESIDUAL_LIMIT:  # also catches NaN
        return f"{what} residual {value:.3e} exceeds {RESIDUAL_LIMIT:g}"
    return None


def worst_residual_problem(what: str, residuals: dict) -> str | None:
    for key, value in residuals.items():
        problem = residual_problem(f"{what} {key}", value)
        if problem:
            return problem
    return None


def global_dim_problem(got: float, exp: CenterExpectation) -> str | None:
    if not abs(float(got) - exp.global_dim) <= RESIDUAL_LIMIT * exp.global_dim:
        return f"global dim {got!r}, expected {exp.global_dim!r}"
    return None


def tube_dim_problem(got: int, exp: CenterExpectation) -> str | None:
    if got != exp.tube_dim:
        return f"tube dim {got}, expected {exp.tube_dim}"
    return None


def sizes_problem(sizes, exp: CenterExpectation) -> str | None:
    got = tuple(sorted(int(n) for n in sizes))
    if got != exp.sizes:
        return f"block sizes {got}, expected {exp.sizes} (rank {exp.rank})"
    return None


def blocks_problem(pairs, exp: CenterExpectation) -> str | None:
    """Match reported (size, twist) pairs one to one against the expected ones."""
    pairs = [(int(n), complex(t)) for n, t in pairs]
    if len(pairs) != exp.rank:
        return f"{len(pairs)} center simples, expected {exp.rank}"
    unused = list(pairs)
    for n, theta in exp.blocks:
        hit = next((i for i, (m, t) in enumerate(unused)
                    if m == n and abs(t - theta) <= TWIST_TOL), None)
        if hit is None:
            return (f"no reported simple of size {n} with twist "
                    f"{theta.real:+.6f}{theta.imag:+.6f}i")
        unused.pop(hit)
    return None
