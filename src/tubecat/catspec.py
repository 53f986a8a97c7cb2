"""Category files: parsing, validation, serialization.

A category file carries the fusion ring, optional quantum dimensions, and the
sparse non-unit F entries in the isometry gauge.  ``load_spec`` does the whole
validation sweep up front (ring axioms, dual compatibility, dimension
recomputation, F unitarity, pentagon), so a spec object in hand is always a
consistent unitary fusion category and nothing downstream re-checks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, SchemaError
from .fsymbols import FSymbolTable
from .jsonutil import dumps_canonical
from .pentagon import pentagon_residual
from .ring import DIM_TOL, FusionRing, QuantumDimensions, compute_fp_dims

__all__ = ["FusionCategorySpec", "load_spec", "serialize"]

# unitarity is checked tighter than pentagon: pentagon residuals accumulate a
# few products of entries, unitarity is a single gram matrix
UNITARITY_TOL = 1e-10
PENTAGON_LOAD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FusionCategorySpec:
    name: str
    ring: FusionRing
    dims: QuantumDimensions
    fsymbols: FSymbolTable
    metadata: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return self.ring.rank

    @property
    def labels(self) -> tuple[str, ...]:
        return self.ring.labels

    def index(self, label: str) -> int:
        return self.ring.index(label)


def _need(data: dict, key: str, typ) -> object:
    if key not in data:
        raise SchemaError(f"missing required key {key!r}")
    val = data[key]
    if not isinstance(val, typ):
        raise SchemaError(f"key {key!r} has type {type(val).__name__}")
    return val


def _as_number(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{where} must be a number, got {type(val).__name__}")
    val = float(val)
    # Python's json reads NaN and Infinity; no gate below would see them
    if not math.isfinite(val):
        raise SchemaError(f"{where} must be finite, got {val!r}")
    return val


def _f_entry(ent, look, seen: set) -> tuple:
    """One F entry of a category file, checked, as FSymbolTable.from_entries
    reads it; its key joins ``seen``.  SchemaError names the first fault."""
    if not isinstance(ent, dict):
        raise SchemaError(f"F entry {ent!r} is not an object")
    abcd = _need(ent, "abcd", list)
    if len(abcd) != 4:
        raise SchemaError(f"F entry abcd {abcd!r} must have 4 labels")
    a, b, c, d = (look(l, "F.abcd") for l in abcd)
    e = look(_need(ent, "e", str), "F.e")
    f = look(_need(ent, "f", str), "F.f")
    mu = ent.get("mu", [0, 0])
    nu = ent.get("nu", [0, 0])
    for pair, nm in ((mu, "mu"), (nu, "nu")):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(k, int) and not isinstance(k, bool)
                        and k >= 0 for k in pair)):
            raise SchemaError(f"F entry {nm} {pair!r} must be two ints >= 0")
    key = ((a, b, c, d), e, f, tuple(mu), tuple(nu))
    if key in seen:
        raise SchemaError(f"duplicate F entry for abcd {tuple(abcd)} e={ent['e']!r} "
                          f"f={ent['f']!r} mu={mu} nu={nu}")
    seen.add(key)
    val = complex(_as_number(ent.get("re", 0.0), "F.re"),
                  _as_number(ent.get("im", 0.0), "F.im"))
    return (*key, val)


def load_spec(source) -> FusionCategorySpec:
    """Parse and fully validate a category file.

    ``source`` may be bytes, str, a readable file object, or an already
    decoded dict.  SchemaError for malformed input, ConsistencyError when a
    mathematical invariant fails (message names the offending labels and the
    residual).
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray, str)):
        try:
            data = json.loads(source)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError("not valid JSON: nested too deeply") from None
    elif isinstance(source, dict):
        data = source
    else:
        raise SchemaError(f"cannot read a category from {type(source).__name__}")
    if not isinstance(data, dict):
        raise SchemaError("top level of a category file must be an object")

    name = _need(data, "name", str)
    labels = _need(data, "labels", list)
    if not labels:
        raise SchemaError("empty label set")
    if not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be strings")
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate labels")
    rank = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}

    def look(lab, where):
        if not isinstance(lab, str):
            raise SchemaError(f"label {lab!r} in {where} is not a string")
        if lab not in idx:
            raise SchemaError(f"unknown label {lab!r} in {where}")
        return idx[lab]

    unit = look(_need(data, "unit", str), "unit")

    dual_map = _need(data, "dual", dict)
    if set(dual_map) != set(labels):
        raise SchemaError("dual map must cover every label exactly once")
    dual = tuple(look(dual_map[lab], "dual") for lab in labels)

    N = np.zeros((rank, rank, rank), dtype=np.int64)
    seen = set()
    for row in _need(data, "N", list):
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(f"N entry {row!r} is not [x, y, z, multiplicity]")
        x, y, z = (look(l, "N") for l in row[:3])
        mult = row[3]
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise SchemaError(f"N entry {row!r} multiplicity must be a positive int")
        if (x, y, z) in seen:
            raise SchemaError(f"duplicate N entry for {tuple(row[:3])}")
        seen.add((x, y, z))
        N[x, y, z] = mult

    ring = FusionRing(labels=tuple(labels), unit=unit, dual=dual, N=N)
    ring.validate()

    # a unitary fusion category's positive dimensions are its
    # Perron-Frobenius ones; supplied dims are only checked against them
    dims = compute_fp_dims(ring)
    if "dims" in data and data["dims"] is not None:
        given_map = _need(data, "dims", dict)
        if set(given_map) != set(labels):
            raise SchemaError("dims must cover every label exactly once")
        given = np.array([_as_number(given_map[lab], f"dims[{lab}]") for lab in labels])
        gap = np.abs(given - dims.d)
        if not np.max(gap) <= DIM_TOL:
            bad = labels[int(np.argmax(gap))]
            raise ConsistencyError(f"supplied dim for {bad!r} is off by {np.max(gap):.3e} "
                                   "from the Perron-Frobenius value")

    convention = _need(data, "convention", str)
    if convention != "isometry":
        raise SchemaError(f"unsupported vertex convention {convention!r}")

    entries, seen = [], set()
    for ent in _need(data, "F", list):
        # the common form is read directly; any other, and every fault, goes
        # through _f_entry, which names the fault
        try:
            abcd, mu, nu = ent["abcd"], ent.get("mu", [0, 0]), ent.get("nu", [0, 0])
            re, im = ent.get("re", 0.0), ent.get("im", 0.0)
            key = ((idx[abcd[0]], idx[abcd[1]], idx[abcd[2]], idx[abcd[3]]),
                   idx[ent["e"]], idx[ent["f"]], (mu[0], mu[1]), (nu[0], nu[1]))
            direct = (type(ent) is dict and type(abcd) is type(mu) is type(nu) is list
                      and len(abcd) == 4 and len(mu) == len(nu) == 2
                      and type(mu[0]) is type(mu[1]) is type(nu[0]) is type(nu[1]) is int
                      and min(mu[0], mu[1], nu[0], nu[1]) >= 0
                      and type(re) is type(im) is float and re - re == im - im == 0
                      and key not in seen)
        except (LookupError, TypeError, AttributeError):
            direct = False
        if direct:
            seen.add(key)
            entries.append((*key, complex(re, im)))
        else:
            entries.append(_f_entry(ent, look, seen))

    fsymbols = FSymbolTable.from_entries(ring, entries)

    # pentagon before unitarity: a perturbed table usually breaks both, and
    # the pentagon instance is the more useful thing to name
    res, word = pentagon_residual(fsymbols)
    if not res <= PENTAGON_LOAD_TOL:
        named = tuple(labels[i] for i in word)
        raise ConsistencyError(
            f"pentagon residual {res:.3e} at word {named} exceeds {PENTAGON_LOAD_TOL:g}")
    fsymbols.check_unitary(UNITARITY_TOL)

    metadata = {}
    if data.get("metadata") is not None:
        metadata = dict(_need(data, "metadata", dict))
    return FusionCategorySpec(name=name, ring=ring, dims=dims,
                              fsymbols=fsymbols, metadata=metadata)


def serialize(spec: FusionCategorySpec) -> str:
    """Inverse of load_spec: canonical category-JSON text."""
    ring = spec.ring
    labels = list(ring.labels)
    n_rows = [[labels[x], labels[y], labels[z], int(ring.N[x, y, z])]
              for x, y, z in zip(*np.nonzero(ring.N))]
    f_rows = [{"abcd": [labels[i] for i in abcd], "e": labels[e], "f": labels[f],
               "mu": list(mu), "nu": list(nu), "re": float(val.real), "im": float(val.imag)}
              for (abcd, e, f, mu, nu, val) in spec.fsymbols.iter_entries()]
    doc = {
        "name": spec.name,
        "labels": labels,
        "unit": labels[ring.unit],
        "dual": {labels[i]: labels[ring.dual[i]] for i in range(ring.rank)},
        "N": n_rows,
        "dims": {labels[i]: float(spec.dims.d[i]) for i in range(ring.rank)},
        "F": f_rows,
        "convention": "isometry",
    }
    if spec.metadata:
        doc["metadata"] = dict(spec.metadata)
    return dumps_canonical(doc)
