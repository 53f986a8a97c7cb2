"""Category file loading, validation errors, serialization round trips."""
import copy
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tubecat.catalog import BUILTIN_NAMES, available, find
from tubecat.catspec import load_spec, serialize
from tubecat.errors import ConsistencyError, SchemaError

from conftest import pointed_category


def test_catalog_complete(catalog):
    assert set(BUILTIN_NAMES) <= set(available())
    names = {spec.name for spec in catalog.values()}
    assert {"Vec", "Vec[Z/2]", "Vec[Z/2] twisted", "Vec[Z/3]",
            "Fibonacci", "Ising", "Rep(S3)"} == names


def test_catalog_files_match_their_generators(tmp_path):
    # the shipped data are exactly what the two scripts write
    root = Path(__file__).resolve().parent.parent
    for script, out in (("make_catalog.py", tmp_path),
                        ("derive_rep_s3.py", tmp_path / "rep_s3.json")):
        proc = subprocess.run([sys.executable, str(root / "scripts" / script), str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    data = root / "src" / "tubecat" / "data"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in BUILTIN_NAMES)
    for name in BUILTIN_NAMES:
        got = (tmp_path / f"{name}.json").read_bytes()
        assert got == (data / f"{name}.json").read_bytes(), name


def test_alias_fib():
    assert find("fib").name == "Fibonacci"


def same_ring(r1, r2):
    return (r1.labels == r2.labels and r1.unit == r2.unit
            and r1.dual == r2.dual and np.array_equal(r1.N, r2.N))


def test_roundtrip_byte_identical(catalog):
    for spec in catalog.values():
        text = serialize(spec)
        again = load_spec(text)
        assert serialize(again) == text, spec.name
        assert same_ring(again.ring, spec.ring)
        assert np.max(np.abs(again.dims.d - spec.dims.d)) < 1e-15


def test_load_accepts_bytes_and_dict():
    doc = pointed_category(2)
    spec1 = load_spec(json.dumps(doc).encode())
    spec2 = load_spec(doc)
    assert same_ring(spec1.ring, spec2.ring)


def test_trivial_category():
    spec = load_spec(pointed_category(1, name="point"))
    assert spec.rank == 1
    assert spec.dims.global_dim == pytest.approx(1.0)


def test_twisted_z3_complex_entries_load():
    # k=1 cocycle has genuinely complex F values; pentagon must still pass
    spec = load_spec(pointed_category(3, k=1))
    # omega(1,2,2) = exp(2 pi i/3): carries past the group order
    blk = spec.fsymbols.block(1, 2, 2, 2)
    assert abs(blk[0, 0].imag) > 0.5


def test_perturbed_fib_fails_pentagon():
    doc = json.loads(serialize(find("fibonacci")))
    for ent in doc["F"]:
        if ent["e"] == "tau" and ent["f"] == "tau" and ent["abcd"][3] == "tau":
            ent["re"] += 1e-3
            break
    else:
        raise AssertionError("entry not found")
    with pytest.raises(ConsistencyError, match=r"^pentagon residual \d\.\d{3}e[-+]\d\d at "
                       r"word \('\w+', '\w+', '\w+', '\w+'\) exceeds 1e-09$"):
        load_spec(doc)


def test_wrong_dims_rejected():
    doc = pointed_category(2)
    doc["dims"] = {"0": 1.0, "1": 1.5}
    with pytest.raises(ConsistencyError, match="Perron"):
        load_spec(doc)


# malformed category input that is not a category file's shape at all
BAD_BYTES = [
    b"{ not json",
    b'{"name": "\xff"}',                 # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,     # nested past the recursion limit
]


def test_schema_errors():
    for raw in BAD_BYTES:
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_spec(raw)
    with pytest.raises(SchemaError):
        load_spec({"name": "x", "labels": [], "unit": "0", "dual": {},
                   "N": [], "F": [], "convention": "isometry"})
    doc = pointed_category(2)
    for mangle in (
        lambda d: d.pop("convention"),
        lambda d: d.update(convention="trace"),
        lambda d: d["N"].append(d["N"][0]),               # duplicate
        lambda d: d["N"].append(["0", "0", "bogus", 1]),  # unknown label
        lambda d: d.update(dual={"0": "0"}),              # incomplete dual
        lambda d: d["F"].append({"abcd": ["1", "1", "1", "1"],
                                 "e": "1", "f": "1", "re": 1.0}),
    ):
        bad = copy.deepcopy(doc)
        mangle(bad)
        with pytest.raises(SchemaError):
            load_spec(bad)
    # a label that is a list or an object, and a metadata that is not an
    # object, each named in the error
    for where, mangle in (
        ("N", lambda d: d["N"].append([["0"], "0", "0", 1])),
        ("N", lambda d: d["N"].append(["0", {"x": 1}, "0", 1])),
        ("dual", lambda d: d["dual"].update({"1": ["1"]})),
        ("F.abcd", lambda d: d["F"].append({"abcd": [["1"], "1", "1", "1"],
                                            "e": "0", "f": "0", "re": 1.0})),
        ("metadata", lambda d: d.update(metadata=[["source", "x"]])),
        ("metadata", lambda d: d.update(metadata="x")),
        ("metadata", lambda d: d.update(metadata=3)),
    ):
        bad = copy.deepcopy(doc)
        mangle(bad)
        with pytest.raises(SchemaError, match=where):
            load_spec(json.dumps(bad).encode())


@pytest.mark.parametrize("value", [1.0, 0.5])
def test_repeated_f_entry_is_refused(value):
    # a repeat is refused whether it agrees with the first entry or not;
    # one that disagrees must not overwrite it and fail as a pentagon
    doc = json.loads(serialize(find("fibonacci")))
    ent = next(e for e in doc["F"] if e["abcd"] == ["tau"] * 4 and e["e"] == e["f"] == "tau")
    doc["F"].append({**ent, "re": ent["re"] * value})
    with pytest.raises(SchemaError, match=r"duplicate F entry for abcd \('tau', 'tau', "
                       r"'tau', 'tau'\) e='tau' f='tau' mu=\[0, 0\] nu=\[0, 0\]"):
        load_spec(doc)


def test_unit_block_must_be_identity():
    doc = pointed_category(2)
    doc["F"].append({"abcd": ["0", "1", "1", "0"], "e": "1", "f": "0",
                     "re": -1.0, "im": 0.0})
    with pytest.raises(SchemaError, match="identity"):
        load_spec(doc)


def test_f_unitarity_gate():
    # scaling the (tau,tau)->1 vertex by 2 is a legal gauge move over the
    # invertibles, so pentagon still holds; unitarity is what must object
    doc = json.loads(serialize(find("fibonacci")))
    for ent in doc["F"]:
        if ent["abcd"] == ["tau", "tau", "tau", "tau"]:
            if ent["e"] == "1" and ent["f"] == "tau":
                ent["re"] *= 2.0
            if ent["e"] == "tau" and ent["f"] == "1":
                ent["re"] *= 0.5
    with pytest.raises(ConsistencyError,
                       match=r"^F blocks fail unitarity at \d\.\d{3}e[-+]\d\d$"):
        load_spec(doc)


@pytest.mark.parametrize("k", [1, 2])
def test_pointed_cocycle_entries_are_reduced_roots_of_unity(k):
    # the test data's Vec[Z/n]^ω cocycle reduces k·a·⌊(b+c)/n⌋ mod n before
    # the exponential, so each F entry is cos + i·sin of the reduced
    # fraction m/n (unreduced, through math.e ** (2πi·k·a·⌊(b+c)/n⌋/n), the
    # entries were up to 7.1e-16 off it at n ≤ 7 and 1.1e-15 at n ≤ 12)
    gaps = []
    for n in range(2, 13):
        F = load_spec(pointed_category(n, k=k)).fsymbols
        for a, b, c in itertools.product(range(1, n), repeat=3):
            m = k * a * ((b + c) // n) % n
            want = complex(math.cos(2 * math.pi * m / n), math.sin(2 * math.pi * m / n))
            gaps.append(abs(F.block(a, b, c, (a + b + c) % n)[0, 0] - want))
    assert max(gaps) <= 2.3e-16


def _fib_doc():
    return json.loads(serialize(find("fibonacci")))


@pytest.mark.parametrize("mangle, text", [
    (lambda F: F[0].update(re=float("nan")), "F.re must be finite, got nan"),
    (lambda F: F[-1].update(im=float("-inf")), "F.im must be finite, got -inf"),
    (lambda F: F[0].update(re=True), "F.re must be a number, got bool"),
    (lambda F: F[0].update(im="0"), "F.im must be a number, got str"),
    (lambda F: F.append(3), "F entry 3 is not an object"),
    (lambda F: F[0].pop("f"), "missing required key 'f'"),
    (lambda F: F[0].update(e=1), "key 'e' has type int"),
    (lambda F: F[0].update(abcd=["tau"] * 3), "F entry abcd ['tau', 'tau', 'tau'] must have 4 labels"),
    (lambda F: F[0].update(abcd="tauu"), "key 'abcd' has type str"),
    (lambda F: F[0].update(abcd=["tau", 1, "tau", "tau"]), "label 1 in F.abcd is not a string"),
    (lambda F: F[0].update(f="x"), "unknown label 'x' in F.f"),
    (lambda F: F[0].update(mu=[True, 0]), "F entry mu [True, 0] must be two ints >= 0"),
    (lambda F: F[0].update(nu=[0, -1]), "F entry nu [0, -1] must be two ints >= 0"),
    (lambda F: F[0].update(nu=(0, 0)), "F entry nu (0, 0) must be two ints >= 0"),
    (lambda F: F[0].update(mu=[0, 0.0]), "F entry mu [0, 0.0] must be two ints >= 0"),
])
def test_f_entry_refusal_texts(mangle, text):
    # each fault of a single entry, whichever reading meets it first,
    # is named in the loader's words
    doc = _fib_doc()
    mangle(doc["F"])
    with pytest.raises(SchemaError, match="^" + re.escape(text) + "$"):
        load_spec(doc)


def test_duplicate_is_named_before_a_later_fault_of_the_same_entry():
    doc = _fib_doc()
    doc["F"].append({**doc["F"][0], "re": float("nan")})
    with pytest.raises(SchemaError, match="^duplicate F entry for abcd"):
        load_spec(doc)


def test_every_accepted_entry_form_loads_the_same_table():
    # ints for numbers, explicit multiplicity indices, a missing im and a
    # dict subclass for an entry are read as the plain form is
    from collections import OrderedDict
    for doc in (_fib_doc(), pointed_category(3, k=1)):
        plain = load_spec(copy.deepcopy(doc)).fsymbols
        for i, ent in enumerate(doc["F"]):
            ent.setdefault("mu", [0, 0])
            ent.setdefault("nu", [0, 0])
            for part in ("re", "im"):
                if float(ent.get(part, 0.0)).is_integer():
                    ent[part] = int(ent.get(part, 0.0))
            if ent.get("im") == 0:
                ent.pop("im")
            if i % 2:
                doc["F"][i] = OrderedDict(ent)
        again = load_spec(doc).fsymbols
        assert [a.tobytes() for a in again.table] == [a.tobytes() for a in plain.table]
