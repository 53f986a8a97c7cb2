"""Exit codes, output formats, and reproducibility of the command line.

Fast paths go through run(CliConfig) in-process; one subprocess test keeps
the real entry point honest.  The broken-category fixture perturbs a single
associator phase so the pentagon fails while the schema stays valid: that
must come back as a verification failure (1), not a usage error (2).
"""
import io
import json
import subprocess
import sys
import types

import pytest

from conftest import pointed_category
from tubecat.cli import CliConfig, main, run


def run_capture(capsys, **kw):
    code = run(CliConfig(**kw))
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_capture(capsys, command="catalog")
    assert code == 0
    names = json.loads(out)["categories"]
    assert "fibonacci" in names and "rep_s3" in names


def test_verify_ok_all_suites(capsys):
    code, out, _ = run_capture(capsys, command="verify", category="ising")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and len(doc["suites"]) == 7
    assert {s["suite"] for s in doc["suites"]} == {
        "bigon1", "bigon2", "fusion", "ih", "globaldim", "spherical",
        "pentagon"}


def test_center_vec_z2_rank4(capsys):
    code, out, _ = run_capture(capsys, command="center", category="vec_z2")
    assert code == 0
    assert json.loads(out)["rank"] == 4


def test_tube_partial_lambda(capsys):
    code, out, _ = run_capture(capsys, command="tube", category="fibonacci",
                               lam="tau:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3 and doc["lambda"] == {"tau": 1}


def test_unknown_category_is_input_error(capsys):
    code, _, err = run_capture(capsys, command="verify", category="nope")
    assert code == 2 and "nope" in err


def _mangled(**changes) -> bytes:
    doc = pointed_category(2)
    doc.update(changes)
    return json.dumps(doc).encode()


MALFORMED = {
    "not-utf8": b'{"name": "\xff"}',
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "list-label": _mangled(dual={"0": "0", "1": ["1"]}),
    "object-label": _mangled(N=[["0", "0", "0", 1], [{"x": 1}, "1", "1", 1]]),
    "list-metadata": _mangled(metadata=[["source", "x"]]),
    "repeated-F": _mangled(F=[{"abcd": ["1"] * 4, "e": "0", "f": "0", "re": 1.0}] * 2),
}


@pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED)
def test_malformed_category_is_input_error(capsys, monkeypatch, tmp_path, raw):
    # from a file and from stdin alike: exit 2 and a message, no traceback
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    for category in (str(path), "-"):
        code, out, err = run_capture(capsys, command="verify", category=category)
        assert code == 2 and out == "", category
        assert err.startswith("input error: ") and "Traceback" not in err, category


def test_unknown_label_is_input_error(capsys):
    code, _, err = run_capture(capsys, command="tube", category="fibonacci",
                               lam="phi:1")
    assert code == 2 and "phi" in err


def test_bad_lambda_grammar_is_input_error(capsys):
    for bad in ("tau", "tau:x", "tau:1,tau:2", "tau:-3", ""):
        code, _, _ = run_capture(capsys, command="tube", category="fibonacci",
                                 lam=bad)
        assert code == 2, bad


def test_bad_tol_and_seed(capsys):
    assert run_capture(capsys, command="verify", category="vec",
                       tol=0.0)[0] == 2
    assert run_capture(capsys, command="center", category="vec",
                       seed=-1)[0] == 2


def test_tol_is_checked_only_where_it_is_read(capsys):
    # only verify and tube read the tolerance; a zero one elsewhere is unused
    for command, category in (("verify", "vec"), ("tube", "vec")):
        code, _, err = run_capture(capsys, command=command, category=category, tol=0.0)
        assert code == 2 and "tolerance must be positive" in err, command
    for command, category in (("center", "vec"), ("catalog", None)):
        assert run_capture(capsys, command=command, category=category,
                           tol=0.0)[0] == 0, command


@pytest.mark.parametrize("command", ["verify", "tube"])
@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tol_is_input_error(command, tol, capsys):
    # an infinite tolerance would pass every check whatever its residual,
    # and a NaN one none; both are refused before any check runs
    code, out, err = run_capture(capsys, command=command, category="fibonacci", tol=tol)
    assert code == 2 and out == ""
    assert f"tolerance must be positive and finite, got {tol!r}" in err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    # a directory, or a file in a directory that does not exist: exit 2
    # naming the path, not a traceback with the exit code of a failed check
    for target in (tmp_path, tmp_path / "missing" / "out.json"):
        code, out, err = run_capture(capsys, command="verify", category="fibonacci",
                                     output=str(target))
        assert code == 2 and out == "", target
        assert err.startswith("input error: ") and str(target) in err


def test_center_takes_no_tol(capsys):
    # --tol sets the checks of verify and tube; center has none to set, so
    # passing it there is a usage error, not an option that does nothing
    assert main(["tube", "--category", "fibonacci", "--tol", "1e-300"]) == 1
    with pytest.raises(SystemExit) as err:
        main(["center", "--category", "fibonacci", "--tol", "1e-300"])
    assert err.value.code == 2


def test_broken_pentagon_is_verification_failure(tmp_path, capsys):
    doc = pointed_category(3, k=1)
    doc["F"][0]["re"], doc["F"][0]["im"] = 0.6, 0.8  # unit phase, wrong one
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_capture(capsys, command="verify", category=str(bad))
    assert code == 1
    assert "pentagon" in err


def test_verify_names_a_later_nan_residual(monkeypatch, capsys):
    # a NaN case after clean ones must fail the run by name, not reach the
    # JSON writer (which refuses non-finite floats)
    import tubecat.cli
    real = tubecat.cli.run_suite

    def with_nan(spec, name, tol=1e-9):
        rep = real(spec, name, tol=tol)
        if name == "fusion":
            rep.add(["tau", "tau", "tau"], float("nan"))
        return rep

    monkeypatch.setattr(tubecat.cli, "run_suite", with_nan)
    code, out, err = run_capture(capsys, command="verify", category="fibonacci")
    assert code == 1 and out == ""
    assert "verification failure" in err
    assert "fusion" in err and "(tau, tau, tau)" in err and "nan" in err


def test_stdin_category(tmp_path, monkeypatch, capsys):
    import io
    payload = json.dumps(pointed_category(2)).encode()
    monkeypatch.setattr(sys, "stdin",
                        type("S", (), {"buffer": io.BytesIO(payload)})())
    code, out, _ = run_capture(capsys, command="verify", category="-")
    assert code == 0
    assert json.loads(out)["category"] == "stdin"


def test_output_file_and_byte_identity(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = run(CliConfig(command="center", category="ising", seed=3,
                             output=str(target)))
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_text_and_json_agree_on_verdict(capsys):
    code_j, out_j, _ = run_capture(capsys, command="center",
                                   category="vec_z2_twisted", format="json")
    code_t, out_t, _ = run_capture(capsys, command="center",
                                   category="vec_z2_twisted", format="text")
    assert code_j == code_t == 0
    assert json.loads(out_j)["pass"] is True
    assert out_t.rstrip().endswith("PASS")


def test_user_catalog_dir(tmp_path, monkeypatch, capsys):
    from tubecat.catalog import find
    (tmp_path / "z5.json").write_text(json.dumps(pointed_category(5)))
    shadow = pointed_category(3, name="shadow-test")
    (tmp_path / "vec_z2.json").write_text(json.dumps(shadow))
    monkeypatch.setenv("TUBECAT_CATALOG_DIR", str(tmp_path))
    code, out, _ = run_capture(capsys, command="catalog")
    assert code == 0 and "z5" in json.loads(out)["categories"]
    code, out, _ = run_capture(capsys, command="tube", category="z5")
    assert code == 0 and json.loads(out)["dim"] == 25
    # user dirs are searched first, so a same-named file wins
    assert find("vec_z2").name == "shadow-test"


def test_main_subprocess_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "tubecat", "center", "--category", "vec_z3",
         "--seed", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rank"] == 9 and doc["seed"] == 5


def test_main_parses_alias(capsys):
    assert main(["verify", "--category", "fib"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("field, mangle", [
    ("F.re", lambda d: d["F"][0].update(re=float("nan"))),
    ("F.im", lambda d: d["F"][0].update(im=float("inf"))),
    ("dims[1]", lambda d: d.update(dims={"0": 1.0, "1": float("nan"), "2": 1.0})),
])
def test_non_finite_numbers_are_input_errors(field, mangle, tmp_path, capsys):
    # Python's json writes and reads NaN and Infinity; the loader must
    # refuse them instead of letting them slip past its tolerance gates
    doc = pointed_category(3, k=1)
    mangle(doc)
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_capture(capsys, command="verify", category=str(bad))
    assert code == 2, err
    assert field in err and "finite" in err


def test_missing_non_unit_f_block_is_input_error(tmp_path, capsys):
    # only blocks with the unit among a, b, c may be left out of a category
    # file; any other admissible block that is missing is refused by name
    from importlib.resources import files
    doc = json.loads(files("tubecat").joinpath("data/fibonacci.json").read_text())
    doc["F"] = [e for e in doc["F"] if e["abcd"] != ["tau"] * 4]
    bad = tmp_path / "fib_missing.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, command="verify", category=str(bad))
    assert code == 2 and out == ""
    assert "missing F block" in err and "(1, 1, 1, 1)" in err
    for name in ("vec", "vec_z2", "vec_z2_twisted", "vec_z3", "fibonacci",
                 "ising", "rep_s3"):
        assert run_capture(capsys, command="verify", category=name)[0] == 0, name


def test_import_loads_no_third_party_module_but_numpy():
    """`import tubecat` is most of a CLI call's start-up: it may pull in
    numpy and the standard library, nothing else (scipy, say)."""
    probe = ("import sys; before = set(sys.modules); import tubecat; "
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"numpy", "tubecat"}
