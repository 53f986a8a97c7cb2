"""What each entry point loads.

The package names load on first use (tubecat.__init__ ``_HOME``) and each
CLI command imports its own pipeline, so a call compiles and runs only the
modules it needs.  Each check runs in a fresh interpreter and reads its
``sys.modules``.
"""
import importlib
import json
import subprocess
import sys
from importlib.resources import files

import pytest

import tubecat

# what load_spec runs: parse, ring, PF dims, pentagon, F unitarity
LOAD_CLOSURE = {"tubecat.catspec", "tubecat.errors", "tubecat.fsymbols",
                "tubecat.jsonutil", "tubecat.pentagon", "tubecat.report",
                "tubecat.ring"}

# runs `python -m tubecat ARGS` in-process, then prints the exit code and
# the names of the modules it loaded as the last line of stderr
CLI_PROBE = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["tubecat", *sys.argv[1:]]
try:
    runpy.run_module("tubecat", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""


def _child(*args) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _cli_modules(*args) -> tuple:
    """(stdout, names of the modules loaded) of one CLI call in a fresh
    interpreter."""
    proc = _child("-c", CLI_PROBE, *args)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return proc.stdout, set(modules)


def _third_party(modules) -> set:
    return {m.split(".")[0] for m in modules} - set(sys.stdlib_module_names)


def test_import_alone_loads_only_the_package():
    proc = _child("-c", "import sys; before = set(sys.modules); import tubecat; "
                        "print(' '.join(sorted(set(sys.modules) - before)))")
    assert {m for m in proc.stdout.split() if m.startswith("tubecat")} == {"tubecat"}


def test_load_spec_adds_the_load_closure_and_numpy():
    path = files("tubecat").joinpath("data/fibonacci.json")
    proc = _child("-c", "import sys; import tubecat; before = set(sys.modules); "
                        "tubecat.load_spec(open(sys.argv[1], 'rb').read()); "
                        "print(' '.join(sorted(set(sys.modules) - before)))", str(path))
    added = set(proc.stdout.split())
    assert _third_party(added) == {"numpy", "tubecat"}
    assert {m for m in added if m.startswith("tubecat")} == LOAD_CLOSURE


def test_catalog_command_loads_no_numpy():
    out, modules = _cli_modules("catalog")
    assert "fibonacci" in json.loads(out)["categories"]
    assert _third_party(modules) == {"tubecat"}
    assert {m for m in modules if m.startswith("tubecat.")} == {
        "tubecat.catalog", "tubecat.cli", "tubecat.errors", "tubecat.jsonutil"}


def test_verify_loads_no_tube_algebra():
    out, modules = _cli_modules("verify", "--category", "fibonacci")
    assert json.loads(out)["pass"]
    assert LOAD_CLOSURE | {"tubecat.relations"} <= modules
    assert not {"tubecat.tube", "tubecat.center", "tubecat.tables",
                "tubecat.sums"} & modules


def test_center_loads_no_relation_suites():
    out, modules = _cli_modules("center", "--category", "ising", "--seed", "7")
    assert json.loads(out)["pass"]
    assert {"tubecat.tube", "tubecat.center"} <= modules
    assert "tubecat.relations" not in modules


@pytest.mark.parametrize("name", sorted(tubecat._HOME))
def test_each_package_name_is_its_home_modules(name):
    home = importlib.import_module(f"tubecat.{tubecat._HOME[name]}")
    assert getattr(tubecat, name) is getattr(home, name)
    assert name in dir(tubecat) and name in vars(tubecat)


def test_an_unknown_package_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tubecat.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from tubecat import no_such_name  # noqa: F401
    assert "no_such_name" not in dir(tubecat)
