"""Command-line front end.

Four commands: ``catalog`` lists available categories, ``verify`` runs the
relation suites, ``tube`` emits structure constants, ``center`` runs the
full block/center pipeline.  Exit codes: 0 all checks pass, 1 a
verification failed (bad data, not bad usage), 2 the request itself was
malformed.  JSON output is canonical: same config and seed, same bytes.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .catalog import available, find
from .catspec import load_spec
from .center import center_report
from .errors import (ConsistencyError, DegenerateSpectrum, EmptySpace,
                     NotInCommutant, SchemaError, ShapeError, ToleranceError)
from .jsonutil import dumps_canonical
from .relations import SUITES, run_suite
from .tube import LambdaObject, build_tube_algebra, tube_json

__all__ = ["CliConfig", "run", "main"]

_INPUT_ERRORS = (SchemaError, ShapeError, OSError)  # OSError: an unwritable --output too
_CHECK_ERRORS = (ToleranceError, ConsistencyError, DegenerateSpectrum,
                 NotInCommutant, EmptySpace)


@dataclass
class CliConfig:
    command: str
    category: str | None = None
    lam: str = "all-simples"
    seed: int = 1
    tol: float = 1e-9
    output: str | None = None
    format: str = "json"


def _load_category(path_or_name: str):
    if path_or_name == "-":
        return load_spec(sys.stdin.buffer.read()), "stdin"
    spec = find(path_or_name)
    return spec, spec.name


def _parse_lambda(spec, text: str) -> LambdaObject:
    if text == "all-simples":
        return LambdaObject.all_simples(spec)
    mult = {}
    for part in text.split(","):
        name, sep, count = part.partition(":")
        name = name.strip()
        if not sep or name not in spec.labels:
            raise SchemaError(
                f"bad lambda entry {part!r}; want label:count with label "
                f"in {list(spec.labels)}")
        if name in mult:
            raise SchemaError(f"label {name!r} repeated in lambda spec")
        try:
            m = int(count)
        except ValueError:
            raise SchemaError(f"bad multiplicity {count!r} for {name!r}") from None
        if m < 0:
            raise SchemaError(f"negative multiplicity for {name!r}")
        mult[name] = m
    return LambdaObject.from_mapping(spec, mult)


# ---- command bodies: each returns (document, passed) -------------------------

def _cmd_catalog(cfg: CliConfig):
    return {"categories": available()}, True


def _cmd_verify(cfg: CliConfig):
    spec, shown = _load_category(cfg.category)
    suites = []
    for name in SUITES:
        rep = run_suite(spec, name, tol=cfg.tol)
        bad = rep.worst()
        if bad is not None and not math.isfinite(bad.residual):
            raise ToleranceError(f"{name} residual {bad.residual} at "
                                 f"({', '.join(bad.labels)})")
        suites.append({
            "suite": name,
            "cases": len(rep.cases),
            "max_residual": rep.max_residual,
            "pass": rep.ok,
        })
    ok = all(s["pass"] for s in suites)
    return {"category": shown, "tol": cfg.tol, "suites": suites, "pass": ok}, ok


def _cmd_tube(cfg: CliConfig):
    spec, shown = _load_category(cfg.category)
    lam = _parse_lambda(spec, cfg.lam)
    A = build_tube_algebra(spec, lam, tol=cfg.tol)
    return tube_json(A, category=shown), True


def _cmd_center(cfg: CliConfig):
    spec, shown = _load_category(cfg.category)
    lam = _parse_lambda(spec, cfg.lam)
    rep = center_report(spec, lam=lam, seed=cfg.seed, category=shown)
    return rep, bool(rep["pass"])


_COMMANDS = {
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
    "tube": _cmd_tube,
    "center": _cmd_center,
}


# ---- rendering ----------------------------------------------------------------

def _as_text(cfg: CliConfig, doc: dict) -> str:
    lines = []
    if cfg.command == "catalog":
        lines.extend(doc["categories"])
    elif cfg.command == "verify":
        for s in doc["suites"]:
            verdict = "pass" if s["pass"] else "FAIL"
            lines.append(f"{s['suite']:10s} {verdict}  cases={s['cases']:<4d} "
                         f"max_residual={s['max_residual']:.3e}")
        lines.append(f"category {doc['category']}: "
                     + ("PASS" if doc["pass"] else "FAIL"))
    elif cfg.command == "tube":
        lines.append(f"category {doc['category']}  dim {doc['dim']}")
        lines.append("lambda " + ", ".join(f"{k}:{v}"
                                           for k, v in doc["lambda"].items()))
        lines.append(f"{len(doc['mult_table'])} product entries, "
                     f"{len(doc['star_table'])} star entries "
                     f"(indices into the printed basis)")
        for k, b in enumerate(doc["basis"]):
            lines.append(f"  e[{k}] direction {b['a']} slot-pair index {b['i']}")
    elif cfg.command == "center":
        lines.append(f"category {doc['category']}  tube dim {doc['tube_dim']}  "
                     f"rank {doc['rank']}  seed {doc['seed']}")
        for b in doc["blocks"]:
            under = "+".join(f"{v}.{k}" if v > 1 else k
                             for k, v in b["underlying"].items())
            tw = complex(b["twist"][0], b["twist"][1])
            lines.append(f"  size {b['size']}  underlying {under:20s} "
                         f"twist {tw.real:+.6f}{tw.imag:+.6f}i  "
                         f"hexagon {b['hexagon_residual']:.2e}")
        lines.append("twist column closes the verified braiding into a loop; "
                     "checked for |twist| = 1 and, when lambda holds every simple, "
                     "by the Gauss sum")
        lines.append("PASS" if doc["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


def _emit(cfg: CliConfig, doc: dict) -> None:
    text = dumps_canonical(doc) if cfg.format == "json" else _as_text(cfg, doc)
    if cfg.output is None or cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---- entry points ----------------------------------------------------------------

def run(cfg: CliConfig) -> int:
    if cfg.command not in _COMMANDS:
        print(f"unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    if cfg.command in ("verify", "tube") and not 0 < cfg.tol < math.inf:
        print(f"tolerance must be positive and finite, got {cfg.tol!r}", file=sys.stderr)
        return 2
    if cfg.seed < 0:
        print(f"seed must be nonnegative, got {cfg.seed!r}", file=sys.stderr)
        return 2
    if cfg.command != "catalog" and not cfg.category:
        print("a --category is required", file=sys.stderr)
        return 2
    try:
        doc, ok = _COMMANDS[cfg.command](cfg)
        _emit(cfg, doc)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _CHECK_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tubecat",
        description="fusion-category relation checks, tube algebras, centers")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_lambda=True, with_seed=False, with_tol=True):
        p.add_argument("--category", required=True,
                       help="catalog name, file path, or - for stdin")
        if with_lambda:
            p.add_argument("--lambda", dest="lam", default="all-simples",
                           help='"all-simples" or e.g. "tau:2,1:1"')
        if with_seed:
            p.add_argument("--seed", type=int, default=1)
        if with_tol:
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--output", default=None, help="file path, default stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    pc = sub.add_parser("catalog", help="list available categories")
    pc.add_argument("--output", default=None)
    pc.add_argument("--format", choices=("json", "text"), default="json")
    common(sub.add_parser("verify", help="run all relation suites"),
           with_lambda=False)
    common(sub.add_parser("tube", help="emit tube-algebra structure constants"))
    common(sub.add_parser("center", help="block decomposition and center report"),
           with_seed=True, with_tol=False)
    return top


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    cfg = CliConfig(command=ns.command,
                    category=getattr(ns, "category", None),
                    lam=getattr(ns, "lam", "all-simples"),
                    seed=getattr(ns, "seed", 1),
                    tol=getattr(ns, "tol", 1e-9),
                    output=ns.output,
                    format=ns.format)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
