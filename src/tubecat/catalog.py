"""Built-in category catalog and name-or-path resolution.

Entries live as JSON files under ``data/``; the pointed families, Fibonacci
and Ising are regenerated by ``scripts/make_catalog.py`` and Rep(S3) by
``scripts/derive_rep_s3.py``.  TUBECAT_CATALOG_DIR may list extra directories
(os.pathsep separated); user directories are searched before the built-ins,
so a same-named file shadows the shipped one.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SchemaError

if TYPE_CHECKING:
    from .catspec import FusionCategorySpec

__all__ = ["BUILTIN_NAMES", "available", "find"]

_DATA_DIR = Path(__file__).resolve().parent / "data"

BUILTIN_NAMES = ("vec", "vec_z2", "vec_z2_twisted", "vec_z3",
                 "fibonacci", "ising", "rep_s3")
_ALIASES = {"fib": "fibonacci"}


def _search_dirs() -> list[Path]:
    dirs = []
    extra = os.environ.get("TUBECAT_CATALOG_DIR", "")
    for part in extra.split(os.pathsep):
        if part:
            dirs.append(Path(part))
    dirs.append(_DATA_DIR)
    return dirs


def available() -> list[str]:
    """Catalog names resolvable by find(): built-ins plus user entries."""
    names = list(BUILTIN_NAMES)
    for d in _search_dirs():
        if d == _DATA_DIR or not d.is_dir():
            continue
        for p in sorted(d.glob("*.json")):
            if p.stem not in names:
                names.append(p.stem)
    return names


def find(name_or_path: str) -> FusionCategorySpec:
    """Resolve a catalog name, alias, or filesystem path and load it.  The
    loader is imported here, so listing the catalog loads no numpy."""
    from .catspec import load_spec

    name = _ALIASES.get(name_or_path, name_or_path)
    cand = Path(name)
    if cand.suffix == ".json" or os.sep in name or cand.is_file():
        try:
            with open(cand, "rb") as fh:
                return load_spec(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read category file {name!r}: {exc}") from None
    for d in _search_dirs():
        path = d / f"{name}.json"
        if path.is_file():
            with open(path, "rb") as fh:
                return load_spec(fh)
    raise SchemaError(f"unknown category {name_or_path!r} "
                      f"(catalog: {', '.join(available())})")
