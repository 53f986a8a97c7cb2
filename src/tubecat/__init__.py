"""tubecat: fusion-category diagram engine, tube algebras, center extraction.

The package names load on first use (PEP 562): ``_HOME`` maps each public
name to the module that defines it, and the first read of ``tubecat.name``
imports that module alone, keeps the name in the package and returns it.
So ``import tubecat`` loads no numpy, ``tubecat.load_spec`` loads only the
load closure (catspec, errors, fsymbols, jsonutil, pentagon, report,
ring), and a name of the center pipeline brings in its tube and sums
layers.  ``from tubecat import name`` and ``dir(tubecat)`` see the same
table; ``__version__`` is set at import.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module of this package that defines it
_HOME = {
    "available": "catalog", "find": "catalog",
    "FusionCategorySpec": "catspec", "load_spec": "catspec", "serialize": "catspec",
    "BlockDecomposition": "center", "CenterSimple": "center",
    "center_report": "center", "compute_twists": "center",
    "decompose_blocks": "center", "extract_center_simples": "center",
    "ConsistencyError": "errors", "DegenerateSpectrum": "errors",
    "EmptySpace": "errors", "NotInCommutant": "errors", "SchemaError": "errors",
    "ShapeError": "errors", "ToleranceError": "errors", "TubecatError": "errors",
    "Engine": "morphism", "Morphism": "morphism", "engine_for": "morphism",
    "SUITES": "relations", "run_suite": "relations",
    "FusionRing": "ring", "QuantumDimensions": "ring", "compute_fp_dims": "ring",
    "DeltaObject": "tube", "LambdaObject": "tube", "TubeAlgebra": "tube",
    "TubeElement": "tube", "build_delta": "tube", "build_tube_algebra": "tube",
    "f_map": "tube", "t_map": "tube", "tube_product": "tube", "tube_star": "tube",
}


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
