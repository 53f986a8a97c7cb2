"""Exception types shared across the package, and the residual fold that
decides when a tolerance check raises one."""

__all__ = [
    "TubecatError",
    "SchemaError",
    "ConsistencyError",
    "ShapeError",
    "EmptySpace",
    "ToleranceError",
    "NotInCommutant",
    "DegenerateSpectrum",
    "worst",
]


def worst(values) -> float:
    """Largest of some residuals: 0.0 if there are none, NaN if any is NaN.

    The builtin ``max`` keeps a NaN only in first place (``max(0.0, nan)``
    is 0.0), so a check that folded its residuals with it would pass a NaN
    defect as clean.  Stops at the first NaN.
    """
    out = 0.0
    for v in values:
        if v != v:
            return float(v)
        if v > out:
            out = v
    return float(out)


class TubecatError(Exception):
    """Base class for all package errors."""


class SchemaError(TubecatError):
    """Malformed category file: wrong types, missing keys, unknown labels."""


class ConsistencyError(TubecatError):
    """Well-formed data that violates a structural axiom (associativity,
    duality, pentagon, dimension identities)."""


class ShapeError(TubecatError):
    """Morphism source/target words do not line up for the requested
    operation."""


class EmptySpace(TubecatError):
    """Requested a basis of a zero-dimensional hom space."""


class ToleranceError(TubecatError):
    """A verified identity failed its numerical tolerance."""


class NotInCommutant(TubecatError):
    """Endomorphism handed to the inverse tube map does not commute with the
    half-braiding within tolerance."""


class DegenerateSpectrum(TubecatError):
    """Random central element failed to separate the blocks; retry with a new
    seed."""
