"""Pass/fail report container shared by the verification suites."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import errors

__all__ = ["CaseResult", "VerificationReport"]


@dataclass(frozen=True)
class CaseResult:
    labels: tuple[str, ...]
    residual: float
    ok: bool


@dataclass
class VerificationReport:
    suite: str
    tol: float
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, labels, residual: float) -> None:
        residual = float(residual)
        self.cases.append(CaseResult(tuple(str(x) for x in labels),
                                     residual, residual < self.tol))

    @property
    def max_residual(self) -> float:
        """Largest case residual, NaN if any case is NaN (errors.worst)."""
        return errors.worst(c.residual for c in self.cases)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def worst(self) -> CaseResult | None:
        """The first case attaining max_residual: the first NaN case, if any."""
        top = self.max_residual
        return next((c for c in self.cases
                     if c.residual == top or c.residual != c.residual), None)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [
                {"labels": list(c.labels), "residual": c.residual, "pass": c.ok}
                for c in self.cases
            ],
            "max_residual": self.max_residual,
            "pass": self.ok,
        }
