"""Residual reports for identity and inequality checks.

Every verification routine in the package returns one or more CheckResult
records; a check passes when its residual is within tolerance (for
inequalities the residual is the amount of violation, clipped at zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import max_abs


@dataclass(frozen=True)
class CheckResult:
    identity: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def make_check(identity: str, residual: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(identity, float(residual), float(tolerance),
                       bool(residual <= tolerance), detail)


def identity_check(identity: str, lhs, rhs, rtol: float) -> CheckResult:
    """Matrix identity lhs = rhs: the largest entrywise residual against
    rtol times the largest entry of either side (at least 1).  Sides may
    be scipy.sparse; a difference of two sparse sides stays sparse."""
    scale = max(1.0, max_abs(lhs), max_abs(rhs))
    return make_check(identity, max_abs(lhs - rhs), rtol * scale)


@dataclass(frozen=True)
class CheckSuite:
    """A named bundle of check results, serializable for CLI reports."""

    name: str
    checks: tuple = field(default_factory=tuple)
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        d = {
            "suite": self.name,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.note:
            d["note"] = self.note
        return d
