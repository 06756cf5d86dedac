"""Shared result container and deviation measures for identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import IdentityViolation


@dataclass
class CheckReport:
    """Deviations of a family of exact identities from their closed forms.

    ``deviations`` maps a descriptive identity tag to its worst observed
    deviation (already normalized where the identity is scale dependent).
    """

    name: str
    deviations: dict = field(default_factory=dict)
    tolerance: float = 0.0

    def record(self, tag: str, value: float):
        value = float(value)
        if tag in self.deviations:
            self.deviations[tag] = max(self.deviations[tag], value)
        else:
            self.deviations[tag] = value

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def worst(self) -> tuple:
        if not self.deviations:
            return ("", 0.0)
        tag = max(self.deviations, key=self.deviations.get)
        return (tag, self.deviations[tag])


def rel_dev(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest entrywise deviation, normalized by ``1 + max|expected|``."""
    scale = 1.0 + float(np.abs(expected).max(initial=0.0))
    return float(np.abs(actual - expected).max(initial=0.0)) / scale


def psd_violation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Positive amount by which ``lhs <= rhs`` fails, scale normalized."""
    diff = rhs - lhs
    diff = 0.5 * (diff + diff.conj().T)
    lam_min = float(np.linalg.eigvalsh(diff)[0])
    scale = 1.0 + float(np.abs(lhs).max(initial=0.0)) + float(np.abs(rhs).max(initial=0.0))
    return max(0.0, -lam_min) / scale


def raise_if_failed(report: CheckReport):
    """Raise :class:`IdentityViolation` carrying ``report`` unless it passed."""
    if not report.passed:
        tag, dev = report.worst()
        raise IdentityViolation(
            f"{report.name}: identity {tag!r} deviates by {dev:.3e} "
            f"(tol {report.tolerance:.1e})",
            max_deviation=dev,
            report=report,
        )
