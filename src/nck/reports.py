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


def moment_report(name: str, tol: float, measured, closed, factor: float) -> CheckReport:
    """Compare directly evaluated moments with their closed forms.

    ``measured`` and ``closed`` are ``(col2, row2, col4, row4)``, the second
    and fourth column and row moments (see :func:`nck.norms.moment_forms`).
    The fourth moments must also sit below ``factor`` times the measured
    second moments.  Raises :class:`IdentityViolation` unless every row
    passes.
    """
    m2_col, m2_row, m4_col, m4_row = measured
    col2, row2, col4, row4 = closed
    report = CheckReport(name=name, tolerance=tol)
    report.record("second-moment-column", rel_dev(m2_col, col2))
    report.record("second-moment-row", rel_dev(m2_row, row2))
    report.record("fourth-moment-column", rel_dev(m4_col, col4))
    report.record("fourth-moment-row", rel_dev(m4_row, row4))
    report.record("fourth-psd-column", psd_violation(m4_col, factor * m2_col))
    report.record("fourth-psd-row", psd_violation(m4_row, factor * m2_row))
    raise_if_failed(report)
    return report
