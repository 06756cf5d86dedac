"""Shared result container, deviation measures and verdict of identity checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IdentityViolation

__all__ = ["CheckReport", "checked", "rel_dev", "psd_violation", "moment_report"]


@dataclass(frozen=True)
class CheckReport:
    """Deviations of a family of exact identities from their closed forms.

    ``deviations`` maps a descriptive identity tag to its worst observed
    deviation (already normalized where the identity is scale dependent).
    """

    name: str
    tolerance: float
    deviations: dict

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def checked(name: str, tolerance: float, deviations: dict) -> CheckReport:
    """The report of ``deviations`` against ``tolerance``, once it passed.

    Raises :class:`IdentityViolation` carrying the report, and naming its
    worst identity, unless every deviation is within ``tolerance``.
    """
    report = CheckReport(name, tolerance, {tag: float(dev) for tag, dev in deviations.items()})
    if not report.passed:
        tag = max(report.deviations, key=report.deviations.get)
        raise IdentityViolation(
            f"{name}: identity {tag!r} deviates by {report.deviations[tag]:.3e} "
            f"(tol {tolerance:.1e})",
            report,
        )
    return report


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
    return checked(name, tol, {
        "second-moment-column": rel_dev(m2_col, col2),
        "second-moment-row": rel_dev(m2_row, row2),
        "fourth-moment-column": rel_dev(m4_col, col4),
        "fourth-moment-row": rel_dev(m4_row, row4),
        "fourth-psd-column": psd_violation(m4_col, factor * m2_col),
        "fourth-psd-row": psd_violation(m4_row, factor * m2_row),
    })
