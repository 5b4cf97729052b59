"""The typed contract-violation error.

A :class:`ContractViolation` always names the *check* that failed and the
*subject* (matrix, vector or cache entry) that failed it, so a violation
deep inside a sweep is attributable without a debugger.  It subclasses
``ValueError``: every call site that previously raised (and every caller
that already catches) ``ValueError`` keeps working.
"""

from __future__ import annotations

__all__ = ["ContractViolation"]


class ContractViolation(ValueError):
    """A runtime contract of the analytic machinery was violated.

    Attributes
    ----------
    check:
        Name of the violated check (e.g. ``"check_generator"``).
    subject:
        Name of the offending object (e.g. ``"A0+A1+A2"``, ``"R"``,
        ``"cache entry 3f2a..."``).
    detail:
        Human-readable description of the violation.
    """

    def __init__(self, check: str, subject: str, detail: str) -> None:
        self.check = check
        self.subject = subject
        self.detail = detail
        super().__init__(f"[{check}] {subject}: {detail}")
