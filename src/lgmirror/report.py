"""Verification reports shared by the theorem checkers."""

from __future__ import annotations


class PreconditionError(Exception):
    """A mathematical precondition of a check is not met (CLI exit 3)."""


class Report:
    __slots__ = ("check", "passed", "details", "mismatches")

    def __init__(self, check: str, passed: bool, details, mismatches):
        self.check = check
        self.passed = bool(passed)
        self.details = dict(details)
        self.mismatches = list(mismatches)

    def __bool__(self):
        return self.passed

    def to_json(self) -> dict:
        out = {"check": self.check, "pass": self.passed}
        out.update(self.details)
        out["mismatches"] = self.mismatches
        return out

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"Report({self.check}: {state}, {self.details})"
