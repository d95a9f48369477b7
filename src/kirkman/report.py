"""Structured pass/fail reporting shared by the verifiers."""

from __future__ import annotations

from .record import Record, set_field, set_key

__all__ = ["CheckResult", "VerificationReport", "check_from_failures"]


class CheckResult(Record):
    __slots__ = ("name", "passed", "details")

    def __init__(self, name, passed, details=()):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "details", details)
        set_key(self, (name, passed, details))

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        suffix = f" ({'; '.join(self.details)})" if self.details else ""
        return f"{mark:4s} {self.name}{suffix}"


class VerificationReport(Record):
    __slots__ = ("subject", "checks")

    def __init__(self, subject, checks):
        set_field(self, "subject", subject)
        set_field(self, "checks", checks)
        set_key(self, (subject, checks))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def text(self):
        lines = [f"verification: {self.subject}"]
        lines += [f"  {c}" for c in self.checks]
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_from_failures(name, failures, limit=5):
    """A CheckResult that fails when the failure list is nonempty."""
    details = tuple(str(f) for f in failures[:limit])
    if len(failures) > limit:
        details += (f"... {len(failures) - limit} more",)
    return CheckResult(name, not failures, details)
