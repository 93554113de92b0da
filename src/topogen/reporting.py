"""Structured validation and theorem-check reports.

Every validator and checker returns a report full of witnesses instead of a
bare boolean; counterexample forensics is the whole point of this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    law: str
    where: str = ""
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        parts = [self.law]
        if self.where:
            parts.append(f"at {self.where}")
        if self.witness:
            parts.append("witness " + ", ".join(self.witness))
        return "; ".join(parts)


@dataclass(frozen=True)
class Report:
    """Outcome of validating one structure or checking one statement.

    ``counts`` holds a check's deterministic counters of its own work, by
    name; they are neither compared, rendered nor merged."""

    subject: str
    checked: int = 0
    violations: tuple[Violation, ...] = ()
    skipped: tuple[str, ...] = ()
    counts: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"{'ok' if self.ok else 'FAIL'} {self.subject} checked={self.checked}"]
        for v in self.violations:
            lines.append("  violation: " + v.render())
        for s in self.skipped:
            lines.append("  skipped: " + s)
        return "\n".join(lines)


def merge(subject: str, reports: list[Report]) -> Report:
    return Report(
        subject=subject,
        checked=sum(r.checked for r in reports),
        violations=tuple(v for r in reports for v in r.violations),
        skipped=tuple(s for r in reports for s in r.skipped),
    )
