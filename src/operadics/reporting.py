"""
Pass/fail reports for law checkers.

Every checker in this package returns a Report: one CheckResult per law,
where a failure carries a human-readable witness (the offending inputs).
Failures are data, not exceptions — a checker only raises on malformed
input, never on a law that happens to be false.

A law with many cases runs through `Report.check(law, cases)`: `cases`
yields None for a case that holds, an int n for a block of n that hold, and
a witness string for one that fails.  The run stops at the first witness,
so it is the earliest counterexample, and the count includes that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class CheckResult:
    law: str
    passed: bool
    witness: str = ""
    checked: int = 0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = ""
        if self.checked:
            suffix = f" [{self.checked} cases]"
        if not self.passed and self.witness:
            suffix += f": {self.witness}"
        return f"{verdict} {self.law}{suffix}"


@dataclass
class Report:
    title: str
    results: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, law: str, passed: bool, witness: str = "", checked: int = 0) -> None:
        self.results.append(CheckResult(law, passed, witness, checked))

    def check(self, law: str, cases: Iterable[int | str | None]) -> None:
        """Record a law from its cases: None for a pass, n for n passes, a witness for the first failure."""
        checked = 0
        for case in cases:
            if case is None:
                checked += 1
            elif isinstance(case, str):
                self.record(law, False, case, checked + 1)
                return
            else:
                checked += case
        self.record(law, True, "", checked)

    def note(self, text: str) -> None:
        """Attach an informational line, rendered between title and laws."""
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> list[CheckResult]:
        return [result for result in self.results if not result.passed]

    def result(self, law: str) -> CheckResult:
        for candidate in self.results:
            if candidate.law == law:
                return candidate
        raise KeyError(f"no law named {law!r} in report {self.title!r}")

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        lines.extend(f"note: {text}" for text in self.notes)
        lines.extend(result.line() for result in self.results)
        lines.append(f"{'OK' if self.ok else 'FAILED'} ({len(self.results)} laws)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
