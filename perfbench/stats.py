"""The per-workload outcome record."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` are the end-to-end numbers (value, unit) every workload
    reports; ``detail`` are workload-specific numbers (``minimize_s``,
    ``serve_p95_s``, ...) printed for people but not part of the JSON
    result; ``layers`` are the per-layer numbers of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans_file: str = ""
    passes: int = 1

    def check(self, label: str, error: str | None) -> None:
        """Count one operation; ``error`` is None when it was correct."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")
