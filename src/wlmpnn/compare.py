"""Distinguishing-power comparisons between concrete runs.

A run A is weaker than a run B under a monotone round shift when, for every
round t of A, every vertex pair merged by B at the shifted round is also
merged by A at round t.  Comparisons read only a trace's ``partitions``, so
runs of different label widths and number types compare cleanly, and two runs
are equally strong exactly when ``a.partitions == b.partitions``.  Failed
comparisons carry a self-validating witness: the first (round, v, w) whose
merge/split genuinely violates the relation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .graphs import partition_refines_violation
from .mpnn import RunTrace
from .surd import InputError
from .wl import WlTrace


@dataclass(frozen=True)
class ShiftSpec:
    """Round shift g: identity (g(t)=t), plus_one (t+1) or times_c (c*t)."""

    kind: str
    c: int = 1

    def __post_init__(self):
        if self.kind not in ("identity", "plus_one", "times_c"):
            raise InputError(f"unknown shift kind {self.kind!r}")
        if self.kind == "times_c" and self.c < 1:
            raise InputError("linear factor must be a positive integer")

    def apply(self, t: int) -> int:
        if self.kind == "identity":
            return t
        if self.kind == "plus_one":
            return t + 1
        return self.c * t

    @staticmethod
    def from_text(text: str) -> "ShiftSpec":
        if text in ("0", "id", "identity"):
            return ShiftSpec("identity")
        if text in ("+1", "plus_one"):
            return ShiftSpec("plus_one")
        if text.startswith("x") and text[1:].isdecimal():
            try:
                c = int(text[1:])
            except ValueError as exc:  # past the int string conversion limit
                raise InputError(f"shift x<{len(text) - 1} digits>: {exc}") from exc
            return ShiftSpec("times_c", c)
        raise InputError(f"unknown shift {text!r} (expected 0, +1 or x<c>)")

    def to_text(self) -> str:
        if self.kind == "identity":
            return "0"
        if self.kind == "plus_one":
            return "+1"
        return f"x{self.c}"


@dataclass(frozen=True)
class CompareVerdict:
    """Outcome of a weaker-than check with its first violation, if any."""

    holds: bool
    first_violation: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.holds != (self.first_violation is None):
            raise ValueError("a verdict holds exactly when it has no violation")

    def to_json(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.first_violation is not None:
            t, v, w = self.first_violation
            out["first_violation"] = {"round": t, "v": v, "w": w}
        return out


def check_shift_rounds(rounds_a: int, rounds_b: int, shift: ShiftSpec) -> None:
    """Refuse (InputError) a right side of rounds_b rounds when the shift
    needs more of a left side of rounds_a."""
    needed = shift.apply(rounds_a)
    if rounds_b < needed:
        raise InputError(f"right trace has {rounds_b} rounds but the shift needs {needed}")


def weaker(trace_a: RunTrace | WlTrace, trace_b: RunTrace | WlTrace, shift: ShiftSpec) -> CompareVerdict:
    """Is A weaker than B under the shift: B's round-g(t) partition must
    refine into A's round-t partition for every 0 <= t <= T_A."""
    rounds_a = len(trace_a.partitions) - 1
    check_shift_rounds(rounds_a, len(trace_b.partitions) - 1, shift)
    for t in range(rounds_a + 1):
        fine = trace_b.partitions[shift.apply(t)]
        coarse = trace_a.partitions[t]
        witness = partition_refines_violation(fine, coarse)
        if witness is not None:
            return CompareVerdict(holds=False, first_violation=(t, *witness))
    return CompareVerdict(holds=True)


@dataclass(frozen=True)
class Comparison:
    """A named verdict bundled with both traces' per-round class counts."""

    left_name: str
    right_name: str
    shift: ShiftSpec
    verdict: CompareVerdict
    left_counts: tuple[int, ...]
    right_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "left": self.left_name,
            "right": self.right_name,
            "shift": self.shift.to_text(),
            "left_class_counts": list(self.left_counts),
            "right_class_counts": list(self.right_counts),
            **self.verdict.to_json(),
        }


def compare_traces(
    left: RunTrace | WlTrace,
    right: RunTrace | WlTrace,
    shift: ShiftSpec,
    left_name: str = "left",
    right_name: str = "right",
) -> Comparison:
    verdict = weaker(left, right, shift)
    return Comparison(
        left_name=left_name,
        right_name=right_name,
        shift=shift,
        verdict=verdict,
        left_counts=tuple(p.num_classes for p in left.partitions),
        right_counts=tuple(p.num_classes for p in right.partitions),
    )


def report(comparisons: Sequence[Comparison], fmt: str = "text") -> str:
    """Render verdicts: relation symbols, class counts and witnesses."""
    if fmt == "json":
        payload = {
            "comparisons": [c.to_json() for c in comparisons],
            "passed": sum(1 for c in comparisons if c.verdict.holds),
            "failed": sum(1 for c in comparisons if not c.verdict.holds),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if not comparisons:
        return "no comparisons\n"
    lines = []
    for c in comparisons:
        relation = "weaker-than" if c.verdict.holds else "NOT weaker-than"
        suffix = "" if c.shift.kind == "identity" else f" [shift {c.shift.to_text()}]"
        lines.append(f"{c.left_name} {relation} {c.right_name}{suffix}")
        lines.append(f"  classes {c.left_name}: {list(c.left_counts)}")
        lines.append(f"  classes {c.right_name}: {list(c.right_counts)}")
        if c.verdict.first_violation is not None:
            t, v, w = c.verdict.first_violation
            lines.append(f"  witness: round {t}, vertices v{v} and v{w}")
    passed = sum(1 for c in comparisons if c.verdict.holds)
    lines.append(f"{passed}/{len(comparisons)} relations hold")
    return "\n".join(lines) + "\n"
