"""Depth profiles: the per-prefix gap between time-bounded and
stage-approximated complexity.

A profile reads two complexity values per prefix from one halting table
and subtracts them in integers, so this module imports neither the
builder of constructions nor fractions: `profile` loads no Fraction.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .bits import check_bits
from .complexity import TimeBound, halting_table, k_stage
from .toyvm import oracle_key


class ProfileRow(NamedTuple):
    n: int
    k_time: int | None
    k_stage: int | None
    gap: int

    @property
    def above_cap(self) -> bool:
        return self.k_time is None or self.k_stage is None


class DepthProfile(NamedTuple):
    sigma: str
    rows: tuple
    params: dict

    def csv_lines(self):
        yield "n,k_time,k_stage,gap,above_cap"
        for r in self.rows:
            kt = "above-cap" if r.k_time is None else r.k_time
            ks = "above-cap" if r.k_stage is None else r.k_stage
            yield f"{r.n},{kt},{ks},{r.gap},{int(r.above_cap)}"


def depth_profile(x_prefix: str, t: TimeBound, stage: int, oracle=None,
                  cap: int = 18) -> DepthProfile:
    """Per-prefix gap between time-bounded and stage-approximated
    complexity, both relative to the same oracle; the gap column is the
    desk-scale depth signal.  Above-cap values enter the gap as cap+1."""
    check_bits(x_prefix)
    halting_table(oracle, cap)  # a bad cap raises before any warning
    worst = max((t(n) for n in range(1, len(x_prefix) + 1)), default=0)
    if stage < worst:
        warnings.warn(
            f"stage {stage} is below the largest time budget {worst};"
            " gaps may come out negative", stacklevel=2)
    rows = []
    for n in range(1, len(x_prefix) + 1):
        k_t = k_stage(x_prefix[:n], t(n), oracle, cap)
        k_s = k_stage(x_prefix[:n], stage, oracle, cap)
        rows.append(ProfileRow(n, k_t.value, k_s.value, k_t.clamped(cap) - k_s.clamped(cap)))
    return DepthProfile(x_prefix, tuple(rows), {
        "t": t.describe(), "stage": stage, "cap": cap,
        "oracle": list(map(str, oracle_key(oracle))),
    })
