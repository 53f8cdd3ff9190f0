#!/usr/bin/env python3
"""Pruning schedules, diagonal dodging, and reading the bits back.

Run with: python3 demos/demo_05_forcing.py
"""

from depthlab.dnc import Dnc2Witness, is_dnc2
from depthlab.pi01forcing import (
    Functional,
    PruningSchedule,
    force,
    member_string,
    members_at_stage,
)

# A pruning schedule is a finite view of an effectively closed class:
# forbidden strings arrive at stages, and a member is any path no
# forbidden string prefixes.
sch = PruningSchedule([(0, {"11"}), (2, {"100"})], depth=10)
for stage in (0, 2):
    members = [member_string(x, 4) for x in members_at_stage(sch, 4, stage)]
    print(f"members at depth 4, stage {stage}:", members)

# The canonical dodging witness disagrees with the parity of every
# halting diagonal value; mutating one constrained bit is caught at once.
w = Dnc2Witness.from_halting_table(1000)
bits = [w.value(e) for e in range(8)]
print("\nwitness bits 0..7:", bits, "valid:", is_dnc2(w, 1000)[0])
bad = Dnc2Witness.frozen(1000, {0: 1 - bits[0]})
print("flipping bit 0:", is_dnc2(bad, 1000))

# The forcing loop: each step builds a probe program whose diagonal
# value names a provably empty branch, so the witness bit always steers
# into the surviving one; a fixed-point program then tests whether the
# supplied functional is unanimous at its own index, and one coding bit
# is pressed into the class.
fn = Functional.projection((6, 7, 8))
res = force(sch, w, steps=3, stage_budget=4096, functional=fn)
print("\nforced prefix:", res.b_prefix, " final member:", res.b_member)
for st in res.steps:
    print(f"  step {st.s}: probe empty side={st.probe_empty_side}"
          f" dodge={st.dodge_bit} unanimous={st.event_unanimous}"
          f" coding={st.coding_bit} members {st.members_before}->{st.members_after}")
    print("    probe program:", "; ".join(st.n_disassembly[-3:]))

# Everything consumed is recoverable from the emitted member alone: bit
# s of the member is the dodge bit, and running the recorded functional
# instance on the member returns the coding bit.
print("\nreconstruction:")
for row in res.reconstruct(fn):
    print(" ", row)
