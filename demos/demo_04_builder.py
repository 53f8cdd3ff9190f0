#!/usr/bin/env python3
"""The finite-extension builder: cheap for the bettor, dear for the clock.

Run with: python3 demos/demo_04_builder.py
"""

import json
from fractions import Fraction

from depthlab.complexity import TimeBound
from depthlab.constructions import BuilderConfig, build_deep_random
from depthlab.depth import depth_profile
from depthlab.randomness import default_builder_martingale
from depthlab.numbering import HaltingOracle

# Round r extends the string by l(1 + 1/r^2, 2^r) bits.  Extensions are
# filtered twice: the supermartingale must price them under delta_r times
# the current value (keeping the result hard to bet against), and the
# oracle machine must fail to compress them below r - 1 bits within the
# dominating budget (keeping them slow to describe).
oracle = HaltingOracle(10 ** 4)
cfg = BuilderConfig(
    rounds=6,
    martingale=default_builder_martingale(oracle, 18),
    oracle=oracle,
    dominating=TimeBound.poly(2, 2),
    cap=18,
    mart_stage=10 ** 4,
)
trace = build_deep_random(cfg)

print("round  len  extensions  d(sigma)              flagged")
for r in trace.rounds:
    print(f"{r.n:5}  {len(r.sigma):3}  {r.ext_count:10}  {str(r.d_value):20}  {r.flagged}")

# The per-round budget d(sigma_r) <= d(lambda) * prod(1 + 1/i^2) holds
# exactly; its infinite product is finite, which is the whole point: the
# built sequence never lets the mixture martingale run off to infinity.
bounds = trace.claim_bound_products()
print("\nbudget check:", trace.check_martingale_budget())
print("round-3 bound is 25/9 * d(lambda):",
      bounds[2] == Fraction(25, 9) * trace.d_lambda)
print("length recurrence check:", trace.check_length_recurrence())
print("lengths vs r^2/2:", [(n, l, q) for n, l, q in trace.length_fit()])

# The emitted trace is a stable JSON artifact (same schema as the CLI).
print("\ntrace head:", json.dumps(trace.to_json())[:120], "...")

# A depth profile compares the time-bounded and stage complexities of
# every prefix; above-cap rows are the desk-scale analogue of "no fast
# short description exists".
prof = depth_profile(trace.sigma[:12], cfg.dominating, 10 ** 4, oracle, 18)
print("\nprofile of the first 12 bits (n, K^t, K_stage, gap):")
for row in prof.rows:
    print(f"  {row.n:2}  {str(row.k_time):5} {str(row.k_stage):5} {row.gap:3}")
