#!/usr/bin/env python3
"""Betting tables and the cheap-extension counting bound.

Run with: python3 demos/demo_03_space_lemma.py
"""

from fractions import Fraction

from depthlab.randomness import (
    MartingaleTable,
    count_cheap_extensions,
    space_lemma_length,
    space_lemma_sample,
)

# A martingale doubles its stake on the branch it bets on and zeroes the
# other, or splits anywhere in between; fairness 2 d(s) = d(s0) + d(s1)
# holds exactly in every table this module accepts.  A split (p, q) bets
# p/q of the stake on the 0-child; splits are listed in heap order, at
# "", "0", "1", "00", "01", "10", "11".
d = MartingaleTable.from_splits(3, [(1, 1), (1, 1), (1, 2), (1, 1), (1, 2), (1, 2), (1, 2)])
print("all-in on zeros: d(000) =", d.value("000"), " d(001) =", d.value("001"))

# However aggressively it bets, a martingale cannot be ahead everywhere:
# among the 2^l extensions of length l = ceil(log2((k+1)/(1 - 1/delta)))
# at least k stay below delta times the current value.
for delta, k in ((Fraction(2), 2), (Fraction(3, 2), 4), (Fraction(3), 8)):
    l = space_lemma_length(delta, k)
    count = count_cheap_extensions(MartingaleTable.constant(6), "", delta, l)
    print(f"delta={delta} k={k}: l={l}, constant table has {count} cheap"
          f" extensions (needs >= {k})")

# The bound survives adversarial randomness: count violations at the
# root of seeded random tables with splits i/8 (there are none; the
# counting argument is exact).
violations = 0
for delta, k in ((Fraction(2), 2), (Fraction(2), 4), (Fraction(3), 8)):
    l = space_lemma_length(delta, k)
    violations += space_lemma_sample(6, 2000, 7, delta, l, k)[1]
print("violations over 2000 random tables:", violations)

# The doubling-on-zeros table shows the count can exceed the guarantee:
print("doubling table, delta=2, l=2:",
      count_cheap_extensions(d, "", 2, 2), "cheap of 4")
