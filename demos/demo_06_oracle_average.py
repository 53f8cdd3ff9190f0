#!/usr/bin/env python3
"""Averaging over oracles: exact integrals, Markov bounds, the psi test.

Run with: python3 demos/demo_06_oracle_average.py
"""

from depthlab.complexity import TimeBound
from depthlab.randomness import (
    psi,
    psi_average,
    psi_domination_constant,
)
from depthlab.semimeasure import (
    m_stage,
    measure_cheap_oracles,
    monte_carlo_average,
    oracle_average,
    oracle_average_direct,
)

t = TimeBound.poly(10, 1)

# A run consults only finitely many oracle bits, so integrating the
# oracle-relative mass over all oracles is a finite exact sum: each
# halting branch that pins q bits contributes 2^-(|p|+q).
sigma = "1"
exact = oracle_average(sigma, t, cap=15, depth=4)
direct = oracle_average_direct(sigma, t, cap=15, depth=4)
mean, se = monte_carlo_average(sigma, t, cap=15, depth=4, samples=5000, seed=7)
print(f"avg mass of {sigma!r}: closed form {exact}, direct {direct},"
      f" equal: {exact == direct}")
print(f"Monte-Carlo: {float(mean):.6f} +- {se:.6f} (exact {float(exact):.6f})")

# Markov: oracles that inflate the mass of a fixed string k-fold over its
# plain time-bounded mass occupy at most C/k of the space, with C the
# exact average-to-plain ratio.
x = "0000"
base = m_stage(x[:1], t(1), None, 12)
c_const = oracle_average(x[:1], t, 12, 4) / base
print(f"\nC = {c_const};  measure of k-compressing oracles:")
for k in (1, 2, 4, 8):
    mu = measure_cheap_oracles(x, 1, k, t, t(1), 4, 12)
    print(f"  k={k}: {str(mu):8}  bound C/k = {c_const / k}")

# The truncated test weighs oracle-relative mass against plain
# time-bounded mass; with the measured domination constant its exact
# average over all oracle prefixes stays at or below 1.
c_star = psi_domination_constant(t, t, len_cap=2, depth=3, cap=12)
one_oracle = psi("000", t, t, c_star, 2, 10 ** 3, 12)
avg = psi_average(t, t, c_star, 2, 10 ** 3, 3, 12)
print(f"\npsi under oracle 000: {one_oracle.value}"
      f" (dropped {one_oracle.dropped_terms} zero-denominator terms)")
print(f"average psi over oracles: {avg} <= 1: {avg <= 1} (c* = {c_star})")
