"""Staged semimeasures over the pinned machine, all in exact rationals.

The machine-derived staged semimeasure is

    m_s(sigma) = sum 2^-|p| over programs p of at most cap bits
                 that halt on sigma within s steps,

monotone in s with total mass at most 1 by prefix-freeness.  The module
also converts computable semimeasure tables into the stage at which the
machine semimeasure dominates them (a first-crossing search over halting
events), and integrates the oracle-relative semimeasure exactly over all
oracle prefixes of a given depth.  The integral reads one index per
(budget, cap, depth) of every halting oracle branch, built by one walk
of the instruction-prefix trie (complexity.PrefixTrie) in which each
unpinned oracle answer is a branch point.  It sums integers in units of
2^-cap; a Fraction is built only for the value returned.  The same index
gives the measure of the oracle prefixes that lift a string's mass
k-fold (measure_cheap_oracles).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .bits import (
    DepthlabError,
    NoStageWithinBudget,
    check_bits,
    index_to_body,
    parse_fraction,
    read_input,
    strings_of_length,
)
from .complexity import (
    HaltingTable,
    PrefixTrie,
    TimeBound,
    check_cap,
    halting_table,
    k_stage,
    m_numerator,
)
from .toyvm import (
    MEMO,
    OracleBranches,
    PrefixOracle,
    Program,
    output_string,
)


class DepthViolation(DepthlabError):
    """Some reachable oracle query lies at or beyond the sampling depth."""


# --------------------------------------------------------------------------
# the machine semimeasure


def m_stage(sigma: str, stage: int, oracle=None, cap: int = 16) -> Fraction:
    """Exact stage approximation of the machine semimeasure at sigma."""
    return Fraction(m_numerator(sigma, stage, oracle, cap), 1 << cap)


# --------------------------------------------------------------------------
# exact fraction tables on disk: one `sigma<TAB>num/den` line per string


class ComputableSemimeasure:
    """Finite table sigma -> rational with default 0 and mass at most 1."""

    def __init__(self, table: dict[str, Fraction]):
        self.table = {check_bits(k): Fraction(v) for k, v in table.items()}
        if any(v < 0 for v in self.table.values()):
            raise ValueError("semimeasure values must be nonnegative")
        if sum(self.table.values(), Fraction(0)) > 1:
            raise ValueError("semimeasure mass exceeds 1")

    def __call__(self, sigma: str) -> Fraction:
        return self.table.get(sigma, Fraction(0))

    @classmethod
    def from_file(cls, path) -> "ComputableSemimeasure":
        def parse(lines):
            table = {}
            for line in lines:
                if line.strip():
                    sigma, tab, frac = line.partition("\t")
                    if not tab:
                        raise ValueError(f"{line!r} is not sigma<TAB>num/den")
                    if check_bits(sigma) in table:
                        raise ValueError(f"sigma {sigma!r} given twice")
                    table[sigma] = parse_fraction(frac)
            return cls(table)

        return read_input(path, "fraction table", parse)


# --------------------------------------------------------------------------
# coding gap


class CodingGap(NamedTuple):
    """How much heavier the semimeasure is than the single best witness.

    factor = m_s(sigma) * 2^K_s(sigma) exactly; the gap in bits is its
    base-2 logarithm, nonnegative whenever the complexity is finite
    because the witness alone contributes 2^-K_s."""

    sigma: str
    stage: int
    factor: Fraction
    k_value: int | None
    mass: Fraction

    @property
    def bits(self) -> float | None:
        import math

        if self.factor == 0:
            return None
        return math.log2(self.factor)


def coding_gap(sigma: str, stage: int, cap: int = 16, oracle=None) -> CodingGap:
    res = k_stage(sigma, stage, oracle, cap)
    mass = m_stage(sigma, stage, oracle, cap)
    factor = mass * (1 << res.value) if res.value is not None else Fraction(0)
    return CodingGap(sigma, stage, factor, res.value, mass)


# --------------------------------------------------------------------------
# computable semimeasure -> time bound (first-crossing stage search)


def semimeasure_to_timebound(m: ComputableSemimeasure, c: Fraction, n: int,
                             oracle=None, cap: int = 16,
                             stage_ceiling: int = 10 ** 5) -> int:
    """Least stage s with m(sigma) < c * m_s(sigma) for every sigma of
    length n.  Raises NoStageWithinBudget past the stage ceiling, which
    signals that c is too small at this cap."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    table = halting_table(oracle, cap)
    table.ensure(stage_ceiling)
    best = 0
    for sigma in strings_of_length(n):
        v = m(sigma)
        # m(sigma) < c * mass / 2^cap, cross-multiplied
        lhs = (v.numerator * c.denominator) << cap
        rhs = c.numerator * v.denominator
        at = table.halts_on(sigma)
        num = 0
        for s in sorted(at):
            num += at[s][1]
            if s <= stage_ceiling and lhs < rhs * num:
                break
        else:
            raise NoStageWithinBudget(
                f"no stage <= {stage_ceiling} dominates {sigma!r} at c={c}")
        best = max(best, s)
    return best


# --------------------------------------------------------------------------
# exact averaging over oracle prefixes
#
# Outcomes depend only on the bits asked, so a program's runs form a finite
# branching tree over its oracle answers; a leaf that pins q bits stands
# for a 2^-q slice of the prefix space, and a program's leaves partition
# it.  PrefixMassEvaluator grows these trees for every program at once:
# it walks the instruction-prefix trie under OracleBranches, where a run
# that asks an unpinned index below depth splits into one child per
# answer, and each halt adds its closed-form subtree or tail mass to the
# entry of its pinned bits.  oracle_average_direct reads no branch: it
# builds one plain HaltingTable per concrete prefix oracle and sums their
# masses, so the two integrals share only the enumeration core.


class PrefixMassEvaluator:
    """Every halting oracle branch of the programs of at most cap bits,
    indexed by output: halts[sigma][mask, bits] is the summed 2^-|p|, in
    units of 2^-cap, of the branches printing sigma that pin the indices
    in mask to the answers in bits (index i of a depth-bit prefix y is bit
    depth-1-i of int(y, 2); a program that never queries is (0, 0)).  Each
    branch is keyed by its whole output (toyvm.output_string), so one
    longer than toyvm.OUTPUT_LIMIT bits raises MachineError.  A program's
    branches partition the prefixes, so the mass under y is the sum of the
    weights whose entry matches y.

    The index comes from one walk of the instruction-prefix trie (see
    complexity.PrefixTrie) under OracleBranches(depth): a node that asks
    an unpinned index below depth splits into one child per answer, and
    a node that halts adds its subtree or tail mass to its entry.  A run
    that reaches the budget or diverges adds nothing, as there is only
    this one budget.  A query at depth or beyond raises DepthViolation
    naming the canonically least program that makes one, with the index
    its first such branch asks."""

    def __init__(self, budget: int, cap: int, depth: int):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        trie = PrefixTrie(check_cap(cap))
        answers = OracleBranches(depth)
        self.cap = cap
        self.halts: dict[str, dict[tuple[int, int], int]] = {}
        for _index, (mask, bits, _order), st, mass in trie.walk(
                trie.root(), answers, budget):
            entries = self.halts.setdefault(output_string(st.rope), {})
            entries[mask, bits] = entries.get((mask, bits), 0) + mass
        if answers.too_deep is not None:
            index, _order, query = answers.too_deep
            program = Program.encode(index_to_body(index))
            raise DepthViolation(f"program {program.bits} queries index {query}")

    def numerator(self, sigma: str, prefix: int) -> int:
        """The mass at sigma under the prefix int(y, 2), in units of 2^-cap."""
        return sum(w for (mask, bits), w in self.halts.get(sigma, {}).items()
                   if prefix & mask == bits)

    def mass(self, sigma: str, prefix: str) -> Fraction:
        return Fraction(self.numerator(sigma, int(prefix or "0", 2)), 1 << self.cap)


def prefix_mass_evaluator(budget: int, cap: int, depth: int) -> PrefixMassEvaluator:
    key = (budget, cap, depth)
    ev = MEMO.evaluators.get(key)
    if ev is None:
        ev = MEMO.evaluators[key] = PrefixMassEvaluator(budget, cap, depth)
    return ev


def oracle_average(sigma: str, t: TimeBound, cap: int = 16,
                   depth: int = 6) -> Fraction:
    """Exact integral of the oracle-relative semimeasure at sigma over all
    oracle prefixes of the given depth: the weighted sum, over halting
    (program, pinned-bits) pairs, of 2^-(|p| + pinned)."""
    check_bits(sigma)
    ev = prefix_mass_evaluator(t(len(sigma)), cap, depth)
    total = sum(w << (depth - mask.bit_count())
                for (mask, _bits), w in ev.halts.get(sigma, {}).items())
    return Fraction(total, 1 << (cap + depth))


def oracle_average_direct(sigma: str, t: TimeBound, cap: int = 16,
                          depth: int = 6) -> Fraction:
    """The same integral by brute enumeration of all 2^depth prefixes y,
    each the mass at sigma of a HaltingTable under PrefixOracle(y); the
    reference for oracle_average, so it reads no evaluator and splits on
    no oracle answer.  Each table is built, read and dropped, never cached
    in MEMO.  A query at depth or beyond aborts that run under its prefix,
    so where oracle_average raises DepthViolation this returns the mass of
    the runs that stay within the prefix."""
    check_bits(sigma)
    budget = t(len(sigma))
    hits = sum(HaltingTable(PrefixOracle(y), cap).mass_numerator(sigma, budget)
               for y in strings_of_length(depth))
    return Fraction(hits, 1 << (cap + depth))


def relative_mass(sigma: str, prefix: str, budget: int, cap: int = 16) -> Fraction:
    """m^.(sigma) under one concrete oracle prefix, via the cached branch
    index (so sweeps over many prefixes share the machine runs)."""
    return prefix_mass_evaluator(budget, cap, len(prefix)).mass(sigma, prefix)


def monte_carlo_average(sigma: str, t: TimeBound, cap: int = 16, depth: int = 6,
                        samples: int = 10 ** 4, seed: int = 0):
    """(sample mean, standard error) of the oracle-relative mass at sigma
    over uniformly random depth-bit prefixes."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = random.Random(seed)
    ev = prefix_mass_evaluator(t(len(sigma)), cap, depth)
    # each distinct prefix drawn is evaluated once, weighted by its draws
    draws: dict = {}
    for _ in range(samples):
        y = rng.getrandbits(depth)
        draws[y] = draws.get(y, 0) + 1
    total = squares = 0
    for y, times in draws.items():
        v = ev.numerator(sigma, y)
        total += times * v
        squares += times * v * v
    mean = Fraction(total, samples << cap)
    # sum (v - mean)^2 = (n sum v^2 - (sum v)^2) / n, which is 0 for one sample
    var = Fraction(samples * squares - total * total,
                   max(samples * (samples - 1), 1) << (2 * cap))
    se = (float(var) / samples) ** 0.5
    return mean, se


# --------------------------------------------------------------------------
# measure of oracles that compress a fixed prefix


def measure_cheap_oracles(x_prefix: str, n: int, k, t: TimeBound, stage: int,
                          depth: int, cap: int = 16) -> Fraction:
    """Exact measure of depth-bit oracle prefixes Y with
    m^{Y,stage}(X|n) >= k * m^t(X|n).

    The mass under Y reads only the bits of Y that some branch printing
    X|n pins, so with U the union of those branches' masks it is counted
    once per assignment to U, which stands for 2^(depth - |U|) prefixes:
    the count is exact however large depth is."""
    check_bits(x_prefix)
    if not 0 <= n <= len(x_prefix):
        raise ValueError("n must lie between 0 and the prefix length")
    k = Fraction(k)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if stage < 0:
        raise ValueError(f"stage must be nonnegative, got {stage}")
    sigma = x_prefix[:n]
    threshold = k * m_stage(sigma, t(n), None, cap)
    ev = prefix_mass_evaluator(stage, cap, depth)
    bound = threshold.numerator << cap
    pinned = 0
    for mask, _bits in ev.halts.get(sigma, {}):
        pinned |= mask
    # y runs through every submask of pinned, from pinned down to 0
    hits, y = 0, pinned
    while True:
        if ev.numerator(sigma, y) * threshold.denominator >= bound:
            hits += 1
        if not y:
            break
        y = (y - 1) & pinned
    return Fraction(hits << (depth - pinned.bit_count()), 1 << depth)
