"""Staged semimeasures over the pinned machine, all in exact rationals.

The machine-derived staged semimeasure is

    m_s(sigma) = sum 2^-|p| over programs p of at most cap bits
                 that halt on sigma within s steps,

monotone in s with total mass at most 1 by prefix-freeness.  The module
also converts computable semimeasure tables into the stage at which the
machine semimeasure dominates them (a first-crossing search over halting
events), and integrates the oracle-relative semimeasure exactly over all
oracle prefixes of a given depth by exploring every reachable branch of
each program's oracle queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .complexity import NoStageWithinBudget, TimeBound, halting_table, k_stage
from .toyvm import (
    MEMO,
    MachineState,
    OutOfTableError,
    Program,
    _advance,
    check_bits,
    parse_body,
    programs_up_to,
    rope_materialize,
    strings_of_length,
)


class DepthViolation(Exception):
    """Some reachable oracle query lies at or beyond the sampling depth."""


# --------------------------------------------------------------------------
# the machine semimeasure


def m_stage(sigma: str, stage: int, oracle=None, cap: int = 16) -> Fraction:
    """Exact stage approximation of the machine semimeasure at sigma."""
    check_bits(sigma)
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    table = halting_table(oracle, cap)
    return table.mass_map(stage, len(sigma)).get(sigma, Fraction(0))


def m_time_bounded(sigma: str, t: TimeBound, oracle=None, cap: int = 16) -> Fraction:
    return m_stage(sigma, t(len(sigma)), oracle, cap)


# --------------------------------------------------------------------------
# exact fraction tables on disk: one `sigma<TAB>num/den` line per string


def parse_fraction(text: str) -> Fraction:
    """An exact rational from "num/den" or "num"."""
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def read_fraction_table(path) -> dict[str, Fraction]:
    table = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                sigma, _, frac = line.partition("\t")
                table[sigma] = parse_fraction(frac)
    return table


def write_fraction_table(path, table: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for sigma in sorted(table, key=lambda s: (len(s), s)):
            v = table[sigma]
            fh.write(f"{sigma}\t{v.numerator}/{v.denominator}\n")


class ComputableSemimeasure:
    """Finite table sigma -> rational with default 0 and mass at most 1."""

    def __init__(self, table: dict[str, Fraction], description: str = "table"):
        self.table = {check_bits(k): Fraction(v) for k, v in table.items()}
        if any(v < 0 for v in self.table.values()):
            raise ValueError("semimeasure values must be nonnegative")
        if sum(self.table.values(), Fraction(0)) > 1:
            raise ValueError("semimeasure mass exceeds 1")
        self.description = description

    def __call__(self, sigma: str) -> Fraction:
        return self.table.get(sigma, Fraction(0))

    def support(self):
        return sorted(self.table)

    @classmethod
    def from_file(cls, path) -> "ComputableSemimeasure":
        return cls(read_fraction_table(path), description=str(path))

    def to_file(self, path) -> None:
        write_fraction_table(path, self.table)


# --------------------------------------------------------------------------
# coding gap


@dataclass(frozen=True)
class CodingGap:
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
    events = table.halt_events(n)
    best = 0
    for sigma in strings_of_length(n):
        threshold = m(sigma) / c
        cum = Fraction(0)
        crossed = None
        for step, out, plen in events:
            if out == sigma:
                cum += Fraction(1, 1 << plen)
                if cum > threshold:
                    crossed = step
                    break
        if crossed is None:
            raise NoStageWithinBudget(
                f"no stage <= {stage_ceiling} dominates {sigma!r} at c={c}")
        best = max(best, crossed)
    return best


# --------------------------------------------------------------------------
# exact averaging over oracle prefixes
#
# Outcomes depend only on queried bits, so each program is explored as a
# finite branching tree over its oracle answers; a leaf that pins q bits
# stands for a 2^-q slice of the prefix space.


class _ProbeOracle:
    def __init__(self, assign: dict, depth: int):
        self.assign = assign
        self.depth = depth
        self.missing: int | None = None
        self.too_deep: int | None = None

    def answer(self, index: int) -> int:
        if index >= self.depth:
            self.too_deep = index
            raise OutOfTableError(f"query at {index} beyond depth {self.depth}")
        bit = self.assign.get(index)
        if bit is None:
            self.missing = index
            raise OutOfTableError(f"unassigned index {index}")
        return bit


@dataclass(frozen=True)
class OracleLeaf:
    """One reachable answer pattern: the pinned bits and the run outcome."""

    assign: tuple
    halted: bool
    output: str | None
    output_length: int
    steps: int

    @property
    def pinned(self) -> int:
        return len(self.assign)

    def consistent(self, prefix: str) -> bool:
        return all(prefix[i] == ("1" if b else "0") for i, b in self.assign)


def oracle_leaves(program: Program, budget: int, depth: int,
                  max_len: int = 1 << 12) -> tuple[OracleLeaf, ...]:
    """All reachable oracle-answer branches of one program at one budget.
    Raises DepthViolation if any reachable query lands at or past depth."""
    instrs = parse_body(program.body)
    leaves = []

    def explore(assign: dict):
        probe = _ProbeOracle(assign, depth)
        st = MachineState()
        out = _advance(instrs, probe, budget, st, True)
        if out is not None and out.kind == "aborted":
            if probe.too_deep is not None:
                raise DepthViolation(
                    f"program {program.bits} queries index {probe.too_deep}")
            if probe.missing is not None:
                idx = probe.missing
                for bit in (0, 1):
                    explore({**assign, idx: bit})
                return
        halted = out is not None and out.kind == "halted"
        leaves.append(OracleLeaf(
            tuple(sorted(assign.items())),
            halted,
            rope_materialize(st.rope, max_len) if halted else None,
            st.output_length if halted else 0,
            st.steps,
        ))

    explore({})
    return tuple(leaves)


class PrefixMassEvaluator:
    """Relative mass evaluation prepared for sweeps over many prefixes.

    Programs whose single branch never queries contribute a constant map;
    only the query-sensitive rest keeps its branches and is walked per
    prefix.  oracle_average reads the same two parts, so the branches of a
    (budget, cap, depth) are explored once and stored only here."""

    def __init__(self, budget: int, cap: int, depth: int):
        self.depth = depth
        const: dict[str, Fraction] = {}
        sensitive = []
        for p in programs_up_to(cap):
            leaves = oracle_leaves(p, budget, depth)
            if len(leaves) == 1 and not leaves[0].assign:
                leaf = leaves[0]
                if leaf.halted:
                    const[leaf.output] = const.get(leaf.output, Fraction(0)) \
                        + Fraction(1, 1 << len(p))
            else:
                sensitive.append((Fraction(1, 1 << len(p)), leaves))
        self.const = const
        self.sensitive = sensitive

    def mass(self, sigma: str, prefix: str) -> Fraction:
        total = self.const.get(sigma, Fraction(0))
        for weight, leaves in self.sensitive:
            for leaf in leaves:
                if leaf.consistent(prefix):
                    if leaf.halted and leaf.output == sigma:
                        total += weight
                    break
        return total


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
    total = ev.const.get(sigma, Fraction(0))
    for weight, leaves in ev.sensitive:
        for leaf in leaves:
            if leaf.halted and leaf.output == sigma:
                total += weight / (1 << leaf.pinned)
    return total


def oracle_average_direct(sigma: str, t: TimeBound, cap: int = 16,
                          depth: int = 6) -> Fraction:
    """The same integral by brute enumeration of all 2^depth prefixes."""
    check_bits(sigma)
    ev = prefix_mass_evaluator(t(len(sigma)), cap, depth)
    total = sum((ev.mass(sigma, prefix) for prefix in strings_of_length(depth)),
                Fraction(0))
    return total / (1 << depth)


def relative_mass(sigma: str, prefix: str, budget: int, cap: int = 16) -> Fraction:
    """m^.(sigma) under one concrete oracle prefix, via the cached branch
    trees (so sweeps over many prefixes share the machine runs)."""
    return prefix_mass_evaluator(budget, cap, len(prefix)).mass(sigma, prefix)


def monte_carlo_average(sigma: str, t: TimeBound, cap: int = 16, depth: int = 6,
                        samples: int = 10 ** 4, seed: int = 0):
    """(sample mean, standard error) of the oracle-relative mass at sigma
    over uniformly random depth-bit prefixes."""
    rng = random.Random(seed)
    ev = prefix_mass_evaluator(t(len(sigma)), cap, depth)
    values = []
    for _ in range(samples):
        prefix = format(rng.getrandbits(depth), "b").zfill(depth) if depth else ""
        values.append(ev.mass(sigma, prefix))
    mean = sum(values, Fraction(0)) / samples
    var = sum((v - mean) ** 2 for v in values) / (samples - 1) if samples > 1 else Fraction(0)
    se = (float(var) / samples) ** 0.5
    return mean, se
