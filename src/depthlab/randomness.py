"""Martingales, the extension-counting bound, deficiency and oracle tests.

Betting functions live on finite binary trees with exact rational values
and the exact fairness condition 2 d(sigma) = d(sigma 0) + d(sigma 1).
The central counting fact used by the finite-extension builder: for a
rational delta > 1 and k >= 1, every martingale has at least k cheap
extensions (d(sigma tau) < delta d(sigma)) among the 2^l strings of
length l = ceil(log2((k+1) / (1 - 1/delta))), provided d(sigma) > 0.
count_cheap_extensions is the exhaustive oracle for that bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .complexity import TimeBound, halting_table
from .semimeasure import (m_stage, read_fraction_table, relative_mass,
                          write_fraction_table)
from .toyvm import check_bits, rope_materialize, rope_prefix, strings_of_length


class FairnessError(ValueError):
    """A martingale table breaks the exact fairness condition."""


def exact_ceil_log2(x: Fraction) -> int:
    """Smallest integer m with x <= 2^m, exactly."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive rational")
    m = x.numerator.bit_length() - x.denominator.bit_length()
    # 2^(m-1) <= num/den < 2^(m+1); settle the boundary exactly
    while Fraction(2) ** m < x:
        m += 1
    while m > 0 and Fraction(2) ** (m - 1) >= x:
        m -= 1
    return m


def space_lemma_length(delta, k: int) -> int:
    """Extension length guaranteeing at least k cheap extensions:
    ceil(log2((k+1) / (1 - 1/delta)))."""
    delta = Fraction(delta)
    if delta <= 1:
        raise ValueError("delta must exceed 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    return exact_ceil_log2(Fraction(k + 1) / (1 - 1 / delta))


# --------------------------------------------------------------------------
# martingale tables


class MartingaleTable:
    """Exact nonnegative rationals on every string of length <= depth,
    validated against fairness on construction."""

    def __init__(self, depth: int, values: dict[str, Fraction]):
        self.depth = depth
        self.values = {k: Fraction(v) for k, v in values.items()}
        for length in range(depth + 1):
            for sigma in strings_of_length(length):
                if sigma not in self.values:
                    raise FairnessError(f"missing value at {sigma!r}")
                if self.values[sigma] < 0:
                    raise FairnessError(f"negative value at {sigma!r}")
        for length in range(depth):
            for sigma in strings_of_length(length):
                if 2 * self.values[sigma] != self.values[sigma + "0"] + self.values[sigma + "1"]:
                    raise FairnessError(f"unfair split at {sigma!r}")

    def value(self, sigma: str) -> Fraction:
        """Table value, extended constantly below the table's leaves."""
        if len(sigma) <= self.depth:
            return self.values[sigma]
        return self.values[sigma[: self.depth]]

    @classmethod
    def constant(cls, depth: int, c: Fraction = Fraction(1)) -> "MartingaleTable":
        c = Fraction(c)
        return cls(depth, {sigma: c for length in range(depth + 1)
                           for sigma in strings_of_length(length)})

    @classmethod
    def from_splits(cls, depth: int, split) -> "MartingaleTable":
        """Build from a split rule: split(sigma) is the fraction of 2 d(sigma)
        bet on the 0-child, so d(sigma 0) = 2 a d(sigma)."""
        vals = {"": Fraction(1)}
        for length in range(depth):
            for sigma in strings_of_length(length):
                a = Fraction(split(sigma))
                if not 0 <= a <= 1:
                    raise FairnessError(f"split {a} out of range at {sigma!r}")
                vals[sigma + "0"] = 2 * a * vals[sigma]
                vals[sigma + "1"] = 2 * (1 - a) * vals[sigma]
        return cls(depth, vals)

    @classmethod
    def from_file(cls, path) -> "MartingaleTable":
        vals = read_fraction_table(path)
        return cls(max(map(len, vals), default=0), vals)

    def to_file(self, path) -> None:
        write_fraction_table(path, self.values)


def count_cheap_extensions(d: MartingaleTable, sigma: str, delta, l: int) -> int:
    """Exact count of tau of length l with d(sigma tau) < delta d(sigma)."""
    delta = Fraction(delta)
    check_bits(sigma)
    if len(sigma) + l > d.depth:
        raise ValueError("extension runs past the table depth")
    bound = delta * d.value(sigma)
    return sum(1 for tau in strings_of_length(l) if d.value(sigma + tau) < bound)


# families used by the counting sweeps

DYADIC_SPLITS = (Fraction(0), Fraction(1, 2), Fraction(1))


def dyadic_family(depth: int, splits=DYADIC_SPLITS):
    """Every martingale of the given depth whose per-node splits come from
    the grid; normalised to 1 at the root.  Exhaustive over the grid."""
    internal = [sigma for length in range(depth) for sigma in strings_of_length(length)]
    n = len(internal)
    total = len(splits) ** n
    for code in range(total):
        c = code
        assign = {}
        for node in internal:
            assign[node] = splits[c % len(splits)]
            c //= len(splits)
        yield MartingaleTable.from_splits(depth, lambda s: assign[s])


def random_table(depth: int, rng: random.Random, grain: int = 8) -> MartingaleTable:
    splits = {}
    for length in range(depth):
        for sigma in strings_of_length(length):
            splits[sigma] = Fraction(rng.randint(0, grain), grain)
    return MartingaleTable.from_splits(depth, lambda s: splits[s])


# --------------------------------------------------------------------------
# staged supermartingale for the builder


@dataclass(frozen=True)
class StagedSupermartingale:
    """(sigma, stage) -> rational, monotone in stage, with
    2 d_s(sigma) >= d_s(sigma 0) + d_s(sigma 1)."""

    evaluator: object
    description: str

    def __call__(self, sigma: str, stage: int) -> Fraction:
        return self.evaluator(sigma, stage)


def machine_supermartingale(oracle=None, cap: int = 16) -> StagedSupermartingale:
    """Cylinder-mass supermartingale from the machine semimeasure:
    d_s(sigma) = 2^|sigma| * sum of halting mass on outputs extending sigma."""
    table = halting_table(oracle, cap)
    cache: dict[int, tuple] = {}

    def outputs_at(stage: int) -> tuple:
        entry = cache.get(stage)
        if entry is None:
            short: dict[str, Fraction] = {}
            long_ropes = []
            for p, _step, rope, out_len in table.halted_by(stage):
                mass = Fraction(1, 1 << len(p))
                if out_len <= 64:
                    s = rope_materialize(rope, 64)
                    short[s] = short.get(s, Fraction(0)) + mass
                else:
                    long_ropes.append((rope, out_len, mass))
            entry = cache[stage] = (sorted(short.items()), long_ropes)
        return entry

    def evaluate(sigma: str, stage: int) -> Fraction:
        total = Fraction(0)
        n = len(sigma)
        short, long_ropes = outputs_at(stage)
        for out, mass in short:
            if len(out) >= n and out.startswith(sigma):
                total += mass
        for rope, out_len, mass in long_ropes:
            if out_len >= n and rope_prefix(rope, n) == sigma:
                total += mass
        return total * (1 << n)

    return StagedSupermartingale(evaluate, f"machine-cylinder/cap{cap}")


def mixture_supermartingale(tables, oracle=None, cap: int = 16) -> StagedSupermartingale:
    """Weighted mixture of normalised finite tables plus the machine
    cylinder supermartingale; the builder default."""
    normalised = []
    for tab in tables:
        root = tab.value("")
        normalised.append((tab, root))
    machine_part = machine_supermartingale(oracle, cap)
    tail_weight = Fraction(1, 1 << (len(normalised) + 1))

    def evaluate(sigma: str, stage: int) -> Fraction:
        total = Fraction(0)
        for i, (tab, root) in enumerate(normalised):
            if root:
                total += Fraction(1, 1 << (i + 1)) * tab.value(sigma) / root
        return total + tail_weight * machine_part(sigma, stage)

    names = ",".join(f"t{i}" for i in range(len(normalised)))
    return StagedSupermartingale(evaluate, f"mixture({names})+machine/cap{cap}")


def default_builder_martingale(oracle=None, cap: int = 16) -> StagedSupermartingale:
    """Constant, zeros-favouring and alternation-favouring tables plus the
    machine part; positive everywhere, so extension counting never
    degenerates."""
    depth = 8
    tables = [
        MartingaleTable.constant(depth),
        MartingaleTable.from_splits(depth, lambda s: Fraction(3, 4)),
        MartingaleTable.from_splits(
            depth, lambda s: Fraction(3, 4) if len(s) % 2 == 0 else Fraction(1, 4)),
    ]
    return mixture_supermartingale(tables, oracle, cap)


# --------------------------------------------------------------------------
# randomness deficiency


@dataclass(frozen=True)
class DeficiencyRecord:
    """max over n <= |sigma| of n - K_s(prefix of length n); above-cap
    complexities enter as cap + 1, so the value is an upper bound on the
    same quantity under the (unknowable) true stage-s complexities."""

    sigma: str
    stage: int
    value: int
    argmax: int
    cap: int

    def looks_random(self, k: int) -> bool:
        return self.value <= k


def deficiency(sigma: str, stage: int, cap: int = 16, oracle=None) -> DeficiencyRecord:
    check_bits(sigma)
    table = halting_table(oracle, cap)
    omap = table.output_map(stage, len(sigma))
    best, arg = None, 0
    for n in range(len(sigma) + 1):
        prefix = sigma[:n]
        hit = omap.get(prefix)
        kval = hit[0] if hit is not None else cap + 1
        term = n - kval
        if best is None or term > best:
            best, arg = term, n
    return DeficiencyRecord(sigma, stage, best, arg, cap)


# --------------------------------------------------------------------------
# the depth-vs-oracle integral test


@dataclass(frozen=True)
class PsiResult:
    value: Fraction
    dropped_terms: int
    params: dict


def psi(a_prefix: str, t: TimeBound, t_prime: TimeBound, c: Fraction,
        len_cap: int, stage: int, cap: int = 16) -> PsiResult:
    """Truncated sum over |sigma| <= len_cap of
    m^{A,t}(sigma) m_stage(sigma) / (c m^{t'}(sigma)), computed exactly
    under the oracle prefix A.  Terms whose time-t' mass is 0 are dropped
    and counted: at finite stage they carry the divergence signal, and
    dropping them keeps the truncation finite and monotone."""
    check_bits(a_prefix)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    total = Fraction(0)
    dropped = 0
    for sigma_len in range(len_cap + 1):
        budget = t(sigma_len)
        for sigma in strings_of_length(sigma_len):
            rel = relative_mass(sigma, a_prefix, budget, cap)
            if rel == 0:
                continue
            denom = m_stage(sigma, t_prime(sigma_len), None, cap)
            if denom == 0:
                dropped += 1
                continue
            total += rel * m_stage(sigma, stage, None, cap) / (c * denom)
    return PsiResult(total, dropped, {
        "a_prefix": a_prefix, "t": t.describe(), "t_prime": t_prime.describe(),
        "c": str(c), "len_cap": len_cap, "stage": stage, "cap": cap,
    })


def psi_domination_constant(t: TimeBound, t_prime: TimeBound, len_cap: int,
                            depth: int, cap: int = 16) -> Fraction:
    """Smallest exact c with avg_A m^{A,t}(sigma) <= c m^{t'}(sigma) over
    all sigma of length <= len_cap with positive t'-mass; the measured
    stand-in for the abstract domination constant."""
    from .semimeasure import oracle_average

    best = Fraction(0)
    for sigma_len in range(len_cap + 1):
        for sigma in strings_of_length(sigma_len):
            denom = m_stage(sigma, t_prime(sigma_len), None, cap)
            if denom == 0:
                continue
            avg = oracle_average(sigma, t, cap, depth)
            best = max(best, avg / denom)
    return best if best > 0 else Fraction(1)


def psi_average(t: TimeBound, t_prime: TimeBound, c: Fraction, len_cap: int,
                stage: int, depth: int, cap: int = 16) -> Fraction:
    """Exact average of the truncated test over all 2^depth oracle
    prefixes."""
    total = sum((psi(prefix, t, t_prime, c, len_cap, stage, cap).value
                 for prefix in strings_of_length(depth)), Fraction(0))
    return total / (1 << depth)


# --------------------------------------------------------------------------
# measure of oracles that compress a fixed prefix


def measure_cheap_oracles(x_prefix: str, n: int, k, t: TimeBound, stage: int,
                          depth: int, cap: int = 16) -> Fraction:
    """Exact measure of depth-bit oracle prefixes Y with
    m^{Y,stage}(X|n) >= k * m^t(X|n), by enumeration of all prefixes."""
    check_bits(x_prefix)
    if not 0 <= n <= len(x_prefix):
        raise ValueError("n must lie between 0 and the prefix length")
    k = Fraction(k)
    sigma = x_prefix[:n]
    base = m_stage(sigma, t(n), None, cap)
    threshold = k * base
    hits = sum(1 for prefix in strings_of_length(depth)
               if relative_mass(sigma, prefix, stage, cap) >= threshold)
    return Fraction(hits, 1 << depth)
