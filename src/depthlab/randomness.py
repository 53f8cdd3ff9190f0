"""Martingales, the extension-counting bound and oracle tests.

Betting functions live on finite binary trees with exact rational values
and the exact fairness condition 2 d(sigma) = d(sigma 0) + d(sigma 1).
The central counting fact used by the finite-extension builder: for a
rational delta > 1 and k >= 1, every martingale has at least k cheap
extensions (d(sigma tau) < delta d(sigma)) among the 2^l strings of
length l = ceil(log2((k+1) / (1 - 1/delta))), provided d(sigma) > 0.
count_cheap_extensions is the exhaustive oracle for that bound.

The betting layer computes in integers.  A MartingaleTable holds integer
numerators over one shared denominator, a StagedSupermartingale gives an
integer numerator over one fixed scale, and prices are compared by
cross-multiplication, so no Fraction is built while tables are checked,
extensions counted or the builder's candidates priced.  Fractions appear
only where a value leaves the layer: MartingaleTable.value and .values,
and calling a StagedSupermartingale.

A builder round reads the prices of the 2^l extensions of its string as
runs of equal price (StagedSupermartingale.extensions), not one by one:
each table's part is constant on blocks of 2^(l - reads) consecutive
extensions, where reads is how many bits of tau the deepest table still
sees, and the machine's part is the sparse map of cylinder masses that
HaltingTable.cylinder_numerators reads in one pass over the table's
outputs.  So a round costs the blocks and the outputs it reads, not 2^l.

One count of the counting bound serves each population of tables, and
none of them builds a table it is not given: count_cheap_extensions
counts one table; space_lemma_grid, the space-lemma command's
exhaustive mode, counts every table whose splits come from a grid, per
l-level subtree; and space_lemma_sample, its sample mode, counts the
root of random tables with splits i/8 by the leaf products of their
random_split_rows draws.

Every table is checked for fairness and negativity when it is built,
from_splits tables too.  This module imports the modules that run the
machine only inside the functions that read them: complexity in
mixture_supermartingale, the builder's machine part, and semimeasure in
psi and the psi domination constant.  So the betting commands never
load semimeasure, and space-lemma compiles no machine.  Randomness
deficiency, n - K_s, is a complexity quantity, and lives in complexity;
the measure of the oracles that compress a prefix
(measure_cheap_oracles) reads only semimeasures, and lives in
semimeasure.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import product
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from .bits import body_index, check_bits, index_to_body, strings_of_length

if TYPE_CHECKING:
    from .complexity import TimeBound


class FairnessError(ValueError):
    """A martingale table breaks the exact fairness condition."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational; ints and Fractions
    are read as they are, anything else goes through Fraction."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _ceil_log2(num: int, den: int) -> int:
    """Smallest integer m with num/den <= 2^m, for positive num and den."""
    m = num.bit_length() - den.bit_length()
    # 2^(m-1) < num/den < 2^(m+1), so the answer is m or m + 1
    fits = num <= den << m if m >= 0 else num << -m <= den
    return m if fits else m + 1


def space_lemma_length(delta, k: int) -> int:
    """Extension length guaranteeing at least k cheap extensions:
    ceil(log2((k+1) / (1 - 1/delta)))."""
    num, den = _ratio(delta)
    if num <= den:
        raise ValueError("delta must exceed 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    # (k+1) / (1 - 1/delta) = (k+1) delta / (delta - 1)
    return _ceil_log2((k + 1) * num, num - den)


# --------------------------------------------------------------------------
# martingale tables


class MartingaleTable:
    """Exact nonnegative rationals on every string of length <= depth,
    validated against fairness and negativity on construction.

    The table is the list `nums` of integer numerators over the one
    shared denominator `den`, in heap order: sigma at
    bits.body_index(sigma), the children of index i at 2i + 1 and
    2i + 2.  So fairness is the integer identity 2 n[i] = n[2i+1] +
    n[2i+2], and the extensions of sigma of one length are a slice.
    `value` and `values` return Fractions."""

    def __init__(self, depth: int, *, nums: list[int], den: int = 1):
        self.depth = depth
        size = (2 << depth) - 1
        if len(nums) < size:
            raise FairnessError(f"missing value at {index_to_body(len(nums))!r}")
        elif len(nums) > size:
            raise FairnessError(f"{len(nums)} values for depth {depth}, which has {size}")
        if den < 1:
            raise FairnessError(f"denominator {den} is not positive")
        self.nums = nums
        self.den = den
        for i, v in enumerate(nums):
            if v < 0:
                raise FairnessError(f"negative value at {index_to_body(i)!r}")
        for i, (v, left, right) in enumerate(zip(nums, nums[1::2], nums[2::2])):
            if 2 * v != left + right:
                raise FairnessError(f"unfair split at {index_to_body(i)!r}")

    @property
    def values(self) -> dict[str, Fraction]:
        den = self.den
        return {index_to_body(i): Fraction(v, den) for i, v in enumerate(self.nums)}

    def value(self, sigma: str) -> Fraction:
        """Table value, extended constantly below the table's leaves."""
        check_bits(sigma)
        return Fraction(self.nums[body_index(sigma[: self.depth])], self.den)

    @classmethod
    def constant(cls, depth: int, c: Fraction = Fraction(1)) -> "MartingaleTable":
        num, den = _ratio(c)
        return cls(depth, nums=[num] * ((2 << depth) - 1), den=den)

    @classmethod
    def from_splits(cls, depth: int, splits) -> "MartingaleTable":
        """Build from the splits of the internal nodes, a sequence of
        integer pairs in heap order: (p, q) at sigma bets the fraction p/q
        of 2 d(sigma) on the 0-child, so d(sigma 0) = 2 (p/q) d(sigma).
        With grain the lcm of the q's, the values are integers over
        grain^depth, the root being grain^depth itself."""
        count = (1 << depth) - 1
        if len(splits) != count:
            raise FairnessError(
                f"{len(splits)} splits for depth {depth}, which has {count} internal nodes")
        for i, (p, q) in enumerate(splits):
            if q < 1 or not 0 <= p <= q:
                raise FairnessError(f"split {p}/{q} out of range at {index_to_body(i)!r}")
        grain = lcm(*(q for _p, q in splits))
        nums = [grain ** depth]
        for i, (p, q) in enumerate(splits):
            # above the leaves n[i] keeps a factor grain, so w = 2 n[i] / grain
            # is exact; the 0-child takes p/q of it in grain units, the
            # 1-child the rest
            p *= grain // q
            w = 2 * (nums[i] // grain)
            nums.append(w * p)
            nums.append(w * (grain - p))
        return cls(depth, nums=nums, den=grain ** depth)


def count_cheap_extensions(d: MartingaleTable, sigma: str, delta, l: int) -> int:
    """Exact count of tau of length l with d(sigma tau) < delta d(sigma),
    in integers over the table's slice of sigma's extensions: the 2^l
    entries from (i + 1) 2^l - 1 on, for sigma at heap index i."""
    num, den = _ratio(delta)
    check_bits(sigma)
    if len(sigma) + l > d.depth:
        raise ValueError("extension runs past the table depth")
    i = body_index(sigma)
    first = ((i + 1) << l) - 1
    # for an integer v, v * den < num * n[i] is v < ceil(num n[i] / den)
    bound = -(-num * d.nums[i] // den)
    return sum(map(bound.__gt__, d.nums[first: first + (1 << l)]))


DYADIC_SPLITS = (Fraction(0), Fraction(1, 2), Fraction(1))


def _leaf_products(factors, l: int) -> list[int]:
    """The 2^l products, in lex order of the leaves, of the factors on the
    paths of an l-level tree: factors holds one (0-child, 1-child) pair
    per internal node, in heap order."""
    prods = [1]
    for level in range(l):
        first = (1 << level) - 1
        prods = [p * f for p, pair in zip(prods, factors[first: 2 * first + 1])
                 for f in pair]
    return prods


def space_lemma_grid(depth: int, splits, delta, l: int, k: int) -> tuple[int, int]:
    """(tested, violations) of the counting bound over every table of the
    given depth whose splits (rationals in [0, 1]) come from the grid
    `splits`, without building one.  Every heap node with l levels below
    it is tested where it is positive, and violates the bound when fewer
    than k of its 2^l extensions l levels down are cheap.

    Split a at a node makes its children 2a and 2(1 - a) times its value,
    so heap node i is positive when no split on its root path is 0 toward
    it, and its cheap extensions read only the 2^l - 1 splits of its
    l-level subtree.  So one count of the subtree assignments with fewer
    than k cheap leaves serves every node, weighed by the positive
    assignments of the node's root path times every assignment of the
    other splits."""
    if l > depth:
        return 0, 0
    # heap nodes below 2^(depth + 1 - l) - 1 have l levels under them
    above = (1 << (depth + 1 - l)) - 1
    num, den = _ratio(delta)
    grid = [_ratio(a) for a in splits]
    grain = lcm(*(q for _p, q in grid))
    # the children's values over their node's, in units of 1/grain
    pairs = [(2 * p * (grain // q), 2 * (q - p) * (grain // q)) for p, q in grid]
    # a leaf is cheap when its product over grain^l is below delta
    bound = -(-num * grain ** l // den)
    subtree = (1 << l) - 1
    short = sum(sum(map(bound.__gt__, _leaf_products(assign, l))) < k
                for assign in product(pairs, repeat=subtree))
    size = len(grid)
    # how many splits keep a 1-child positive, and how many a 0-child
    toward = (sum(1 for _z, one in pairs if one), sum(1 for zero, _o in pairs if zero))
    tested = violations = 0
    for i in range(above):
        # the 0-child of a node is odd in heap order, the 1-child even
        positive, path = 1, 0
        while i:
            positive *= toward[i & 1]
            i = (i - 1) >> 1
            path += 1
        free = (1 << depth) - 1 - path - subtree
        tested += positive * size ** (free + subtree)
        violations += positive * short * size ** free
    return tested, violations


# random_split_rows reads the stream of rng.randint(0, 8) in bulk.  For a
# range of 9, CPython's randint takes the top 4 bits of one 32-bit
# Mersenne Twister word and draws again while they exceed 8, and
# getrandbits(32 w) packs w such words, the first least significant.  So
# byte 4j + 3 of its little-endian bytes is the top byte of word j, and
# translating those bytes to their top nibble, deleting the nibbles above
# 8, leaves the accepted draws in order.
_CHUNK_WORDS = 4096
_TOP_NIBBLE = bytes(b >> 4 for b in range(256))
_ABOVE_EIGHT = bytes(range(9 << 4, 256))
_FACTORS = [(i, 8 - i) for i in range(9)]


MAX_TABLE_DEPTH = 20
"""The deepest sampled table: each of its rows holds 2^depth - 1 draws."""


def random_split_rows(depth: int, n: int, seed) -> Iterator[bytes]:
    """n rows of 2^depth - 1 draws of rng.randint(0, 8), one per internal
    node in heap order, row after row, from one random.Random(seed); draw
    i stands for the split i/8.  The draws are read in chunks of
    _CHUNK_WORDS words.  A depth above MAX_TABLE_DEPTH raises ValueError
    at the call."""
    if depth > MAX_TABLE_DEPTH:
        raise ValueError(f"table depth {depth} is above the bound {MAX_TABLE_DEPTH}")
    return _split_rows(random.Random(seed), (1 << depth) - 1, n)


def _split_rows(rng: random.Random, size: int, n: int) -> Iterator[bytes]:
    draws, pos = b"", 0
    for _ in range(n):
        while len(draws) - pos < size:
            chunk = rng.getrandbits(32 * _CHUNK_WORDS).to_bytes(4 * _CHUNK_WORDS, "little")
            draws = draws[pos:] + chunk[3::4].translate(_TOP_NIBBLE, _ABOVE_EIGHT)
            pos = 0
        yield draws[pos: pos + size]
        pos += size


def space_lemma_sample(depth: int, n: int, seed, delta, l: int, k: int) -> tuple[int, int]:
    """(tested, violations) of the counting bound at the root of n
    depth-level tables with splits i/8, one row of
    random_split_rows(depth, n, seed) each, for l <= depth, building no
    table.  Draw i splits a node's value into i/4 and (8 - i)/4 times
    it, so a level-l value is the root's times the product of l factors
    (i or 8 - i) over 4^l, whatever the table's grain: a row's cheap
    count reads the 2^l leaf products of its first 2^l - 1 draws.  Every
    root is positive, so every row is tested."""
    if l > depth:
        raise ValueError("extension runs past the table depth")
    num, den = _ratio(delta)
    # a leaf is cheap when its product is below delta 4^l
    bound = -(-(num << 2 * l) // den)
    head = (1 << l) - 1
    tested = violations = 0
    for row in random_split_rows(depth, n, seed):
        factors = list(map(_FACTORS.__getitem__, row[:head]))
        tested += 1
        violations += sum(map(bound.__gt__, _leaf_products(factors, l))) < k
    return tested, violations


# --------------------------------------------------------------------------
# staged supermartingale for the builder


class StagedSupermartingale(NamedTuple):
    """(sigma, stage) -> rational, monotone in stage, with
    2 d_s(sigma) >= d_s(sigma 0) + d_s(sigma 1).

    `extensions(sigma, l, stage)` yields the exact integer values times
    `scale` of sigma tau over the 2^l strings tau of l bits as
    (count, price) runs: the next count strings tau, in lex order, each
    priced `price`.  `numerator(sigma, stage)` is the price of its one
    l = 0 run, and calling the object gives the Fraction."""

    extensions: Callable[[str, int, int], Iterable[tuple[int, int]]]
    scale: int
    description: str

    def numerator(self, sigma: str, stage: int) -> int:
        return next(iter(self.extensions(sigma, 0, stage)))[1]

    def __call__(self, sigma: str, stage: int) -> Fraction:
        return Fraction(self.numerator(sigma, stage), self.scale)


def _machine_part(cylinders, sigma: str, l: int, stage: int, weight: int = 1) -> dict:
    """{int(tau, 2): weight 2^|sigma tau| times the cylinder mass of sigma
    tau} over the tau of l bits with positive mass."""
    shift = len(sigma) + l
    return {tau: weight * mass << shift
            for tau, mass in cylinders(sigma, l, stage).items()}


def _runs(blocks: list[int], width: int, sparse: dict) -> Iterator[tuple[int, int]]:
    """(count, price) runs, in lex order of tau, of the prices
    blocks[tau >> width] + sparse.get(tau, 0): each block of 2^width
    consecutive tau is one run, cut around the tau that sparse holds."""
    marks = sorted(sparse.items())
    m = 0
    for j, base in enumerate(blocks):
        start = j << width
        end = start + (1 << width)
        while m < len(marks) and marks[m][0] < end:
            tau, extra = marks[m]
            if tau > start:
                yield tau - start, base
            yield 1, base + extra
            start = tau + 1
            m += 1
        if end > start:
            yield end - start, base


def mixture_supermartingale(tables, oracle=None, cap: int = 16) -> StagedSupermartingale:
    """Weighted mixture of normalised finite tables plus the machine
    cylinder supermartingale; the builder default.  Table i enters with
    weight 2^-(i+1) over its root value, the machine part with
    2^-(len(tables)+1); the scale is the lcm of the machine part's
    2^(cap+len(tables)+1) and each 2^(i+1) root numerator.

    Over the extensions of sigma, a depth-d table's part is a heap slice
    of at most 2^(d - |sigma|) values, each constant on a block of
    2^(|sigma| + l - d) consecutive tau.  The tables are summed once per
    block of the deepest table, and each block is one run, cut around the
    tau the sparse machine part holds."""
    from .complexity import halting_table

    cylinders = halting_table(oracle, cap).cylinder_numerators
    tail_shift = cap + len(tables) + 1
    scale = 1 << tail_shift
    for i, tab in enumerate(tables):
        if tab.nums[0]:
            scale = lcm(scale, tab.nums[0] << (i + 1))
    terms = [(tab.nums, tab.depth, scale // (tab.nums[0] << (i + 1)))
             for i, tab in enumerate(tables) if tab.nums[0]]
    deepest = max((depth for _nums, depth, _factor in terms), default=0)
    tail = scale >> tail_shift

    def extensions(sigma: str, l: int, stage: int):
        n = len(sigma)
        # the bits of tau that some table reads; the rest only pick a
        # candidate within a block
        reads = min(max(deepest - n, 0), l)
        blocks = [0] * (1 << reads)
        for nums, depth, factor in terms:
            first = body_index((sigma + "0" * l)[:depth])
            spread = reads - min(max(depth - n, 0), l)
            for j in range(1 << reads):
                blocks[j] += factor * nums[first + (j >> spread)]
        machine = _machine_part(cylinders, sigma, l, stage, tail)
        return _runs(blocks, l - reads, machine)

    names = ",".join(f"t{i}" for i in range(len(tables)))
    return StagedSupermartingale(extensions, scale, f"mixture({names})+machine/cap{cap}")


def _builder_tables() -> list[MartingaleTable]:
    """Constant, zeros-favouring and alternation-favouring depth-8 tables."""
    depth = 8
    return [
        MartingaleTable.constant(depth),
        MartingaleTable.from_splits(depth, [(3, 4)] * ((1 << depth) - 1)),
        MartingaleTable.from_splits(depth, [((3, 4), (1, 4))[length % 2]
                                            for length in range(depth)
                                            for _node in range(1 << length)]),
    ]


def default_builder_martingale(oracle=None, cap: int = 16) -> StagedSupermartingale:
    """The _builder_tables plus the machine part; positive everywhere, so
    extension counting never degenerates."""
    return mixture_supermartingale(_builder_tables(), oracle, cap)


# --------------------------------------------------------------------------
# the depth-vs-oracle integral test


class PsiResult(NamedTuple):
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
    from .semimeasure import m_stage, prefix_mass_evaluator, relative_mass

    check_bits(a_prefix)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    total = Fraction(0)
    dropped = 0
    for sigma_len in range(len_cap + 1):
        # only an output the evaluator holds at budget t(|sigma|) can have
        # relative mass there, so no other string is read
        budget = t(sigma_len)
        held = prefix_mass_evaluator(budget, cap, len(a_prefix)).halts
        for sigma in sorted(s for s in held if len(s) == sigma_len):
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
    from .semimeasure import m_stage, oracle_average

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

