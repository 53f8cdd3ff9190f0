import functools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import complexity, randomness
from depthlab.bits import index_to_body, strings_of_length
from depthlab.complexity import TimeBound, deficiency, halting_table
from depthlab.randomness import (
    DYADIC_SPLITS,
    FairnessError,
    MartingaleTable,
    count_cheap_extensions,
    default_builder_martingale,
    mixture_supermartingale,
    psi,
    psi_average,
    psi_domination_constant,
    random_split_rows,
    space_lemma_grid,
    space_lemma_length,
    space_lemma_sample,
)
from depthlab.semimeasure import m_stage, oracle_average, relative_mass
from depthlab.toyvm import HaltingOracle, rope_materialize
from reference_runs import (
    halting_runs,
    reference_cylinder,
    reference_mass_map,
    reference_output_map,
    reference_total_mass,
)
from reference_tables import (
    dyadic_family,
    expand_runs,
    machine_supermartingale,
    random_tables,
    space_lemma_sweep,
)


def all_strings(max_len):
    for n in range(max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n) if n else ""


def heap_splits(depth, rule):
    """The (p, q) pairs of rule(sigma) over the internal nodes of a
    depth-level table, in heap order, as MartingaleTable.from_splits
    takes them."""
    return [(Fraction(a).numerator, Fraction(a).denominator)
            for a in map(rule, all_strings(depth - 1))]


# ------------------------------------------------------------------ lengths

def test_exact_ceil_log2():
    assert randomness._ceil_log2(6, 1) == 3
    assert randomness._ceil_log2(4, 1) == 2
    assert randomness._ceil_log2(1, 1) == 0
    assert randomness._ceil_log2(1, 3) == -1


def fraction_ceil_log2(x):
    """The earlier all-Fraction definition, kept as the reference."""
    x = Fraction(x)
    m = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** m < x:
        m += 1
    while m > 0 and Fraction(2) ** (m - 1) >= x:
        m -= 1
    return m


def test_exact_ceil_log2_matches_fraction_definition():
    grid = {Fraction(p, q) for p in range(1, 41) for q in range(1, 41)}
    grid |= {Fraction(2) ** e * f for e in range(-70, 71, 7)
             for f in (Fraction(1), Fraction(2, 3), Fraction(3, 2), Fraction(1, 1 << 20))}
    grid |= {Fraction((1 << 64) + 1, 1 << 64), Fraction((1 << 64) - 1, 1 << 64),
             Fraction(1, 3 ** 40), Fraction(3 ** 40)}
    assert any(x < 1 for x in grid) and Fraction(1) in grid
    for x in grid:
        assert randomness._ceil_log2(x.numerator, x.denominator) == fraction_ceil_log2(x), x


def test_space_lemma_length_matches_fraction_formula():
    deltas = [Fraction(p, q) for p in range(2, 30) for q in range(1, p)]
    for delta in deltas:
        for k in (1, 2, 3, 7, 8, 255, 256):
            want = fraction_ceil_log2(Fraction(k + 1) / (1 - 1 / delta))
            assert space_lemma_length(delta, k) == want, (delta, k)


def test_space_lemma_length_frozen():
    assert space_lemma_length(2, 2) == 3
    assert space_lemma_length(2, 1) == 2
    # first builder round: delta = 1 + 1/1, k = 2^1
    assert space_lemma_length(1 + Fraction(1, 1), 2) == 3


def test_space_lemma_rejects_delta_at_most_one():
    with pytest.raises(ValueError):
        space_lemma_length(1, 2)
    with pytest.raises(ValueError):
        space_lemma_length(Fraction(1, 2), 2)


# ------------------------------------------------------------------ tables

def test_constant_table_all_extensions_cheap():
    d = MartingaleTable.constant(4)
    for delta in (Fraction(3, 2), Fraction(2), Fraction(3)):
        assert count_cheap_extensions(d, "", delta, 2) == 4


def test_doubling_along_zeros():
    d = MartingaleTable.from_splits(2, [(1, 1), (1, 1), (1, 2)])
    assert d.value("00") == 4 and d.value("01") == 0
    count = count_cheap_extensions(d, "", 2, 2)
    assert count == 3
    assert count >= 1  # k = 1 is what l = 2 guarantees at delta = 2


def test_depth_violation():
    d = MartingaleTable.constant(3)
    with pytest.raises(ValueError):
        count_cheap_extensions(d, "00", 2, 2)


def test_negative_value_and_out_of_range_split_rejected():
    with pytest.raises(FairnessError, match="negative value at ''"):
        MartingaleTable.constant(2, Fraction(-1, 3))
    with pytest.raises(FairnessError, match="split 3/2 out of range at '0'"):
        MartingaleTable.from_splits(2, [(0, 1), (3, 2), (0, 1)])
    with pytest.raises(FairnessError, match="split -1/3 out of range at ''"):
        MartingaleTable.from_splits(1, [(-1, 3)])
    with pytest.raises(FairnessError, match="split 0/0 out of range at '1'"):
        MartingaleTable.from_splits(2, [(1, 2), (1, 2), (0, 0)])
    with pytest.raises(FairnessError, match="2 splits for depth 2, which has 3"):
        MartingaleTable.from_splits(2, [(1, 2), (1, 2)])
    with pytest.raises(FairnessError, match="1 splits for depth 0, which has 0"):
        MartingaleTable.from_splits(0, [(1, 2)])


def test_integer_constructor_checks_like_the_dict_one():
    with pytest.raises(FairnessError, match="missing value at '00'"):
        MartingaleTable(2, nums=[2, 2, 2], den=1)
    with pytest.raises(FairnessError, match="unfair split at '1'"):
        MartingaleTable(2, nums=[4, 4, 4, 4, 4, 3, 4], den=3)
    with pytest.raises(FairnessError, match="negative value at '00'"):
        MartingaleTable(2, nums=[0, 0, 0, -1, 1, 0, 0], den=1)
    with pytest.raises(FairnessError, match="5 values for depth 1, which has 3"):
        MartingaleTable(1, nums=[1, 1, 1, 5, 7], den=1)
    d = MartingaleTable(1, nums=[3, 1, 5], den=6)
    assert d.values == {"": Fraction(1, 2), "0": Fraction(1, 6), "1": Fraction(5, 6)}


# ------------------------------------------------------------------ integer layer
# against the plain Fraction definitions it replaced

NON_DYADIC = (Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(1), Fraction(3, 7),
              Fraction(1, 2), Fraction(5, 6))


def fraction_from_splits(depth, split):
    vals = {"": Fraction(1)}
    for sigma in all_strings(depth - 1):
        a = Fraction(split(sigma))
        vals[sigma + "0"] = 2 * a * vals[sigma]
        vals[sigma + "1"] = 2 * (1 - a) * vals[sigma]
    return vals


def split_tables(rng, count, depth):
    """(table, Fraction reference, splits) over non-dyadic split grids."""
    for _ in range(count):
        grid = rng.sample(NON_DYADIC, rng.randint(1, len(NON_DYADIC)))
        assign = {sigma: rng.choice(grid) for sigma in all_strings(depth - 1)}
        yield (MartingaleTable.from_splits(depth, heap_splits(depth, assign.__getitem__)),
               fraction_from_splits(depth, assign.__getitem__),
               assign)


def test_from_splits_matches_fraction_reference():
    rng = random.Random(11)
    for depth in (0, 1, 3, 5):
        for table, ref, assign in split_tables(rng, 40, depth):
            grain = lcm(*(a.denominator for a in assign.values()))
            assert table.den == grain ** depth and table.nums[0] == table.den
            assert table.values == ref
            for sigma in all_strings(depth + 2):
                assert table.value(sigma) == ref[sigma[:depth]]


def test_count_cheap_extensions_matches_fraction_reference():
    rng = random.Random(12)
    deltas = (Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(3, 2), Fraction(5, 3),
              Fraction(2), Fraction(3), 4)
    pairs = list(split_tables(rng, 30, 4))
    pairs += [(t, t.values, None) for t in random_tables(4, 30, 12)]
    for table, ref, _assign in pairs:
        for sigma in all_strings(4):
            for l in range(4 - len(sigma) + 1):
                for delta in deltas:
                    bound = delta * ref[sigma]
                    want = sum(1 for tau in strings_of_length(l)
                               if ref[sigma + tau] < bound)
                    assert count_cheap_extensions(table, sigma, delta, l) == want


@pytest.mark.parametrize("oracle", [None, HaltingOracle(1000)], ids=["none", "halting"])
def test_cylinder_bisect_matches_linear_scan(oracle):
    cap = 16
    d = machine_supermartingale(oracle, cap)
    assert d.scale == 1 << cap
    runs = halting_runs(oracle, cap)
    for stage in (0, 1, 5, 100, 10 ** 4):
        for sigma in all_strings(7):
            want = reference_cylinder(runs, sigma, stage)
            assert Fraction(d.numerator(sigma, stage), d.scale) == want
            assert d(sigma, stage) == want


def test_cylinder_scans_outputs_longer_than_64_bits(monkeypatch):
    def leaf(bit):
        return (1, bit, None, None)

    def cat(a, b):
        return (a[0] + b[0], None, a, b)

    rope = cat(leaf(0), leaf(1))
    for _ in range(5):
        rope = cat(rope, rope)
    # the machine's outputs at cap 16 are at most 2 bits; widen four of
    # them into ropes of 64 (indexed), 65 and 129 bits (kept as ropes)
    wide = {"": rope, "0": cat(leaf(1), rope), "1": cat(leaf(0), rope),
            "10": cat(leaf(1), cat(rope, rope))}
    assert sorted(r[0] for r in wide.values()) == [64, 65, 65, 129]
    # the table keys each halt by complexity.output_string(rope), so the
    # widening goes there; the walk's states, which trapped children copy,
    # keep their own ropes
    narrow = complexity.output_string

    def widened(rope):
        out = narrow(rope)
        return rope_materialize(wide[out], 1 << 10) if out in wide else out

    monkeypatch.setattr(complexity, "output_string", widened)
    runs = [(i, p, steps, rope_materialize(wide[out], 1 << 10) if out in wide else out)
            for i, p, steps, out in halting_runs(None, 16)]
    assert {len(out) for *_x, out in runs} >= {64, 65, 129}
    d = machine_supermartingale(None, 16)
    table = halting_table(None, 16)
    longest = rope_materialize(wide["10"], 1 << 10)
    sigmas = (list(all_strings(5)) + [longest[:n] for n in (63, 64, 65, 66, 100, 129, 130)]
              + [rope_materialize(wide[s], 1 << 10) for s in ("", "0", "1")])
    for stage in (0, 1, 10 ** 4):
        for sigma in sigmas:
            assert d(sigma, stage) == reference_cylinder(runs, sigma, stage), sigma
            p = table.first(sigma, stage)
            want = reference_output_map(runs, stage, len(sigma)).get(sigma)
            assert (p is None and want is None) or p == want[1]
        for max_len in (64, 65, 129, 200):
            assert (list(table.output_map(stage, max_len).items())
                    == list(reference_output_map(runs, stage, max_len).items()))
            masses = reference_mass_map(runs, stage, max_len)
            assert ([(sigma, Fraction(table.mass_numerator(sigma, stage), 1 << 16))
                     for sigma in masses] == list(masses.items()))
        assert table.total_mass(stage) == reference_total_mass(runs, stage)


MIXTURE_TABLES = (
    MartingaleTable.constant(8),
    MartingaleTable.from_splits(8, [(3, 4)] * 255),
    MartingaleTable.constant(3, Fraction(0)),
    MartingaleTable.from_splits(
        3, heap_splits(3, lambda s: (Fraction(1, 3), Fraction(2, 5))[len(s) % 2])),
    MartingaleTable.constant(4, Fraction(7, 3)),
)


def test_mixture_numerator_matches_fraction_reference():
    cap = 16
    tables = MIXTURE_TABLES
    d = mixture_supermartingale(tables, None, cap)
    machine = machine_supermartingale(None, cap)
    runs = halting_runs(None, cap)
    assert d.scale % (1 << (cap + len(tables) + 1)) == 0
    for stage in (0, 5, 100, 10 ** 4):
        for sigma in all_strings(6):
            cylinder = reference_cylinder(runs, sigma, stage)
            want = Fraction(1, 1 << (len(tables) + 1)) * cylinder
            for i, tab in enumerate(tables):
                root = tab.value("")
                if root:
                    want += Fraction(1, 1 << (i + 1)) * tab.value(sigma) / root
            assert Fraction(d.numerator(sigma, stage), d.scale) == want, (sigma, stage)
            assert machine(sigma, stage) == cylinder


EXTENSION_TABLES = MIXTURE_TABLES + tuple(random_tables(6, 1, 5))


def extension_sigmas(runs, rng):
    """Every prefix of an indexed output, and two random strings of each
    length up to 12: the lengths cross every table depth above."""
    sigmas = {out[:n] for *_x, out in runs for n in range(len(out) + 1)}
    sigmas |= {"".join(rng.choice("01") for _ in range(n)) for n in range(13) for _ in range(2)}
    return sorted(sigmas, key=lambda s: (len(s), s))


def check_extensions_per_candidate(tables, oracle, cap, cases, stages):
    """For each (sigma, l) of cases and each stage, the price runs of the
    mixture of tables and of the machine part alone, expanded, must equal
    the prices built for each candidate alone, from halting runs and the
    tables' Fraction values."""
    mixture = mixture_supermartingale(tables, oracle, cap)
    machine = machine_supermartingale(oracle, cap)
    runs = halting_runs(oracle, cap)
    longest = max(len(out) for *_x, out in runs)
    tail = Fraction(1, 1 << (len(tables) + 1))
    weights = [(Fraction(1, 1 << (i + 1)) / tab.value(""), tab)
               for i, tab in enumerate(tables) if tab.value("")]

    def cylinder(x, stage):
        # an output shorter than x extends no cylinder of x
        return reference_cylinder(runs, x, stage) if len(x) <= longest else 0

    for sigma, l in cases:
        candidates = [sigma + tau for tau in strings_of_length(l)]
        values = [sum(w * tab.value(x) for w, tab in weights) for x in candidates]
        for stage in stages:
            cylinders = [cylinder(x, stage) for x in candidates]
            want = [t + tail * c for t, c in zip(values, cylinders)]
            got = [Fraction(v, mixture.scale)
                   for v in expand_runs(mixture.extensions(sigma, l, stage))]
            assert got == want, (sigma, l, stage)
            got = [Fraction(v, machine.scale)
                   for v in expand_runs(machine.extensions(sigma, l, stage))]
            assert got == cylinders, (sigma, l, stage)


@pytest.mark.parametrize("oracle", [None, HaltingOracle(1000)], ids=["none", "halting"])
def test_extensions_match_per_candidate_reference(oracle):
    sigmas = extension_sigmas(halting_runs(oracle, 16), random.Random(13))
    check_extensions_per_candidate(EXTENSION_TABLES, oracle, 16,
                                   [(sigma, l) for sigma in sigmas for l in range(7)],
                                   (0, 1, 5, 10 ** 4))


def test_extension_runs_cut_a_table_block_at_machine_strings():
    """At cap 20 the machine prints every 3-bit string and 0000, 0101, 1010
    and 1111.  Over tables at most 2 levels deep, one table value prices
    a block of 2 or 4 consecutive extensions alike, and the machine's
    strings fall on the first, the last and inner extensions of blocks."""
    cap = 20
    outputs = {out for *_x, out in halting_runs(None, cap)}
    assert {"000", "111", "0000", "0101", "1010", "1111"} <= outputs
    shallow = (MartingaleTable.from_splits(1, [(1, 4)]),
               MartingaleTable.from_splits(2, [(1, 3), (1, 1), (2, 5)]),
               MartingaleTable.constant(1, Fraction(2)))
    runs = list(mixture_supermartingale(shallow, None, cap).extensions("", 4, 10 ** 4))
    # four blocks of 4, each cut by the machine strings inside it
    assert len(runs) > 4 and sum(count for count, _price in runs) == 16
    cases = [(sigma, l) for sigma in ("", "0", "1", "01") for l in range(5 - len(sigma))]
    check_extensions_per_candidate(shallow, None, cap, cases, (0, 100, 10 ** 4))


def test_extensions_reject_a_string_that_is_not_binary():
    for d in (machine_supermartingale(None, 12), default_builder_martingale(None, 12)):
        for sigma in ("2", "0x"):
            with pytest.raises(ValueError, match="not a 0/1 string"):
                d(sigma, 100)


def test_flat_extension_below_depth():
    d = MartingaleTable.constant(2, Fraction(5))
    assert d.value("01011") == Fraction(5)


# ------------------------------------------------------------------ the counting bound

def test_dyadic_family_guarantee_exhaustive():
    grid = ((Fraction(3, 2), 1), (Fraction(2), 1), (Fraction(2), 2), (Fraction(3), 3))
    for table in dyadic_family(3):
        for delta, k in grid:
            l = space_lemma_length(delta, k)
            if l > 3:
                continue
            for sigma in all_strings(3 - l):
                if table.value(sigma) > 0:
                    assert count_cheap_extensions(table, sigma, delta, l) >= k


def randint_tables(depth, n, seed):
    """The reference draw: one rng.randint(0, 8) per internal node in heap
    order, each split i/8 in lowest terms, n tables from one generator."""
    grid = [(f.numerator, f.denominator) for f in (Fraction(i, 8) for i in range(9))]
    rng = random.Random(seed)
    return [MartingaleTable.from_splits(
        depth, [grid[rng.randint(0, 8)] for _ in range((1 << depth) - 1)])
        for _ in range(n)]


def table_keys(tables):
    return [(t.depth, t.nums, t.den) for t in tables]


@pytest.mark.parametrize("depth,seed", [(d, s) for d in (0, 1, 3, 6) for s in range(20)])
def test_random_table_draws_reduced_splits_from_the_grid(depth, seed):
    # five tables from one stream; the shared denominator is the lcm of the
    # drawn ones: a one-node table drawn at an even i has a denominator below 8
    got = random_tables(depth, 5, seed)
    assert table_keys(got) == table_keys(randint_tables(depth, 5, seed))


@pytest.mark.parametrize("depth,n", [(6, randomness._CHUNK_WORDS // 63 + 2), (12, 3)])
def test_random_tables_read_past_one_chunk(depth, n):
    # a chunk of w words gives at most w draws
    assert n * ((1 << depth) - 1) > randomness._CHUNK_WORDS
    got = random_tables(depth, n, 3)
    assert table_keys(got) == table_keys(randint_tables(depth, n, 3))


def test_no_random_tables_for_n_zero():
    assert list(random_tables(6, 0, 1)) == []


def test_random_tables_guarantee_sampled():
    grid = ((Fraction(3, 2), 4), (Fraction(2), 4), (Fraction(3), 8))
    for table in random_tables(6, 1000, 7):
        for delta, k in grid:
            l = space_lemma_length(delta, k)
            assert count_cheap_extensions(table, "", delta, l) >= k


# the (delta, k) pairs the space-lemma benchmark cases offer, over the two
# families the exhaustive mode sweeps
OFFERED = ((2, 2), (Fraction(3, 2), 1), (2, 3), (3, 3), (2, 1), (3, 1), (4, 1), (5, 1))
FAMILIES = ((3, DYADIC_SPLITS), (2, tuple(Fraction(i, 4) for i in range(5))))


@pytest.mark.parametrize("fam_depth,splits", FAMILIES, ids=["dyadic", "quarters"])
@pytest.mark.parametrize("delta,k", OFFERED)
def test_sweep_agrees_with_per_node_counts(fam_depth, splits, delta, k):
    l = space_lemma_length(delta, k)
    assert l <= 3
    above = (1 << max(fam_depth + 1 - l, 0)) - 1
    tables = list(dyadic_family(fam_depth, splits))
    counts = [count_cheap_extensions(table, index_to_body(i), delta, l)
              for table in tables for i in range(above) if table.nums[i]]
    # every threshold up to one past the 2^l extensions, so the whole
    # distribution of counts must agree, not only the count of violations
    for threshold in range(1, (1 << l) + 2):
        want = (len(counts), sum(c < threshold for c in counts))
        assert space_lemma_sweep(tables, delta, l, threshold, above) == want, threshold


GRID_DELTAS = (Fraction(3, 2), 2, 3, 4, 5, Fraction(7, 3), Fraction(9, 8))
# the halves and quarters are symmetric under a <-> 1 - a; the grid
# {1/3, 1} is not, so it tells a 0-child's positive splits from a 1-child's
GRID_FAMILIES = {"halves-2": (2, DYADIC_SPLITS), "halves-3": FAMILIES[0],
                 "quarters-2": FAMILIES[1],
                 "asymmetric-3": (3, (Fraction(1, 3), Fraction(1)))}


@functools.cache
def grid_family(name):
    return list(dyadic_family(*GRID_FAMILIES[name]))


@pytest.mark.parametrize("name", GRID_FAMILIES)
@pytest.mark.parametrize("delta", GRID_DELTAS, ids=str)
def test_grid_count_matches_the_family_sweep(name, delta):
    """space_lemma_grid counts per node what the sweep counts over every
    table of the grid's family, at every node that has l levels below it
    (none when l is past the depth): each threshold from 1 to one past
    the 2^l extensions, so the whole distribution of counts."""
    depth, splits = GRID_FAMILIES[name]
    for k in (1, 2, 3):
        l = space_lemma_length(delta, k)
        above = (1 << max(depth + 1 - l, 0)) - 1
        for threshold in range(1, (1 << l) + 2):
            want = space_lemma_sweep(grid_family(name), delta, l, threshold, above)
            assert space_lemma_grid(depth, splits, delta, l, threshold) == want


def test_grid_count_without_a_node_to_test_enumerates_nothing(monkeypatch):
    # l = 7 leaves no node of a depth-3 table with 7 levels below it; the
    # 3^127 assignments of a 7-level subtree must not be enumerated
    def refuse(*_args, **_kw):
        raise AssertionError("enumerated the subtree assignments")

    monkeypatch.setattr(randomness, "product", refuse)
    assert space_lemma_grid(3, DYADIC_SPLITS, Fraction(9, 8), 7, 7) == (0, 0)
    assert space_lemma_grid(2, FAMILIES[1][1], Fraction(9, 8), 7, 7) == (0, 0)


# from_splits builds through the validating constructor.  Every family it
# builds here goes through that constructor again, from a copy of its
# numerators, so a from_splits that skipped the fairness and negativity
# checks and built an unfair or negative table would fail this test.
FROM_SPLITS_FAMILIES = {
    "random": lambda: [table for depth in range(1, 7) for seed in range(4)
                       for table in random_tables(depth, 10, seed)],
    "dyadic-halves": lambda: list(dyadic_family(*FAMILIES[0])),
    "dyadic-quarters": lambda: list(dyadic_family(*FAMILIES[1])),
    "builder": randomness._builder_tables,
}


@pytest.mark.parametrize("family", FROM_SPLITS_FAMILIES)
def test_from_splits_tables_pass_the_validating_constructor(family):
    tables = FROM_SPLITS_FAMILIES[family]()
    assert tables
    for table in tables:
        checked = MartingaleTable(table.depth, nums=list(table.nums), den=table.den)
        assert checked.values == table.values


# (--depth, l, delta, k, n, seed) as the sample command takes them: its
# tables have depth max(--depth, l).  The rows put --depth below l, at l
# and above it; the stream of the depth-6 and depth-9 rows crosses a
# chunk; and an l below space_lemma_length(delta, k) makes violations, so
# the two counts can disagree.
SAMPLE_GRID = [
    (1, 2, Fraction(2), 4, 300, 0),
    (3, 3, Fraction(2), 6, 300, 1),
    (6, 3, Fraction(2), 2, 100, 2),
    (6, 2, Fraction(3, 2), 3, 100, 5),
    (9, 3, Fraction(2), 7, 20, 3),
    (2, 3, Fraction(3), 7, 200, 4),
]


@pytest.mark.parametrize("depth,l,delta,k,n,seed", SAMPLE_GRID)
def test_partial_sample_build_counts_like_the_full_tables(depth, l, delta, k, n, seed):
    depth = max(depth, l)
    full = space_lemma_sweep(random_tables(depth, n, seed), delta, l, k)
    assert space_lemma_sample(depth, n, seed, delta, l, k) == full
    if l < space_lemma_length(delta, k):
        assert 0 < full[1] < full[0]


@pytest.mark.parametrize("depth", range(3, 9))
def test_leaf_product_sample_counts_like_the_full_tables(depth):
    """The sample's leaf products of draws against the sweep over the
    tables random_tables builds from the same draws, at every l up to the
    table depth and at thresholds from 1 to one past the 2^l extensions."""
    n, seed = 30, depth
    tables = list(random_tables(depth, n, seed))
    straddled = False
    for l in range(depth + 1):
        for delta in (Fraction(3, 2), 2, Fraction(9, 8)):
            for k in sorted({1, max(1 << l >> 1, 1), 1 << l, (1 << l) + 1}):
                want = space_lemma_sweep(tables, delta, l, k)
                assert space_lemma_sample(depth, n, seed, delta, l, k) == want, (l, delta, k)
                straddled |= 0 < want[1] < want[0]
    assert straddled


def test_sample_grid_crosses_a_chunk_and_straddles_the_bound():
    assert any(n * ((1 << max(depth, l)) - 1) > randomness._CHUNK_WORDS
               for depth, l, _delta, _k, n, _seed in SAMPLE_GRID)
    lengths = [(l, space_lemma_length(delta, k)) for _d, l, delta, k, _n, _s in SAMPLE_GRID]
    assert any(l < bound for l, bound in lengths) and any(l == bound for l, bound in lengths)


def test_split_rows_are_bounded_in_depth_at_the_call():
    (row,) = random_split_rows(randomness.MAX_TABLE_DEPTH, 1, 0)
    assert len(row) == (1 << 20) - 1 and max(row) == 8
    with pytest.raises(ValueError, match="table depth 21 is above the bound 20"):
        random_split_rows(21, 0, 0)


def test_sample_rejects_an_extension_past_the_table_depth():
    with pytest.raises(ValueError, match="past the table depth"):
        space_lemma_sample(2, 5, 0, 2, 3, 1)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_sweep_reports_every_node_when_k_exceeds_the_extensions(l):
    tables = list(random_tables(6, 50, 4))
    assert space_lemma_sweep(tables, 2, l, (1 << l) + 1) == (50, 50)


def test_sweep_rejects_nodes_without_l_levels_below():
    tables = [MartingaleTable.constant(3)]
    assert space_lemma_sweep(tables, 2, 2, 1, 3) == (3, 0)
    with pytest.raises(ValueError, match="past the table depth"):
        space_lemma_sweep(tables, 2, 2, 1, 4)
    with pytest.raises(ValueError, match="past the table depth"):
        space_lemma_sweep(tables, 2, 4, 1)
    assert space_lemma_sweep([], 2, 2, 1) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 7 - 1), st.sampled_from([Fraction(3, 2), 2, 3]),
       st.integers(1, 4))
def test_counting_guarantee_property(code, delta, k):
    splits = []
    c = code
    for _ in range(7):
        splits.append(DYADIC_SPLITS[c % 3])
        c //= 3
    table = MartingaleTable.from_splits(3, [(a.numerator, a.denominator) for a in splits])
    l = space_lemma_length(delta, k)
    if l <= 3:
        assert count_cheap_extensions(table, "", delta, l) >= k


# ------------------------------------------------------------------ supermartingales

def test_machine_supermartingale_inequality_and_monotone():
    d = machine_supermartingale(None, 16)
    for sigma in all_strings(2):
        for s in (0, 5, 100, 1000):
            assert 2 * d(sigma, s) >= d(sigma + "0", s) + d(sigma + "1", s)
        assert d(sigma, 10) <= d(sigma, 1000)


def test_builder_mixture_positive_and_super():
    d = default_builder_martingale(None, 16)
    for sigma in all_strings(3):
        assert d(sigma, 1000) > 0
        assert 2 * d(sigma, 1000) >= d(sigma + "0", 1000) + d(sigma + "1", 1000)


# ------------------------------------------------------------------ deficiency

def test_deficiency_empty_string():
    rec = deficiency("", 100, 14)
    assert rec.value == -1 and rec.argmax == 0


def test_deficiency_monotone_in_stage():
    for sigma in ("0", "0000", "0101"):
        assert (deficiency(sigma, 1, 16).value
                <= deficiency(sigma, 100, 16).value
                <= deficiency(sigma, 10 ** 4, 16).value)


def test_deficiency_lower_bound():
    # the n = 0 term is always -K_stage(empty string) = -1 on this machine
    for sigma in all_strings(4):
        rec = deficiency(sigma, 1000, 16)
        assert rec.value >= -1


def test_deficiency_enters_above_cap_as_cap_plus_one():
    # at stage 0 only the empty output has halted, so every other prefix
    # is above the cap and the last one scores n - (cap + 1)
    rec = deficiency("0" * 20, 0, 12)
    assert rec.value == 20 - 13 and rec.argmax == 20


# ------------------------------------------------------------------ psi

def test_psi_zero_denominator_terms_dropped():
    # a zero time bound starves every nonempty output of t'-mass
    t = TimeBound.poly(5, 1)
    t_zero = TimeBound.poly(0, 0)
    res = psi("0000", t, t_zero, Fraction(1), 2, 100, 14)
    assert res.dropped_terms > 0
    from depthlab.semimeasure import relative_mass

    lam_term = (m_stage("", 100, None, 14)
                * relative_mass("", "0000", t(0), 14) / m_stage("", 0, None, 14))
    assert res.value == lam_term


def test_psi_cancellation_when_queries_cannot_fit():
    # cap 8 holds no ORACLE instruction, so the relative and plain masses
    # agree and the quotient telescopes to the staged mass
    t = TimeBound.poly(10, 1)
    res = psi("0000", t, t, Fraction(1), 2, 100, 8)
    manual = Fraction(0)
    for sigma in all_strings(2):
        if m_stage(sigma, t(len(sigma)), None, 8) > 0:
            manual += m_stage(sigma, 100, None, 8)
    assert res.value == manual and res.dropped_terms == 0


def test_psi_monotone_in_len_cap_and_stage():
    t = TimeBound.poly(5, 1)
    vals = [psi("0000", t, t, Fraction(1), L, 100, 14).value for L in (0, 1, 2)]
    assert vals[0] <= vals[1] <= vals[2]
    stages = [psi("0000", t, t, Fraction(1), 2, s, 14).value for s in (1, 10, 100)]
    assert stages[0] <= stages[1] <= stages[2]


def test_psi_average_at_most_one_with_measured_constant():
    t = TimeBound.poly(5, 1)
    c_star = psi_domination_constant(t, t, 1, 3, 12)
    avg = psi_average(t, t, c_star, 1, 1000, 3, 12)
    assert avg <= 1


def stringwise_domination_constant(t, t_prime, len_cap, depth, cap):
    """psi_domination_constant by reading every string up to len_cap."""
    best = Fraction(0)
    for sigma in all_strings(len_cap):
        denom = m_stage(sigma, t_prime(len(sigma)), None, cap)
        if denom:
            best = max(best, oracle_average(sigma, t, cap, depth) / denom)
    return best if best > 0 else Fraction(1)


def test_psi_domination_constant_reads_only_held_outputs():
    # cap 20 holds outputs of up to 4 bits within poly:5,1, so the
    # constant moves with len_cap; the zero t' leaves only the empty output
    t = TimeBound.poly(5, 1)
    values = set()
    for t_prime in (t, TimeBound.poly(1, 2), TimeBound.poly(0, 0)):
        for len_cap in range(5):
            want = stringwise_domination_constant(t, t_prime, len_cap, 3, 20)
            assert psi_domination_constant(t, t_prime, len_cap, 3, 20) == want
            values.add(want)
    assert len(values) > 3
    # reading every string of up to 30 bits would take hours; the held
    # outputs end at the table's reach, past which the constant is fixed
    assert psi_domination_constant(t, t, 30, 3, 20) == Fraction(193, 176)
    assert halting_table(None, 20).reach == 4
    assert stringwise_domination_constant(t, t, 4, 3, 20) == Fraction(193, 176)


def stringwise_psi(a_prefix, t, t_prime, c, len_cap, stage, cap):
    """(value, dropped terms) of psi by reading every string up to len_cap."""
    total, dropped = Fraction(0), 0
    for sigma in all_strings(len_cap):
        rel = relative_mass(sigma, a_prefix, t(len(sigma)), cap)
        if rel == 0:
            continue
        denom = m_stage(sigma, t_prime(len(sigma)), None, cap)
        if denom == 0:
            dropped += 1
            continue
        total += rel * m_stage(sigma, stage, None, cap) / (Fraction(c) * denom)
    return total, dropped


def test_psi_reads_only_held_outputs_and_matches_the_stringwise_sum():
    # cap 22 holds bodies that ask the oracle at indices 0 and 1, so the
    # prefix changes the value; the zero t' starves every nonempty output
    t = TimeBound.poly(5, 1)
    wants = {}  # (t', len_cap) -> the (value, dropped) pairs of the prefixes
    for t_prime in (t, TimeBound.poly(1, 2), TimeBound.poly(0, 0)):
        for a in ("00", "01", "11", "110", "1001"):
            for len_cap in range(5):
                res = psi(a, t, t_prime, Fraction(3, 2), len_cap, 40, 22)
                want = stringwise_psi(a, t, t_prime, Fraction(3, 2), len_cap, 40, 22)
                assert (res.value, res.dropped_terms) == want
                wants.setdefault((t_prime, len_cap), set()).add(want)
    assert any(value and dropped for pairs in wants.values() for value, dropped in pairs)
    assert any(len(pairs) > 1 for pairs in wants.values())


def test_psi_rejects_bad_constant():
    t = TimeBound.poly(5, 1)
    with pytest.raises(ValueError):
        psi("00", t, t, Fraction(0), 1, 10, 12)

