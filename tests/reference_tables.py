"""Reference betting data for the tests: the families of martingale tables
the space-lemma counts are checked over, built table by table, the sweep
that counts them one table at a time, the per-extension prices a
run-length price stream stands for, and the machine's cylinder
supermartingale alone, which checks the machine part of the mixture."""

from itertools import product
from math import gcd

from depthlab.complexity import halting_table
from depthlab.randomness import (
    DYADIC_SPLITS,
    MartingaleTable,
    StagedSupermartingale,
    _machine_part,
    _runs,
    count_cheap_extensions,
    random_split_rows,
)
from depthlab.toyvm import index_to_body

_EIGHTHS = [(i // gcd(i, 8), 8 // gcd(i, 8)) for i in range(9)]


def dyadic_family(depth: int, splits=DYADIC_SPLITS):
    """Every martingale of the given depth whose per-node splits come from
    the grid; normalised to 1 at the root.  Exhaustive over the grid: the
    splits in heap order count through it like the digits of a
    base-len(grid) counter, least significant first."""
    grid = [(a.numerator, a.denominator) for a in splits]
    for assign in product(grid, repeat=(1 << depth) - 1):
        yield MartingaleTable.from_splits(depth, assign[::-1])


def random_tables(depth: int, n: int, seed):
    """n tables with splits drawn uniformly from the multiples of 1/8, in
    lowest terms, one row of random_split_rows each, built lazily: the
    tables space_lemma_sample counts without building them."""
    for row in random_split_rows(depth, n, seed):
        yield MartingaleTable.from_splits(depth, [_EIGHTHS[i] for i in row])


def space_lemma_sweep(tables, delta, l: int, k: int, above: int = 1) -> tuple[int, int]:
    """(tested, violations) of the counting bound over the first `above`
    heap nodes of each table, counted table by table: a node with a
    positive value is tested, and it violates the bound when fewer than k
    of its 2^l extensions l levels down are cheap.  The default tests the
    root alone."""
    tested = violations = 0
    for table in tables:
        # heap nodes below 2^(depth + 1 - l) - 1 have l levels under them
        if above > (1 << max(table.depth + 1 - l, 0)) - 1:
            raise ValueError("extension runs past the table depth")
        for i in range(above):
            if table.nums[i]:
                tested += 1
                violations += count_cheap_extensions(table, index_to_body(i), delta, l) < k
    return tested, violations


def expand_runs(runs) -> list:
    """The price of each extension, in lex order, from (count, price) runs;
    every run must hold at least one extension."""
    prices = []
    for count, price in runs:
        assert count >= 1, (count, price)
        prices.extend([price] * count)
    return prices


def machine_supermartingale(oracle=None, cap: int = 16) -> StagedSupermartingale:
    """Cylinder-mass supermartingale from the machine semimeasure:
    d_s(sigma) = 2^|sigma| * sum of halting mass on outputs extending sigma,
    over the scale 2^cap."""
    cylinders = halting_table(oracle, cap).cylinder_numerators

    def extensions(sigma: str, l: int, stage: int):
        return _runs([0], l, _machine_part(cylinders, sigma, l, stage))

    return StagedSupermartingale(extensions, 1 << cap, f"machine-cylinder/cap{cap}")
