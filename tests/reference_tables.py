"""Reference betting data for the tests: the families of martingale tables
the counting sweeps are checked over, built table by table, and the
per-extension prices a run-length price stream stands for."""

from itertools import product

from depthlab.randomness import DYADIC_SPLITS, MartingaleTable


def dyadic_family(depth: int, splits=DYADIC_SPLITS):
    """Every martingale of the given depth whose per-node splits come from
    the grid; normalised to 1 at the root.  Exhaustive over the grid: the
    splits in heap order count through it like the digits of a
    base-len(grid) counter, least significant first."""
    grid = [(a.numerator, a.denominator) for a in splits]
    for assign in product(grid, repeat=(1 << depth) - 1):
        yield MartingaleTable.from_splits(depth, assign[::-1])


def expand_runs(runs) -> list:
    """The price of each extension, in lex order, from (count, price) runs;
    every run must hold at least one extension."""
    prices = []
    for count, price in runs:
        assert count >= 1, (count, price)
        prices.extend([price] * count)
    return prices
