import warnings
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import constructions
from depthlab.complexity import TimeBound, halting_table
from depthlab.constructions import BuilderConfig, build_deep_random, depth_profile
from depthlab.randomness import (
    MartingaleTable,
    StagedSupermartingale,
    default_builder_martingale,
    mixture_supermartingale,
    space_lemma_length,
)
from depthlab.pi01forcing import symdiff
from depthlab.toyvm import body_index, parse_oracle


def small_builder(rounds=4, cap=16, stage=1000, oracle=None, tables=None):
    """A builder under the oracle an --oracle text names, halting:<stage>
    by default, over the default builder mixture or over `tables`."""
    oracle = parse_oracle(oracle or f"halting:{stage}")
    return BuilderConfig(
        rounds=rounds,
        martingale=(default_builder_martingale(oracle, cap) if tables is None
                    else mixture_supermartingale(tables, oracle, cap)),
        oracle=oracle,
        dominating=TimeBound.poly(2, 2),
        cap=cap,
        mart_stage=stage,
    )


# ------------------------------------------------------------------ builder

def test_builder_prefix_chain_and_lengths():
    trace = build_deep_random(small_builder())
    prev = ""
    for r in trace.rounds:
        assert r.sigma.startswith(prev)
        l = space_lemma_length(1 + Fraction(1, r.n ** 2), 1 << r.n)
        assert len(r.sigma) - len(prev) == l == r.extension_length
        prev = r.sigma
    assert trace.check_length_recurrence()


def test_builder_round_one_frozen():
    trace = build_deep_random(small_builder(rounds=1))
    r = trace.rounds[0]
    assert r.extension_length == 3
    assert r.ext_count >= 2


def test_builder_extension_counts_meet_guarantee():
    trace = build_deep_random(small_builder())
    for r in trace.rounds:
        assert r.ext_count >= (1 << r.n)


def test_builder_martingale_budget_exact():
    trace = build_deep_random(small_builder())
    assert trace.check_martingale_budget()
    bounds = trace.claim_bound_products()
    assert bounds[2] == Fraction(25, 9) * trace.d_lambda
    for r, b in zip(trace.rounds, bounds):
        assert r.d_value <= b


def test_builder_deterministic():
    a = build_deep_random(small_builder())
    b = build_deep_random(small_builder())
    assert a.to_json() == b.to_json()


def test_builder_enforced_deficiency_post_hoc():
    cfg = small_builder()
    trace = build_deep_random(cfg)
    from depthlab.complexity import k_stage

    for r in trace.rounds:
        if not r.flagged:
            budget = cfg.dominating(len(r.sigma))
            res = k_stage(r.sigma, budget, cfg.oracle, cfg.cap)
            assert res.above_cap or res.value > r.n - 1


def test_builder_trace_json_schema():
    trace = build_deep_random(small_builder(rounds=2))
    doc = trace.to_json()
    assert set(doc) == {"config", "rounds", "checks"}
    assert set(doc["checks"]) == {"claim2", "claim3"}
    for row in doc["rounds"]:
        assert set(row) == {"n", "sigma_hex", "ext_count", "d_num", "d_den", "flagged",
                            "k_rejected", "price_rejected", "vacuous"}


def fraction_priced(cfg, sigma, r):
    """The cheap extensions of one round, priced with Fractions."""
    d, stage = cfg.martingale, cfg.mart_stage
    delta = 1 + Fraction(1, r * r)
    l = space_lemma_length(delta, 1 << r)
    bound = delta * d(sigma, stage)
    return [format(v, "b").zfill(l) for v in range(1 << l)
            if d(sigma + format(v, "b").zfill(l), stage) < bound]


FRACTION_BUILDS = {
    "cap16-halting:1000": {},
    "cap12-none": {"cap": 12, "oracle": "none", "stage": 10 ** 4},
    "cap12-halting:10000": {"cap": 12, "oracle": "halting:10000", "stage": 10 ** 4},
    "cap18-none": {"cap": 18, "oracle": "none", "stage": 10 ** 4},
    "cap18-halting:10000": {"cap": 18, "oracle": "halting:10000", "stage": 10 ** 4},
    # at cap 20 the machine prints every 3-bit string, and under a depth-2
    # table round 1 prices its 8 extensions in four blocks of 2: the
    # machine's strings cut each block at its first and last extension,
    # and the price filter rejects the block under 11
    "cap20-block-boundaries": {"cap": 20, "oracle": "none", "stage": 10 ** 4,
                               "tables": (MartingaleTable.from_splits(
                                   2, [(1, 8), (1, 2), (1, 8)]),)},
    # round 1 prices in blocks of 2 with no machine string to cut them,
    # and the price filter rejects the first block, under 00
    "cap16-first-block-rejected": {"oracle": "none", "stage": 10 ** 4,
                                   "tables": (MartingaleTable.from_splits(
                                       2, [(15, 16), (15, 16), (1, 2)]),)},
}


def test_builder_prices_and_filter_match_fraction_reference():
    for build in FRACTION_BUILDS.values():
        check_builder_against_fraction_prices(small_builder(**build))


def check_builder_against_fraction_prices(cfg):
    trace = build_deep_random(cfg)
    table = constructions.halting_table(cfg.oracle, cfg.cap)
    prev = ""
    for r in trace.rounds:
        cheap = fraction_priced(cfg, prev, r.n)
        assert r.ext_count == len(cheap)
        omap = table.output_map(cfg.dominating(len(r.sigma)), len(r.sigma))
        passed = [tau for tau in cheap
                  if omap.get(prev + tau) is None or omap[prev + tau][0] > r.n - 1]
        if passed:
            assert not r.flagged and r.chosen == passed[0]
            assert r.k_rejected == cheap.index(passed[0])
        else:
            best = max(omap[prev + tau][0] for tau in cheap)
            assert r.flagged and r.k_rejected == len(cheap)
            assert r.chosen == next(tau for tau in cheap if omap[prev + tau][0] == best)
        assert r.price_rejected == (1 << r.extension_length) - len(cheap)
        assert r.vacuous == (len(cheap) == 1 << r.extension_length
                             and passed[:1] == cheap[:1])
        prev = r.sigma


def test_builder_price_bound_is_strict():
    # splits at "", "0", "1", "00", "01", "10", "11" (heap order)
    tab = MartingaleTable.from_splits(
        3, [(1, 2), (1, 1), (1, 4), (1, 2), (1, 2), (0, 1), (1, 3)])

    def extensions(sigma, l, _stage):
        # the table alone: sigma's extensions are one slice of its heap
        # order, each extension its own run
        first = body_index(sigma + "0" * l)
        return [(1, v) for v in tab.nums[first:first + (1 << l)]]

    mart = StagedSupermartingale(extensions, tab.den, "table")
    cfg = BuilderConfig(rounds=1, martingale=mart, oracle=None,
                        dominating=TimeBound.poly(2, 2), cap=12, mart_stage=0)
    values = [tab.value(format(v, "b").zfill(3)) for v in range(8)]
    # three extensions sit exactly on the round-1 bound 2 d(lambda) = 2
    assert values.count(Fraction(2)) == 3
    r = build_deep_random(cfg).rounds[0]
    assert r.ext_count == len(fraction_priced(cfg, "", 1)) == 5
    assert r.price_rejected == 3 and not r.vacuous


def test_length_recurrence_check_catches_a_tampered_trace():
    trace = build_deep_random(small_builder(rounds=2))
    assert trace.check_length_recurrence()
    last = trace.rounds[-1]
    for tampered in (last._replace(sigma=last.sigma + "0"),
                     last._replace(extension_length=last.extension_length + 1)):
        trace.rounds[-1] = tampered
        assert not trace.check_length_recurrence()
        assert trace.to_json()["checks"]["claim3"] is False


def test_builder_rejects_a_martingale_that_prices_every_extension_too_high():
    # d = 1 at every string, 2 on every extension: none is under 2 d(lambda)
    def extensions(sigma, l, _stage):
        return [(1 << l, 2 if l else 1)]

    cfg = BuilderConfig(rounds=1, martingale=StagedSupermartingale(extensions, 1, "flat"),
                        oracle=None, dominating=TimeBound.poly(2, 2), cap=12, mart_stage=0)
    with pytest.raises(constructions.BuilderError, match="no extension priced under 2"):
        build_deep_random(cfg)


def test_builder_blames_a_zero_value_not_the_martingale():
    # the table bets everything on the 1-child, so its part is 0 below "0";
    # by round 3 the machine part of 00000000 is 0 at cap 20 too, and the
    # mixture, a supermartingale, is 0 there
    cfg = small_builder(rounds=3, cap=20, oracle="none", stage=10 ** 4,
                        tables=(MartingaleTable.from_splits(1, [(0, 1)]),))
    with pytest.raises(constructions.BuilderError) as info:
        build_deep_random(cfg)
    message = str(info.value)
    assert message.startswith("round 3: d('00000000') is 0 at stage 10000")
    assert "not a supermartingale" not in message


def test_builder_needs_at_least_one_round():
    with pytest.raises(ValueError, match="at least one round"):
        build_deep_random(small_builder(rounds=0))


def test_builder_flags_a_round_whose_candidates_all_compress(monkeypatch):
    # round 3 prices its 128 extensions as one run
    cfg = small_builder(rounds=3)

    def k_of(s):
        # round 1 (3 bits) compresses everything to 0 bits, rounds 2 and 3
        # to at most 1 bit, least on strings ending in 0
        return 0 if len(s) <= 3 else int(s.endswith("1"))

    class Table:
        def output_map(self, budget, max_len):
            return {format(v, "b").zfill(n): (k_of(format(v, "b").zfill(n)), None)
                    for n in range(1, max_len + 1) for v in range(1 << n)}

    monkeypatch.setattr(constructions, "halting_table", lambda oracle, cap: Table())
    trace = build_deep_random(cfg)
    prev = ""
    for r in trace.rounds:
        cheap = fraction_priced(cfg, prev, r.n)
        best = max(k_of(prev + tau) for tau in cheap)
        assert r.flagged and r.k_rejected == r.ext_count == len(cheap)
        assert not r.vacuous
        assert r.chosen == next(tau for tau in cheap if k_of(prev + tau) == best)
        prev = r.sigma
    assert trace.rounds[1].chosen.endswith("1")


def test_builder_length_fit_reported():
    trace = build_deep_random(small_builder())
    fit = trace.length_fit()
    assert [n for n, _l, _q in fit] == [1, 2, 3, 4]
    assert all(length > 0 for _n, length, _q in fit)


@pytest.mark.parametrize("oracle", ["none", "halting:10000"])
def test_no_round_up_to_25_can_reject_on_complexity(oracle):
    """Round r rejects a candidate only when a program of at most r - 1
    bits prints it.  For r <= 25 such a program has at most 24 bits, so
    it lies in the cap-24 table, a larger cap adds only longer programs,
    and a time bound only drops halts.  At budget 10^5 that table leaves
    no run unresolved, so it holds every halt at any budget: no round up
    to 25 has a candidate the filter could reject, at any cap or time
    bound.  The candidates of round 2 on are longer than any output."""
    cap, budget = 24, 10 ** 5
    table = halting_table(parse_oracle(oracle), cap)
    table.ensure(budget)
    assert table.unresolved == 0
    lengths = list(accumulate(space_lemma_length(1 + Fraction(1, r * r), 1 << r)
                              for r in range(1, 26)))
    assert lengths[:3] == [3, 8, 15] and lengths[-1] == 509
    assert table.reach == 4 < lengths[1]
    omap = table.output_map(budget, lengths[-1])
    for r, length in enumerate(lengths, 1):
        assert not [sigma for sigma, (k, _p) in omap.items()
                    if len(sigma) == length and k <= r - 1]
    # round 1's 3-bit candidates would need K <= 0, shorter than any program
    assert min(k for k, _p in omap.values()) > 0


# ------------------------------------------------------------------ profiles

def test_profile_zero_gap_when_budgets_align():
    # generous time bound and a stage equal to its largest budget: both
    # searches see the same halting set for every prefix
    t = TimeBound.poly(50, 1)
    x = "0000"
    prof = depth_profile(x, t, t(len(x)), None, 19)
    assert all(r.gap == 0 for r in prof.rows)
    assert all(not r.above_cap for r in prof.rows)


def test_profile_gap_nondecreasing_in_stage():
    t = TimeBound.poly(2, 1)
    x = "0110"
    lo = depth_profile(x, t, 10, None, 19)
    hi = depth_profile(x, t, 10 ** 4, None, 19)
    for a, b in zip(lo.rows, hi.rows):
        assert b.gap >= a.gap


def test_profile_gap_enters_above_cap_as_cap_plus_one():
    # nothing prints within 0 steps, and EMIT0 (9 bits) prints "0" by stage 100
    row, = depth_profile("0", TimeBound.poly(0, 0), 100, None, 12).rows
    assert (row.k_time, row.k_stage, row.gap) == (None, 9, 12 + 1 - 9)
    assert row.above_cap


def test_profile_warns_on_small_stage():
    with pytest.warns(UserWarning):
        depth_profile("00", TimeBound.poly(100, 1), 5, None, 16)


def test_profile_validates_cap_before_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cap must be at least 2"):
            depth_profile("00", TimeBound.poly(100, 1), 5, None, -2)


def test_profile_csv_shape():
    prof = depth_profile("010", TimeBound.poly(10, 1), 100, None, 16)
    lines = list(prof.csv_lines())
    assert lines[0] == "n,k_time,k_stage,gap,above_cap"
    assert len(lines) == 4


def test_profile_on_builder_output_reported():
    cfg = small_builder(rounds=3)
    trace = build_deep_random(cfg)
    prof = depth_profile(trace.sigma, cfg.dominating, 2000, cfg.oracle, cfg.cap)
    assert len(prof.rows) == len(trace.sigma)
    again = depth_profile(trace.sigma, cfg.dominating, 2000, cfg.oracle, cfg.cap)
    assert prof == again


# ------------------------------------------------------------------ symdiff

def test_symdiff_basics():
    assert symdiff("1100", "1100") == "0000"
    assert symdiff("1010", "0000") == "1010"
    with pytest.raises(ValueError):
        symdiff("10", "100")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
def test_symdiff_involution(a, b):
    x = format(a, "b").zfill(64)
    y = format(b, "b").zfill(64)
    assert symdiff(symdiff(x, y), x) == y
