from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import constructions
from depthlab.complexity import WRAPPER_BITS, TimeBound, identity_reduction, Reduction
from depthlab.constructions import (
    BuilderConfig,
    DepthProfile,
    ProfileRow,
    ReductionMismatch,
    build_deep_random,
    depth_profile,
    sgl_compare,
    symdiff,
)
from depthlab.randomness import default_builder_martingale, space_lemma_length
from depthlab.toyvm import HaltingOracle, Program, assemble


def small_builder(rounds=4, cap=16, stage=1000):
    oracle = HaltingOracle(stage)
    return BuilderConfig(
        rounds=rounds,
        martingale=default_builder_martingale(oracle, cap),
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
        assert set(row) == {"n", "sigma_hex", "ext_count", "d_num", "d_den", "flagged"}


def test_builder_length_fit_reported():
    trace = build_deep_random(small_builder())
    fit = trace.length_fit()
    assert [n for n, _l, _q in fit] == [1, 2, 3, 4]
    assert all(length > 0 for _n, length, _q in fit)


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


def test_profile_warns_on_small_stage():
    with pytest.warns(UserWarning):
        depth_profile("00", TimeBound.poly(100, 1), 5, None, 16)


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


# ------------------------------------------------------------------ slow growth

def test_sgl_identity_reduction():
    rep = sgl_compare("0101", "0101", identity_reduction(), TimeBound.poly(5, 1),
                      2000, None, 16)
    assert rep.overhead == 0
    assert rep.holds_with_overhead
    assert rep.profile_x.rows == rep.profile_y.rows


def _even_bit_reduction() -> Reduction:
    # X(i) = Y(2i): double the requested index before querying
    body = assemble([
        "copy:",
        ("JZ", 2, "query"),
        ("DEC", 2),
        ("INC", 0),
        ("INC", 0),
        ("JMP", "copy"),
        "query:",
        ("ORACLE",),
        ("JZ", 1, "done"),
        ("INC", 3),
        "done:",
    ])
    return Reduction(Program.encode(body), 4096)


def test_sgl_even_bit_reduction_samples():
    red = _even_bit_reduction()
    samples = [
        "01101001100101101001011001101001",
        "00000000111111110000000011111111",
        "01010101010101010101010101010101",
        "11011000110110001101100011011000",
    ]
    t = TimeBound.poly(3, 1)
    for y in samples:
        x = y[0::2]
        rep = sgl_compare(x, y, red, t, 2000, None, 18)
        assert rep.holds_with_overhead
        assert rep.overhead >= 0
        shared = min(len(rep.profile_x.rows), len(rep.profile_y.rows))
        for i in range(shared):
            assert rep.profile_y.rows[i].gap >= rep.profile_x.rows[i].gap - rep.overhead


def test_sgl_reduction_mismatch_rejected():
    red = _even_bit_reduction()
    with pytest.raises(ReductionMismatch):
        sgl_compare("1111", "00000000", red, TimeBound.poly(3, 1), 1000, None, 16)


@pytest.mark.parametrize("excess", [0, 1])
def test_sgl_flag_checks_the_a_priori_constant(monkeypatch, excess):
    # crafted profiles: X is deeper than Y by the reduction's size plus the
    # wrapper, then by one bit more, at n = 2
    red = identity_reduction()
    limit = len(red.program) + WRAPPER_BITS

    def profile(gaps):
        return DepthProfile("", tuple(ProfileRow(n, None, None, g)
                                      for n, g in enumerate(gaps, 1)), {})

    profiles = iter([profile([0, limit + excess, 0]), profile([0, 0, 0])])
    monkeypatch.setattr(constructions, "depth_profile",
                        lambda *args, **kwargs: next(profiles))
    rep = sgl_compare("0101", "0101", red, TimeBound.poly(5, 1), 2000, None, 12)
    assert rep.overhead == limit + excess
    assert rep.holds_with_overhead is (excess == 0)


def test_sgl_computable_source_vacuous():
    rep = sgl_compare("0000", "01000100", _even_bit_reduction(),
                      TimeBound.poly(3, 1), 2000, None, 18)
    assert rep.holds_with_overhead
