from fractions import Fraction

import pytest

from depthlab.complexity import NoStageWithinBudget, TimeBound, halting_table
from depthlab.semimeasure import (
    ComputableSemimeasure,
    DepthViolation,
    coding_gap,
    m_stage,
    monte_carlo_average,
    oracle_average,
    oracle_average_direct,
    oracle_leaves,
    relative_mass,
    semimeasure_to_timebound,
)
from depthlab.toyvm import PrefixOracle, Program, assemble, programs_up_to, run


def all_strings(max_len):
    for n in range(max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n) if n else ""


# ------------------------------------------------------------------ m_stage

def test_stage_zero_only_empty_output():
    assert m_stage("0", 0, None, 14) == 0
    assert m_stage("1", 0, None, 14) == 0
    assert m_stage("", 0, None, 14) >= Fraction(1, 2)


def test_empty_string_mass_from_one_bit_program():
    for s in (0, 3, 100):
        assert m_stage("", s, None, 14) >= Fraction(1, 2)


def test_total_mass_at_most_one():
    table = halting_table(None, 16)
    assert table.total_mass(10 ** 4) <= 1


def test_masses_match_fraction_sums_over_halting_runs():
    table = halting_table(PrefixOracle("0110"), 14)
    by_output: dict = {}
    total = Fraction(0)
    for p in programs_up_to(14):
        out = run(p, PrefixOracle("0110"), 2000)
        if out.kind == "halted":
            total += Fraction(1, 1 << len(p))
            if out.output_length <= 3:
                by_output[out.output] = by_output.get(out.output, 0) + Fraction(1, 1 << len(p))
    assert table.mass_map(2000, 3) == by_output
    assert list(table.mass_map(2000, 3)) == list(by_output)
    assert table.total_mass(2000) == total


def test_stage_monotone_exhaustive():
    for sigma in all_strings(4):
        prev = Fraction(-1)
        for s in (0, 1, 2, 10, 100, 1000):
            cur = m_stage(sigma, s, None, 16)
            assert cur >= prev
            prev = cur


# ------------------------------------------------------------------ coding gap

def test_coding_gap_unique_witness_is_zero():
    # at cap 9 and stage 5 the only emitter of "1" is the EMIT1 body
    g = coding_gap("1", 5, 9)
    assert g.factor == 1 and g.bits == 0.0


def test_coding_gap_empty_string_exact():
    g = coding_gap("", 1000, 14)
    assert g.factor == g.mass * (1 << g.k_value)
    assert g.factor >= 1


def test_coding_gap_nonnegative_exhaustive():
    for sigma in all_strings(6):
        g = coding_gap(sigma, 1000, 14)
        if g.k_value is not None:
            assert g.factor >= 1


# ------------------------------------------------------------------ conversion

def test_zero_semimeasure_needs_full_support():
    z = ComputableSemimeasure({})
    assert semimeasure_to_timebound(z, Fraction(1), 0, None, 14) == 0
    # both length-1 strings first get witnesses at step 1
    assert semimeasure_to_timebound(z, Fraction(1), 1, None, 14) == 1


def test_frozen_half_stage_conversion():
    tab = {}
    for sigma in all_strings(2):
        tab[sigma] = m_stage(sigma, 1000, None, 16) / 2
    m = ComputableSemimeasure(tab)
    for n in (0, 1, 2):
        s = semimeasure_to_timebound(m, Fraction(4), n, None, 16)
        assert s <= 1000
        for v in range(1 << n):
            sigma = format(v, "b").zfill(n) if n else ""
            assert m(sigma) < 4 * m_stage(sigma, s, None, 16)


def test_conversion_returns_least_stage():
    tab = {"0": Fraction(1, 64), "1": Fraction(1, 64)}
    m = ComputableSemimeasure(tab)
    s = semimeasure_to_timebound(m, Fraction(64), 1, None, 16)
    assert s >= 1
    for v in range(2):
        sigma = format(v, "b")
        assert m(sigma) < 64 * m_stage(sigma, s, None, 16)
    failures = [sigma for sigma in ("0", "1")
                if not m(sigma) < 64 * m_stage(sigma, s - 1, None, 16)]
    assert failures


def test_conversion_signals_undersized_constant():
    m = ComputableSemimeasure({"0": Fraction(1, 8)})
    with pytest.raises(NoStageWithinBudget):
        semimeasure_to_timebound(m, Fraction(4), 1, None, 14, stage_ceiling=10 ** 4)


def test_table_file_roundtrip(tmp_path):
    m = ComputableSemimeasure({"": Fraction(1, 4), "01": Fraction(1, 8)})
    path = tmp_path / "m.tsv"
    m.to_file(path)
    again = ComputableSemimeasure.from_file(path)
    assert again.table == m.table


def test_mass_validation():
    with pytest.raises(ValueError):
        ComputableSemimeasure({"0": Fraction(3, 4), "1": Fraction(1, 2)})


# ------------------------------------------------------------------ averaging

def test_average_equals_plain_mass_when_no_queries_fit():
    # at cap 8 no body can hold an ORACLE instruction
    t = TimeBound.poly(10, 1)
    assert oracle_average("", t, 8, 4) == m_stage("", t(0), None, 8)


def test_single_query_program_contribution():
    body = assemble([("ORACLE",), ("EMITR",)])
    p = Program.encode(body)
    leaves = oracle_leaves(p, 10, 2)
    one_leaves = [l for l in leaves if l.halted and l.output == "1"]
    assert len(one_leaves) == 1
    leaf = one_leaves[0]
    assert leaf.assign == ((0, 1),) and leaf.pinned == 1
    # contributes 2^-(|p|+1) to the exact average at "1"
    t = TimeBound.poly(10, 1)
    cap = len(p)
    with_p = oracle_average("1", t, cap, 2)
    without_p = oracle_average("1", t, cap - 1, 2)
    assert with_p - without_p >= Fraction(1, 1 << (len(p) + 1))


def test_exact_equals_direct_enumeration():
    t = TimeBound.poly(10, 1)
    for sigma in ("", "0", "1", "00"):
        assert oracle_average(sigma, t, 15, 4) == oracle_average_direct(sigma, t, 15, 4)


def test_monte_carlo_within_three_se():
    t = TimeBound.poly(10, 1)
    exact = oracle_average("1", t, 15, 4)
    mean, se = monte_carlo_average("1", t, 15, 4, samples=4000, seed=7)
    assert abs(float(mean) - float(exact)) <= 3 * se + 1e-12


def test_relative_mass_vs_prefix_table():
    # the prepared evaluator agrees with direct runs under a prefix oracle
    prefix = "1010"
    budget = 50
    cap = 15
    direct = {}
    for p in programs_up_to(cap):
        from depthlab.toyvm import run

        out = run(p, PrefixOracle(prefix), budget)
        if out.kind == "halted" and out.output_length <= 2:
            key = out.output
            direct[key] = direct.get(key, Fraction(0)) + Fraction(1, 1 << len(p))
    for sigma in all_strings(2):
        assert relative_mass(sigma, prefix, budget, cap) == direct.get(sigma, Fraction(0))


def test_depth_violation_detected():
    # INC R0 then ORACLE queries index 1, beyond depth 1
    body = assemble([("INC", 0), ("ORACLE",)])
    p = Program.encode(body)
    with pytest.raises(DepthViolation):
        oracle_leaves(p, 10, 1)
    cap = len(p)
    t = TimeBound.poly(10, 1)
    with pytest.raises(DepthViolation):
        oracle_average("", t, cap, 1)
