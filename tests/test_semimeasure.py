import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.bits import NoStageWithinBudget, strings_of_length
from depthlab.complexity import PrefixTrie, TimeBound, halting_table
from depthlab.semimeasure import (
    ComputableSemimeasure,
    DepthViolation,
    PrefixMassEvaluator,
    coding_gap,
    m_stage,
    measure_cheap_oracles,
    monte_carlo_average,
    prefix_mass_evaluator,
    oracle_average,
    oracle_average_direct,
    relative_mass,
    semimeasure_to_timebound,
)
from depthlab.numbering import assemble
from depthlab.toyvm import (MEMO, NO_PINS, MachineState, OracleBranches, PrefixOracle,
                            Program, parse_body, parse_oracle, programs_up_to, run)
from reference_runs import halting_runs, oracle_leaves, reference_mass_map
from test_toyvm import loop_bodies


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
            if len(out.output) <= 3:
                by_output[out.output] = by_output.get(out.output, 0) + Fraction(1, 1 << len(p))
    assert {sigma: Fraction(table.mass_numerator(sigma, 2000), 1 << 14)
            for sigma in by_output} == by_output
    assert list(table.output_map(2000, 3)) == list(by_output)
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


def reference_crossing(runs, m, c, n, ceiling):
    """The least stage <= ceiling from which m < c * m_s on every string of
    length n, by Fraction sums over the runs in step order; None if none."""
    best = 0
    for sigma in strings_of_length(n):
        cum, crossed = Fraction(0), None
        for _i, p, steps, out in sorted(runs, key=lambda r: r[2]):
            if out == sigma and steps <= ceiling:
                cum += Fraction(1, 1 << len(p))
                if m(sigma) < c * cum:
                    crossed = steps
                    break
        if crossed is None:
            return None
        best = max(best, crossed)
    return best


@pytest.mark.parametrize("descriptor", ["none", "halting:1000"])
def test_conversion_matches_run_based_first_crossing(descriptor):
    oracle = parse_oracle(descriptor)
    runs = halting_runs(oracle, 16)
    limit = reference_mass_map(runs, 10 ** 4, 2)
    m = ComputableSemimeasure({sigma: mass / 2 for sigma, mass in limit.items()})
    outcomes = set()
    # the ceilings cycle, so most searches run on a table already ensured
    # past their ceiling and must still stop at it
    for n in (0, 1, 2):
        for c in (Fraction(1), Fraction(3, 2), Fraction(4), Fraction(64)):
            for ceiling in (0, 1, 2, 10 ** 4):
                want = reference_crossing(runs, m, c, n, ceiling)
                outcomes.add(want)
                if want is None:
                    with pytest.raises(NoStageWithinBudget):
                        semimeasure_to_timebound(m, c, n, oracle, 16, ceiling)
                else:
                    assert semimeasure_to_timebound(m, c, n, oracle, 16, ceiling) == want
    assert {None, 1, 2} <= outcomes


def test_conversion_signals_undersized_constant():
    m = ComputableSemimeasure({"0": Fraction(1, 8)})
    with pytest.raises(NoStageWithinBudget):
        semimeasure_to_timebound(m, Fraction(4), 1, None, 14, stage_ceiling=10 ** 4)


def test_table_file_roundtrip(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("\t1/4\n01\t1/8\n")
    m = ComputableSemimeasure.from_file(path)
    assert m.table == {"": Fraction(1, 4), "01": Fraction(1, 8)}


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
    assert leaf.assign == ((0, 1),)
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
    # the bench's avg-22 shape, where some branches pin index 0; the prefix
    # tables' sum is also the integral of the index rebuilt from the leaves
    sigma, cap, depth = "01", 22, 6
    direct = oracle_average_direct(sigma, t, cap, depth)
    assert oracle_average(sigma, t, cap, depth) == direct
    entries = reference_prefix_index(t(len(sigma)), cap, depth)[sigma]
    assert any(mask for mask, _bits in entries)
    total = sum(w << (depth - mask.bit_count()) for (mask, _bits), w in entries.items())
    assert direct == Fraction(total, 1 << (cap + depth))


def test_direct_average_keeps_the_runs_within_each_prefix():
    # INC R0; ORACLE asks index 1, past depth 1: the evaluator raises,
    # while under each one-bit prefix that run aborts, so the direct sum
    # is the mean of the prefixes' masses, by table and by direct runs
    p = Program.encode(assemble([("INC", 0), ("ORACLE",)]))
    t, cap = TimeBound.poly(10, 1), len(p)
    for sigma in ("", "0", "1"):
        with pytest.raises(DepthViolation):
            oracle_average(sigma, t, cap, 1)
        budget = t(len(sigma))
        direct = oracle_average_direct(sigma, t, cap, 1)
        assert direct == sum(m_stage(sigma, budget, PrefixOracle(y), cap) for y in "01") / 2
        assert direct == sum(run_masses(y, budget, cap).get(sigma, 0) for y in "01") / 2
    assert oracle_average_direct("", t, cap, 1) > 0


def test_direct_average_caches_nothing():
    # each prefix table is built, read and dropped, so the bench runner
    # that calls this keeps no table alive
    oracle_average_direct("1", TimeBound.poly(10, 1), 12, 4)
    assert not MEMO.tables and not MEMO.evaluators


def test_direct_enumeration_catches_overlapping_branches(monkeypatch):
    # the index sums every branch a prefix matches, the reference takes one
    # per program, so branches that overlapped would break the identity.
    # Here the walk's answer-1 child leaves its index unpinned, so it also
    # matches the prefixes of its answer-0 sibling; at cap 15 ORACLE; EMITR
    # fits, so "1" depends on an answer
    children = OracleBranches.children

    def overlapping(self, body_index, st):
        pins = self.pins
        return [(pins if answer else child_pins, child)
                for answer, (child_pins, child) in enumerate(children(self, body_index, st))]

    t = TimeBound.poly(10, 1)
    direct = oracle_average_direct("1", t, 15, 2)
    assert oracle_average("1", t, 15, 2) == direct
    MEMO.reset()
    monkeypatch.setattr(OracleBranches, "children", overlapping)
    assert oracle_average("1", t, 15, 2) > direct


def test_monte_carlo_within_three_se():
    t = TimeBound.poly(10, 1)
    exact = oracle_average("1", t, 15, 4)
    mean, se = monte_carlo_average("1", t, 15, 4, samples=4000, seed=7)
    assert abs(float(mean) - float(exact)) <= 3 * se + 1e-12


def run_masses(prefix, budget, cap):
    """Every output's mass under one concrete prefix, by direct runs."""
    masses = {}
    for p in programs_up_to(cap):
        out = run(p, PrefixOracle(prefix), budget)
        if out.kind == "halted":
            masses[out.output] = masses.get(out.output, Fraction(0)) + Fraction(1, 1 << len(p))
    return masses


def test_relative_mass_vs_prefix_table():
    # the prepared evaluator agrees with direct runs under every prefix
    budget, cap = 50, 15
    for prefix in strings_of_length(4):
        direct = run_masses(prefix, budget, cap)
        for sigma in set(direct) | set(all_strings(2)):
            assert relative_mass(sigma, prefix, budget, cap) == direct.get(sigma, 0)


def test_oracle_leaves_partition_the_prefixes():
    # the index sums every matching branch, so no prefix may match two
    for p in programs_up_to(15):
        leaves = oracle_leaves(p, 50, 4)
        for prefix in strings_of_length(4):
            assert sum(leaf.consistent(prefix) for leaf in leaves) == 1


def test_monte_carlo_matches_fraction_recomputation():
    # the same seeded prefixes, valued by direct runs and summed in Fractions
    t, cap, depth = TimeBound.poly(10, 1), 15, 4
    masses = {}
    for sigma, samples in (("1", 400), ("0", 37), ("", 2), ("01", 1)):
        rng = random.Random(11)
        values = []
        for _ in range(samples):
            key = (format(rng.getrandbits(depth), "b").zfill(depth), t(len(sigma)))
            if key not in masses:
                masses[key] = run_masses(*key, cap)
            values.append(masses[key].get(sigma, Fraction(0)))
        mean = sum(values, Fraction(0)) / samples
        var = (sum((v - mean) ** 2 for v in values) / (samples - 1)
               if samples > 1 else Fraction(0))
        se = (float(var) / samples) ** 0.5
        assert monte_carlo_average(sigma, t, cap, depth, samples, seed=11) == (mean, se)


def reference_prefix_index(budget, cap, depth):
    """PrefixMassEvaluator.halts rebuilt one program at a time from
    oracle_leaves, which restarts the program per oracle branch."""
    halts = {}
    for p in programs_up_to(cap):
        weight = 1 << (cap - len(p))
        for leaf in oracle_leaves(p, budget, depth):
            if leaf.halted:
                mask = sum(1 << (depth - 1 - i) for i, _b in leaf.assign)
                bits = sum(b << (depth - 1 - i) for i, b in leaf.assign)
                entries = halts.setdefault(leaf.output, {})
                entries[mask, bits] = entries.get((mask, bits), 0) + weight
    return halts


@pytest.mark.parametrize("budget,cap,depth", [(30, 22, 6), (20, 20, 8), (1000, 18, 6),
                                              (10, 18, 2)])
def test_prefix_walk_matches_per_program_leaves(budget, cap, depth):
    halts = PrefixMassEvaluator(budget, cap, depth).halts
    assert halts == reference_prefix_index(budget, cap, depth)
    assert any(mask for entries in halts.values() for mask, _bits in entries)


def first_depth_violation(budget, cap, depth):
    """The message oracle_leaves raises for the canonically first program
    that queries at depth or beyond, or None."""
    for p in programs_up_to(cap):
        try:
            oracle_leaves(p, budget, depth)
        except DepthViolation as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("budget,cap", [(10, 17), (10, 20), (30, 22)])
def test_depth_violation_names_the_first_program(budget, cap):
    expected = first_depth_violation(budget, cap, 1)
    assert expected is not None
    with pytest.raises(DepthViolation) as exc:
        PrefixMassEvaluator(budget, cap, 1)
    assert str(exc.value) == expected


def test_depth_violation_names_the_first_branch():
    # the answer-0 branch asks index 2 and the answer-1 branch index 1;
    # oracle_leaves explores answer 0 first, so both name index 2
    body = assemble([("ORACLE",), ("JZ", 1, "zero"), ("INC", 0), ("ORACLE",), ("HALT",),
                     "zero:", ("INC", 0), ("INC", 0), ("ORACLE",)])
    p = Program.encode(body)
    with pytest.raises(DepthViolation, match="queries index 2$") as exc:
        oracle_leaves(p, 10, 1)
    trie, answers = PrefixTrie(len(p)), OracleBranches(1)
    node = (parse_body(body), len(body), int(body, 2), MachineState(), NO_PINS, 1)
    assert list(trie.walk([node], answers, 10)) == []
    index, order, query = answers.too_deep
    assert (index, order, query) == (p.index, (0,), 2)
    assert str(exc.value) == f"program {p.bits} queries index {query}"


def test_evaluator_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        PrefixMassEvaluator(-1, 10, 2)


# loop bodies around an R0 counter, weighted toward queries and the
# registers they read and write, so that some runs query several indices
_ORACLE_LOOP_KINDS = ["ORACLE"] * 3 + ["INC"] * 2 + ["DEC"] * 2 + ["JZ"] * 2 + [
    "EMITR"] * 2 + ["JMP"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=st.one_of(loop_bodies(), loop_bodies(counter=0, kinds=_ORACLE_LOOP_KINDS)))
def test_oracle_leaves_agree_with_prefix_runs_on_loops(body):
    # bodies that loop and query more than once: the leaves partition the
    # depth-4 prefixes, and the leaf a prefix selects is the outcome of one
    # run under the bits: oracle of that prefix; a depth violation is a
    # run that leaves the table
    p = Program.encode(body)
    runs = {prefix: run(p, PrefixOracle(prefix), 500, detect_cycles=True)
            for prefix in strings_of_length(4)}
    try:
        leaves = oracle_leaves(p, 500, 4)
    except DepthViolation:
        assert any(out.kind == "aborted" for out in runs.values())
        return
    for prefix, out in runs.items():
        (leaf,) = [leaf for leaf in leaves if leaf.consistent(prefix)]
        assert out.kind != "aborted"
        assert leaf.halted == (out.kind == "halted")
        assert leaf.output == (out.output if leaf.halted else None)


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


def test_monte_carlo_needs_a_sample():
    t = TimeBound.poly(10, 1)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="at least one sample"):
            monte_carlo_average("1", t, 8, 2, samples)


# ------------------------------------------------------------------ cheap oracles

def test_measure_cheap_large_k_empty():
    t = TimeBound.poly(10, 1)
    assert measure_cheap_oracles("0000", 1, Fraction(10 ** 9), t, t(1), 4, 14) == 0


def test_measure_cheap_k1_without_consultation():
    # relative mass dominates the plain mass, so the ratio is always >= 1
    t = TimeBound.poly(10, 1)
    assert measure_cheap_oracles("0000", 1, 1, t, t(1), 4, 14) == 1


def test_measure_cheap_markov_bound_exact():
    t = TimeBound.poly(10, 1)
    x = "0000"
    n = 1
    base = m_stage(x[:n], t(n), None, 12)
    c_const = oracle_average(x[:n], t, 12, 4) / base
    for k in (1, 2, 4, 8):
        mu = measure_cheap_oracles(x, n, k, t, t(n), 4, 12)
        assert mu <= c_const / k


def test_measure_cheap_nonincreasing_in_k():
    t = TimeBound.poly(10, 1)
    vals = [measure_cheap_oracles("1111", 1, k, t, 50, 4, 15) for k in (1, 2, 4, 8)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def enumerated_cheap_measure(x_prefix, n, k, t, stage, depth, cap):
    """The measure by testing each of the 2^depth prefixes in turn."""
    sigma = x_prefix[:n]
    threshold = Fraction(k) * m_stage(sigma, t(n), None, cap)
    ev = prefix_mass_evaluator(stage, cap, depth)
    hits = sum(1 for y in range(1 << depth)
               if Fraction(ev.numerator(sigma, y), 1 << cap) >= threshold)
    return Fraction(hits, 1 << depth)


def test_measure_cheap_matches_enumerating_every_prefix():
    # k runs through each distinct lift of the mass, so the measure takes
    # every value the prefixes give; at cap 22 some branches printing "0"
    # pin indices 0 and 1, so the count over the pinned bits stands for
    # 2^(depth - 2) prefixes each
    t = TimeBound.poly(10, 1)
    seen, widest = set(), 0
    for cap in (17, 20, 22):
        for depth in range(2, 9):
            ev = prefix_mass_evaluator(30, cap, depth)
            for x, n in (("0110", 0), ("0110", 1), ("1001", 1), ("0110", 2), ("1001", 2)):
                sigma = x[:n]
                base = m_stage(sigma, t(n), None, cap)
                pinned = 0
                for mask, _bits in ev.halts.get(sigma, {}):
                    pinned |= mask
                widest = max(widest, pinned.bit_count())
                lifts = {Fraction(ev.numerator(sigma, y), 1 << cap) / base
                         for y in range(1 << depth)}
                for k in sorted(lifts) + [max(lifts) + Fraction(1, 1 << 40)]:
                    mu = measure_cheap_oracles(x, n, k, t, 30, depth, cap)
                    assert mu == enumerated_cheap_measure(x, n, k, t, 30, depth, cap)
                    seen.add(mu)
    assert widest == 2 and 0 in seen and 1 in seen
    assert any(0 < mu < 1 for mu in seen)


def test_measure_cheap_at_a_depth_past_enumeration():
    # at cap 22 no branch asks past index 1, so the measure is the same at
    # depth 40, with 2^40 prefixes, as at depth 8, where they are counted
    t = TimeBound.poly(10, 1)
    base = m_stage("0", t(1), None, 22)
    ev = prefix_mass_evaluator(30, 22, 8)
    lifts = sorted({Fraction(ev.numerator("0", y), 1 << 22) / base for y in range(256)})
    assert len(lifts) == 4
    for k in lifts:
        mu = measure_cheap_oracles("0110", 1, k, t, 30, 40, 22)
        assert mu == enumerated_cheap_measure("0110", 1, k, t, 30, 8, 22)
