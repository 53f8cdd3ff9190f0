"""Acceptance suite: one test per release criterion, at full parameters.

Each test prints a PASS line on success so a `-s` run doubles as the
checklist; `depthlab selftest` covers a faster subset of the same ground.
"""

import json
import random
import time
from fractions import Fraction
from typing import NamedTuple

import pytest

from depthlab.cli import dispatch
from depthlab.complexity import TimeBound, halting_table, k_stage
from depthlab.constructions import BuilderConfig, build_deep_random
from depthlab.pi01forcing import (
    Dnc2Witness,
    Functional,
    PruningSchedule,
    force,
    join_check,
)
from depthlab.randomness import (
    count_cheap_extensions,
    default_builder_martingale,
    psi,
    psi_average,
    psi_domination_constant,
    measure_cheap_oracles,
    space_lemma_length,
)
from depthlab.semimeasure import (
    ComputableSemimeasure,
    m_stage,
    monte_carlo_average,
    oracle_average,
    oracle_average_direct,
    semimeasure_to_timebound,
)
from depthlab.toyvm import (
    DepthlabError,
    HaltingOracle,
    PrefixOracle,
    Program,
    ZERO,
    assemble,
    compile_const,
    fixed_point,
    oracle_key,
    phi,
    programs_up_to,
    rope_materialize,
    run,
)
from reference_tables import dyadic_family, random_tables
from test_forcing import assert_member_carries_every_bit


def all_strings(max_len):
    for n in range(max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n) if n else ""


def report(name):
    print(f"[PASS] {name}")


def test_acceptance_prefix_freeness_cap18():
    programs = sorted(p.bits for p in programs_up_to(18))
    pairs = sum(1 for a, b in zip(programs, programs[1:]) if b.startswith(a))
    assert pairs == 0
    assert len(programs) == 4095
    report(f"prefix-freeness: {len(programs)} programs of <= 18 bits, 0 prefix pairs")


def test_acceptance_kraft_and_mass_cap16_stage1e4():
    table = halting_table(None, 16)
    mass = table.total_mass(10 ** 4)
    omap = table.output_map(10 ** 4, 16)
    kraft = sum(Fraction(1, 1 << plen) for plen, _p in omap.values())
    assert kraft <= 1
    assert mass <= 1
    report(f"kraft/mass at cap 16, stage 10^4: sum 2^-K = {kraft}, mass = {mass}")


def test_acceptance_monotonicity_suite_exhaustive_len6():
    cap = 14
    stages = [0, 1, 3, 10, 50, 10 ** 3, 10 ** 4]
    t_lo, t_hi = TimeBound.poly(1, 1), TimeBound.poly(5, 1)
    for sigma in all_strings(6):
        kvals = [k_stage(sigma, s, None, cap).clamped(cap) for s in stages]
        assert all(b <= a for a, b in zip(kvals, kvals[1:]))
        mvals = [m_stage(sigma, s, None, cap) for s in stages]
        assert all(a <= b for a, b in zip(mvals, mvals[1:]))
        assert (k_stage(sigma, t_hi(len(sigma)), None, cap).clamped(cap)
                <= k_stage(sigma, t_lo(len(sigma)), None, cap).clamped(cap))
    report("monotonicity: K nonincreasing, m nondecreasing, K^t anti-monotone, |sigma| <= 6")


def test_acceptance_space_lemma_grid():
    deltas = (Fraction(3, 2), Fraction(2), Fraction(3))
    grid = [(d, k) for d in deltas for k in range(1, 9)]
    tested = violations = 0
    for table in dyadic_family(3):
        for delta, k in grid:
            l = space_lemma_length(delta, k)
            if l > 4:
                continue
            for sigma in all_strings(4 - l):
                if len(sigma) > table.depth - l or table.value(sigma) == 0:
                    continue
                tested += 1
                if count_cheap_extensions(table, sigma, delta, l) < k:
                    violations += 1
    fine = tuple(Fraction(i, 4) for i in range(5))
    for table in dyadic_family(2, fine):
        for delta, k in grid:
            l = space_lemma_length(delta, k)
            if l > 2:
                continue
            tested += 1
            if count_cheap_extensions(table, "", delta, l) < k:
                violations += 1
    for table in random_tables(6, 10 ** 4, 7):
        for delta, k in grid:
            l = space_lemma_length(delta, k)
            if l > 6:
                continue
            tested += 1
            if count_cheap_extensions(table, "", delta, l) < k:
                violations += 1
    assert violations == 0
    report(f"extension counting: {tested} (table, delta, k) checks, 0 violations")


def test_acceptance_semimeasure_conversion_20_frozen():
    cap = 16
    rng = random.Random(13)
    frozen = []
    for i in range(20):
        tab = {}
        for sigma in all_strings(2):
            tab[sigma] = Fraction(rng.randrange(0, 8), 64)
        frozen.append(ComputableSemimeasure(tab))
    for i, m in enumerate(frozen):
        n = (i % 3)
        # pick the constant per the caller contract: strictly above the
        # worst ratio against the limit-stage masses at this cap
        worst = Fraction(0)
        for v in range(1 << n):
            sigma = format(v, "b").zfill(n) if n else ""
            limit = m_stage(sigma, 10 ** 4, None, cap)
            assert limit > 0
            worst = max(worst, m(sigma) / limit)
        c = 2 * worst + 1
        s = semimeasure_to_timebound(m, c, n, None, cap, stage_ceiling=10 ** 4)
        for v in range(1 << n):
            sigma = format(v, "b").zfill(n) if n else ""
            assert m(sigma) < c * m_stage(sigma, s, None, cap)
    report("semimeasure-to-stage conversion: 20 frozen tables, exact domination")


def builder_config(rounds, stage, cap):
    """The builder under the halting oracle at the stage, T = poly:2,2."""
    oracle = HaltingOracle(stage)
    return BuilderConfig(
        rounds=rounds,
        martingale=default_builder_martingale(oracle, cap),
        oracle=oracle,
        dominating=TimeBound.poly(2, 2),
        cap=cap,
        mart_stage=stage,
    )


def test_acceptance_builder_8_rounds():
    t0 = time.time()
    trace = build_deep_random(builder_config(8, 10 ** 4, 18))
    assert trace.check_martingale_budget()
    assert trace.check_length_recurrence()
    unflagged = sum(1 for r in trace.rounds if not r.flagged)
    assert unflagged >= 6
    assert [len(r.sigma) for r in trace.rounds] == [3, 8, 15, 24, 34, 46, 59, 74]
    report(f"builder: 8 rounds in {time.time() - t0:.1f}s, budget and length"
           f" checks exact, {unflagged}/8 rounds unflagged")


@pytest.mark.parametrize("rounds,stage,cap", [(8, 10 ** 4, 18), (3, 1000, 16)],
                         ids=["gate", "golden"])
def test_acceptance_builder_rounds_are_vacuous_at_these_caps(rounds, stage, cap):
    """No round of the gate's or the golden's build can reject a candidate.

    Round r rejects a candidate whose K is at most r - 1.  A nonempty output
    needs a program of at least 9 bits, 5 header bits and one 4-bit EMIT, so
    rounds r <= 9 cannot reject.  The least K over nonempty outputs of the
    builder's own table, read at the last round's budget and length (the
    largest of any round), exceeds rounds - 1: no non-vacuous round exists
    at these caps, and the complexity filter is never exercised."""
    cfg = builder_config(rounds, stage, cap)
    trace = build_deep_random(cfg)
    final = len(trace.rounds[-1].sigma)
    omap = halting_table(cfg.oracle, cap).output_map(cfg.dominating(final), final)
    least = min(k for sigma, (k, _p) in omap.items() if sigma)
    assert least == 9
    assert least > rounds - 1
    assert all(r.k_rejected == 0 and not r.flagged for r in trace.rounds)
    vacuous = sum(r.vacuous for r in trace.rounds)
    report(f"builder: least K over nonempty outputs is {least} at cap {cap}, above"
           f" the {rounds - 1} of round {rounds}; the complexity filter rejects"
           f" nothing, and {vacuous}/{rounds} rounds reject nothing at all")


def test_acceptance_oracle_average_identity_10_strings():
    t = TimeBound.poly(10, 1)
    cap, depth = 15, 4
    strings = ["", "0", "1", "00", "01", "10", "11", "000", "010", "111"]
    for sigma in strings:
        exact = oracle_average(sigma, t, cap, depth)
        direct = oracle_average_direct(sigma, t, cap, depth)
        assert exact == direct
        mean, se = monte_carlo_average(sigma, t, cap, depth, samples=10 ** 4, seed=7)
        if se == 0:
            assert mean == exact
        else:
            assert abs(float(mean) - float(exact)) <= 3 * se
    report("oracle-average identity: closed form = direct enumeration bit-for-bit,"
           " Monte-Carlo within 3 SE, 10 strings")


def test_acceptance_psi_monotone_and_average_bounded():
    t = TimeBound.poly(5, 1)
    cap = 12
    vals = [psi("0000", t, t, Fraction(1), L, 100, cap).value for L in (0, 1, 2)]
    assert vals[0] <= vals[1] <= vals[2]
    stages = [psi("0000", t, t, Fraction(1), 2, s, cap).value for s in (1, 10, 100, 1000)]
    assert all(a <= b for a, b in zip(stages, stages[1:]))
    c_star = psi_domination_constant(t, t, 2, 3, cap)
    avg = psi_average(t, t, c_star, 2, 10 ** 3, 3, cap)
    assert avg <= 1
    report(f"psi: monotone in truncation and stage; average {avg} <= 1 at c = {c_star}")


def test_acceptance_markov_bound_5_strings():
    t = TimeBound.poly(10, 1)
    cap, depth = 12, 4
    strings = ["0000", "1111", "0101", "1000", "0011"]
    for x in strings:
        n = 1
        base = m_stage(x[:n], t(n), None, cap)
        assert base > 0
        c_const = oracle_average(x[:n], t, cap, depth) / base
        for k in (1, 2, 4, 8):
            mu = measure_cheap_oracles(x, n, k, t, t(n), depth, cap)
            assert mu <= c_const / k
    report("Markov bound: measure of compressing oracles <= C/k for k in {1,2,4,8},"
           " 5 strings, exact")


# ------------------------------------------------------------------ code lifting
#
# A program written for oracle A runs under oracle B through a reduction
# that computes A's bits from B's.  Only the acceptance check below and
# the lifting tests in test_complexity.py use it, so it lives here.


class ReductionDiverged(DepthlabError):
    """An oracle reduction failed to answer a needed index in budget."""


class Reduction(NamedTuple):
    """A machine program computing oracle bits: bit i is phi-value mod 2 of
    the program run with R2 = i against the base oracle."""

    program: Program
    budget: int

    def bit(self, base_oracle, index: int) -> tuple[int, int]:
        """(bit, steps spent); raises ReductionDiverged on a miss."""
        res = phi(self.program.index, index, base_oracle, self.budget)
        if not res.halted:
            raise ReductionDiverged(f"reduction did not answer index {index}")
        return res.value & 1, res.steps


def identity_reduction(budget: int = 4096) -> Reduction:
    """Pass-through: bit i of the simulated oracle is bit i of the base."""
    body = assemble([
        "copy:",
        ("JZ", 2, "query"),
        ("DEC", 2),
        ("INC", 0),
        ("JMP", "copy"),
        "query:",
        ("ORACLE",),
        ("JZ", 1, "done"),
        ("INC", 3),
        "done:",
    ])
    return Reduction(Program.encode(body), budget)


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


WRAPPER_BITS = 8
"""Pinned accounting size of the oracle-translation layer, in bits."""


class TranslatedOracle:
    """The oracle whose bit i is reduction^base(i); steps spent inside the
    reduction are charged to the wrapped run."""

    def __init__(self, reduction: Reduction, base_oracle):
        self.reduction = reduction
        self.base = base_oracle
        self.spent = 0
        self._memo: dict[int, int] = {}
        self.key = ("translated", reduction.program.bits,
                    reduction.budget, oracle_key(base_oracle))

    def answer(self, index: int) -> int:
        bit = self._memo.get(index)
        if bit is None:
            bit, steps = self.reduction.bit(self.base, index)
            self.spent += steps
            self._memo[index] = bit
        return bit


class LiftedCode(NamedTuple):
    """A program re-targeted from oracle A to oracle B through a reduction.

    Execution is the base program against the translated oracle; declared
    length is |base| plus the pinned wrapper size, independent of the base.
    """

    base: Program
    reduction: Reduction

    def __len__(self) -> int:
        """The declared length; as with Program, _make and _replace do
        not work on a LiftedCode."""
        return len(self.base) + WRAPPER_BITS

    def run_under(self, b_oracle, budget: int):
        """(outcome, total steps including reduction work)."""
        translated = TranslatedOracle(self.reduction, b_oracle)
        out = run(self.base, translated, budget)
        return out, out.steps + translated.spent


def lift_code(tau: Program, reduction: Reduction, t: TimeBound | None = None,
              b_oracle=None, sigma: str | None = None):
    """Wrap an A-witness as a B-program via the reduction.

    Unbounded case: returns the LiftedCode.  With a time bound t (the
    truth-table case) a target and base oracle are required; the wrapped
    run is measured and the step bound it actually met is returned as an
    explicit-table time bound, so callers get (LiftedCode, t_prime)."""
    lifted = LiftedCode(tau, reduction)
    if t is None:
        return lifted, None
    if b_oracle is None or sigma is None:
        raise ValueError("tt-case lifting needs the base oracle and target")
    generous = t(len(sigma)) * (reduction.budget + 1) + reduction.budget + 1
    out, total = lifted.run_under(b_oracle, generous)
    if out.kind != "halted" or rope_materialize(out.rope, len(sigma)) != sigma:
        raise ReductionDiverged("wrapped run failed to reproduce the target")
    t_prime = TimeBound.from_table([max(total, t(n)) for n in range(len(sigma) + 1)])
    return lifted, t_prime


def test_acceptance_lifting_exhaustive_len6():
    # A reads the even bits of y, and the reduction computes A(i) = y(2i)
    # from B = y, so every K^A witness lifts to a B-program
    red = _even_bit_reduction()
    y = "00101101110001011010011101001011"
    a_oracle, b_oracle = PrefixOracle(y[0::2]), PrefixOracle(y)
    t = TimeBound.poly(10, 1)
    cap = 16
    checked = 0
    for sigma in all_strings(6):
        res = k_stage(sigma, t(len(sigma)), a_oracle, cap)
        if not res.above_cap:
            lifted, t_prime = lift_code(res.witness, red, t, b_oracle, sigma)
            assert len(lifted) == res.value + WRAPPER_BITS
            out, _total = lifted.run_under(b_oracle, t_prime(len(sigma)))
            assert out.kind == "halted" and out.output == sigma
            checked += 1
    assert checked > 0
    # no witness that short asks the oracle, so also lift a program that
    # reads A(0) A(1) A(2): through the reduction it reproduces its output
    # under B, and through the identity it reads y(0) y(1) y(2) instead
    reader = Program.encode(assemble([("ORACLE",), ("EMITR",), ("INC", 0)] * 2
                                     + [("ORACLE",), ("EMITR",)]))
    sigma = run(reader, a_oracle, t(3)).output
    assert sigma == y[0:6:2] != y[0:3]
    lifted, t_prime = lift_code(reader, red, t, b_oracle, sigma)
    out, _total = lifted.run_under(b_oracle, t_prime(len(sigma)))
    assert out.kind == "halted" and out.output == sigma
    with pytest.raises(ReductionDiverged):
        lift_code(reader, identity_reduction(), t, b_oracle, sigma)
    report(f"code lifting: even-bit reduction, K^B <= K^A + {WRAPPER_BITS} and"
           f" wrapped runs reproduce their targets ({checked} witnesses and one"
           " oracle reader)")


def test_acceptance_recursion_fixed_point():
    e_star = fixed_point(compile_const)
    for x in (0, 1, 2, 7, 100):
        assert phi(e_star, x, ZERO, 10 ** 5).value == e_star
    report(f"recursion fixed point: index {e_star} reproduces itself exactly")


def test_acceptance_forcing_3_schedules():
    budget = 4096
    instances = [
        (PruningSchedule.full_space(10),
         Functional.projection((6, 7, 8, 9)), 4),
        (PruningSchedule([(0, {"0"})], 10),
         Functional.projection((6, 7, 8)), 3),
        (PruningSchedule([(0, {"11"}), (2, {"100"})], 10),
         Functional.projection((7, 8, 9)), 3),
    ]
    for schedule, fn, steps in instances:
        witness = Dnc2Witness.from_halting_table(budget)
        res = force(schedule, witness, steps, budget, functional=fn)
        assert res.inconclusive == []
        assert_member_carries_every_bit(res, schedule, budget, fn)
    report("forcing: 3 clopen schedules, every consumed bit reconstructed from"
           " the emitted member, member survives every stage")


def test_acceptance_join_check_length16_k4():
    stage, cap, k = 10 ** 4, 18, 4
    x = "0110100110010110"
    y = "1001011001101001"
    f = "1" * 16
    rep = join_check(f, x, y, k, stage, cap)
    assert rep.xor_ok and rep.x_random_ok and rep.y_random_ok and rep.dnc_ok
    mutated = "0" + f[1:]
    assert not join_check(mutated, x, y, k, stage, cap).xor_ok
    # brute-force search lands on a valid triple as well
    found = None
    for xv in range(256):
        xx = format(xv, "b").zfill(16)
        w = Dnc2Witness.from_halting_table(stage)
        ff = "".join(str(w.value(e)) for e in range(16))
        yy = "".join("1" if a != b else "0" for a, b in zip(ff, xx))
        r = join_check(ff, xx, yy, k, stage, cap)
        if r.all_ok:
            found = (ff, xx, yy)
            break
    assert found is not None
    report(f"join check: xor identity, mutation failure, and brute-force triple"
           f" at length 16, k = {k}")


def test_acceptance_selftest_reproducible(tmp_path):
    a = tmp_path / "selftest-a.json"
    b = tmp_path / "selftest-b.json"
    assert dispatch(["selftest", "--seed", "7", "--out", str(a)]) == 0
    assert dispatch(["selftest", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["all_ok"] is True
    report("reproducibility: selftest --seed 7 twice, byte-identical artifacts")
