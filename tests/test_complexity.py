import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import cli, complexity, toyvm
from depthlab.complexity import (
    INSTRUCTION_CODES,
    MAX_CAP,
    NO_PINS,
    HaltingTable,
    PrefixTrie,
    TimeBound,
    halting_table,
    k_stage,
    k_time_bounded,
    result_csv_row,
)
from depthlab.toyvm import (
    HaltingOracle,
    Instructions,
    MachineError,
    MachineState,
    PrefixOracle,
    Program,
    ZERO,
    assemble,
    body_index,
    index_to_body,
    output_string,
    parse_body,
    parse_oracle,
    program_length,
    programs_up_to,
    run,
    strings_of_length,
)
from depthlab.semimeasure import PrefixMassEvaluator, m_stage
from reference_runs import (
    halting_runs,
    recorded_run,
    reference_mass_map,
    reference_output_map,
    reference_total_mass,
    walked_index,
)
from test_acceptance import (
    WRAPPER_BITS,
    Reduction,
    ReductionDiverged,
    identity_reduction,
    lift_code,
)
from test_toyvm import COUNTED_LOOP, loop_bodies


def all_strings(max_len):
    for n in range(max_len + 1):
        for v in range(1 << n):
            yield format(v, "b").zfill(n) if n else ""


# ------------------------------------------------------------------ time bounds

def test_time_bound_poly_and_parse():
    t = TimeBound.parse("poly:10,1")
    assert t(0) == 10 and t(3) == 40
    assert t.describe() == "poly:10,1"


def test_time_bound_table(tmp_path):
    path = tmp_path / "tb.txt"
    path.write_text("1 2 2 9\n")
    t = TimeBound.parse(f"table:{path}")
    assert [t(i) for i in range(6)] == [1, 2, 2, 9, 9, 9]
    with pytest.raises(ValueError):
        TimeBound.from_table([3, 1])


# ------------------------------------------------------------------ k queries

def test_k_empty_string():
    res = k_time_bounded("", TimeBound.poly(10, 1), None, 8)
    assert res.value == 1 and res.witness.bits == "1"


def test_k_single_zero_frozen():
    # exhaustive enumeration is the oracle: no program under 9 bits can
    # emit anything, and the first 9-bit emitter is the EMIT0 body
    res = k_time_bounded("0", TimeBound.poly(10, 1), None, 12)
    assert res.value == 9
    assert res.witness.bits == "001010001"
    from depthlab.toyvm import programs_up_to

    independent = [
        p for p in programs_up_to(12)
        if run(p, None, 10 * 2).kind == "halted"
        and run(p, None, 10 * 2).output == "0"
    ]
    assert min(len(p) for p in independent) == 9


def test_k_above_cap_minimal_cap():
    for sigma in ("0", "1", "01"):
        assert k_stage(sigma, 100, None, 2).above_cap
    assert k_stage("", 100, None, 2).value == 1


def test_k_stage_zero():
    assert k_stage("", 0, None, 14).value == 1
    for sigma in ("0", "1", "00"):
        assert k_stage(sigma, 0, None, 14).above_cap


def test_k_stage_anti_monotone_exhaustive():
    stages = [0, 1, 2, 5, 20, 200, 2000]
    cap = 14
    for sigma in all_strings(6):
        values = [k_stage(sigma, s, None, cap).clamped(cap) for s in stages]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_k_time_bound_is_stage_alignment():
    t = TimeBound.poly(3, 1)
    for sigma in all_strings(3):
        assert k_time_bounded(sigma, t, None, 14) == k_stage(sigma, t(len(sigma)), None, 14)


def test_k_anti_monotone_in_time_bound():
    t1, t2 = TimeBound.poly(1, 1), TimeBound.poly(4, 1)
    cap = 14
    for sigma in all_strings(4):
        assert (k_time_bounded(sigma, t2, None, cap).clamped(cap)
                <= k_time_bounded(sigma, t1, None, cap).clamped(cap))


def test_witness_validity_rerun():
    cap = 16
    for sigma in all_strings(2):
        res = k_stage(sigma, 1000, None, cap)
        if not res.above_cap:
            out = run(res.witness, None, 1000)
            assert out.kind == "halted" and out.output == sigma


@pytest.mark.parametrize("descriptor,cap", [("none", cap) for cap in range(18, 29)]
                         + [("zero", 22)])
def test_every_run_resolves_by_stage_1e5(descriptor, cap):
    table = HaltingTable(parse_oracle(descriptor), cap)
    assert table.unresolved == len(table.programs)
    assert table.settled_stage is None and table.reach is None
    table.ensure(10 ** 5)
    assert table.unresolved == 0


def test_table_results_independent_of_ensure_steps():
    stepped = HaltingTable(None, 18)
    stepped.ensure(0)
    stepped.ensure(1)
    assert 0 < stepped.unresolved < len(stepped.programs)
    direct = HaltingTable(None, 18)
    runs = halting_runs(None, 18)
    assert stepped.settled_stage == 1
    assert stepped.reach == max(len(out) for _i, _p, s, out in runs if s <= 1)
    want = reference_reads(runs, 18, 1000)
    assert table_reads(stepped, 1000) == want
    assert table_reads(direct, 1000) == want
    assert stepped.unresolved == direct.unresolved


# ------------------------------------------------------------------ the halting index

INDEX_ORACLES = ["none", "zero", "halting:1000", "bits:0101"]
INDEX_BUDGETS = (0, 1, 2, 3, 4, 5, 10 ** 4)
MAX_LENS = (0, 1, 2, 3, 4, 100)
TARGETS = list(all_strings(5))
CYLINDER_LENGTHS = (1, 3)


def table_reads(table, budget):
    """Every read the table serves at one budget, in comparable form."""
    witnesses = [table.first(sigma, budget) for sigma in TARGETS]
    return {
        "output_map": [[(sigma, n, p.bits) for sigma, (n, p)
                        in table.output_map(budget, max_len).items()]
                       for max_len in MAX_LENS],
        "mass_map": [[(sigma, Fraction(table.mass_numerator(sigma, budget), 1 << table.cap))
                      for sigma in table.output_map(budget, max_len)]
                     for max_len in MAX_LENS],
        "total_mass": table.total_mass(budget),
        "first": [None if p is None else p.bits for p in witnesses],
        "mass": [table.mass_numerator(sigma, budget) for sigma in TARGETS],
        "cylinder": [table.cylinder_numerator(sigma, budget) for sigma in TARGETS],
        "cylinders": [table.cylinder_numerators(sigma, l, budget)
                      for sigma in TARGETS for l in CYLINDER_LENGTHS],
    }


def reference_reads(runs, cap, budget):
    """table_reads, computed from one-at-a-time runs."""
    everything = reference_output_map(runs, budget, 1 << 20)
    masses = reference_mass_map(runs, budget, 1 << 20)
    return {
        "output_map": [[(sigma, n, p.bits) for sigma, (n, p) in everything.items()
                        if len(sigma) <= max_len] for max_len in MAX_LENS],
        "mass_map": [[(sigma, m) for sigma, m in masses.items() if len(sigma) <= max_len]
                     for max_len in MAX_LENS],
        "total_mass": reference_total_mass(runs, budget),
        "first": [everything[sigma][1].bits if sigma in everything else None
                  for sigma in TARGETS],
        "mass": [masses.get(sigma, 0) * (1 << cap) for sigma in TARGETS],
        "cylinder": [sum(mass for out, mass in masses.items() if out.startswith(sigma))
                     * (1 << cap) for sigma in TARGETS],
        "cylinders": [{v: m for v, m in enumerate(
                           sum(mass for out, mass in masses.items() if out.startswith(sigma + tau))
                           * (1 << cap) for tau in strings_of_length(l)) if m}
                      for sigma in TARGETS for l in CYLINDER_LENGTHS],
    }


@pytest.mark.parametrize("cap", [12, 18, 20])
@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
def test_index_reads_match_one_at_a_time_runs(descriptor, cap):
    oracle = parse_oracle(descriptor)
    runs = halting_runs(oracle, cap)
    table = halting_table(oracle, cap)
    for budget in INDEX_BUDGETS:
        want = reference_reads(runs, cap, budget)
        assert table_reads(table, budget) == want, budget
        for sigma, p_bits, mass in zip(TARGETS, want["first"], want["mass"]):
            res = k_stage(sigma, budget, oracle, cap)
            assert res.value == (None if p_bits is None else len(p_bits))
            assert (res.witness and res.witness.bits) == p_bits
            assert m_stage(sigma, budget, oracle, cap) == Fraction(mass, 1 << cap)
    assert table.settled_stage == max(s for _i, _p, s, _out in runs)
    assert table.reach == max(len(out) for _i, _p, _s, out in runs)


@pytest.mark.parametrize("order", [
    INDEX_BUDGETS,
    INDEX_BUDGETS[::-1],
    (3, 0, 10 ** 4, 1, 5, 2, 4),
], ids=["ascending", "descending", "interleaved"])
@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
def test_index_reads_independent_of_ensure_order(descriptor, order):
    oracle = parse_oracle(descriptor)
    cold = {b: table_reads(HaltingTable(oracle, 16), b) for b in INDEX_BUDGETS}
    table = HaltingTable(oracle, 16)
    ensured = -1
    for step in order:
        table.ensure(step)
        ensured = max(ensured, step)
        for budget in INDEX_BUDGETS:
            if budget <= ensured:
                assert table_reads(table, budget) == cold[budget], (step, budget)


@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
def test_index_reads_independent_of_program_arrival_order(monkeypatch, descriptor):
    # the trie walk reaches programs out of canonical order, so the halts
    # folded at one step arrive in no fixed index order; with the walker's
    # child order shuffled (seeded) the reads must still match runs made
    # one program at a time
    codes = list(complexity.INSTRUCTION_CODES)
    random.Random(0).shuffle(codes)
    monkeypatch.setattr(complexity, "INSTRUCTION_CODES", tuple(codes))
    oracle = parse_oracle(descriptor)
    runs = halting_runs(oracle, 16)
    table = HaltingTable(oracle, 16)
    table.ensure(10 ** 4)
    for budget in INDEX_BUDGETS:
        assert table_reads(table, budget) == reference_reads(runs, 16, budget), budget


def test_index_reads_match_runs_where_a_jump_skips_instructions():
    # cap 25 is the least cap with a body that jumps past the end of an
    # instruction prefix and then runs an instruction it jumped to: JMP +1;
    # EMIT0; EMIT1 is 16 bits.  Every run here halts within 4 steps, so
    # reference runs at budget 64 cover every halt.
    body = assemble([("JMP", 1), ("EMIT0",), ("EMIT1",)])
    runs = halting_runs(None, 25, 64)
    assert (body_index(body), Program.encode(body), 2, "1") in runs
    table = halting_table(None, 25)
    for budget in (0, 1, 2, 3, 4, 5, 64):
        assert table_reads(table, budget) == reference_reads(runs, 25, budget), budget


def test_output_over_the_limit_is_an_error(monkeypatch, capsys):
    # cap 20 is the least cap with 3- and 4-bit outputs, which are over a
    # limit of 2 bits: every index that keys them raises, and so does a
    # table that a failed walk left part-way
    assert any(len(out) > 2 for _i, _p, _s, out in halting_runs(None, 20, 64))
    monkeypatch.setattr(toyvm, "OUTPUT_LIMIT", 2)
    table = HaltingTable(None, 20)
    with pytest.raises(MachineError, match="limit of 2 bits"):
        table.ensure(10 ** 4)
    with pytest.raises(MachineError, match="part-way"):
        table.first("0", 10 ** 4)
    with pytest.raises(MachineError, match="limit of 2 bits"):
        PrefixMassEvaluator(100, 20, 2)
    assert cli.dispatch(["k", "--sigma", "0", "--stage", "100", "--cap", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "limit of 2 bits" in err


_WIDTH = {instruction: width for width, _bits, instruction, _mask in INSTRUCTION_CODES}


def resumed_walk(body, oracle, budgets, x=0):
    """Walk the whole instructions of body as the one node of a PrefixTrie
    whose cap leaves no room for a child, resuming its live list at each
    budget in turn; yield (budget, (index, steps, rope) of the halts so
    far, steps of the live nodes)."""
    instrs = parse_body(body)
    whole = body[:sum(_WIDTH[i] for i in instrs)]
    trie = PrefixTrie(program_length(len(whole)))
    live = [(instrs, len(whole), int(whole or "0", 2), MachineState(regs=[0, 0, x, 0]),
             NO_PINS, 1)]
    halts = []
    for budget in budgets:
        stack, live = live, []
        halts += [(i, st.steps, st.rope) for i, _pins, st, _mass
                  in trie.walk(stack, oracle, budget, live)]
        yield budget, halts, [st.steps for _i, _p, _v, st, _pins, _mult in live]


@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=loop_bodies(), x=st.integers(0, 6))
def test_resumed_trie_walk_matches_one_shot_runs_on_loops(descriptor, body, x):
    oracle = parse_oracle(descriptor)
    whole = body[:sum(_WIDTH[i] for i in parse_body(body))]
    for budget, halts, live in resumed_walk(body, oracle, (3, 7, 12, 20, 2000), x):
        want = run(Program.encode(whole), oracle, budget, r2=x, detect_cycles=True)
        if want.kind == "halted":
            assert halts == [(body_index(whole), want.steps, want.rope)] and live == [], budget
        else:
            assert halts == [], budget
            assert live == ([budget] if want.kind == "budget" else []), budget


def test_resumed_trie_walk_halts_at_exactly_its_step_count():
    halted = run(Program.encode(COUNTED_LOOP), None, 17)
    assert halted.steps == 17 and halted.output == "111"
    assert [(budget, list(halts), live) for budget, halts, live
            in resumed_walk(COUNTED_LOOP, None, (16, 17))] == [
        (16, [], [16]), (17, [(body_index(COUNTED_LOOP), halted.steps, halted.rope)], [])]


# ------------------------------------------------------------------ the walk's cuts

WALK_BUDGETS = (0, 1, 2, 3, 7, 10 ** 5)


@pytest.mark.parametrize("cap", [14, 17, 20, 22])
@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
def test_walk_matches_one_walked_run_per_program(descriptor, cap):
    # the walk settles one-step halts in their parent and walks one body
    # per R2/R3 mirror pair; the reference runs every program on its own
    oracle = parse_oracle(descriptor)
    for budget in WALK_BUDGETS:
        halts, unresolved = walked_index(oracle, cap, budget)
        table = HaltingTable(oracle, cap)
        table.ensure(budget)
        assert table._halts == halts, budget
        assert table.unresolved == unresolved, budget
        assert table.settled_stage == max((s for at in halts.values() for s in at),
                                          default=None), budget
        assert table.reach == max(map(len, halts), default=None), budget


def test_a_walk_from_the_root_refuses_a_cap_above_the_bound(monkeypatch):
    # the bound is checked before a trie is built; a trie alone has none
    built = []
    monkeypatch.setattr(PrefixTrie, "__init__", lambda self, cap: built.append(cap))
    assert MAX_CAP == 40
    for make in (lambda cap: HaltingTable(None, cap),
                 lambda cap: PrefixMassEvaluator(0, cap, 1)):
        with pytest.raises(ValueError, match=f"^cap {MAX_CAP + 1} is above the bound 40$"):
            make(MAX_CAP + 1)
        assert built == []
    HaltingTable(None, MAX_CAP)
    assert built == [MAX_CAP]


@pytest.mark.parametrize("descriptor", INDEX_ORACLES)
def test_a_resumed_walk_equals_one_walk(descriptor):
    # nodes that reach budget 1 wait in live, settled halts and
    # multiplicities included, and resume as one walk would have gone on
    oracle = parse_oracle(descriptor)
    resumed, direct = HaltingTable(oracle, 20), HaltingTable(oracle, 20)
    resumed.ensure(1)
    assert resumed.unresolved > 0
    resumed.ensure(10 ** 5)
    direct.ensure(10 ** 5)
    assert resumed._halts == direct._halts
    assert (resumed.unresolved, resumed.settled_stage, resumed.reach) == (
        direct.unresolved, direct.settled_stage, direct.reach)


def _first_r2_or_r3(index):
    """The first of R2 and R3 that the body of index names, or None."""
    for op, r, _d in parse_body(index_to_body(index)):
        if op in (toyvm.OP_INC, toyvm.OP_DEC, toyvm.OP_JZ) and r >= 2:
            return r
    return None


def test_the_walk_keeps_the_r2_body_of_each_mirror_pair():
    # a halt's index is the least of the bodies it stands for, so the body
    # of each mirror pair the walk runs is the one whose first R2/R3
    # operand is R2; the least indices of the index then stay the same
    trie = PrefixTrie(22)
    firsts = {_first_r2_or_r3(i) for i, _pins, _st, _mass
              in trie.walk(trie.root(), None, 10 ** 5)}
    assert firsts == {None, 2}
    omap = halting_table(None, 22).output_map(10 ** 5, 100)
    assert {_first_r2_or_r3(p.index) for _n, p in omap.values()} <= {None, 2}


@pytest.mark.parametrize("x", [1, 3])
def test_a_node_with_r2_unlike_r3_is_walked_whole(x):
    # a node like resumed_walk's, with R2 = x, at a cap with room for children:
    # its R2 and R3 children run differently (JZ R2,-1 halts and JZ R3,-1
    # loops), so no child may stand for its mirror; cap 18 leaves room for
    # a JZ
    cap = 18
    trie = PrefixTrie(cap)
    node = (Instructions(), 0, 0, MachineState(regs=[0, 0, x, 0]), NO_PINS, 1)
    walked: dict = {}
    for i, _pins, st, mass in trie.walk([node], None, 10 ** 4):
        entry = walked.setdefault(output_string(st.rope), {}).setdefault(st.steps, [i, 0])
        entry[0] = min(entry[0], i)
        entry[1] += mass
    want: dict = {}
    for i, p in enumerate(programs_up_to(cap)):
        out = run(p, None, 10 ** 4, r2=x, detect_cycles=True)
        if out.halted:
            entry = want.setdefault(out.output, {}).setdefault(out.steps, [i, 0])
            entry[1] += 1 << (cap - len(p))
    assert walked == want


def test_a_cap_22_build_walks_1362_nodes(monkeypatch):
    # one _advance call per node; 2,421 before the one-step halts were
    # settled in their parent and mirror pairs walked once
    calls = []
    advance = complexity._advance

    def counted(*args):
        calls.append(None)
        return advance(*args)

    monkeypatch.setattr(complexity, "_advance", counted)
    table = HaltingTable(None, 22)
    table.ensure(1000)
    assert table.unresolved == 0
    assert len(calls) == 1362


def test_subtree_masses_equal_their_direct_sums():
    for cap in range(2, 65):
        trie = PrefixTrie(cap)
        nmax = trie.nmax
        weight = [1 << (cap - program_length(n)) for n in range(nmax + 1)]
        assert trie.subtree_mass == [sum(weight[n] << (n - p) for n in range(p, nmax + 1))
                                     for p in range(nmax + 1)], cap
        assert trie.halt_mass == [7 * trie.subtree_mass[p + 4] for p in range(nmax - 3)], cap


def test_kraft_sum_at_most_one():
    table = halting_table(None, 14)
    omap = table.output_map(10 ** 4, 8)
    kraft = sum(Fraction(1, 1 << plen) for plen, _ in omap.values())
    assert kraft <= 1


def test_csv_row_quotes_commas():
    res = k_time_bounded("0", TimeBound.poly(10, 1), None, 12)
    row = result_csv_row("0", "poly:10,1", res)
    assert row == '0,"poly:10,1",9,9:51'


# ------------------------------------------------------------------ gaps

def lowk_gap(sigma: str, oracle, stage: int, cap: int = 16) -> int:
    """K_s(sigma) - K_s^A(sigma), with above-cap values entering as cap+1.

    Oracle-free programs run unchanged under every oracle, so the gap is
    never negative here; how far above zero it climbs is the probe."""
    plain = k_stage(sigma, stage, None, cap).clamped(cap)
    relative = k_stage(sigma, stage, oracle, cap).clamped(cap)
    return plain - relative


def test_lowk_gap_zero_oracle_exhaustive():
    for sigma in all_strings(6):
        gap = lowk_gap(sigma, ZERO, 1000, 14)
        assert 0 <= gap <= WRAPPER_BITS


def test_lowk_gap_empty_string():
    assert lowk_gap("", ZERO, 1000, 14) == 0


def test_lowk_gap_halting_oracle_reported():
    oracle = HaltingOracle(1000)
    bits = "".join(str(oracle.answer(i)) for i in range(6))
    gaps = [lowk_gap(bits[:n], oracle, 2000, 16) for n in range(1, 7)]
    assert all(g >= 0 for g in gaps)


# ------------------------------------------------------------------ lifting

def test_identity_reduction_answers_base_bits():
    red = identity_reduction()
    oracle = PrefixOracle("0110")
    for i in range(4):
        bit, steps = red.bit(oracle, i)
        assert bit == int("0110"[i])
        assert steps <= red.budget


def test_lift_identity_reproduces_and_costs_wrapper():
    red = identity_reduction()
    t = TimeBound.poly(10, 1)
    for sigma in all_strings(2):
        res = k_time_bounded(sigma, t, ZERO, 16)
        if res.above_cap:
            continue
        lifted, t_prime = lift_code(res.witness, red, t, ZERO, sigma)
        assert len(lifted) == len(res.witness) + WRAPPER_BITS
        out, total = lifted.run_under(ZERO, t_prime(len(sigma)))
        assert out.kind == "halted" and out.output == sigma
        assert total <= t_prime(len(sigma))


def test_lift_zero_rule_roundtrip():
    # base program reads one oracle bit and emits it: needs the oracle
    body = assemble([("ORACLE",), ("EMITR",)])
    from depthlab.toyvm import Program

    tau = Program.encode(body)
    lifted, t_prime = lift_code(tau, identity_reduction(), TimeBound.poly(10, 1),
                                ZERO, "0")
    out, total = lifted.run_under(ZERO, 10 ** 4)
    assert out.kind == "halted" and out.output == "0"


def test_lift_measured_budget_bound():
    # a reduction answering index i in O(i) steps keeps the measured total
    # under t(n) * c * (max asked index + 1)
    red = identity_reduction()
    t = TimeBound.poly(10, 1)
    c = red.budget  # crude per-query ceiling; the measured bound is tighter
    checked = 0
    for _i, p, _step, output in halting_runs(PrefixOracle("0101"), 16, t(4)):
        if len(output) > 4:
            continue
        out, asked = recorded_run(p, PrefixOracle("0101"), t(4))
        if not asked:
            continue
        sigma = out.output
        lifted, t_prime = lift_code(p, red, t, PrefixOracle("0101"), sigma)
        max_idx = max(asked)
        assert t_prime(len(sigma)) <= t(len(sigma)) * c * (max_idx + 1)
        checked += 1
        if checked >= 10:
            break
    assert checked > 0


def test_lift_diverging_reduction_raises():
    from depthlab.toyvm import DIVERGE_BODY, Program

    bad = Reduction(Program.encode(DIVERGE_BODY), 100)
    tau = k_time_bounded("0", TimeBound.poly(10, 1), None, 12).witness
    lifted, _ = lift_code(tau, bad)
    body = assemble([("ORACLE",), ("EMITR",)])
    from depthlab.toyvm import Program as P

    with pytest.raises(ReductionDiverged):
        lift_code(P.encode(body), bad, TimeBound.poly(10, 1), ZERO, "0")
