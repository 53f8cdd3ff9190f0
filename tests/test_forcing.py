import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import complexity, pi01forcing, toyvm
from depthlab.pi01forcing import (
    MAX_DEPTH,
    Dnc2Witness,
    ForcingError,
    Functional,
    PruningSchedule,
    force,
    is_dnc2,
    join_check,
    members_at_stage,
)
from depthlab.toyvm import (
    ZERO,
    assemble,
    body_index,
    diagonal,
    index_to_body,
    phi,
    strings_of_length,
)

from test_semimeasure import _ORACLE_LOOP_KINDS
from test_toyvm import loop_bodies


# ------------------------------------------------------------------ schedules

def test_members_full_space():
    sch = PruningSchedule.full_space(6)
    assert len(members_at_stage(sch, 4, 0)) == 16


def test_members_forbid_one_branch():
    sch = PruningSchedule([(0, {"1"})], 6)
    members = members_at_stage(sch, 3, 0)
    assert members == ["000", "001", "010", "011"]


def test_members_antichain_singleton():
    sch = PruningSchedule([(0, {"1", "01", "001", "0001"})], 4)
    assert members_at_stage(sch, 4, 0) == ["0000"]


def test_members_nonincreasing_in_stage():
    sch = PruningSchedule([(0, {"11"}), (5, {"10"})], 4)
    assert len(members_at_stage(sch, 3, 0)) == 6
    assert len(members_at_stage(sch, 3, 5)) == 4
    assert set(members_at_stage(sch, 3, 5)) <= set(members_at_stage(sch, 3, 0))


def test_schedule_depth_check():
    with pytest.raises(ValueError):
        PruningSchedule([(0, {"00000"})], 3)
    sch = PruningSchedule.full_space(3)
    with pytest.raises(ValueError):
        members_at_stage(sch, 4, 0)


def test_schedule_json_roundtrip(tmp_path):
    sch = PruningSchedule([(0, {"0110"}), (3, {"111"})], 6)
    doc = sch.to_json()
    again = PruningSchedule.from_json(json.loads(json.dumps(doc)))
    assert again.to_json() == doc


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "a schedule must be a JSON object"),
    ({"depth": 4.5, "stages": []}, "depth must be a nonnegative int, got 4.5"),
    ({"depth": -1, "stages": []}, "depth must be a nonnegative int, got -1"),
    ({"depth": True, "stages": []}, "depth must be a nonnegative int, got True"),
    ({"stages": []}, "depth must be a nonnegative int, got None"),
    ({"depth": MAX_DEPTH + 1, "stages": []}, f"above the bound {MAX_DEPTH}"),
    ({"depth": 4}, "stages must be a list of objects"),
    ({"depth": 4, "stages": {"s": 0}}, "stages must be a list of objects"),
    ({"depth": 4, "stages": [["0"]]}, "stages must be a list of objects"),
    ({"depth": 4, "stages": [{"forbid": ["0"]}]}, "s must be an int, got None"),
    ({"depth": 4, "stages": [{"s": "0", "forbid": ["0"]}]}, "s must be an int"),
    ({"depth": 4, "stages": [{"s": 0, "forbid": "01"}]},
     "forbid must be a list of strings, got '01'"),
    ({"depth": 4, "stages": [{"s": 0, "forbid": [1]}]}, "forbid must be a list of strings"),
    ({"depth": 4, "stages": [{"s": 0}]}, "forbid must be a list of strings, got None"),
])
def test_schedule_from_json_rejects_bad_documents(doc, message):
    # rejected before any member is listed, so a huge depth costs nothing
    with pytest.raises(ValueError, match=re.escape(message)):
        PruningSchedule.from_json(doc)


def test_schedule_depth_bound_is_inclusive():
    assert PruningSchedule.full_space(MAX_DEPTH).depth == MAX_DEPTH
    assert PruningSchedule.full_space(0).depth == 0
    with pytest.raises(ValueError, match="above the bound"):
        PruningSchedule.full_space(MAX_DEPTH + 1)


def reference_members(schedule, d, stage):
    """Every d-bit string tested against every forbidden string."""
    forbidden = schedule.forbidden_at(stage)
    return [x for x in strings_of_length(d)
            if not any(x.startswith(w) for w in forbidden if len(w) <= d)]


def test_members_match_a_brute_force_scan():
    rng = random.Random(5)
    for _ in range(200):
        depth = rng.randrange(0, 8)
        stages = [(rng.randrange(4), {"".join(rng.choices("01", k=rng.randrange(depth + 1)))
                                      for _ in range(rng.randrange(3))})
                  for _ in range(rng.randrange(3))]
        sch = PruningSchedule(stages, depth)
        for d in range(depth + 1):
            for stage in (0, 2, 5):
                assert members_at_stage(sch, d, stage) == reference_members(sch, d, stage)


def test_members_at_depth_zero_and_under_the_empty_string():
    assert members_at_stage(PruningSchedule.full_space(3), 0, 0) == [""]
    sch = PruningSchedule([(0, {"1"}), (4, {""})], 3)
    assert members_at_stage(sch, 0, 0) == [""]
    assert members_at_stage(sch, 2, 3) == ["00", "01"]
    assert members_at_stage(sch, 0, 4) == []
    assert members_at_stage(sch, 3, 4) == []


# ------------------------------------------------------------------ dodging witnesses

def test_is_dnc2_empty_map():
    ok, counter = is_dnc2(Dnc2Witness.frozen(1000, {}), 1000)
    assert ok and counter is None


def test_is_dnc2_canonical_witness():
    w = Dnc2Witness.from_halting_table(1000)
    for e in range(40):
        w.value(e)
    ok, _ = is_dnc2(w, 1000)
    assert ok


def test_is_dnc2_mutation_caught():
    e = 0  # the empty body halts on itself with value 0
    halts, value, _ = diagonal(e, 1000)
    assert halts
    w = Dnc2Witness.frozen(1000, {e: value % 2})
    ok, counter = is_dnc2(w, 1000)
    assert not ok and counter == e


def test_frozen_witness_raises_off_support():
    w = Dnc2Witness.frozen(100, {3: 1})
    with pytest.raises(ForcingError):
        w.value(4)


# ------------------------------------------------------------------ forcing

def full_space_instance(steps=3, depth=8, budget=4096):
    fn = Functional.projection(tuple(depth - steps + s for s in range(steps)))
    witness = Dnc2Witness.from_halting_table(budget)
    return PruningSchedule.full_space(depth), witness, fn, budget


def test_force_full_space_end_to_end():
    sch, witness, fn, budget = full_space_instance()
    res = force(sch, witness, 3, budget, functional=fn)
    assert len(res.b_prefix) == 3
    assert res.b_member.startswith(res.b_prefix)
    # every sigma bit is the witness value at the recorded probe index
    for st in res.steps:
        assert st.dodge_bit == witness.value(st.n_index)
        assert res.b_prefix[st.s] == str(st.dodge_bit)
    transcript = res.reconstruct(fn)
    assert all(t["match"] for t in transcript)


def test_force_clopen_first_branch_forced():
    sch = PruningSchedule([(0, {"0"})], 8)
    res = force(sch, Dnc2Witness.from_halting_table(4096), 1, 4096,
                functional=Functional.projection((4,)))
    st = res.steps[0]
    assert st.probe_empty_side == 0
    assert res.b_prefix == "1"
    # the probe program really returns the empty side when run diagonally
    probe = phi(st.n_index, st.n_index, ZERO, 4096)
    assert probe.halted and probe.value == 0


def test_force_idempotent():
    sch, witness, fn, budget = full_space_instance()
    a = force(sch, Dnc2Witness.from_halting_table(budget), 3, budget, functional=fn)
    b = force(sch, Dnc2Witness.from_halting_table(budget), 3, budget, functional=fn)
    assert a.to_json() == b.to_json()


def assert_member_carries_every_bit(res, schedule, budget, fn):
    """The emitted member is in the input class at the budget, extends
    every step's sigma, and gives back each step's dodge and coding bit:
    its functional instance, run on the member at the fixed-point index,
    reads the coding bit."""
    assert res.b_member in members_at_stage(schedule, schedule.depth, budget)
    for st in res.steps:
        assert res.b_member.startswith(st.sigma)
        assert fn.apply(st.functional_instance, res.b_member, st.m_index) == st.coding_bit
    assert all(row["match"] for row in res.reconstruct(fn))


def test_force_member_at_every_stage():
    sch, witness, fn, budget = full_space_instance()
    res = force(sch, witness, 3, budget, functional=fn)
    assert_member_carries_every_bit(res, sch, budget, fn)


def test_force_probe_and_event_programs_are_self_describing():
    sch, witness, fn, budget = full_space_instance()
    res = force(sch, witness, 3, budget, functional=fn)
    for st in res.steps:
        from depthlab.toyvm import disassemble

        n_body = index_to_body(st.n_index)
        assert tuple(st.n_disassembly) == tuple(disassemble(n_body))
        diag = phi(st.n_index, st.n_index, ZERO, budget)
        if st.probe_empty_side is None:
            assert not diag.halted
        else:
            assert diag.halted and diag.value == st.probe_empty_side
        m_diag = phi(st.m_index, st.m_index, ZERO, budget)
        if st.event_unanimous is None:
            assert not m_diag.halted
        else:
            assert m_diag.halted and m_diag.value == st.event_unanimous


def test_force_event_index_is_an_exact_fixed_point(monkeypatch):
    # each step's transformer maps the recorded event index to itself
    found = []

    def recording(transformer):
        e = toyvm.fixed_point(transformer)
        found.append((e, transformer(e)))
        return e

    monkeypatch.setattr(pi01forcing, "fixed_point", recording)
    sch, witness, fn, budget = full_space_instance()
    res = force(sch, witness, 3, budget, functional=fn)
    assert found == [(st.m_index, st.m_index) for st in res.steps]


def test_force_prefix_coding_variant():
    # coding bits come from a plain prefix, dodge bits from the canonical
    # witness: the recorded coding bits are exactly the prefix bits
    sch = PruningSchedule.full_space(10)
    fn = Functional.projection((6, 7, 8, 9))
    res = force(sch, "1011", 4, 4096, functional=fn)
    assert [st.coding_bit for st in res.steps] == [1, 0, 1, 1]
    assert all(t["match"] for t in res.reconstruct(fn))


def test_force_rejects_short_prefix():
    with pytest.raises(ForcingError):
        force(PruningSchedule.full_space(8), "10", 4, 4096)


def test_force_rejects_bad_query_schedule():
    fn = Functional.projection((9,))
    with pytest.raises(ForcingError):
        force(PruningSchedule.full_space(8), "1", 1, 4096, functional=fn)


def test_force_of_no_steps_at_depth_zero_makes_no_query():
    res = force(PruningSchedule.full_space(0), "", 0, 10)
    assert res.b_prefix == res.b_member == ""
    assert res.steps == [] and res.inconclusive == []


def test_force_rejects_more_steps_than_the_depth_cap():
    fn = Functional.projection((0, 1, 1))
    with pytest.raises(ForcingError, match="more steps than the depth cap"):
        force(PruningSchedule.full_space(2), "101", 3, 4096, functional=fn)


def test_force_rejects_a_bit_source_that_walks_into_the_pruned_side():
    # no member starts with 0, so the probe names side 0 and a bit source
    # that agrees with the probe's diagonal value leaves no survivor
    sch, fn = PruningSchedule([(0, {"0"})], 8), Functional.projection((4,))
    probe = force(sch, Dnc2Witness.from_halting_table(4096), 1, 4096,
                  functional=fn).steps[0].n_index
    with pytest.raises(ForcingError, match="walked into the pruned side"):
        force(sch, Dnc2Witness.frozen(4096, {probe: 0}), 1, 4096, functional=fn)


def test_force_rejects_a_coding_bit_the_class_cannot_give():
    # the functional reads bit 0, which the dodge bit has already fixed on
    # every survivor, so exactly one coding bit is realisable
    fn, failed = Functional.projection((0,)), []
    for bit in "01":
        try:
            force(PruningSchedule.full_space(4), bit, 1, 4096, functional=fn)
        except ForcingError as exc:
            assert "unrealisable" in str(exc)
            failed.append(bit)
    assert len(failed) == 1


def test_force_empty_class_rejected():
    sch = PruningSchedule([(0, {"0", "1"})], 6)
    with pytest.raises(ForcingError):
        force(sch, Dnc2Witness.from_halting_table(100), 1, 100)


def test_force_reports_unsettled_stages():
    # pruning arriving after the stage budget leaves emptiness unsettled,
    # and the class force narrows is the one read at the budget
    sch = PruningSchedule([(0, {"11"}), (10 ** 6, {"10"})], 8)
    fn = Functional.projection((5, 6))
    res = force(sch, Dnc2Witness.from_halting_table(4096), 2, 4096, functional=fn)
    assert res.inconclusive == [0, 1]
    # 192 members; the dodge bit keeps the 128 below "0" and each later
    # dodge or coding bit halves the class
    assert [st.members_after for st in res.steps] == [64, 16]
    assert_member_carries_every_bit(res, sch, 4096, fn)


def test_force_sees_its_own_prunings_past_the_budget():
    # a schedule whose last stage is the budget: it is settled, and the
    # dodge and coding bits narrow the class at every step
    sch = PruningSchedule([(100, set())], 6)
    fn = Functional.projection((3, 4, 5))
    res = force(sch, "101", 3, 100, functional=fn)
    assert res.inconclusive == []
    assert [st.members_after for st in res.steps] == [16, 4, 1]
    assert_member_carries_every_bit(res, sch, 100, fn)


# ------------------------------------------------------------------ branched values

# functional bodies that make the branched reading do every kind of work
HAND_BODIES = {
    # indices 0, then 1 or 2 by the first answer; R3 is the second answer
    "two-queries": assemble([
        ("ORACLE",), ("JZ", 1, "zero"), ("INC", 0), ("INC", 0), ("ORACLE",),
        ("JZ", 1, "done"), ("INC", 3), ("JMP", "done"),
        "zero:", ("INC", 0), ("ORACLE",), ("JZ", 1, "done"), ("INC", 3), "done:"]),
    # a loop over indices e, e+1, e+2 (past depth for large e); R3 counts
    # the ones among them
    "three-queries": assemble([
        "copy:", ("JZ", 2, "start"), ("DEC", 2), ("INC", 0), ("JMP", "copy"),
        "start:", ("INC", 2), ("INC", 2), ("INC", 2),
        "lap:", ("JZ", 2, "end"), ("ORACLE",), ("JZ", 1, "skip"), ("INC", 3),
        "skip:", ("INC", 0), ("DEC", 2), ("JMP", "lap"), "end:"]),
    # answer 1 at index 0 asks index 6, past every depth used here
    "past-depth": assemble([("ORACLE",), ("JZ", 1, "done")] + [("INC", 0)] * 6
                           + [("ORACLE",), "done:"]),
    # answer 1 spins with a growing control register until the budget ends;
    # answer 0 counts R2 down, two laps more after answer 1 at index 1
    "budget": assemble([
        ("ORACLE",), ("JZ", 1, "count"), "spin:", ("INC", 0), ("JMP", "spin"),
        "count:", ("INC", 0), ("ORACLE",), ("JZ", 1, "loop"), ("INC", 2), ("INC", 2),
        "loop:", ("JZ", 2, "done"), ("DEC", 2), ("JMP", "loop"), "done:"]),
    # answer 1 repeats its key at once; answer 0 halts with R3 = 1
    "diverge": assemble([("ORACLE",), ("JZ", 1, "done"), "stay:", ("JMP", "stay"),
                         "done:", ("INC", 3)]),
    # answer 1 leaves R3 = 2
    "r3-two": assemble([("ORACLE",), ("JZ", 1, "done"), ("INC", 3), ("INC", 3), "done:"]),
    # value 2, value 3 or divergence by the answers at 0 and 1, so which
    # error is raised depends on which member comes first
    "mixed-errors": assemble([
        ("ORACLE",), ("JZ", 1, "two"), ("INC", 0), ("ORACLE",), ("JZ", 1, "three"),
        "stay:", ("JMP", "stay"), "three:", ("INC", 3), "two:", ("INC", 3), ("INC", 3)]),
}


def read_all(call):
    """The list of values, or the text of the ForcingError raised."""
    try:
        return call()
    except ForcingError as exc:
        return str(exc)


def branched_and_per_member(fn, inst, members, e, depth):
    return (read_all(lambda: fn.values(inst, members, e, depth)),
            read_all(lambda: [fn.apply(inst, x, e) for x in members]))


def test_branched_values_match_per_member_runs_on_hand_bodies():
    rng = random.Random(11)
    seen = set()
    for name, body in HAND_BODIES.items():
        inst = body_index(body)
        for budget in (3, 8, 15, 22, 40, 4096):
            fn = Functional(0, budget, ())
            for depth in (4, 5, 6):
                everyone = list(strings_of_length(depth))
                for e in range(7):
                    subsets = [everyone] + [rng.sample(everyone, rng.randrange(1, 9))
                                            for _ in range(4)]
                    for members in subsets:
                        got, want = branched_and_per_member(fn, inst, members, e, depth)
                        assert got == want, (name, budget, depth, e, members)
                        seen.add(want.split(" ")[1] if isinstance(want, str) else
                                 "values" if len(set(want)) > 1 else "unanimous")
    # every outcome occurs: a split class, a unanimous one, and both errors
    # (diverged, budget and past-depth leaves all read "instance ... not total")
    assert seen == {"values", "unanimous", "instance", "value"}


def test_hand_bodies_reach_each_kind_of_leaf():
    # the first member to fail decides which error text is raised
    fn = Functional(0, 4096, ())
    mixed = body_index(HAND_BODIES["mixed-errors"])
    assert read_all(lambda: fn.values(mixed, ["0000", "1100"], 0, 4)) == \
        "functional value 2 outside 0/1"
    assert read_all(lambda: fn.values(mixed, ["1100", "0000"], 0, 4)) == \
        f"functional instance {mixed} not total on a member"
    assert read_all(lambda: fn.values(mixed, ["1000", "1100"], 0, 4)) == \
        "functional value 3 outside 0/1"
    # the budget body halts on answer 0 at index 0 after a number of steps
    # that depends on the answer at index 1
    counting = body_index(HAND_BODIES["budget"])
    steps = {x: phi(counting, 1, toyvm.PrefixOracle(x), 4096).steps
             for x in ("0000", "0100")}
    assert steps["0100"] > steps["0000"]
    tight = Functional(0, steps["0000"], ())
    assert read_all(lambda: tight.values(counting, ["0000"], 1, 4)) == [0]
    assert read_all(lambda: tight.values(counting, ["0000", "0100"], 1, 4)) == \
        f"functional instance {counting} not total on a member"
    assert read_all(lambda: fn.values(counting, ["0100", "1000"], 1, 4)) == \
        f"functional instance {counting} not total on a member"


# straight-line bodies of 1-4 blocks, each asking the index in R0 and
# acting on the answer, so that runs split at several indices
_QUERY_BLOCK = st.tuples(st.integers(0, 2), st.sampled_from(
    [("INC", 3), ("DEC", 3), ("INC", 3), ("INC", 0), ("EMITR",)])).map(
    lambda b: [("INC", 0)] * b[0] + [("ORACLE",), ("JZ", 1, 1), b[1]])
query_bodies = st.lists(_QUERY_BLOCK, min_size=1, max_size=4).map(
    lambda blocks: assemble([ins for block in blocks for ins in block]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(body=st.one_of(loop_bodies(counter=0, kinds=_ORACLE_LOOP_KINDS), query_bodies),
       depth=st.integers(4, 6), e=st.integers(0, 6),
       budget=st.sampled_from([5, 12, 30, 300]), data=st.data())
def test_branched_values_match_per_member_runs_on_loops(body, depth, e, budget, data):
    fn = Functional(0, budget, ())
    inst = body_index(body)
    everyone = list(strings_of_length(depth))
    subset = data.draw(st.lists(st.sampled_from(everyone), unique=True, max_size=10))
    for members in (everyone, subset):
        got, want = branched_and_per_member(fn, inst, members, e, depth)
        assert got == want


def per_member_values(self, instance_index, members, input_value, depth):
    """The reference reading: one plain run per member."""
    return [self.apply(instance_index, x, input_value) for x in members]


# parity of the oracle bits at the parameter q and at q + 1
_XOR_ITEMS = [
    "copy:", ("JZ", 1, "query"), ("DEC", 1), ("INC", 0), ("JMP", "copy"),
    "query:", ("ORACLE",), ("JZ", 1, "second"), ("INC", 3),
    "second:", ("INC", 0), ("ORACLE",), ("JZ", 1, "done"), ("JZ", 3, "one"),
    ("DEC", 3), ("JMP", "done"), "one:", ("INC", 3), "done:",
]


@pytest.mark.parametrize("case", ["full-8", "pruned-10", "xor-9"])
def test_force_matches_a_per_member_reference(monkeypatch, case):
    if case == "full-8":
        args = (PruningSchedule.full_space(8), Dnc2Witness.from_halting_table(4096), 3,
                4096, Functional.projection((5, 6, 7)))
    elif case == "pruned-10":
        args = (PruningSchedule([(0, {"11"}), (2, {"100"})], 10), "1011", 4, 4096,
                Functional.projection((6, 7, 8, 9)))
    else:
        args = (PruningSchedule([(0, {"0110", "111"}), (3, {"10"})], 9),
                Dnc2Witness.from_halting_table(4096), 3, 4096,
                Functional(body_index(assemble(_XOR_ITEMS)), 4096, (4, 5, 7)))
    branched = force(*args[:4], functional=args[4]).to_json()
    monkeypatch.setattr(Functional, "values", per_member_values)
    assert force(*args[:4], functional=args[4]).to_json() == branched
    # every step pruned the class, so the values decided something
    assert len({step["members_before"] for step in branched["steps"]}) == len(branched["steps"])


def test_force_runs_the_functional_per_branch_not_per_member(monkeypatch):
    # the benchmark's force case: 5 steps at depth 12 and budget 4096 under
    # the projection functional.  One run per member makes 10,922 machine
    # runs; one run per oracle branch makes 55
    advance, calls = toyvm._advance, []

    def counted(*args):
        calls.append(1)
        return advance(*args)

    for module in (toyvm, complexity, pi01forcing):
        monkeypatch.setattr(module, "_advance", counted)
    sch = PruningSchedule([(0, {"101"}), (1, {"110"})], 12)
    res = force(sch, Dnc2Witness.from_halting_table(4096), 5, 4096)
    assert res.steps[0].members_before == 3072
    assert len(calls) < 500


def test_force_reads_the_functional_once_per_index(monkeypatch):
    # the benchmark's force case: fixed_point reads the transformer at 0
    # and at the event index, and the event index's values come from that
    # reading, so each of the 5 steps reads the functional twice
    values, inputs = Functional.values, []

    def counted(self, instance_index, members, input_value, depth):
        inputs.append(input_value)
        return values(self, instance_index, members, input_value, depth)

    monkeypatch.setattr(Functional, "values", counted)
    sch = PruningSchedule([(0, {"101"}), (1, {"110"})], 12)
    res = force(sch, Dnc2Witness.from_halting_table(4096), 5, 4096)
    assert inputs == [e for st in res.steps for e in (0, st.m_index)]


# ------------------------------------------------------------------ join check

def test_join_check_equal_sets():
    f = "0" * 8
    rep = join_check(f, "01101001", "01101001", 4, 1000, 18)
    assert rep.xor_ok
    # all-zero bits collide with the all-halting small diagonals
    assert not rep.dnc_ok


def test_join_check_xor_mutation_fails():
    x = "0110100110010110"
    y = "1001011001101001"
    f = "1" * 16
    rep = join_check(f, x, y, 4, 1000, 18)
    assert rep.xor_ok
    mutated = "0" + f[1:]
    rep2 = join_check(mutated, x, y, 4, 1000, 18)
    assert not rep2.xor_ok


def test_join_check_brute_force_triple():
    # search short strings for a triple passing all three clauses
    stage, cap, k = 10 ** 4, 18, 4
    found = None
    for xv in range(64):
        x = format(xv, "b").zfill(16)
        w = Dnc2Witness.from_halting_table(stage)
        f = "".join(str(w.value(e)) for e in range(16))
        y = "".join("1" if a != b else "0" for a, b in zip(f, x))
        rep = join_check(f, x, y, k, stage, cap)
        if rep.all_ok:
            found = (f, x, y, rep)
            break
    assert found is not None
    f, x, y, rep = found
    assert rep.xor_ok and rep.dnc_ok and rep.x_random_ok and rep.y_random_ok


@pytest.mark.parametrize("cap", [24, 28])
def test_join_check_randomness_clauses_fail_only_on_clamped_terms(cap):
    # a deficiency term n - K(sigma) with K within the cap is at most -1:
    # every table run is resolved by budget 1000, so no stage finds a
    # shorter program, and no cap below adds one.  "Deficiency above
    # k >= 0" therefore comes only from a term clamped to cap + 1
    table = complexity.halting_table(None, cap)
    table.ensure(1000)
    assert table.unresolved == 0
    omap = table.output_map(1000, toyvm.OUTPUT_LIMIT)
    assert max(len(sigma) - k for sigma, (k, _p) in omap.items()) == -1


def test_join_check_length_mismatch():
    with pytest.raises(ValueError):
        join_check("00", "000", "000", 1, 10, 14)
