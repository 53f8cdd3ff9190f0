import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import toyvm as tv
from depthlab.bits import body_index, index_to_body, read_bits, strings_of_length
from depthlab.numbering import (
    DIVERGE_BODY,
    EscapingJumpError,
    FixedPointError,
    HaltingOracle,
    assemble,
    compile_const,
    diagonal,
    disassemble,
    fixed_point,
    jumps_confined,
    phi,
    smn,
)
from depthlab.toyvm import (
    PrefixOracle,
    Program,
    ZERO,
    gamma_encode,
    parse_oracle,
    programs_up_to,
    run,
)
from reference_runs import brent_bound, recorded_run, run_body, set_rule_run

bodies = st.text(alphabet="01", max_size=16)


# ------------------------------------------------------------------ encoding

def test_encode_pinned_examples():
    # gamma(5) header on a 4-bit body, and the one-bit empty program
    assert Program.encode("0001").bits == "001010001"
    assert gamma_encode(4) == "00100"
    assert Program.encode("").bits == "1"


def test_decode_encode_roundtrip_exhaustive():
    for n in range(13):
        for v in range(1 << n):
            body = format(v, "b").zfill(n) if n else ""
            assert Program.decode(Program.encode(body).bits).body == body


@given(bodies)
def test_decode_encode_roundtrip_property(body):
    assert Program.decode(Program.encode(body).bits).body == body


def test_prefix_free_small_cap():
    bits = sorted(p.bits for p in programs_up_to(14))
    assert all(not b.startswith(a) for a, b in zip(bits, bits[1:]))


def test_rank_unrank_roundtrip():
    for e in range(4096):
        assert body_index(index_to_body(e)) == e
    assert index_to_body(0) == ""
    assert index_to_body(1) == "0"
    assert index_to_body(2) == "1"
    assert index_to_body(3) == "00"
    # strings of one length are a contiguous, lexicographic run of ranks
    for n in range(12):
        assert list(strings_of_length(n)) == [index_to_body(e) for e in
                                              range((1 << n) - 1, (2 << n) - 1)]


# ------------------------------------------------------------------ running

def test_run_emit0():
    out = run(Program.encode("0001"), None, 10)
    assert out.kind == "halted" and out.output == "0" and out.steps == 1


def test_run_budget_exhaustion_on_loop():
    out = run(Program.encode(DIVERGE_BODY), None, 100)
    assert out.kind == "budget" and out.steps == 100


def test_run_empty_body_zero_budget():
    out = run(Program.encode(""), None, 0)
    assert out.kind == "halted" and out.output == "" and out.steps == 0


def test_run_determinism():
    p = Program.encode("0010001101000001")
    a = run(p, ZERO, 50)
    b = run(p, ZERO, 50)
    assert a == b


def test_budget_monotonicity_exhaustive_small():
    for p in programs_up_to(12):
        base = run(p, ZERO, 30)
        if base.kind == "halted":
            for extra in (1, 7, 100):
                again = run(p, ZERO, 30 + extra)
                assert again.kind == "halted"
                assert again.steps == base.steps
                assert again.output == base.output


def test_oracle_locality_bit_flips():
    # cap 18 is the least at which a program both reads and emits an
    # oracle bit, so that flipping a bit it asked can change its run
    table = "0101"
    changed = 0
    for p in programs_up_to(18):
        base, asked = recorded_run(p, PrefixOracle(table), 40)
        for i in range(len(table)):
            flipped = table[:i] + ("1" if table[i] == "0" else "0") + table[i + 1:]
            other = run(p, PrefixOracle(flipped), 40)
            if i in asked:
                changed += other != base
                continue
            assert other.kind == base.kind
            if base.kind == "halted":
                assert other.output == base.output and other.steps == base.steps
    assert changed


def test_out_of_table_aborts():
    body = assemble([("INC", 0), ("INC", 0), ("ORACLE",)])
    out = run_body(body, PrefixOracle("01"), 20)
    assert out.kind == "aborted"


def test_oracle_none_aborts_on_query():
    out = run_body("1000", None, 20)
    assert out.kind == "aborted"


def test_double_and_emitr():
    out = run_body(assemble([("EMIT1",), ("DOUBLE",), ("DOUBLE",)]), None, 20)
    assert out.output == "1111"
    out = run_body(assemble([("EMITR",)]), None, 20)
    assert out.output == "0"
    out = run_body(assemble([("INC", 1), ("EMITR",)]), None, 20)
    assert out.output == "1"


def test_reserved_opcode_halts():
    out = run_body("1010" + "0001", None, 20)
    assert out.kind == "halted" and out.output == "" and out.steps == 1


STOPS = {
    # name: (items, oracle, detect_cycles, kind, steps, output, asked)
    "halted": ([("EMIT1",), ("HALT",)], None, False, "halted", 2, "1", ()),
    "budget": ([("EMIT0",), ("JMP", -1)], None, False, "budget", 100, "0", ()),
    "diverged": ([("EMIT0",), ("JMP", -1)], None, True, "diverged", 2, "0", ()),
    "no-oracle": ([("EMIT1",), ("ORACLE",)], None, True, "aborted", 2, "1", ()),
    "out-of-table": ([("ORACLE",), ("EMITR",), ("INC", 0), ("INC", 0), ("ORACLE",)],
                     PrefixOracle("01"), True, "aborted", 5, "0", (0,)),
}


@pytest.mark.parametrize("name", STOPS)
def test_run_reports_how_it_stopped(name):
    items, oracle, cycles, kind, steps, output, asked = STOPS[name]
    out, got = recorded_run(Program.encode(assemble(items)), oracle, 100,
                            detect_cycles=cycles)
    assert (out.kind, out.steps, out.output, got) == (kind, steps, output, frozenset(asked))


# prints a 0 per lap and runs to the budget: 1,000 one-bit leaves deep
LONG_PRINTER = [("INC", 1), ("EMIT0",), ("JZ", 1, -3), ("JMP", -3)]


def test_outcomes_of_long_outputs_compare_without_recursing():
    p = Program.encode(assemble(LONG_PRINTER))
    a, b = run(p, None, 3000), run(p, None, 3000)
    assert a.rope is not b.rope and a.rope[0] == 1000
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_outcomes_whose_outputs_differ_in_one_bit_are_unequal():
    a = run(Program.encode(assemble(LONG_PRINTER)), None, 3000)
    length, _bit, head, _last = a.rope
    flipped = a._replace(rope=(length, None, head, (1, 1, None, None)))
    assert flipped.output == a.output[:-1] + "1"
    assert a != flipped and not a == flipped


def test_phi_reports_a_busy_loop_as_diverged():
    res = phi(body_index(DIVERGE_BODY), 0, ZERO, 10 ** 6)
    assert res.kind == "diverged" and res.steps == 1
    assert not res.halted and res.value is None


@pytest.mark.parametrize("prefix", ["", assemble([("JZ", 2, 1), ("INC", 1)])])
def test_instruction_codes_decode_like_parse_body(prefix):
    base = tv.parse_body(prefix)
    seen = set()
    for code in tv.INSTRUCTION_CODES:
        width, value = code[0], code[1]
        bits = format(value, "b").zfill(width)
        want = tv.parse_body(prefix + bits)
        got = tv.extend(base, code)
        assert got == want and got.key_regs == want.key_regs, bits
        seen.add(bits)
    # prefix-free and complete: every 10-bit string starts with exactly one code
    assert sum(1 << (10 - len(bits)) for bits in seen) == 1 << 10
    assert all(not b.startswith(a) for a, b in zip(sorted(seen), sorted(seen)[1:]))


_MNEMONICS = ("HALT", "EMIT0", "EMIT1", "DOUBLE", "INC", "DEC", "JZ", "JMP", "ORACLE", "EMITR")


def test_instruction_codes_are_the_assembled_instructions():
    # INSTRUCTION_CODES owns the layout that parse_body reads and assemble
    # writes, so check it and the assembler against the module docstring's
    # opcode table: a 4-bit opcode, then a 2-bit register and a 4-bit
    # two's-complement offset where the instruction has them
    got = {format(value, "b").zfill(width): (instruction, mask)
           for width, value, instruction, mask in tv.INSTRUCTION_CODES}
    want = {}
    for op, name in enumerate(_MNEMONICS):
        if name in ("INC", "DEC"):
            items = [((name, r), (op, r, 0), 0, f"{r:02b}") for r in range(4)]
        elif name == "JZ":
            items = [((name, r, d), (op, r, d), 1 << r, f"{r:02b}{d & 15:04b}")
                     for r in range(4) for d in range(-8, 8)]
        elif name == "JMP":
            items = [((name, d), (op, 0, d), 0, f"{d & 15:04b}") for d in range(-8, 8)]
        else:
            items = [((name,), (op, 0, 0), int(name == "ORACLE"), "")]
        for item, instruction, mask, operands in items:
            bits = f"{op:04b}" + operands
            assert assemble([item]) == bits, item
            want[bits] = (instruction, mask)
    # reserved 1010-1111: bare 4-bit opcodes, kept as they are
    want.update({format(op, "04b"): ((op, 0, 0), 0) for op in range(10, 16)})
    assert len(tv.INSTRUCTION_CODES) == len(got) == len(want) == 100
    assert got == want
    assert list(got) == sorted(got)


# ------------------------------------------------------------------ bit files

def test_a_bit_file_is_its_one_nonblank_line(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("\n0110\r\n\n")
    assert read_bits(str(path)) == "0110"
    assert parse_oracle(f"prefix:{path}").bits == "0110"
    path.write_text("01\n11\n")
    with pytest.raises(ValueError) as err:
        read_bits(str(path))
    assert str(err.value) == f"bit file '{path}', line 2: a second nonblank line"


# ------------------------------------------------------------------ cycle key

@pytest.mark.parametrize("descriptor", ["none", "zero", "halting:1000", "bits:0101"])
def test_cycle_detection_agrees_with_plain_runs(descriptor):
    oracle = parse_oracle(descriptor)
    for p in programs_up_to(20):
        checked, checked_asked = recorded_run(p, oracle, 2000, detect_cycles=True)
        plain, plain_asked = recorded_run(p, oracle, 2000)
        if checked.kind == "diverged":
            assert plain.kind == "budget", p.bits
            assert checked_asked == plain_asked, p.bits
            continue
        assert checked == plain, p.bits


# Loops are rare among uniform bodies (about 1 in 10^5 at 28-36 bits), so
# these bodies are built from instruction tokens weighted toward the ones
# loops are made of: counters, tests, backward jumps and oracle queries.
_LOOP_KINDS = ["DEC"] * 3 + ["JZ"] * 3 + ["INC"] * 2 + ["ORACLE"] * 2 + [
    "JMP", "EMIT0", "EMIT1", "EMITR"]


def _loop_token(kind, counter):
    reg = st.one_of(st.just(counter), st.integers(0, 3))
    if kind in ("INC", "DEC"):
        return reg.map(lambda r: (kind, r))
    if kind == "JZ":
        return st.tuples(st.just(kind), reg, st.integers(-8, 7))
    if kind == "JMP":
        return st.integers(-8, -1).map(lambda d: (kind, d))
    return st.just((kind,))


@st.composite
def loop_bodies(draw, counter=None, kinds=_LOOP_KINDS):
    """28-48 bits: a counter register (drawn unless given) set by 1-3
    INCs, a loop of tokens of the given kinds closed by a JMP or JZ back
    to its start, then more tokens.  A token cut at the end is a tail the
    parser drops, never a HALT."""
    if counter is None:
        counter = draw(st.integers(0, 3))
    token = st.sampled_from(kinds).flatmap(lambda kind: _loop_token(kind, counter))
    loop = draw(st.lists(token, min_size=1, max_size=4))
    back = -len(loop) - 1
    close = draw(st.one_of(st.just(("JMP", back)),
                           st.integers(0, 3).map(lambda r: ("JZ", r, back))))
    body = assemble([("INC", counter)] * draw(st.integers(1, 3)) + loop + [close])
    size = draw(st.integers(28, 48))
    while len(body) < size:
        body += assemble([draw(token)])
    return body[:size]


@pytest.mark.parametrize("descriptor", ["none", "zero", "halting:1000", "bits:0101"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=loop_bodies(), x=st.integers(0, 6))
def test_cycle_detection_agrees_with_plain_runs_on_loops(descriptor, body, x):
    oracle = parse_oracle(descriptor)
    p = Program.encode(body)
    checked, checked_asked = recorded_run(p, oracle, 2000, r2=x, detect_cycles=True)
    plain, plain_asked = recorded_run(p, oracle, 2000, r2=x)
    if checked.kind == "diverged":
        assert plain.kind == "budget"
        assert checked_asked == plain_asked
    else:
        assert checked == plain


def check_against_the_set_rule(p, oracle, budget, x=0):
    """run with cycle detection stops as the rule that keeps every key
    does, except that "diverged" may come later, up to brent_bound; return
    the reference's kind."""
    want, mu = set_rule_run(p, oracle, budget, r2=x)
    got = run(p, oracle, budget, r2=x, detect_cycles=True)
    if want.kind != "diverged":
        assert got == want, p.bits
        return want.kind
    bound = brent_bound(mu, want.steps)
    assert bound < budget, p.bits  # else the saved key could miss it
    assert got.kind == "diverged" and want.steps <= got.steps <= bound, (p.bits, mu)
    return want.kind


@pytest.mark.parametrize("descriptor", ["none", "zero", "halting:1000", "bits:0101"])
def test_one_saved_key_finds_the_cycles_the_key_set_finds(descriptor):
    oracle = parse_oracle(descriptor)
    kinds = [check_against_the_set_rule(p, oracle, 2000) for p in programs_up_to(20)]
    assert kinds.count("diverged") > 100


@pytest.mark.parametrize("descriptor", ["none", "zero", "halting:1000", "bits:0101"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=loop_bodies(), x=st.integers(0, 6))
def test_one_saved_key_finds_the_cycles_the_key_set_finds_on_loops(descriptor, body, x):
    check_against_the_set_rule(Program.encode(body), parse_oracle(descriptor), 2000, x)


# counts R2 down to 0 and then jumps to the "spin:" label that follows:
# from R2 = x >= 1 that is step mu = 3x - 1, after 3x - 1 distinct keys
# (pc, R2)
COUNTDOWN = ["loop:", ("DEC", 2), ("JZ", 2, "spin"), ("JMP", "loop")]
SPIN = assemble(COUNTDOWN + ["spin:", ("JMP", "spin")])


def cycle_body(mu_pad: int, lam: int) -> str:
    """COUNTDOWN with mu_pad EMIT0s before it, then a cycle of lam steps:
    lam - 1 EMIT0s and a JMP back for lam <= 8, and for lam = 4k - 1 (k
    <= 6) k INCs of R3 counted down again by a DEC/JZ/JMP loop."""
    if lam <= 8:
        cycle = ["spin:"] + [("EMIT0",)] * (lam - 1) + [("JMP", "spin")]
    else:
        k = (lam + 1) // 4
        assert 4 * k - 1 == lam and k <= 6
        cycle = (["spin:"] + [("INC", 3)] * k
                 + ["down:", ("DEC", 3), ("JZ", 3, "spin"), ("JMP", "down")])
    return assemble([("EMIT0",)] * mu_pad + COUNTDOWN + cycle)


def test_a_cycle_after_more_than_65536_keys_is_found():
    # the run meets 299,999 distinct keys before its spin, so a key set
    # capped at 65,536 keys would miss the cycle and run to the budget
    out = run_body(SPIN, None, 10 ** 6, r2=100000, detect_cycles=True)
    assert out.kind == "diverged" and out.steps == 524288 == brent_bound(299999, 300000)


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 11, 15, 23])
def test_each_cycle_is_found_by_its_bound(lam):
    for x in (1, 2, 5, 11, 30, 200):
        for pad in (0, 1, 2):
            p, mu = Program.encode(cycle_body(pad, lam)), pad + 3 * x - 1
            want, want_mu = set_rule_run(p, None, 10 ** 4, r2=x)
            assert (want.kind, want_mu, want.steps) == ("diverged", mu, mu + lam)
            out = run(p, None, 10 ** 4, r2=x, detect_cycles=True)
            assert out.kind == "diverged", (lam, x, pad)
            assert mu + lam <= out.steps <= brent_bound(mu, mu + lam), (lam, x, pad)


def test_a_run_looking_for_cycles_keeps_no_key_set():
    # 59,999 distinct keys before the spin.  A set of every key met takes
    # about 100 bytes a key and peaks at 6.1 MB on this run; one saved key
    # peaks at 344 bytes.  64 kB leaves room for the interpreter's own
    # allocations and is less than 700 keys' worth of a set.
    p = Program.encode(SPIN)
    tracemalloc.start()
    try:
        out = run(p, None, 10 ** 6, r2=20000, detect_cycles=True)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert out.kind == "diverged" and out.steps == 65536


# 3 INCs, 3 laps of JZ/DEC/EMIT1/JMP, the JZ that leaves the loop and the
# HALT: 17 steps, so a budget of 17 is the least at which it halts
COUNTED_LOOP = assemble([("INC", 0)] * 3 + [
    "top:", ("JZ", 0, "end"), ("DEC", 0), ("EMIT1",), ("JMP", "top"), "end:", ("HALT",)])


@pytest.mark.parametrize("detect_cycles", [False, True])
def test_run_halts_at_exactly_its_step_count(detect_cycles):
    out = run_body(COUNTED_LOOP, None, 17, detect_cycles=detect_cycles)
    assert out.kind == "halted" and out.steps == 17 and out.output == "111"
    out = run_body(COUNTED_LOOP, None, 16, detect_cycles=detect_cycles)
    assert out.kind == "budget" and out.steps == 16


@pytest.mark.parametrize("reg", range(4))
def test_growing_untested_register_diverges_on_second_lap(reg):
    out = run_body(assemble([("INC", reg), ("JMP", -2)]), None, 10 ** 6,
                   detect_cycles=True)
    assert out.kind == "diverged" and out.steps <= 3


def test_oracle_loop_aborts_rather_than_diverging():
    body = assemble([("INC", 0), ("ORACLE",), ("JMP", -3)])
    assert tv.parse_body(body).key_regs == (0,)
    out, asked = recorded_run(Program.encode(body), parse_oracle("bits:0101"), 10 ** 6,
                              detect_cycles=True)
    assert out.kind == "aborted" and asked == frozenset({1, 2, 3})


def test_loop_testing_growing_register_is_not_flagged():
    body = assemble(["top:", ("INC", 1), ("JZ", 1, "top"), ("JMP", "top")])
    assert tv.parse_body(body).key_regs == (1,)
    out = run_body(body, None, 5000, detect_cycles=True)
    assert out.kind == "budget" and out.steps == 5000


def test_counted_loop_halts_with_exact_steps():
    body = assemble(["top:", ("JZ", 2, "end"), ("DEC", 2), ("INC", 1),
                     ("JMP", "top"), "end:", ("EMIT1",)])
    assert tv.parse_body(body).key_regs == (2,)
    for x in (0, 1, 5, 300):
        out = run_body(body, None, 10 ** 4, r2=x, detect_cycles=True)
        assert out.kind == "halted" and out.output == "1"
        assert out.steps == 4 * x + 2


def test_resolved_diagonal_entries_release_run_state():
    # an entry is (stage, phi's Outcome) and keeps no MachineState
    for e in (0, body_index(DIVERGE_BODY), body_index(assemble([("INC", 1), ("JMP", -2)]))):
        diagonal(e, 100)
        stage, out = tv.MEMO.diagonal[e]
        assert stage == 100 and out == phi(e, e, ZERO, 100)
        assert out.kind in ("halted", "diverged")
        assert not any(isinstance(field, tv.MachineState) for field in out)
    # a run cut off at stage 100 is run again at 2000, where it halts
    e = body_index(assemble([("INC", 0)] * 150))
    assert diagonal(e, 100) == (False, None, None)
    assert tv.MEMO.diagonal[e] == (100, phi(e, e, ZERO, 100))
    assert tv.MEMO.diagonal[e][1].kind == "budget"
    assert diagonal(e, 2000) == (True, 0, 150)
    assert tv.MEMO.diagonal[e] == (2000, phi(e, e, ZERO, 2000))


def test_assemble_disassemble():
    body = assemble(["top:", ("JZ", 2, "end"), ("DEC", 2), ("INC", 0),
                     ("JMP", "top"), "end:", ("ORACLE",)])
    assert disassemble(body) == ["JZ R2, +3", "DEC R2", "INC R0", "JMP -4", "ORACLE"]


@pytest.mark.parametrize("items", [
    [("INC", 5), ("EMIT1",)],
    [("DEC", -1)],
    [("JZ", 4, 1)],
    [("EMIT0",), ("JZ", 7, "end"), "end:"],
])
def test_assemble_rejects_registers_outside_r0_to_r3(items):
    with pytest.raises(ValueError, match="register"):
        assemble(items)


@pytest.mark.parametrize("items,message", [
    ([("JMP", 8)], "offset 8 out of range at 0"),
    ([("INC", 0), ("JZ", 1, -9)], "offset -9 out of range at 1"),
    (["top:"] + [("EMIT1",)] * 8 + [("JMP", "top")], "offset -9 out of range at 8"),
])
def test_assemble_rejects_offsets_outside_4_signed_bits(items, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble(items)


# ------------------------------------------------------------------ phi

def test_phi_empty_body_ignores_input():
    assert phi(0, 7, ZERO, 10).value == 0


def test_phi_inc_r3():
    assert phi(body_index("010011"), 123, ZERO, 10).value == 1


PHI_STOPS = {
    "halted": ([("INC", 3), ("INC", 3), ("INC", 3), ("HALT",)], ZERO, "halted", 3),
    "diverged": ([("INC", 3), ("JMP", -1)], ZERO, "diverged", None),
    "aborted": ([("INC", 3), ("ORACLE",)], None, "aborted", None),
    "budget": ([("INC", 3), "top:", ("INC", 1), ("JZ", 1, "top"), ("JMP", "top")], ZERO,
               "budget", None),
}


@pytest.mark.parametrize("name", PHI_STOPS)
def test_phi_value_is_r3_on_halting_only(name):
    # R3 is 1 or more on every stop; only a halt reports it
    items, oracle, kind, value = PHI_STOPS[name]
    body = assemble(items)
    res = phi(body_index(body), 0, oracle, 100)
    assert (res.kind, res.halted, res.value) == (kind, kind == "halted", value)
    assert res == run_body(body, oracle, 100, detect_cycles=True)


def test_phi_halting_answers_never_flip():
    # two-budget comparison over the first 2^10 diagonal runs
    lo, hi = 10 ** 3, 10 ** 4
    for e in range(1 << 10):
        first = phi(e, e, ZERO, lo)
        second = phi(e, e, ZERO, hi)
        if first.halted:
            assert second.halted
            assert second.value == first.value


def test_diagonal_matches_phi_and_is_monotone():
    # stage 0 first, on a cold memo: a body that halts in 0 steps counts
    for e in (0, 1, 5, 81, 382, 1000):
        for stage in (0, 1, 2000):
            halts, value, step = diagonal(e, stage)
            direct = phi(e, e, ZERO, stage)
            assert halts == direct.halted
            if halts:
                assert value == direct.value and step <= stage


def test_halting_oracle_monotone():
    lo, hi = HaltingOracle(100), HaltingOracle(5000)
    for e in range(200):
        if lo.answer(e):
            assert hi.answer(e)


# ------------------------------------------------------------------ smn

def test_smn_zero_parameter_is_identity():
    for e in (0, 1, 2, 81, 382):
        assert smn(e, 0) == e


def test_smn_prepends_inc_r1():
    e = body_index("010011")
    assert index_to_body(smn(e, 3)) == "010001" * 3 + "010011"


def test_smn_semantics_random_triples():
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 20:
        e = rng.randrange(0, 2000)
        y = rng.randrange(0, 5)
        x = rng.randrange(0, 6)
        body = index_to_body(e)
        if not jumps_confined(body):
            continue
        direct = run_body(body, ZERO, 500, r1=y, r2=x)
        via = phi(smn(e, y), x, ZERO, 500 + y)
        if direct.kind != "halted":
            continue
        assert via.halted
        assert via.output == direct.output
        # prologue adds exactly y steps: the linear overhead contract
        assert via.steps == direct.steps + y
        checked += 1


def test_smn_rejects_escaping_jumps():
    body = assemble([("JMP", -5)])
    with pytest.raises(EscapingJumpError):
        smn(body_index(body), 2)


# ------------------------------------------------------------------ fixed points

def test_fixed_point_identity():
    assert fixed_point(lambda x: x) == 0


def test_fixed_point_emit_own_index():
    e_star = fixed_point(compile_const)
    assert compile_const(e_star) == e_star
    for x in (0, 1, 7):
        assert phi(e_star, x, ZERO, 10 ** 5).value == e_star


def test_fixed_point_constant_transformer():
    target = compile_const(5)
    e = fixed_point(lambda x: target)
    assert e == target
    assert phi(e, 0, ZERO, 10 ** 4).value == 5


def test_fixed_point_rejects_a_transformer_that_moves_its_candidate():
    # bodies "0" and "1" (indices 1 and 2) both parse to the empty body, so
    # index 1 behaves like its image 2; that is not transformer(e) == e
    with pytest.raises(FixedPointError):
        fixed_point(lambda x: x + 1)


def test_compile_const_values():
    for v in (0, 1, 2, 8, 9, 100, 2551):
        e = compile_const(v)
        assert index_to_body(e) == "010011" * v
        assert phi(e, 0, ZERO, 10 ** 6).value == v
