import pytest
from hypothesis import given
from hypothesis import strategies as st

from depthlab import toyvm as tv
from depthlab.toyvm import (
    DIVERGE_BODY,
    EscapingJumpError,
    HaltingOracle,
    PrefixOracle,
    Program,
    ZERO,
    assemble,
    body_index,
    compile_const,
    diagonal,
    disassemble,
    fixed_point,
    gamma_encode,
    index_to_body,
    parse_oracle,
    phi,
    programs_up_to,
    run,
    run_body,
    smn,
    strings_of_length,
)

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
    table = "0101"
    for p in programs_up_to(14):
        base = run(p, PrefixOracle(table), 40)
        queried = base.queried
        for i in range(len(table)):
            if i in queried:
                continue
            flipped = table[:i] + ("1" if table[i] == "0" else "0") + table[i + 1:]
            other = run(p, PrefixOracle(flipped), 40)
            assert other.kind == base.kind
            if base.kind == "halted":
                assert other.output == base.output and other.steps == base.steps


def test_out_of_table_aborts():
    body = assemble([("INC", 0), ("INC", 0), ("ORACLE",)])
    out = run_body(body, PrefixOracle("01"), 20)
    assert out.kind == "aborted" and out.reason == "out-of-table"


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


# ------------------------------------------------------------------ cycle key

@pytest.mark.parametrize("descriptor", ["none", "zero", "halting:1000", "bits:0101"])
def test_cycle_detection_agrees_with_plain_runs(descriptor):
    oracle = parse_oracle(descriptor)
    for p in programs_up_to(20):
        checked = run(p, oracle, 2000, detect_cycles=True)
        plain = run(p, oracle, 2000)
        if checked.kind == "diverged":
            assert plain.kind == "budget", p.bits
            assert checked.queried == plain.queried, p.bits
            continue
        assert checked == plain, p.bits


@pytest.mark.parametrize("reg", range(4))
def test_growing_untested_register_diverges_on_first_lap(reg):
    out = run_body(assemble([("INC", reg), ("JMP", -2)]), None, 10 ** 6,
                   detect_cycles=True)
    assert out.kind == "diverged" and out.steps <= 3


def test_oracle_loop_aborts_rather_than_diverging():
    body = assemble([("INC", 0), ("ORACLE",), ("JMP", -3)])
    assert tv.parse_body(body).key_regs == (0,)
    out = run_body(body, parse_oracle("bits:0101"), 10 ** 6, detect_cycles=True)
    assert out.kind == "aborted" and out.reason == "out-of-table"
    assert out.queried == frozenset({1, 2, 3})


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
    for e in (0, body_index(DIVERGE_BODY), body_index(assemble([("INC", 1), ("JMP", -2)]))):
        diagonal(e, 100)
        ent = tv.MEMO.diagonal[e]
        assert ent["status"] in ("halted", "diverged")
        assert "state" not in ent and "instrs" not in ent
    e = body_index(assemble(["top:", ("INC", 1), ("JZ", 1, "top"), ("JMP", "top")]))
    assert diagonal(e, 100) == (False, None, None)
    live = tv.MEMO.diagonal[e]
    assert live["status"] == "running" and live["state"].steps == 100


def test_assemble_disassemble():
    body = assemble(["top:", ("JZ", 2, "end"), ("DEC", 2), ("INC", 0),
                     ("JMP", "top"), "end:", ("ORACLE",)])
    assert disassemble(body) == ["JZ R2, +3", "DEC R2", "INC R0", "JMP -4", "ORACLE"]


# ------------------------------------------------------------------ phi

def test_phi_empty_body_ignores_input():
    assert phi(0, 7, ZERO, 10).value == 0


def test_phi_inc_r3():
    assert phi(body_index("010011"), 123, ZERO, 10).value == 1


def test_phi_halting_answers_never_flip():
    # two-budget comparison over the first 2^10 diagonal runs
    lo, hi = 10 ** 3, 10 ** 4
    for e in range(1 << 10):
        first = phi(e, e, ZERO, lo, detect_cycles=True)
        second = phi(e, e, ZERO, hi, detect_cycles=True)
        if first.halted:
            assert second.halted
            assert second.value == first.value


def test_diagonal_matches_phi_and_is_monotone():
    # stage 0 first, on a cold memo: a body that halts in 0 steps counts
    for e in (0, 1, 5, 81, 382, 1000):
        for stage in (0, 1, 2000):
            halts, value, step = diagonal(e, stage)
            direct = phi(e, e, ZERO, stage, detect_cycles=True)
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
        if not tv.jumps_confined(body):
            continue
        direct = run_body(body, ZERO, 500, r1=y, r2=x)
        via = phi(smn(e, y), x, ZERO, 500 + y)
        if direct.kind != "halted":
            continue
        assert via.halted
        assert via.outcome.output == direct.output
        # prologue adds exactly y steps: the linear overhead contract
        assert via.outcome.steps == direct.steps + y
        checked += 1


def test_smn_rejects_escaping_jumps():
    body = assemble([("JMP", -5)])
    with pytest.raises(EscapingJumpError):
        smn(body_index(body), 2)


# ------------------------------------------------------------------ fixed points

def test_fixed_point_identity():
    e = fixed_point(lambda x: x)
    for x in (0, 1, 2, 3, 9):
        assert phi(e, x, ZERO, 1000).outcome == phi(e, x, ZERO, 1000).outcome


def test_fixed_point_emit_own_index():
    e_star = fixed_point(compile_const)
    for x in (0, 1, 7):
        assert phi(e_star, x, ZERO, 10 ** 5).value == e_star


def test_fixed_point_constant_transformer():
    target = compile_const(5)
    e = fixed_point(lambda x: target)
    assert phi(e, 0, ZERO, 10 ** 4).value == 5


def test_compile_const_values():
    for v in (0, 1, 2, 8, 9, 100, 2551):
        assert phi(compile_const(v), 0, ZERO, 10 ** 6).value == v
