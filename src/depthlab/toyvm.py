"""The pinned prefix-free oracle register machine.

Everything in this package runs on the single concrete machine defined
here.  Complexity values, semimeasure masses and builder traces are all
bit-exact consequences of the conventions below, so the conventions are
spelled out once and never varied.

Program format
    program = header . body
    header  = Elias-gamma code of (|body| + 1)

    gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100", ...
    so the empty body is the one-bit program "1" and a body of n bits costs
    |gamma(n+1)| + n bits in total.  Distinct gamma codewords are mutually
    prefix-incomparable, hence the set of all well-formed programs is
    prefix-free.

Opcode table (4-bit opcodes, big-endian bit order)
    0000        HALT
    0001        EMIT0      append "0" to the output
    0010        EMIT1      append "1" to the output
    0011        DOUBLE     output <- output.output
    0100 rr     INC r      (registers R0..R3, unbounded nonnegative)
    0101 rr     DEC r      (floor at 0)
    0110 rr dddd JZ r,off  (signed 4-bit offset, relative to the next opcode)
    0111 dddd   JMP off
    1000        ORACLE     R1 <- oracle bit at index R0; costs 1 step
    1001        EMITR      append R1 mod 2
    1010-1111   reserved; executing one halts

Execution conventions
    * The body is parsed front to back into whole instructions; a truncated
      trailing instruction is dropped.
    * The program counter indexes instructions.  Leaving the instruction
      range in any direction (falling off the end, a jump before the start
      or past the end, HALT, a reserved opcode) halts with the current
      output.  Halting by leaving the range is free; executed instructions
      cost exactly 1 step each, ORACLE included.
    * A run is a pure function of (program, oracle, budget).  If it halts
      within the budget, it halts identically under every larger budget.

Cycle detection
    A run asked to look for cycles keys each step by the program counter
    and the body's control registers: every register some JZ tests, plus
    R0 when the body contains an ORACLE.  The other registers cannot
    influence what the run does next.  INC and DEC change only their own
    register, JZ reads only a key register, ORACLE writes R1 from the
    answer at index R0 (a key register), and halting depends only on the
    program counter.  So the key's next value is a function of its current
    value, and once a key repeats the run repeats the same cycle forever:
    it never halts, never aborts and asks no oracle index it has not asked
    already.  Such a run is reported as Diverged.  A loop that only grows
    an untested register, such as INC R1; JMP -2, is caught on its first
    lap.  A loop whose tested register keeps growing never repeats a key
    and runs to the budget.

Program indices
    Bodies are ranked in length-lexicographic order: the empty body is 0,
    "0" is 1, "1" is 2, "00" is 3, and so on; body_index/index_to_body
    convert both ways.  phi(e, x) runs body e with R2 initialised to x and,
    on halting, returns the final value of R3.  The diagonal phi_e(e) is
    always evaluated against the all-zero oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter


class MachineError(Exception):
    """Base class for machine-level failures."""


class DecodeError(MachineError):
    """Bits do not form a single well-formed program."""


class OutOfTableError(MachineError):
    """A prefix-table oracle was queried beyond its table."""


class EscapingJumpError(MachineError):
    """A body contains a jump that escapes the body."""


class FixedPointError(MachineError):
    """No semantic fixed point was found within the search bounds."""


# --------------------------------------------------------------------------
# bit strings and integer codings


def check_bits(bits: str) -> str:
    if bits.strip("01") != "":
        raise ValueError(f"not a 0/1 string: {bits!r}")
    return bits


def bits_to_hex(bits: str) -> str:
    """Compact "length:hex" form used in CSV and JSON artifacts."""
    check_bits(bits)
    return f"{len(bits)}:{int(bits, 2):x}" if bits else "0:0"


def hex_to_bits(text: str) -> str:
    length, _, hexval = text.partition(":")
    n = int(length)
    if n == 0:
        return ""
    return format(int(hexval, 16), "b").zfill(n)


def int_to_bin(n: int) -> str:
    """Binary expansion without leading zeros; 0 maps to the empty string."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return "" if n == 0 else format(n, "b")


def body_index(body: str) -> int:
    """Length-lexicographic rank of a body among all finite 0/1 strings."""
    check_bits(body)
    return (1 << len(body)) - 1 + (int(body, 2) if body else 0)


def index_to_body(e: int) -> str:
    if e < 0:
        raise ValueError("index must be nonnegative")
    length = (e + 1).bit_length() - 1
    offset = e - ((1 << length) - 1)
    return format(offset, "b").zfill(length) if length else ""


def strings_of_length(n: int):
    """The 2^n strings of n bits, in lexicographic order."""
    if n == 0:
        return iter(("",))
    return (format(v, "b").zfill(n) for v in range(1 << n))


# --------------------------------------------------------------------------
# Elias-gamma header


def gamma_encode(m: int) -> str:
    if m < 1:
        raise ValueError("gamma code is defined for m >= 1")
    b = format(m, "b")
    return "0" * (len(b) - 1) + b


def gamma_decode(bits: str) -> tuple[int, int]:
    """Return (value, bits consumed); raise DecodeError on malformed input."""
    z = 0
    while z < len(bits) and bits[z] == "0":
        z += 1
    if z == len(bits) or len(bits) < 2 * z + 1:
        raise DecodeError("truncated gamma code")
    return int(bits[z : 2 * z + 1], 2), 2 * z + 1


# --------------------------------------------------------------------------
# opcodes and instruction parsing

OP_HALT = 0
OP_EMIT0 = 1
OP_EMIT1 = 2
OP_DOUBLE = 3
OP_INC = 4
OP_DEC = 5
OP_JZ = 6
OP_JMP = 7
OP_ORACLE = 8
OP_EMITR = 9

_MNEMONIC = {
    "HALT": OP_HALT,
    "EMIT0": OP_EMIT0,
    "EMIT1": OP_EMIT1,
    "DOUBLE": OP_DOUBLE,
    "INC": OP_INC,
    "DEC": OP_DEC,
    "JZ": OP_JZ,
    "JMP": OP_JMP,
    "ORACLE": OP_ORACLE,
    "EMITR": OP_EMITR,
}
_NAME = {v: k for k, v in _MNEMONIC.items()}


def _signed4(bits: str) -> int:
    v = int(bits, 2)
    return v - 16 if v >= 8 else v


class Instructions(tuple):
    """A parsed body: a tuple of (opcode, register, offset) triples.

    `key_regs` lists, ascending, the control registers: every JZ-tested
    register, plus R0 when the body has an ORACLE.  `project` reads them
    from a register file, or is None when there are none.  Both are class
    attributes: parse_body picks one of sixteen subclasses, one per set of
    control registers, so they are found once per parse and a parsed body
    costs no more memory than a plain tuple.
    """

    __slots__ = ()
    key_regs: tuple[int, ...] = ()
    project: itemgetter | None = None


def _instructions_class(mask: int) -> type:
    regs = tuple(r for r in range(4) if mask >> r & 1)
    return type("Instructions", (Instructions,), {
        "__slots__": (), "key_regs": regs,
        "project": itemgetter(*regs) if regs else None})


_INSTRUCTIONS_BY_MASK = tuple(_instructions_class(mask) for mask in range(16))


def parse_body(body: str) -> Instructions:
    """Decode a body into (opcode, register, offset) triples.

    Incomplete trailing bits are dropped; reserved opcodes are kept and
    halt at execution time.
    """
    out = []
    mask = 0  # bit r set when Rr is a control register
    i, n = 0, len(body)
    while i + 4 <= n:
        op = int(body[i : i + 4], 2)
        i += 4
        if op in (OP_INC, OP_DEC):
            if i + 2 > n:
                break
            out.append((op, int(body[i : i + 2], 2), 0))
            i += 2
        elif op == OP_JZ:
            if i + 6 > n:
                break
            reg = int(body[i : i + 2], 2)
            out.append((op, reg, _signed4(body[i + 2 : i + 6])))
            mask |= 1 << reg
            i += 6
        elif op == OP_JMP:
            if i + 4 > n:
                break
            out.append((op, 0, _signed4(body[i : i + 4])))
            i += 4
        else:
            out.append((op, 0, 0))
            if op == OP_ORACLE:
                mask |= 1
    return _INSTRUCTIONS_BY_MASK[mask](out)


def assemble(items: list) -> str:
    """Assemble ("MNEMONIC", args...) tuples into a body string.

    A bare string ending in ":" defines a label; jump targets may be given
    as label names instead of numeric offsets.  Offsets are encoded
    relative to the next instruction and must fit in 4 signed bits.
    """
    labels: dict[str, int] = {}
    instrs = []
    for item in items:
        if isinstance(item, str):
            if not item.endswith(":"):
                raise ValueError(f"bad assembly item {item!r}")
            labels[item[:-1]] = len(instrs)
        else:
            instrs.append(item)
    pieces = []
    for idx, ins in enumerate(instrs):
        name = ins[0]
        op = _MNEMONIC[name]
        pieces.append(format(op, "04b"))
        if op in (OP_INC, OP_DEC):
            pieces.append(format(ins[1], "02b"))
        elif op == OP_JZ:
            pieces.append(format(ins[1], "02b"))
            target = ins[2]
            off = (labels[target] - idx - 1) if isinstance(target, str) else target
            if not -8 <= off <= 7:
                raise ValueError(f"offset {off} out of range at {idx}")
            pieces.append(format(off & 0xF, "04b"))
        elif op == OP_JMP:
            target = ins[1]
            off = (labels[target] - idx - 1) if isinstance(target, str) else target
            if not -8 <= off <= 7:
                raise ValueError(f"offset {off} out of range at {idx}")
            pieces.append(format(off & 0xF, "04b"))
    return "".join(pieces)


def disassemble(body: str) -> list[str]:
    lines = []
    for op, a, d in parse_body(body):
        if op in (OP_INC, OP_DEC):
            lines.append(f"{_NAME[op]} R{a}")
        elif op == OP_JZ:
            lines.append(f"JZ R{a}, {d:+d}")
        elif op == OP_JMP:
            lines.append(f"JMP {d:+d}")
        elif op in _NAME:
            lines.append(_NAME[op])
        else:
            lines.append(f"RES{op:04b}")
    return lines


def jumps_confined(body: str) -> bool:
    """True when every jump target lands inside [0, #instructions]."""
    instrs = parse_body(body)
    n = len(instrs)
    for i, (op, _a, d) in enumerate(instrs):
        if op in (OP_JZ, OP_JMP) and not 0 <= i + 1 + d <= n:
            return False
    return True


# --------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class Program:
    """A self-delimiting machine program: gamma header plus raw body."""

    bits: str
    body: str

    @classmethod
    def encode(cls, body: str) -> "Program":
        check_bits(body)
        return cls(gamma_encode(len(body) + 1) + body, body)

    @classmethod
    def decode(cls, bits: str) -> "Program":
        check_bits(bits)
        m, used = gamma_decode(bits)
        n = m - 1
        if len(bits) != used + n:
            raise DecodeError("length mismatch between header and body")
        return cls(bits, bits[used:])

    @classmethod
    def from_index(cls, e: int) -> "Program":
        return cls.encode(index_to_body(e))

    @property
    def index(self) -> int:
        return body_index(self.body)

    def __len__(self) -> int:
        return len(self.bits)

    def instructions(self) -> Instructions:
        return parse_body(self.body)


def program_length(body_len: int) -> int:
    return len(gamma_encode(body_len + 1)) + body_len


def programs_up_to(cap: int) -> list[Program]:
    """All well-formed programs of at most cap bits, shortest first then
    lexicographic (the canonical witness search order)."""
    out = []
    n = 0
    while program_length(n) <= cap:
        out.extend(map(Program.encode, strings_of_length(n)))
        n += 1
    return out


# --------------------------------------------------------------------------
# oracles


class Oracle:
    """A total 0/1 answer source for ORACLE queries."""

    key: tuple

    def answer(self, index: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class PrefixOracle(Oracle):
    """File- or string-backed finite bit table; queries beyond it abort."""

    def __init__(self, bits: str):
        check_bits(bits)
        self.bits = bits
        self.key = ("prefix", bits)

    def answer(self, index: int) -> int:
        if 0 <= index < len(self.bits):
            return self.bits[index] == "1" and 1 or 0
        raise OutOfTableError(f"query at {index} beyond table of {len(self.bits)}")

    @classmethod
    def from_file(cls, path) -> "PrefixOracle":
        with open(path, "r", encoding="ascii") as fh:
            return cls(fh.readline().strip())


class ZeroOracle(Oracle):
    """The all-zero rule."""

    def __init__(self):
        self.key = ("zero",)

    def answer(self, index: int) -> int:
        return 0


ZERO = ZeroOracle()


class HaltingOracle(Oracle):
    """Stage-bounded diagonal halting oracle: bit e is 1 iff phi_e(e) halts
    within `stage` steps (diagonal runs use the all-zero oracle)."""

    def __init__(self, stage: int):
        if stage < 0:
            raise ValueError("stage must be nonnegative")
        self.stage = stage
        self.key = ("halting", stage)

    def answer(self, index: int) -> int:
        return 1 if diagonal_halts(index, self.stage) else 0


def parse_oracle(text: str | None):
    """Oracle descriptors used by the command line and config files:
    "none", "zero", "halting:S", "prefix:<path>", "bits:0101..."."""
    if text is None or text == "none":
        return None
    if text == "zero":
        return ZERO
    kind, _, arg = text.partition(":")
    if kind == "halting":
        return HaltingOracle(int(arg))
    if kind == "prefix":
        return PrefixOracle.from_file(arg)
    if kind == "bits":
        return PrefixOracle(arg)
    raise ValueError(f"unknown oracle descriptor {text!r}")


def oracle_key(oracle) -> tuple:
    return ("none",) if oracle is None else oracle.key


# --------------------------------------------------------------------------
# output ropes
#
# DOUBLE makes outputs grow geometrically, so the output is kept as a
# shared binary tree: leaf (1, bit, None, None), node (len, None, l, r).
# Materialisation is always bounded by an explicit limit.


def rope_len(node) -> int:
    return 0 if node is None else node[0]


def rope_materialize(node, limit: int):
    """The full output as a string, or None when longer than limit."""
    if node is None:
        return ""
    if node[0] > limit:
        return None
    out: list[str] = []
    stack = [node]
    while stack:
        ln, bit, left, right = stack.pop()
        if bit is not None:
            out.append("1" if bit else "0")
        else:
            stack.append(right)
            stack.append(left)
    return "".join(out)


def rope_prefix(node, k: int) -> str:
    """First min(k, len) bits of the output."""
    out: list[str] = []
    stack = [node] if node is not None else []
    while stack and len(out) < k:
        ln, bit, left, right = stack.pop()
        if bit is not None:
            out.append("1" if bit else "0")
        elif ln <= k - len(out):
            s = rope_materialize((ln, bit, left, right), ln)
            out.append(s)
        else:
            stack.append(right)
            stack.append(left)
    return "".join(out)[:k]


def rope_equals(node, target: str) -> bool:
    if rope_len(node) != len(target):
        return False
    return rope_materialize(node, len(target)) == target


# --------------------------------------------------------------------------
# run outcomes


@dataclass(frozen=True)
class Halted:
    steps: int
    rope: tuple | None
    output_length: int
    queried: frozenset = frozenset()

    kind = "halted"

    @property
    def output(self) -> str:
        s = rope_materialize(self.rope, 1 << 20)
        if s is None:
            raise MachineError("output too large to materialise")
        return s


@dataclass(frozen=True)
class BudgetExceeded:
    steps: int
    queried: frozenset = frozenset()

    kind = "budget"


@dataclass(frozen=True)
class Aborted:
    reason: str
    steps: int
    queried: frozenset = frozenset()

    kind = "aborted"


@dataclass(frozen=True)
class Diverged:
    """Provable non-termination: the program counter and the control
    registers (see the module docstring) took the same values twice.  Only
    produced when a run is asked to look for cycles."""

    steps: int
    queried: frozenset = frozenset()

    kind = "diverged"


@dataclass
class MachineState:
    """Resumable snapshot of a run in progress."""

    pc: int = 0
    regs: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    steps: int = 0
    rope: tuple | None = None
    output_length: int = 0
    queried: set = field(default_factory=set)
    seen: set | None = None


def _advance(instrs, oracle, budget: int, st: MachineState, detect_cycles: bool):
    """Run until halt/abort/divergence or until steps reach budget.

    Returns an outcome, or None when the budget ran out with the state
    still live (st then holds the resume point).  With detect_cycles the
    keys seen so far are kept in st.seen, projected onto the control
    registers of instrs (see the module docstring).
    """
    pc = st.pc
    r = st.regs
    steps = st.steps
    rope = st.rope
    out_len = st.output_length
    queried = st.queried
    seen = st.seen
    project = instrs.project
    n = len(instrs)
    while True:
        if not 0 <= pc < n:
            st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
            return Halted(steps, rope, out_len, frozenset(queried))
        if steps >= budget:
            st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
            return None
        if detect_cycles:
            key = (pc, project(r)) if project else pc
            if seen is None:
                seen = st.seen = set()
            if key in seen:
                st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
                return Diverged(steps, frozenset(queried))
            if len(seen) < 1 << 16:
                seen.add(key)
        op, a, d = instrs[pc]
        steps += 1
        if op == OP_EMIT0:
            leaf = (1, 0, None, None)
            rope = leaf if rope is None else (out_len + 1, None, rope, leaf)
            out_len += 1
            pc += 1
        elif op == OP_EMIT1:
            leaf = (1, 1, None, None)
            rope = leaf if rope is None else (out_len + 1, None, rope, leaf)
            out_len += 1
            pc += 1
        elif op == OP_DOUBLE:
            if rope is not None:
                rope = (out_len * 2, None, rope, rope)
                out_len *= 2
            pc += 1
        elif op == OP_INC:
            r[a] += 1
            pc += 1
        elif op == OP_DEC:
            if r[a]:
                r[a] -= 1
            pc += 1
        elif op == OP_JZ:
            pc = pc + 1 + d if r[a] == 0 else pc + 1
        elif op == OP_JMP:
            pc = pc + 1 + d
        elif op == OP_ORACLE:
            if oracle is None:
                st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
                return Aborted("oracle-query-without-oracle", steps, frozenset(queried))
            try:
                bit = oracle.answer(r[0])
            except OutOfTableError:
                st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
                return Aborted("out-of-table", steps, frozenset(queried))
            queried.add(r[0])
            r[1] = bit
            pc += 1
        elif op == OP_EMITR:
            leaf = (1, r[1] & 1, None, None)
            rope = leaf if rope is None else (out_len + 1, None, rope, leaf)
            out_len += 1
            pc += 1
        else:
            st.pc, st.steps, st.rope, st.output_length = pc, steps, rope, out_len
            return Halted(steps, rope, out_len, frozenset(queried))


def run(program: Program, oracle, budget: int, r1: int = 0, r2: int = 0,
        detect_cycles: bool = False):
    """Execute a program: Halted(output, steps), BudgetExceeded(budget) or
    Aborted(reason).  Deterministic in (program, oracle, budget)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    st = MachineState(regs=[0, r1, r2, 0])
    outcome = _advance(program.instructions(), oracle, budget, st, detect_cycles)
    if outcome is None:
        return BudgetExceeded(st.steps, frozenset(st.queried))
    return outcome


def run_body(body: str, oracle, budget: int, **kw):
    return run(Program.encode(body), oracle, budget, **kw)


# --------------------------------------------------------------------------
# the memo scope


class Memo:
    """Every result kept from one call to the next, in one place.

    Each field maps a key to what the pinned machine computes for it (a
    diagonal entry is a run resumed as far as it was asked), so clearing
    them changes no answer, only what must be recomputed:

    parsed      body index -> Instructions, for phi
    diagonal    index e -> entry of the diagonal run phi_e(e)
    tables      (oracle key, cap) -> complexity.HaltingTable
    evaluators  (budget, cap, depth) -> semimeasure.PrefixMassEvaluator
    """

    def __init__(self):
        self.parsed: dict = {}
        self.diagonal: dict = {}
        self.tables: dict = {}
        self.evaluators: dict = {}

    def reset(self) -> None:
        for memo in vars(self).values():
            memo.clear()


MEMO = Memo()


# --------------------------------------------------------------------------
# the program enumeration phi


@dataclass(frozen=True)
class PhiResult:
    outcome: object
    value: int | None

    @property
    def halted(self) -> bool:
        return self.outcome.kind == "halted"


def phi(e: int, x: int, oracle, budget: int, detect_cycles: bool = False) -> PhiResult:
    """Run body e with R2 = x; on halting the value is the final R3."""
    if e < 0:
        raise ValueError("index must be nonnegative")
    instrs = MEMO.parsed.get(e)
    if instrs is None:
        instrs = MEMO.parsed[e] = parse_body(index_to_body(e))
    st = MachineState(regs=[0, 0, x, 0])
    outcome = _advance(instrs, oracle, budget, st, detect_cycles)
    if outcome is None:
        outcome = BudgetExceeded(st.steps, frozenset(st.queried))
    value = st.regs[3] if outcome.kind == "halted" else None
    return PhiResult(outcome, value)


def diagonal(e: int, stage: int) -> tuple[bool, int | None, int | None]:
    """(halts within stage, value, halting step) for phi_e(e) under the
    zero oracle.  The run is resumed from MEMO.diagonal[e]; a running
    entry holds its parsed body and MachineState, and drops both when the
    run resolves."""
    ent = MEMO.diagonal.get(e)
    if ent is None:
        ent = MEMO.diagonal[e] = {
            "status": "running",
            "state": MachineState(regs=[0, 0, e, 0]),
            "instrs": parse_body(index_to_body(e)),
            "budget": -1,  # not yet run, so even stage 0 runs it
        }
    if ent["status"] == "running" and ent["budget"] < stage:
        outcome = _advance(ent["instrs"], ZERO, stage, ent["state"], True)
        ent["budget"] = stage
        if outcome is not None:
            state = ent.pop("state")
            del ent["instrs"]
            if outcome.kind == "halted":
                ent["status"] = "halted"
                ent["step"] = outcome.steps
                ent["value"] = state.regs[3]
            else:
                ent["status"] = "diverged"
    if ent["status"] == "halted" and ent["step"] <= stage:
        return True, ent["value"], ent["step"]
    return False, None, None


def diagonal_halts(e: int, stage: int) -> bool:
    return diagonal(e, stage)[0]


# --------------------------------------------------------------------------
# s-m-n and the semantic fixed point

_INC_R1 = "010001"  # INC R1


def smn(e: int, y: int) -> int:
    """Index of (INC R1)^y . body(e); phi_smn(e,y)(x) behaves like body(e)
    started with R1 = y and R2 = x.  The base body must keep every jump
    inside itself, else prepending would change where escaped jumps land.
    """
    if y < 0:
        raise ValueError("parameter must be nonnegative")
    body = index_to_body(e)
    if not jumps_confined(body):
        raise EscapingJumpError(f"body of index {e} has an escaping jump")
    return body_index(_INC_R1 * y + body)


def compile_const(value: int) -> int:
    """Index of a program whose phi-value is the given constant.

    Zero is the empty body; small constants are unary INC R3 runs; larger
    ones are built most-significant-bit first with a doubling loop
    (R3 doubles through R0), costing O(log value) instructions.
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    if value <= 8:
        return body_index("010011" * value)
    items: list = []
    first = True
    for ch in format(value, "b"):
        if not first:
            # R0 <- R3; R3 <- 2*R0  (R3 is zero after the transfer loop)
            items += [
                ("JZ", 3, +3), ("DEC", 3), ("INC", 0), ("JMP", -4),
                ("JZ", 0, +4), ("DEC", 0), ("INC", 3), ("INC", 3), ("JMP", -5),
            ]
        if ch == "1":
            items.append(("INC", 3))
        first = False
    return body_index(assemble(items))


DIVERGE_BODY = "01111111"  # JMP -1: a one-instruction busy loop


def _behaviour(e: int, probes, budget: int):
    sig = []
    for x in probes:
        res = phi(e, x, ZERO, budget, detect_cycles=True)
        out = res.outcome
        if out.kind == "halted":
            sig.append(("halt", res.value, rope_materialize(out.rope, 64)))
        else:
            sig.append(("nohalt",))
    return tuple(sig)


def fixed_point(transformer, probes=(0, 1, 7), probe_budget: int = 4096,
                max_rounds: int = 32) -> int:
    """An index e* with phi_e* and phi_transformer(e*) agreeing on the
    probe battery (inputs x in probes, at probe_budget steps).

    The search chases the transformer from index 0 (so the returned index
    is normally one the transformer itself built), then falls back to a
    seed set of canonical behaviours; for the transformer families used
    in this package (identity, constant compilers, event-compiled
    answers) it terminates in a round or two.
    """
    tried = set()
    candidates = [transformer(0), 0, body_index("010011"),
                  body_index(DIVERGE_BODY)]
    rounds = 0
    while candidates and rounds < max_rounds:
        e = candidates.pop(0)
        rounds += 1
        if e in tried:
            continue
        tried.add(e)
        te = transformer(e)
        if te == e or _behaviour(e, probes, probe_budget) == _behaviour(te, probes, probe_budget):
            return e
        if te not in tried:
            candidates.insert(0, te)
    raise FixedPointError("no semantic fixed point within the search bounds")
