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
      trailing instruction is dropped.  INSTRUCTION_CODES alone holds the
      bit layout: parse_body and the prefix trie read a body through it,
      and assemble writes one through it.
    * The output's length is kept once, at its rope's root.
      MachineState.copy builds every child state a walk resumes from.
    * The program counter indexes instructions.  Leaving the instruction
      range in any direction (falling off the end, a jump before the start
      or past the end, HALT, a reserved opcode) halts with the current
      output.  Halting by leaving the range is free; executed instructions
      cost exactly 1 step each, ORACLE included.
    * A run is a pure function of (program, oracle, budget).  If it halts
      within the budget, it halts identically under every larger budget.
    * A run's facts live in its MachineState: program counter, steps,
      output rope and registers.  _advance returns only how the run
      stopped ("halted", "aborted", "diverged", or None when the budget
      ran out); run and phi wrap that and the state into one Outcome.
    * An oracle is any object with a hashable `key` and an answer(index)
      that returns 0 or 1, or raises OutOfTableError to abort the run.

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
    already.  Such a run stops as "diverged".  A loop that only grows
    an untested register, such as INC R1; JMP -2, is caught on its first
    lap.  A loop whose tested register keeps growing never repeats a key
    and runs to the budget.  phi, the diagonal and every walk always look
    for cycles; run does when asked, and is the reference without them.
    A state copied to resume a walk's child starts with no keys: a cycle
    that repeats forever still repeats a key within one more lap, so a
    fresh set changes only when divergence is found, never whether a run
    halts.

Mirror pairs
    Only INC, DEC and JZ name R2 or R3.  Swap R2 and R3 throughout a body
    and start it from a state with R2 == R3, as every walk's root does:
    each step of the swapped run is the step of the first with the two
    registers exchanged.  So it takes the same jumps, prints the same
    output and halts, aborts or diverges at the same step.  Cycle keys
    project onto the JZ-tested registers and R0, so a key of one run is a
    key of the other with R2 and R3 exchanged, and one repeats exactly
    when the other does; ORACLE and EMITR read only R0 and R1, so both
    runs ask the same indices and print the same bits.  Only the final
    registers differ, and a walk reads no register of a halted state
    (phi reads R3, but phi runs no walk).  So complexity.PrefixTrie walks
    one body of each pair, counted twice: the one whose first R2/R3
    operand is R2, bits 10 against 11, which has the smaller index.

Program indices
    Bodies are ranked in length-lexicographic order: the empty body is 0,
    "0" is 1, "1" is 2, "00" is 3, and so on; body_index/index_to_body
    convert both ways.  phi(e, x) runs body e with R2 initialised to x and,
    on halting, returns the final value of R3.  The diagonal phi_e(e) is
    always evaluated against the all-zero oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter
from typing import NamedTuple


class DepthlabError(Exception):
    """Base class of the package's failures that a command reports as
    exit 2.  complexity.NoStageWithinBudget, an inconclusive search that
    exits 3, does not derive from it."""


class MachineError(DepthlabError):
    """Base class for machine-level failures."""


class DecodeError(MachineError):
    """Bits do not form a single well-formed program."""


class OutOfTableError(MachineError):
    """A prefix-table oracle was asked beyond its table."""


class EscapingJumpError(MachineError):
    """A body contains a jump that escapes the body."""


class FixedPointError(MachineError):
    """A transformer moved the one candidate fixed_point tries."""


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
# input files


def read_input(path, what: str, parse):
    """parse(lines) over the file at path, read one ASCII line at a time
    with its line ending cut off.  A fault in opening, decoding or parsing
    becomes one ValueError "<what> '<path>', line <n>: <fault>" naming the
    line being read when it arose; a fault found after the last line (an
    empty table, say) concerns the whole file and names no line."""
    at = 0

    def lines(fh):
        nonlocal at
        for at, raw in enumerate(fh, 1):
            yield raw.decode("ascii").rstrip("\r\n")
        at = 0

    try:
        with open(path, "rb") as fh:
            return parse(lines(fh))
    except (OSError, ValueError) as exc:
        fault = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        where = f", line {at}" if at else ""
        raise ValueError(f"{what} {str(path)!r}{where}: {fault}") from None


def _one_bit_line(lines) -> str:
    nonblank = (line.strip() for line in lines if line.strip())
    bits = check_bits(next(nonblank, ""))
    if next(nonblank, None) is not None:
        raise ValueError("a second nonblank line")
    return bits


def read_bits(text: str) -> str:
    """Bits from "bits:0101" or from a file whose one nonblank line holds
    the 0/1 characters."""
    if text.startswith("bits:"):
        return check_bits(text[5:])
    return read_input(text, "bit file", _one_bit_line)


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


class Instructions(tuple):
    """A parsed body: a tuple of (opcode, register, offset) triples.

    `key_regs` lists, ascending, the control registers: every JZ-tested
    register, plus R0 when the body has an ORACLE; `mask` has bit r set
    for each.  `project` reads them from a register file, or is None when
    there are none.  All three are class attributes: parse_body picks one
    of sixteen subclasses, one per set of control registers, so they are
    found once per parse and a parsed body costs no more memory than a
    plain tuple.
    """

    __slots__ = ()
    key_regs: tuple[int, ...] = ()
    mask = 0
    project: itemgetter | None = None


def _instructions_class(mask: int) -> type:
    regs = tuple(r for r in range(4) if mask >> r & 1)
    return type("Instructions", (Instructions,), {
        "__slots__": (), "key_regs": regs, "mask": mask,
        "project": itemgetter(*regs) if regs else None})


_INSTRUCTIONS_BY_MASK = tuple(_instructions_class(mask) for mask in range(16))


def _instruction_codes() -> tuple:
    codes = []
    for op in range(16):
        if op in (OP_INC, OP_DEC):
            codes += [(6, op << 2 | r, (op, r, 0), 0) for r in range(4)]
        elif op == OP_JZ:
            codes += [(10, (op << 2 | r) << 4 | d, (op, r, d - 16 if d >= 8 else d), 1 << r)
                      for r in range(4) for d in range(16)]
        elif op == OP_JMP:
            codes += [(8, op << 4 | d, (op, 0, d - 16 if d >= 8 else d), 0)
                      for d in range(16)]
        else:
            codes.append((4, op, (op, 0, 0), 1 if op == OP_ORACLE else 0))
    return tuple(codes)


INSTRUCTION_CODES = _instruction_codes()
"""Every encoding of one instruction, as (width in bits, the bits read as
an integer, (opcode, register, offset), control-register mask), in
lexicographic order of the bits.  The widths are 4, 6, 8 and 10 bits and
sum to Kraft equality, so every body splits uniquely into whole
instructions and a tail holding no complete one."""


def extend(instrs: Instructions, code: tuple) -> Instructions:
    """instrs with the instruction of one INSTRUCTION_CODES entry appended;
    equal to parse_body of the concatenated bits."""
    return _INSTRUCTIONS_BY_MASK[instrs.mask | code[3]](instrs + (code[2],))


# the bits of each code -> (instruction, control-register mask), its
# inverse instruction -> bits, and the widths
_DECODE = {format(value, "b").zfill(width): (instruction, mask)
           for width, value, instruction, mask in INSTRUCTION_CODES}
_ENCODE = {instruction: bits for bits, (instruction, _mask) in _DECODE.items()}
_WIDTHS = sorted({code[0] for code in INSTRUCTION_CODES})


def parse_body(body: str) -> Instructions:
    """Decode a body into (opcode, register, offset) triples by reading
    one INSTRUCTION_CODES entry after another; the codes are prefix-free,
    so at most one width matches.  Incomplete trailing bits are dropped;
    reserved opcodes are kept and halt at execution time.
    """
    out = []
    mask = 0  # bit r set when Rr is a control register
    i = 0
    while True:
        for width in _WIDTHS:
            hit = _DECODE.get(body[i : i + width])
            if hit is not None:
                break
        else:
            return _INSTRUCTIONS_BY_MASK[mask](out)
        out.append(hit[0])
        mask |= hit[1]
        i += width


def assemble(items: list) -> str:
    """Assemble ("MNEMONIC", args...) tuples into a body string, writing
    each instruction as its INSTRUCTION_CODES entry.

    A bare string ending in ":" defines a label; jump targets may be given
    as label names instead of numeric offsets.  Offsets are encoded
    relative to the next instruction and must fit in 4 signed bits;
    registers must be 0-3.
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
        op = _MNEMONIC[ins[0]]
        reg = ins[1] if op in (OP_INC, OP_DEC, OP_JZ) else 0
        if not 0 <= reg <= 3:
            raise ValueError(f"register {reg} out of range at {idx}")
        target = ins[2] if op == OP_JZ else ins[1] if op == OP_JMP else 0
        off = labels[target] - idx - 1 if isinstance(target, str) else target
        if not -8 <= off <= 7:
            raise ValueError(f"offset {off} out of range at {idx}")
        pieces.append(_ENCODE[op, reg, off])
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


class Program(NamedTuple):
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

    @property
    def index(self) -> int:
        return body_index(self.body)

    def __len__(self) -> int:
        """The length in bits.  It hides the tuple's length, which the
        tuple helpers _make and _replace check, so neither works here."""
        return len(self.bits)

    def instructions(self) -> Instructions:
        return parse_body(self.body)


def program_length(body_len: int) -> int:
    return len(gamma_encode(body_len + 1)) + body_len


def max_body_length(cap: int) -> int:
    """The longest body whose program fits in cap bits; -1 when none does."""
    n = -1
    while program_length(n + 1) <= cap:
        n += 1
    return n


class Programs(Sequence):
    """Every program of at most cap bits, shortest first then lexicographic
    (the canonical witness search order), built on demand: item i is the
    program whose body has index i."""

    def __init__(self, cap: int):
        self._len = (1 << (max_body_length(cap) + 1)) - 1

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Program:
        if not 0 <= i < self._len:
            raise IndexError("program index out of range")
        return Program.encode(index_to_body(i))


def programs_up_to(cap: int) -> Programs:
    """All well-formed programs of at most cap bits, in canonical order."""
    return Programs(cap)


# --------------------------------------------------------------------------
# oracles


class PrefixOracle:
    """Finite bit table; queries beyond it abort."""

    def __init__(self, bits: str):
        check_bits(bits)
        self.bits = bits
        self.key = ("prefix", bits)

    def answer(self, index: int) -> int:
        if 0 <= index < len(self.bits):
            return self.bits[index] == "1" and 1 or 0
        raise OutOfTableError(f"query at {index} beyond table of {len(self.bits)}")


class ZeroOracle:
    """The all-zero rule."""

    def __init__(self):
        self.key = ("zero",)

    def answer(self, index: int) -> int:
        return 0


ZERO = ZeroOracle()


class HaltingOracle:
    """Stage-bounded diagonal halting oracle: bit e is 1 iff phi_e(e) halts
    within `stage` steps (diagonal runs use the all-zero oracle)."""

    def __init__(self, stage: int):
        if stage < 0:
            raise ValueError("stage must be nonnegative")
        self.stage = stage
        self.key = ("halting", stage)

    def answer(self, index: int) -> int:
        return 1 if diagonal(index, self.stage)[0] else 0


def parse_int(token: str) -> int:
    """int(token); a ValueError that quotes the token otherwise."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} is not an integer") from None


def parse_fraction(text: str) -> Fraction:
    """An exact rational from "num/den" or "num"."""
    from fractions import Fraction

    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise ValueError(f"{text!r} is not a fraction num/den") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_oracle(text: str | None):
    """Oracle descriptors used by the command line and config files:
    "none", "zero", "halting:S", "prefix:<path>", "bits:0101..."."""
    if text is None or text == "none":
        return None
    if text == "zero":
        return ZERO
    kind, _, arg = text.partition(":")
    if kind == "halting":
        try:
            stage = parse_int(arg)
        except ValueError as exc:
            raise ValueError(f"oracle {text!r}: {exc}") from None
        return HaltingOracle(stage)
    if kind == "prefix":
        return PrefixOracle(read_bits(arg))
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
# Every index keys a halt by its whole output, read through output_string,
# so a halting run that prints more than OUTPUT_LIMIT bits is an error
# rather than a key.

OUTPUT_LIMIT = 1 << 20
"""The longest output, in bits, that a halting run may print."""


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


def output_string(rope) -> str:
    """The whole output of a rope; MachineError when it is longer than
    OUTPUT_LIMIT bits."""
    s = rope_materialize(rope, OUTPUT_LIMIT)
    if s is None:
        raise MachineError(
            f"an output of {rope[0]} bits is over the limit of {OUTPUT_LIMIT} bits")
    return s


# --------------------------------------------------------------------------
# runs


class MachineState:
    """Resumable snapshot of a run in progress, and the record of a run
    that stopped: pc, steps, rope and regs are its facts either way.  The
    output's length is rope[0]; seen holds the cycle keys met so far."""

    __slots__ = ("pc", "regs", "steps", "rope", "seen")

    def __init__(self, pc: int = 0, regs: list[int] | None = None, steps: int = 0,
                 rope: tuple | None = None):
        self.pc = pc
        self.regs = [0, 0, 0, 0] if regs is None else regs
        self.steps = steps
        self.rope = rope
        self.seen = None

    def copy(self) -> "MachineState":
        """A state that resumes as this one does, with its own regs and a
        fresh cycle-key set.  Every child state of a walk is built here."""
        return MachineState(self.pc, self.regs[:], self.steps, self.rope)


def _advance(instrs, oracle, budget: int, st: MachineState, detect_cycles: bool):
    """Run until halt/abort/divergence or until steps reach budget, and
    write pc, steps and rope back to st.

    Returns how the run stopped: "halted", "aborted", "diverged", or None
    when the budget ran out with the state still live (st then holds the
    resume point).  An abort leaves pc on the ORACLE it could not answer.
    With detect_cycles the keys seen so far are kept in st.seen, projected
    onto the control registers of instrs (see the module docstring).
    """
    pc = st.pc
    r = st.regs
    steps = st.steps
    rope = st.rope
    seen = st.seen
    project = instrs.project
    n = len(instrs)
    kind = "halted"  # leaving the instruction range, or a reserved opcode
    while 0 <= pc < n:
        if steps >= budget:
            kind = None
            break
        if detect_cycles:
            key = (pc, project(r)) if project else pc
            if seen is None:
                seen = st.seen = set()
            if key in seen:
                kind = "diverged"
                break
            if len(seen) < 1 << 16:
                seen.add(key)
        op, a, d = instrs[pc]
        steps += 1
        if op == OP_EMIT0:
            leaf = (1, 0, None, None)
            rope = leaf if rope is None else (rope[0] + 1, None, rope, leaf)
            pc += 1
        elif op == OP_EMIT1:
            leaf = (1, 1, None, None)
            rope = leaf if rope is None else (rope[0] + 1, None, rope, leaf)
            pc += 1
        elif op == OP_DOUBLE:
            if rope is not None:
                rope = (rope[0] * 2, None, rope, rope)
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
                kind = "aborted"
                break
            try:
                bit = oracle.answer(r[0])
            except OutOfTableError:
                kind = "aborted"
                break
            r[1] = bit
            pc += 1
        elif op == OP_EMITR:
            leaf = (1, r[1] & 1, None, None)
            rope = leaf if rope is None else (rope[0] + 1, None, rope, leaf)
            pc += 1
        else:
            break
    st.pc, st.steps, st.rope = pc, steps, rope
    return kind


class Outcome(NamedTuple):
    """How a finished call to run or phi stopped, and what it left.

    kind is "halted", "budget", "aborted" or "diverged" (a repeated cycle
    key, see the module docstring); value is the final R3 of a halted run
    (phi's value), None otherwise."""

    kind: str
    steps: int
    rope: tuple | None
    value: int | None

    @property
    def output(self) -> str:
        return output_string(self.rope)

    @property
    def halted(self) -> bool:
        return self.kind == "halted"


def _outcome(kind: str | None, st: MachineState) -> Outcome:
    """The Outcome of a run that _advance left in st, stopping as kind."""
    return Outcome(kind or "budget", st.steps, st.rope,
                   st.regs[3] if kind == "halted" else None)


def run(program: Program, oracle, budget: int, r1: int = 0, r2: int = 0,
        detect_cycles: bool = False) -> Outcome:
    """Execute a program to an Outcome.  Deterministic in (program,
    oracle, budget); detect_cycles only turns some "budget" outcomes into
    "diverged" ones."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    st = MachineState(regs=[0, r1, r2, 0])
    return _outcome(_advance(program.instructions(), oracle, budget, st, detect_cycles), st)


# --------------------------------------------------------------------------
# the memo scope


class Memo:
    """Every result kept from one call to the next, in one place.

    Each field maps a key to what the pinned machine computes for it, so
    clearing them changes no answer, only what must be recomputed:

    diagonal    index e -> (stage, Outcome) of the diagonal run phi_e(e)
                at the largest stage asked
    tables      (oracle key, cap) -> complexity.HaltingTable
    evaluators  (budget, cap, depth) -> semimeasure.PrefixMassEvaluator

    Parsed bodies are not kept: phi parses its body on each call, which
    costs a few microseconds beside the run.
    """

    def __init__(self):
        self.diagonal: dict = {}
        self.tables: dict = {}
        self.evaluators: dict = {}

    def reset(self) -> None:
        for memo in vars(self).values():
            memo.clear()


MEMO = Memo()


# --------------------------------------------------------------------------
# the program enumeration phi


def phi(e: int, x: int, oracle, budget: int) -> Outcome:
    """Run body e with R2 = x, looking for cycles; on halting the value is
    the final R3."""
    st = MachineState(regs=[0, 0, x, 0])
    return _outcome(_advance(parse_body(index_to_body(e)), oracle, budget, st, True), st)


def diagonal(e: int, stage: int) -> tuple[bool, int | None, int | None]:
    """(halts within stage, value, halting step) for phi_e(e) under the
    zero oracle.  MEMO.diagonal[e] keeps (stage, phi(e, e, ZERO, stage))
    of the largest stage asked; a run cut off by its budget is run again
    from the start when a larger stage is asked, and any other Outcome
    answers every stage."""
    ent = MEMO.diagonal.get(e)
    if ent is None or ent[0] < stage and ent[1].kind == "budget":
        ent = MEMO.diagonal[e] = (stage, phi(e, e, ZERO, stage))
    out = ent[1]
    if out.halted and out.steps <= stage:
        return True, out.value, out.steps
    return False, None, None


# --------------------------------------------------------------------------
# s-m-n and the exact fixed point

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
    return body_index(assemble([("INC", 1)]) * y + body)


def compile_const(value: int) -> int:
    """Index of (INC R3)^value, a program whose phi-value is the given
    constant; zero is the empty body."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    return body_index(assemble([("INC", 3)]) * value)


DIVERGE_BODY = assemble([("JMP", -1)])  # a one-instruction busy loop


def fixed_point(transformer) -> int:
    """e = transformer(0) when transformer(e) == e, so that phi_e and
    phi_transformer(e) are one program; FixedPointError otherwise.  Every
    transformer here fixes it: identity, constants, and the forcing
    step's answer compiler, whose projection ignores the index."""
    e = transformer(0)
    if transformer(e) != e:
        raise FixedPointError(f"transformer moves its candidate {e}")
    return e
