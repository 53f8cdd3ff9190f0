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
      and numbering.assemble writes one through it.
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
      ran out); run and numbering.phi wrap that and the state into one
      Outcome.
    * An oracle is any object with a hashable `key` and an answer(index)
      that returns 0 or 1, or raises OutOfTableError to abort the run.
      OracleBranches is the one exception: it is the oracle of a walk that
      splits on each answer (complexity.PrefixTrie, and
      pi01forcing.Functional.values), answers from the pins of the node
      it runs, has no `key` and never keys MEMO.

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
    already.  Such a run stops as "diverged".

    The run keeps one saved key, the one it had at the last step count of
    the form 2^k - 1 (0, 1, 3, 7, ...): each step compares its key with
    the saved one and stops on a match, then saves its own key if its
    count has that form (Brent's cycle finder, BIT 20, 1980).  A match is
    a repeat, so the rule is sound as above.  It is also complete.  Say
    the key first met at step mu comes back at mu + lambda, and let S be
    the least 2^k - 1 >= max(mu, lambda - 1).  The key saved at S lies on
    the cycle and comes back at S + lambda, no later than the next save
    at 2S + 1, so the run stops as "diverged" at a step from mu + lambda
    to S + lambda.  That step can come after the first repeat: the loop
    DEC R2; JZ R2,+1; JMP -3; JMP -1 from R2 = 10 first repeats a key at
    step 30 and stops at step 32.  A loop that only grows an untested
    register, such as INC R1; JMP -2, is caught on its second lap.  A
    loop whose tested register keeps growing never repeats a key and runs
    to the budget.  numbering.phi, the diagonal and every walk always
    look for cycles; run does when asked, and is the reference without
    them.

    The counts are the run's absolute steps.  A state copied to resume a
    walk's child saves no key, as the child's cycle keys may project onto
    more registers; it saves at the next count of the form 2^k - 1, so
    the bound holds with mu at least the copy's step.  A state left live
    at the budget keeps its saved key, so a walk resumed at a larger
    budget runs as one walk would.

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
    "0" is 1, "1" is 2, "00" is 3, and so on; bits.body_index and
    bits.index_to_body convert both ways.  What an index names lives in
    numbering, above this module: phi(e, x), which runs body e with R2
    initialised to x and, on halting, returns the final value of R3; the
    diagonal phi_e(e) under the all-zero oracle and the halting oracle it
    answers; s-m-n, the exact fixed point and the assembler.  This module
    imports numbering only where parse_oracle reads a "halting:S"
    descriptor, so a run under any other oracle compiles none of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter
from typing import NamedTuple

from .bits import DepthlabError, body_index, check_bits, index_to_body, parse_int, read_bits


class MachineError(DepthlabError):
    """Base class for machine-level failures."""


class DecodeError(MachineError):
    """Bits do not form a single well-formed program."""


class OutOfTableError(MachineError):
    """A prefix-table oracle was asked beyond its table."""


# --------------------------------------------------------------------------
# bit strings and integer codings


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


# the bits of each code -> (instruction, control-register mask), and the widths
_DECODE = {format(value, "b").zfill(width): (instruction, mask)
           for width, value, instruction, mask in INSTRUCTION_CODES}
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


NO_PINS = (0, 0, ())
"""The pins of a node that has split on no oracle answer (see OracleBranches)."""


class OracleBranches:
    """The oracle of a walk that makes each answer a branch point: the
    instruction-prefix walk of complexity.PrefixTrie and the per-branch
    read of pi01forcing.Functional.values.  It has no `key`, as no table
    or evaluator is kept under it.

    It answers an index below depth from the pins of the node being run and
    stops the run at any other index, which it keeps in `asked`.  Pins are
    (mask, bits, order): index i of a depth-bit prefix is bit depth-1-i of
    mask when pinned and of bits for its answer, and order lists the
    answers in the order the run pinned them.  A node stopped at an index
    at or beyond depth does not split; the least (body index, order,
    index) of such nodes is kept in `too_deep`."""

    def __init__(self, depth: int):
        self.depth = depth
        self.pins = NO_PINS
        self.asked: int | None = None
        self.too_deep: tuple | None = None

    def answer(self, index: int) -> int:
        mask, bits, _order = self.pins
        shift = self.depth - 1 - index
        if shift >= 0 and mask >> shift & 1:
            return bits >> shift & 1
        self.asked = index
        raise OutOfTableError(f"unpinned index {index}")

    def children(self, body_index: int, st: MachineState) -> list:
        """The split rule: (pins, state) of each child of a run stopped, in
        state st, at the index it asked.  A child resumes after the ORACLE
        with R1 set to its answer and the index added to its pins, on a
        MachineState.copy of st; `steps` already counts the ORACLE step.
        An index at or beyond depth has no children, and goes to
        `too_deep`."""
        index, (mask, bits, order) = self.asked, self.pins
        if index >= self.depth:
            hit = (body_index, order, index)
            if self.too_deep is None or hit < self.too_deep:
                self.too_deep = hit
            return []
        bit = 1 << (self.depth - 1 - index)
        out = []
        for answer in (0, 1):
            child = st.copy()
            child.pc += 1
            child.regs[1] = answer
            out.append(((mask | bit, bits | bit * answer, order + (answer,)), child))
        return out


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
        from .numbering import HaltingOracle

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


def _ropes_equal(a, b) -> bool:
    """True when two ropes hold the same output.  A shared rope or unequal
    lengths answer at once; otherwise both outputs are materialized, by
    rope_materialize's explicit stack."""
    if a is b:
        return True
    n = 0 if a is None else a[0]
    return n == (0 if b is None else b[0]) and rope_materialize(a, n) == rope_materialize(b, n)


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
    output's length is rope[0]; saved is the cycle key the run had at its
    last step count of the form 2^k - 1, or None (see the module
    docstring)."""

    __slots__ = ("pc", "regs", "steps", "rope", "saved")

    def __init__(self, pc: int = 0, regs: list[int] | None = None, steps: int = 0,
                 rope: tuple | None = None):
        self.pc = pc
        self.regs = [0, 0, 0, 0] if regs is None else regs
        self.steps = steps
        self.rope = rope
        self.saved = None

    def copy(self) -> "MachineState":
        """A state that resumes as this one does, with its own regs and no
        saved cycle key.  Every child state of a walk is built here."""
        return MachineState(self.pc, self.regs[:], self.steps, self.rope)


def _advance(instrs, oracle, budget: int, st: MachineState, detect_cycles: bool):
    """Run until halt/abort/divergence or until steps reach budget, and
    write pc, steps and rope back to st.

    Returns how the run stopped: "halted", "aborted", "diverged", or None
    when the budget ran out with the state still live (st then holds the
    resume point).  An abort leaves pc on the ORACLE it could not answer.
    With detect_cycles each step's key, projected onto the control
    registers of instrs, is compared with st.saved, and saved there at
    steps 0, 1, 3, 7, ...; "diverged" comes at a repeat of the saved key,
    which may be some steps after the run's first repeat (see the module
    docstring).
    """
    pc = st.pc
    r = st.regs
    steps = st.steps
    rope = st.rope
    saved = st.saved
    project = instrs.project
    n = len(instrs)
    kind = "halted"  # leaving the instruction range, or a reserved opcode
    while 0 <= pc < n:
        if steps >= budget:
            kind = None
            break
        if detect_cycles:
            key = (pc, project(r)) if project else pc
            if key == saved:
                kind = "diverged"
                break
            if not steps & (steps + 1):
                saved = key
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
    st.pc, st.steps, st.rope, st.saved = pc, steps, rope, saved
    return kind


class Outcome(NamedTuple):
    """How a finished call to run or numbering.phi stopped, and what it left.

    kind is "halted", "budget", "aborted" or "diverged" (the saved cycle
    key came back, see the module docstring; steps is then the step of
    that repeat, which may follow the run's first repeat of a key); value
    is the final R3 of a halted run (phi's value), None otherwise.

    Two Outcomes are equal when kind, steps, value and output are.  The
    ropes are compared by _ropes_equal, since tuple equality would recurse
    through them, once per printed bit; the hash reads the output's length
    in their place."""

    kind: str
    steps: int
    rope: tuple | None
    value: int | None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Outcome):
            return NotImplemented
        return (self.kind == other.kind and self.steps == other.steps
                and self.value == other.value and _ropes_equal(self.rope, other.rope))

    def __ne__(self, other) -> bool:  # tuple's own __ne__ would recurse
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self.kind, self.steps, self.value,
                     0 if self.rope is None else self.rope[0]))

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
