"""The program numbering: phi_e, the diagonal, the halting oracle, s-m-n,
the exact fixed point and the assembler.

Bodies are ranked in length-lexicographic order: the empty body is 0,
"0" is 1, "1" is 2, "00" is 3, and so on; bits.body_index and
bits.index_to_body convert both ways.  phi(e, x) runs body e on the
machine of toyvm with R2 initialised to x and, on halting, returns the
final value of R3.  The diagonal phi_e(e) is always evaluated against
the all-zero oracle, and it answers the stage-bounded halting oracle.

Only the forcing loop, the dodging checks of dnc, the selftest and
`halting:S` oracles read this module, so a walk under `none`, `zero` or
`bits:` compiles none of it: toyvm.parse_oracle imports HaltingOracle
only when it reads a `halting:` descriptor.
"""

from __future__ import annotations

from .bits import body_index, index_to_body
from .toyvm import (
    INSTRUCTION_CODES,
    MEMO,
    OP_DEC,
    OP_DOUBLE,
    OP_EMIT0,
    OP_EMIT1,
    OP_EMITR,
    OP_HALT,
    OP_INC,
    OP_JMP,
    OP_JZ,
    OP_ORACLE,
    ZERO,
    MachineError,
    MachineState,
    Outcome,
    _advance,
    _outcome,
    parse_body,
)


class EscapingJumpError(MachineError):
    """A body contains a jump that escapes the body."""


class FixedPointError(MachineError):
    """A transformer moved the one candidate fixed_point tries."""


# --------------------------------------------------------------------------
# the assembler

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
# instruction -> its bits, the inverse of parse_body's table
_ENCODE = {instruction: format(value, "b").zfill(width)
           for width, value, instruction, _mask in INSTRUCTION_CODES}


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
