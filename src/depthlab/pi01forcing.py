"""Pruning schedules, diagonal dodging and schedule forcing.

An effectively closed class of sequences is represented at desk scale by
a pruning schedule: a stage-indexed monotone family of forbidden strings
with a depth cap.  Membership at a stage is a finite, exact check for
clopen (fully enumerated) schedules and a one-sided "not pruned so far"
check otherwise.

The forcing loop reads the input schedule once, at the stage budget,
and then narrows that member list in place; it grows a string sigma one
bit per step, and every member left extends sigma.  Each step first
builds a probe program whose diagonal value names a provably empty
branch below sigma (a side of the next bit that no member takes); a
diagonally non-computable bit source therefore always steers into a
branch that survives.  It then builds, as an exact fixed point of the
step's transformer, a second program that reports whether the total
functional is unanimous on the surviving class at the program's own
index; when it is not (the expected case), both functional values are
realised inside the class and one extra coding bit is pressed into it:
the members that give the other value are dropped.  The emitted string
together with the final class member lets every consumed bit be read
back by running the recorded functional instances, which is exactly the
content the trace certifies.

The loop reads a functional instance on the whole surviving class at
once (Functional.values): one run that branches on each oracle answer
it asks, by the split rule of complexity.PrefixTrie, stands for every
member that agrees with the answers on its branch.  The projection
functional asks one index, so each reading costs two runs however many
members survive.  Functional.apply, one plain run on one member, is the
reference; ForcingResult.reconstruct reads the coding bits back with it,
so every trace checks the branched values against independent runs.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import NamedTuple

from .complexity import NO_PINS, OracleBranches, deficiency
from .toyvm import (
    DIVERGE_BODY,
    DepthlabError,
    MachineState,
    PrefixOracle,
    _advance,
    assemble,
    body_index,
    check_bits,
    compile_const,
    diagonal,
    disassemble,
    fixed_point,
    index_to_body,
    parse_body,
    phi,
    read_input,
    smn,
)


class ForcingError(DepthlabError):
    """A precondition or internal invariant of the forcing loop failed."""


# --------------------------------------------------------------------------
# pruning schedules


MAX_DEPTH = 20
"""The largest depth cap: a class is listed as its up to 2^MAX_DEPTH members."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class PruningSchedule:
    """Monotone stage -> forbidden-string map with a depth cap."""

    def __init__(self, stages, depth: int):
        if not _is_int(depth) or depth < 0:
            raise ValueError(f"schedule depth must be a nonnegative int, got {depth!r}")
        if depth > MAX_DEPTH:
            raise ValueError(f"schedule depth {depth} is above the bound {MAX_DEPTH}")
        self.depth = depth
        cleaned = []
        for s, forbid in sorted(stages, key=lambda kv: kv[0]):
            fs = frozenset(check_bits(w) for w in forbid)
            if any(len(w) > depth for w in fs):
                raise ValueError("forbidden string longer than the depth cap")
            cleaned.append((int(s), fs))
        self.stages = cleaned

    def forbidden_at(self, stage: int) -> frozenset:
        out = set()
        for s, fs in self.stages:
            if s <= stage:
                out |= fs
        return frozenset(out)

    def last_stage(self) -> int:
        return self.stages[-1][0] if self.stages else 0

    def settled_at(self, stage: int) -> bool:
        """True when no pruning can arrive after this stage."""
        return stage >= self.last_stage()

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "stages": [{"s": s, "forbid": sorted(fs)} for s, fs in self.stages],
        }

    @classmethod
    def from_json(cls, data) -> "PruningSchedule":
        """The schedule of a {"depth": int, "stages": [{"s": int, "forbid":
        [bit string, ...]}, ...]} document; ValueError on any other shape."""
        if not isinstance(data, dict):
            raise ValueError("a schedule must be a JSON object")
        stages = data.get("stages")
        if not isinstance(stages, list) or not all(isinstance(st, dict) for st in stages):
            raise ValueError("schedule stages must be a list of objects")
        pairs = []
        for st in stages:
            s, forbid = st.get("s"), st.get("forbid")
            if not _is_int(s):
                raise ValueError(f"a stage's s must be an int, got {s!r}")
            if not isinstance(forbid, list) or not all(isinstance(w, str) for w in forbid):
                raise ValueError(f"a stage's forbid must be a list of strings, got {forbid!r}")
            pairs.append((s, forbid))
        return cls(pairs, data.get("depth"))

    @classmethod
    def from_file(cls, path) -> "PruningSchedule":
        return read_input(path, "schedule",
                          lambda lines: cls.from_json(json.loads("\n".join(lines))))

    @classmethod
    def full_space(cls, depth: int) -> "PruningSchedule":
        return cls([], depth)


def members_at_stage(schedule: PruningSchedule, d: int, stage: int) -> list[str]:
    """All length-d strings no forbidden string (at the stage) prefixes;
    sorted, and nonincreasing in the stage."""
    if d > schedule.depth:
        raise ValueError("depth beyond the schedule cap")
    # alive[i]: string i (as a d-bit number) has no forbidden prefix; a
    # forbidden w of at most d bits prunes one interval of d-bit strings
    alive = bytearray(b"\x01") * (1 << d)
    for w in schedule.forbidden_at(stage):
        if len(w) <= d:
            width = 1 << (d - len(w))
            low = int(w or "0", 2) * width
            alive[low:low + width] = bytes(width)
    if d == 0:
        return [""] * alive[0]
    return [format(i, f"0{d}b") for i in compress(range(1 << d), alive)]


# --------------------------------------------------------------------------
# diagonally non-computable bit sources


class Dnc2Witness:
    """Finite map e -> {0,1} meant to disagree with the parity of the
    diagonal value phi_e(e) wherever that halts within the stage.

    The canonical witness materialises values on demand from the diagonal
    table (1 - value mod 2 on halting indices, 0 elsewhere); a frozen map
    raises on unlisted indices, which the forcing loop reports as a
    precondition failure."""

    def __init__(self, stage: int, values: dict | None = None, dynamic: bool = True):
        self.stage = stage
        self.values = dict(values or {})
        self.dynamic = dynamic

    @classmethod
    def from_halting_table(cls, stage: int) -> "Dnc2Witness":
        return cls(stage)

    @classmethod
    def frozen(cls, stage: int, values: dict) -> "Dnc2Witness":
        return cls(stage, values, dynamic=False)

    def value(self, e: int) -> int:
        if e in self.values:
            return self.values[e]
        if not self.dynamic:
            raise ForcingError(f"bit source undefined at index {e}")
        halts, val, _step = diagonal(e, self.stage)
        bit = 1 - (val % 2) if halts else 0
        self.values[e] = bit
        return bit


def is_dnc2(witness: Dnc2Witness, stage: int):
    """(ok, counterexample): every listed index must disagree with the
    parity of its halting diagonal value at the stage."""
    for e in sorted(witness.values):
        halts, val, _step = diagonal(e, stage)
        if halts and witness.values[e] == val % 2:
            return False, e
    return True, None


# --------------------------------------------------------------------------
# total functionals


_PROJECTION_ITEMS = [
    "copy:",
    ("JZ", 1, "query"),
    ("DEC", 1),
    ("INC", 0),
    ("JMP", "copy"),
    "query:",
    ("ORACLE",),
    ("JZ", 1, "done"),
    ("INC", 3),
    "done:",
]


def projection_base_index() -> int:
    """Program reading the oracle bit whose index arrives in R1 (the
    parameter channel); the input in R2 is ignored."""
    return body_index(assemble(_PROJECTION_ITEMS))


class Functional(NamedTuple):
    """A total machine functional, one parameterised instance per step.

    The step-s instance is the base program with the step's query index
    pressed into R1; its value on oracle X at input e must be 0 or 1 and
    is read as Phi^X(e) for that step.

    The forcing loop reads an instance on a list of members with
    `values`, per oracle branch: one run splits at each answer it asks,
    so the projection costs two runs however long the list.  `apply` is
    one plain run on one member; it is the per-member reference, and
    ForcingResult.reconstruct uses it."""

    base_index: int
    budget: int
    query_schedule: tuple

    @classmethod
    def projection(cls, query_schedule, budget: int = 4096) -> "Functional":
        return cls(projection_base_index(), budget, tuple(query_schedule))

    def instance(self, step: int) -> int:
        return smn(self.base_index, self.query_schedule[step])

    def apply(self, instance_index: int, member: str, input_value: int) -> int:
        res = phi(instance_index, input_value, PrefixOracle(member), self.budget)
        if not res.halted:
            raise ForcingError(
                f"functional instance {instance_index} not total on a member")
        if res.value not in (0, 1):
            raise ForcingError(f"functional value {res.value} outside 0/1")
        return res.value

    def values(self, instance_index: int, members: list, input_value: int,
               depth: int) -> list[int]:
        """[apply(instance_index, x, input_value) for x in members], for
        depth-bit members, from one run that branches on oracle answers.

        The run starts as apply's does and goes under OracleBranches(depth):
        an unpinned index below depth splits it into one child per answer
        (OracleBranches.children, the split rule of PrefixTrie.walk), and
        an index at or past depth ends the branch without a halt, as it
        aborts a run on a depth-bit member.  Each branch ends in a leaf
        (mask, bits, R3 or None when it did not halt), and the leaves
        partition the members: x reads the leaf whose pins int(x, 2)
        matches.  The first member, in list order, whose leaf did not halt
        or holds a value outside 0/1 raises apply's ForcingError."""
        instrs = parse_body(index_to_body(instance_index))
        answers = OracleBranches(depth)
        stack = [(NO_PINS, MachineState(regs=[0, 0, input_value, 0]))]
        leaves: dict[int, dict[int, int | None]] = {}  # mask -> {bits: R3}
        while stack:
            pins, st = stack.pop()
            answers.pins = pins
            kind = _advance(instrs, answers, self.budget, st, True)
            if kind == "aborted":
                children = answers.children(instance_index, st)
                if children:
                    stack.extend(children)
                    continue
            leaves.setdefault(pins[0], {})[pins[1]] = st.regs[3] if kind == "halted" else None
        out = []
        for x in members:
            y = int(x, 2)
            value = next(by_bits[y & mask] for mask, by_bits in leaves.items()
                         if y & mask in by_bits)
            if value is None:
                raise ForcingError(
                    f"functional instance {instance_index} not total on a member")
            if value not in (0, 1):
                raise ForcingError(f"functional value {value} outside 0/1")
            out.append(value)
        return out


# --------------------------------------------------------------------------
# the forcing loop


class ForcingStep(NamedTuple):
    s: int
    sigma: str
    n_index: int
    n_disassembly: tuple
    probe_empty_side: int | None
    dodge_bit: int
    m_index: int
    m_disassembly: tuple
    event_unanimous: int | None
    functional_instance: int
    coding_bit: int
    members_before: int
    members_after: int


class ForcingResult:
    __slots__ = ("b_prefix", "b_member", "steps", "inconclusive")

    def __init__(self, b_prefix: str, b_member: str, inconclusive: list[int]):
        self.b_prefix = b_prefix
        self.b_member = b_member
        self.steps: list[ForcingStep] = []
        self.inconclusive = inconclusive

    def to_json(self) -> dict:
        return {
            "b_prefix": self.b_prefix,
            "b_member": self.b_member,
            "inconclusive": self.inconclusive,
            "steps": [st._asdict() for st in self.steps],
        }

    def reconstruct(self, functional: Functional) -> list[dict]:
        """Read every consumed bit back from the emitted member: the dodge
        bit at step s is bit s of the member, the coding bit is the
        recorded functional instance run on the member at the fixed-point
        index."""
        transcript = []
        for st in self.steps:
            dodge = int(self.b_member[st.s])
            coding = functional.apply(st.functional_instance, self.b_member,
                                      st.m_index)
            transcript.append({
                "s": st.s,
                "dodge_recovered": dodge,
                "dodge_consumed": st.dodge_bit,
                "coding_recovered": coding,
                "coding_consumed": st.coding_bit,
                "match": dodge == st.dodge_bit and coding == st.coding_bit,
            })
        return transcript


def _answer_base(i: int | None) -> int:
    """Index of the probe behaviour: return i, or loop forever."""
    if i is None:
        return body_index(DIVERGE_BODY)
    return compile_const(i)


def _unanimous(values: list) -> int | None:
    """The value every entry shares, or None when two entries differ."""
    return values[0] if len(set(values)) == 1 else None


def force(schedule: PruningSchedule, f, steps: int, stage_budget: int,
          functional: Functional | None = None) -> ForcingResult:
    """Run the forcing loop for the given number of steps.

    f is either a Dnc2Witness, which then supplies both the dodge bits and
    the coding bits (bit s of step s is its value at s), or a plain bit
    string whose bit s is the coding bit of step s, with the dodge bits
    coming from the canonical halting-table witness at the stage budget.

    The class is the input schedule's members at the stage budget, listed
    once and narrowed in place: each step keeps the members on the dodge
    bit's side, then those whose functional value is the coding bit.  The
    result's b_member is the first member left.  `inconclusive` lists
    every step when the input schedule has a stage past the stage budget
    (a later pruning could still empty the class), and no step otherwise.
    """
    depth = schedule.depth
    if isinstance(f, Dnc2Witness):
        dodge = f
        coding_bit = f.value
    else:
        check_bits(f)
        if len(f) < steps:
            raise ForcingError("coding prefix shorter than the step count")
        dodge = Dnc2Witness.from_halting_table(stage_budget)

        def coding_bit(s: int) -> int:
            return int(f[s])
    if functional is None:
        functional = Functional.projection(
            tuple(steps + s for s in range(steps)))
    if len(functional.query_schedule) < steps:
        raise ForcingError("functional query schedule shorter than the step count")
    if any(q >= depth for q in functional.query_schedule[:steps]):
        raise ForcingError("functional query schedule runs past the depth cap")
    if steps > depth:
        raise ForcingError("more steps than the depth cap")

    members = members_at_stage(schedule, depth, stage_budget)
    if not members:
        raise ForcingError("class empty")
    sigma = ""
    result = ForcingResult("", "", inconclusive=(
        [] if schedule.settled_at(stage_budget) else list(range(steps))))
    for s in range(steps):
        # every member extends sigma; probe: the first side no member takes
        sides = {x[s] for x in members}
        empty_side = next((i for i in (0, 1) if str(i) not in sides), None)
        n_index = smn(_answer_base(empty_side), 2 * s + 1)
        bit = dodge.value(n_index)
        sigma_next = sigma + str(bit)
        survivors = [x for x in members if x[s] == str(bit)]
        if not survivors:
            raise ForcingError(
                f"step {s}: the bit source walked into the pruned side")

        # fixed point: does the functional answer unanimously at the
        # program's own index on the surviving class?  The values at the
        # fixed point are the transformer's reading there
        inst = functional.instance(s)
        readings: dict[int, list[int]] = {}

        def transformer(e: int) -> int:
            vals = readings[e] = functional.values(inst, survivors, e, depth)
            return smn(_answer_base(_unanimous(vals)), 2 * s + 2)

        m_index = fixed_point(transformer)
        values = readings[m_index]
        unanimous = _unanimous(values)
        a_bit = coding_bit(s)
        keep = [x for x, v in zip(survivors, values) if v == a_bit]
        if not keep:
            raise ForcingError(
                f"step {s}: coding bit {a_bit} unrealisable; the functional"
                f" is unanimous on the other value")
        result.steps.append(ForcingStep(
            s=s, sigma=sigma_next,
            n_index=n_index,
            n_disassembly=tuple(disassemble(index_to_body(n_index))),
            probe_empty_side=empty_side,
            dodge_bit=bit,
            m_index=m_index,
            m_disassembly=tuple(disassemble(index_to_body(m_index))),
            event_unanimous=unanimous,
            functional_instance=inst,
            coding_bit=a_bit,
            members_before=len(members),
            members_after=len(keep),
        ))
        sigma = sigma_next
        members = keep

    result.b_prefix = sigma
    result.b_member = members[0]
    return result


# --------------------------------------------------------------------------
# xor-join verification


def symdiff(a_prefix: str, x_prefix: str) -> str:
    """Bitwise exclusive or of equal-length prefixes."""
    check_bits(a_prefix)
    check_bits(x_prefix)
    if len(a_prefix) != len(x_prefix):
        raise ValueError("length mismatch")
    return "".join("1" if a != b else "0" for a, b in zip(a_prefix, x_prefix))


class JoinReport(NamedTuple):
    xor_ok: bool
    x_random_ok: bool
    y_random_ok: bool
    dnc_ok: bool
    dnc_counterexample: int | None
    x_deficiency: int
    y_deficiency: int

    @property
    def all_ok(self) -> bool:
        return self.xor_ok and self.x_random_ok and self.y_random_ok and self.dnc_ok


def join_check(f_prefix: str, x_prefix: str, y_prefix: str, k: int,
               stage: int, cap: int = 18) -> JoinReport:
    """Three clauses: the prefix is the exact xor of the two others, both
    of those look k-random at the stage (deficiency at most k), and the
    prefix's bits form a valid dodging witness on its listed indices."""
    if not len(f_prefix) == len(x_prefix) == len(y_prefix):
        raise ValueError("length mismatch")
    xor_ok = f_prefix == symdiff(x_prefix, y_prefix)
    dx = deficiency(x_prefix, stage, cap)
    dy = deficiency(y_prefix, stage, cap)
    witness = Dnc2Witness.frozen(stage, {e: int(b) for e, b in enumerate(f_prefix)})
    ok, counter = is_dnc2(witness, stage)
    return JoinReport(
        xor_ok=xor_ok,
        x_random_ok=dx.value <= k,
        y_random_ok=dy.value <= k,
        dnc_ok=ok,
        dnc_counterexample=counter,
        x_deficiency=dx.value,
        y_deficiency=dy.value,
    )
