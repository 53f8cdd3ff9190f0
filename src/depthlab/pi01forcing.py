"""Pruning schedules, diagonal dodging and schedule forcing.

An effectively closed class of sequences is represented at desk scale by
a pruning schedule: a stage-indexed monotone family of forbidden strings
with a depth cap.  Membership at a stage is a finite, exact check for
clopen (fully enumerated) schedules and a one-sided "not pruned so far"
check otherwise.

The forcing loop grows a string sigma one bit per step.  Each step first
builds a probe program whose diagonal value names a provably empty
branch below sigma; a diagonally non-computable bit source therefore
always steers into a branch that survives.  It then builds, as a
semantic fixed point, a second program whose behaviour reports whether
the supplied total functional is unanimous on the surviving class at the
program's own index; when it is not (the expected case), both functional
values are realised inside the class and one extra coding bit is pressed
into it.  The emitted string together with the final class member lets
every consumed bit be read back by running the recorded functional
instances, which is exactly the content the trace certifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .constructions import symdiff
from .randomness import deficiency
from .toyvm import (
    DIVERGE_BODY,
    PrefixOracle,
    body_index,
    check_bits,
    compile_const,
    diagonal,
    disassemble,
    fixed_point,
    index_to_body,
    phi,
    smn,
    strings_of_length,
)


class ForcingError(Exception):
    """A precondition or internal invariant of the forcing loop failed."""


# --------------------------------------------------------------------------
# pruning schedules


class PruningSchedule:
    """Monotone stage -> forbidden-string map with a depth cap."""

    def __init__(self, stages, depth: int):
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

    def extended(self, stage: int, forbid) -> "PruningSchedule":
        return PruningSchedule(self.stages + [(stage, frozenset(forbid))], self.depth)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "stages": [{"s": s, "forbid": sorted(fs)} for s, fs in self.stages],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PruningSchedule":
        return cls([(st["s"], st["forbid"]) for st in data["stages"]], data["depth"])

    @classmethod
    def from_file(cls, path) -> "PruningSchedule":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def full_space(cls, depth: int) -> "PruningSchedule":
        return cls([], depth)


def members_at_stage(schedule: PruningSchedule, d: int, stage: int) -> list[str]:
    """All length-d strings no forbidden string (at the stage) prefixes;
    sorted, and nonincreasing in the stage."""
    if d > schedule.depth:
        raise ValueError("depth beyond the schedule cap")
    forbidden = schedule.forbidden_at(stage)
    by_len: dict[int, set] = {}
    for w in forbidden:
        by_len.setdefault(len(w), set()).add(w)
    return [x for x in strings_of_length(d)
            if not any(x[:n] in ws for n, ws in by_len.items() if n <= d)]


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
    from .toyvm import assemble

    return body_index(assemble(_PROJECTION_ITEMS))


@dataclass(frozen=True)
class Functional:
    """A total machine functional, one parameterised instance per step.

    The step-s instance is the base program with the step's query index
    pressed into R1; its value on oracle X at input e must be 0 or 1 and
    is read as Phi^X(e) for that step."""

    base_index: int
    budget: int
    query_schedule: tuple

    @classmethod
    def projection(cls, query_schedule, budget: int = 4096) -> "Functional":
        return cls(projection_base_index(), budget, tuple(query_schedule))

    def instance(self, step: int) -> int:
        return smn(self.base_index, self.query_schedule[step])

    def apply(self, instance_index: int, member: str, input_value: int) -> int:
        res = phi(instance_index, input_value, PrefixOracle(member), self.budget,
                  detect_cycles=True)
        if not res.halted:
            raise ForcingError(
                f"functional instance {instance_index} not total on a member")
        if res.value not in (0, 1):
            raise ForcingError(f"functional value {res.value} outside 0/1")
        return res.value


# --------------------------------------------------------------------------
# the forcing loop


@dataclass(frozen=True)
class ForcingStep:
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
    settled: bool


@dataclass
class ForcingResult:
    b_prefix: str
    b_member: str
    steps: list[ForcingStep] = field(default_factory=list)
    inconclusive: list[int] = field(default_factory=list)
    schedule: PruningSchedule | None = None

    def to_json(self) -> dict:
        return {
            "b_prefix": self.b_prefix,
            "b_member": self.b_member,
            "inconclusive": self.inconclusive,
            "steps": [
                {
                    "s": st.s, "sigma": st.sigma,
                    "n_index": st.n_index,
                    "n_disassembly": list(st.n_disassembly),
                    "probe_empty_side": st.probe_empty_side,
                    "dodge_bit": st.dodge_bit,
                    "m_index": st.m_index,
                    "m_disassembly": list(st.m_disassembly),
                    "event_unanimous": st.event_unanimous,
                    "functional_instance": st.functional_instance,
                    "coding_bit": st.coding_bit,
                    "members_before": st.members_before,
                    "members_after": st.members_after,
                    "settled": st.settled,
                }
                for st in self.steps
            ],
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


def force(schedule: PruningSchedule, f, steps: int, stage_budget: int,
          functional: Functional | None = None) -> ForcingResult:
    """Run the forcing loop for the given number of steps.

    f is either a Dnc2Witness, which then supplies both the dodge bits and
    the coding bits (bit s of step s is its value at s), or a plain bit
    string whose bit s is the coding bit of step s, with the dodge bits
    coming from the canonical halting-table witness at the stage budget.
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
    if max(functional.query_schedule[:steps], default=0) >= depth:
        raise ForcingError("functional query schedule runs past the depth cap")
    if steps > depth:
        raise ForcingError("more steps than the depth cap")

    work = schedule
    sigma = ""
    next_stage = schedule.last_stage() + 1
    result = ForcingResult("", "")
    for s in range(steps):
        settled = work.settled_at(stage_budget)
        if not settled:
            result.inconclusive.append(s)
        members = members_at_stage(work, depth, stage_budget)
        if not members:
            raise ForcingError(f"class empty at step {s}")
        # probe: the first side below sigma that is provably empty
        empty_side = None
        for i in (0, 1):
            if not any(x.startswith(sigma + str(i)) for x in members):
                empty_side = i
                break
        n_index = smn(_answer_base(empty_side), 2 * s + 1)
        bit = dodge.value(n_index)
        sigma_next = sigma + str(bit)
        survivors = [x for x in members if x.startswith(sigma_next)]
        if not survivors:
            raise ForcingError(
                f"step {s}: the bit source walked into the pruned side")
        work = work.extended(next_stage, {sigma + str(1 - bit)})
        next_stage += 1

        # fixed point: does the functional answer unanimously at the
        # program's own index on the surviving class?
        inst = functional.instance(s)

        def event(e: int):
            vals = {functional.apply(inst, x, e) for x in survivors}
            return vals.pop() if len(vals) == 1 else None

        def transformer(e: int) -> int:
            return smn(_answer_base(event(e)), 2 * s + 2)

        m_index = fixed_point(transformer)
        unanimous = event(m_index)
        a_bit = coding_bit(s)
        keep = [x for x in survivors if functional.apply(inst, x, m_index) == a_bit]
        if not keep:
            raise ForcingError(
                f"step {s}: coding bit {a_bit} unrealisable; the functional"
                f" is unanimous on the other value")
        forbid = {x for x in survivors if x not in keep}
        if forbid:
            work = work.extended(next_stage, forbid)
            next_stage += 1
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
            settled=settled,
        ))
        sigma = sigma_next

    final_members = members_at_stage(work, depth, stage_budget)
    if not final_members:
        raise ForcingError("final class empty")
    result.b_prefix = sigma
    result.b_member = final_members[0]
    result.schedule = work
    return result


# --------------------------------------------------------------------------
# xor-join verification


@dataclass(frozen=True)
class JoinReport:
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
