"""Brute-force stage- and time-bounded program-size complexity.

All complexity queries share one enumeration per (oracle, cap), kept in
toyvm.MEMO.tables: a HaltingTable runs every program of at most cap bits
and resumes the live ones only as far as queries require, so a stage
sweep costs one pass over the program space rather than one per stage.
Witnesses are the lexicographically least among the shortest, which the
canonical enumeration order gives for free.

The unrelativised complexity runs with no oracle at all: a program that
executes ORACLE then aborts, so every oracle-free witness is verbatim a
witness under any oracle and K^A <= K holds with constant zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .toyvm import (
    MEMO,
    MachineState,
    Program,
    _advance,
    bits_to_hex,
    check_bits,
    oracle_key,
    programs_up_to,
    rope_equals,
    rope_materialize,
    run,
)


class NoStageWithinBudget(Exception):
    """A stage search ran past its configured ceiling."""


class ReductionDiverged(Exception):
    """An oracle reduction failed to answer a needed index in budget."""


# --------------------------------------------------------------------------
# time bounds


@dataclass(frozen=True)
class TimeBound:
    """Total nondecreasing step budget, either a*(n+1)**b or an explicit
    nondecreasing table extended by its final value."""

    kind: str
    a: int = 0
    b: int = 0
    table: tuple = ()

    @classmethod
    def poly(cls, a: int, b: int) -> "TimeBound":
        if a < 0 or b < 0:
            raise ValueError("poly time bound needs a, b >= 0")
        return cls("poly", a=a, b=b)

    @classmethod
    def from_table(cls, values) -> "TimeBound":
        vals = tuple(int(v) for v in values)
        if not vals:
            raise ValueError("empty table")
        if any(y < x for x, y in zip(vals, vals[1:])):
            raise ValueError("table time bound must be nondecreasing")
        return cls("table", table=vals)

    @classmethod
    def parse(cls, text: str) -> "TimeBound":
        kind, _, arg = text.partition(":")
        if kind == "poly":
            a, b = arg.split(",")
            return cls.poly(int(a), int(b))
        if kind == "table":
            with open(arg, "r", encoding="ascii") as fh:
                return cls.from_table(int(tok) for tok in fh.read().split())
        raise ValueError(f"unknown time bound {text!r}")

    def __call__(self, n: int) -> int:
        if self.kind == "poly":
            return self.a * (n + 1) ** self.b
        return self.table[n] if n < len(self.table) else self.table[-1]

    def describe(self) -> str:
        if self.kind == "poly":
            return f"poly:{self.a},{self.b}"
        return "table:" + ",".join(map(str, self.table))


# --------------------------------------------------------------------------
# the shared enumeration core


class HaltingTable:
    """Resumable halting data for every program of at most cap bits under
    one oracle.  Results are independent of query interleaving.

    Outcomes sit in lists parallel to `programs`: the outcome kind (None
    while unresolved), the steps it took, and for halting runs the output
    rope and its length.  Only the runs still live after the last `ensure`
    hold a parsed body and a MachineState; a run drops both when it
    resolves."""

    def __init__(self, oracle, cap: int):
        self.oracle = oracle
        self.cap = cap
        self.programs = programs_up_to(cap)
        n = len(self.programs)
        self._status: list = [None] * n
        self._steps = [0] * n
        self._rope: list = [None] * n
        self._out_len = [0] * n
        self._live: dict = {}  # program index -> (instructions, MachineState)
        self._budget = -1      # every run is resolved or advanced this far
        self._output_maps: dict = {}
        self._mass_maps: dict = {}

    @property
    def unresolved(self) -> int:
        """Number of programs whose run neither halted, aborted nor
        provably diverged within the budgets ensured so far."""
        return len(self.programs) if self._budget < 0 else len(self._live)

    def ensure(self, budget: int) -> None:
        if budget <= self._budget:
            return
        if self._budget < 0:
            runs = ((i, p.instructions(), MachineState())
                    for i, p in enumerate(self.programs))
        else:
            runs = [(i, instrs, st) for i, (instrs, st) in self._live.items()]
        for i, instrs, st in runs:
            outcome = _advance(instrs, self.oracle, budget, st, True)
            if outcome is None:
                self._live[i] = (instrs, st)
                continue
            self._live.pop(i, None)
            self._status[i] = outcome.kind
            self._steps[i] = outcome.steps
            if outcome.kind == "halted":
                self._rope[i] = outcome.rope
                self._out_len[i] = outcome.output_length
        self._budget = budget

    def halted_by(self, budget: int):
        """(program, halt step, rope, output length) for all halting runs."""
        self.ensure(budget)
        for p, status, steps, rope, out_len in zip(
                self.programs, self._status, self._steps, self._rope, self._out_len):
            if status == "halted" and steps <= budget:
                yield p, steps, rope, out_len

    def output_map(self, budget: int, max_len: int) -> dict:
        """output string -> (program length, Program), first (= canonical)
        witness per output, restricted to outputs of at most max_len bits."""
        key = (budget, max_len)
        cached = self._output_maps.get(key)
        if cached is None:
            cached = {}
            for p, _s, rope, out_len in self.halted_by(budget):
                if out_len <= max_len:
                    sigma = rope_materialize(rope, max_len)
                    if sigma not in cached:
                        cached[sigma] = (len(p), p)
            self._output_maps[key] = cached
        return cached

    def mass_map(self, budget: int, max_len: int) -> dict:
        """output string -> exact halting mass sum(2^-|p|), restricted to
        outputs of at most max_len bits."""
        key = (budget, max_len)
        cached = self._mass_maps.get(key)
        if cached is None:
            numerators: dict = {}  # mass in units of 2^-cap
            for p, _s, rope, out_len in self.halted_by(budget):
                if out_len <= max_len:
                    sigma = rope_materialize(rope, max_len)
                    numerators[sigma] = numerators.get(sigma, 0) + (1 << (self.cap - len(p)))
            unit = 1 << self.cap
            cached = {sigma: Fraction(num, unit) for sigma, num in numerators.items()}
            self._mass_maps[key] = cached
        return cached

    def total_mass(self, budget: int) -> Fraction:
        return Fraction(sum(1 << (self.cap - len(p))
                            for p, _s, _r, _l in self.halted_by(budget)),
                        1 << self.cap)

    def halt_events(self, max_len: int):
        """Halting runs resolved so far, sorted by halting step, for
        first-crossing searches; call ensure() up to the stage ceiling
        first.  Does not advance any program."""
        events = []
        for p, status, steps, rope, out_len in zip(
                self.programs, self._status, self._steps, self._rope, self._out_len):
            if status == "halted" and out_len <= max_len:
                events.append((steps, rope_materialize(rope, max_len), len(p)))
        events.sort()
        return events


def halting_table(oracle, cap: int) -> HaltingTable:
    key = (oracle_key(oracle), cap)
    table = MEMO.tables.get(key)
    if table is None:
        table = MEMO.tables[key] = HaltingTable(oracle, cap)
    return table


# --------------------------------------------------------------------------
# complexity queries


@dataclass(frozen=True)
class ComplexityResult:
    """Shortest-program length for a target, or above-cap when the search
    space is exhausted; the witness is lex-least among the shortest."""

    value: int | None
    witness: Program | None

    @property
    def above_cap(self) -> bool:
        return self.value is None

    def clamped(self, cap: int) -> int:
        """value, with above-cap standing in as cap + 1 for arithmetic."""
        return self.value if self.value is not None else cap + 1


def k_stage(sigma: str, stage: int, oracle=None, cap: int = 16) -> ComplexityResult:
    """Min length of a program halting on sigma within `stage` absolute
    steps; nonincreasing in stage."""
    check_bits(sigma)
    if cap < 2:
        raise ValueError("cap must be at least 2")
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    table = halting_table(oracle, cap)
    hit = table.output_map(stage, len(sigma)).get(sigma)
    if hit is None:
        return ComplexityResult(None, None)
    return ComplexityResult(hit[0], hit[1])


def k_time_bounded(sigma: str, t: TimeBound, oracle=None, cap: int = 16) -> ComplexityResult:
    """Time-bounded complexity: the stage query at absolute budget t(|sigma|)."""
    return k_stage(sigma, t(len(sigma)), oracle, cap)


def lowk_gap(sigma: str, oracle, stage: int, cap: int = 16) -> int:
    """K_s(sigma) - K_s^A(sigma), with above-cap values entering as cap+1.

    Oracle-free programs run unchanged under every oracle, so the gap is
    never negative here; how far above zero it climbs is the probe."""
    plain = k_stage(sigma, stage, None, cap).clamped(cap)
    relative = k_stage(sigma, stage, oracle, cap).clamped(cap)
    return plain - relative


def result_csv_row(sigma: str, descriptor: str, result: ComplexityResult) -> str:
    value = "above-cap" if result.above_cap else str(result.value)
    witness = "" if result.witness is None else bits_to_hex(result.witness.bits)
    fields = [sigma, descriptor, value, witness]
    return ",".join(f'"{f}"' if "," in f else f for f in fields)


# --------------------------------------------------------------------------
# code lifting between oracles


@dataclass(frozen=True)
class Reduction:
    """A machine program computing oracle bits: bit i is phi-value mod 2 of
    the program run with R2 = i against the base oracle."""

    program: Program
    budget: int

    def bit(self, base_oracle, index: int) -> tuple[int, int]:
        """(bit, steps spent); raises ReductionDiverged on a miss."""
        st = MachineState(regs=[0, 0, index, 0])
        out = _advance(self.program.instructions(), base_oracle, self.budget, st, False)
        if out is None or out.kind != "halted":
            raise ReductionDiverged(f"reduction did not answer index {index}")
        return st.regs[3] & 1, out.steps


def identity_reduction(budget: int = 4096) -> Reduction:
    """Pass-through: bit i of the simulated oracle is bit i of the base."""
    from .toyvm import assemble

    body = assemble([
        "copy:",
        ("JZ", 2, "query"),
        ("DEC", 2),
        ("INC", 0),
        ("JMP", "copy"),
        "query:",
        ("ORACLE",),
        ("JZ", 1, "done"),
        ("INC", 3),
        "done:",
    ])
    return Reduction(Program.encode(body), budget)


WRAPPER_BITS = 8
"""Pinned accounting size of the oracle-translation layer, in bits."""


class TranslatedOracle:
    """The oracle whose bit i is reduction^base(i); steps spent inside the
    reduction are charged to the wrapped run."""

    def __init__(self, reduction: Reduction, base_oracle):
        self.reduction = reduction
        self.base = base_oracle
        self.spent = 0
        self._memo: dict[int, int] = {}
        self.key = ("translated", reduction.program.bits,
                    reduction.budget, oracle_key(base_oracle))

    def answer(self, index: int) -> int:
        bit = self._memo.get(index)
        if bit is None:
            bit, steps = self.reduction.bit(self.base, index)
            self.spent += steps
            self._memo[index] = bit
        return bit


@dataclass(frozen=True)
class LiftedCode:
    """A program re-targeted from oracle A to oracle B through a reduction.

    Execution is the base program against the translated oracle; declared
    length is |base| plus the pinned wrapper size, independent of the base.
    """

    base: Program
    reduction: Reduction

    def __len__(self) -> int:
        return len(self.base) + WRAPPER_BITS

    def run_under(self, b_oracle, budget: int):
        """(outcome, total steps including reduction work)."""
        translated = TranslatedOracle(self.reduction, b_oracle)
        out = run(self.base, translated, budget)
        return out, out.steps + translated.spent


def lift_code(tau: Program, reduction: Reduction, t: TimeBound | None = None,
              b_oracle=None, sigma: str | None = None):
    """Wrap an A-witness as a B-program via the reduction.

    Unbounded case: returns the LiftedCode.  With a time bound t (the
    truth-table case) a target and base oracle are required; the wrapped
    run is measured and the step bound it actually met is returned as an
    explicit-table time bound, so callers get (LiftedCode, t_prime)."""
    lifted = LiftedCode(tau, reduction)
    if t is None:
        return lifted, None
    if b_oracle is None or sigma is None:
        raise ValueError("tt-case lifting needs the base oracle and target")
    generous = t(len(sigma)) * (reduction.budget + 1) + reduction.budget + 1
    out, total = lifted.run_under(b_oracle, generous)
    if out.kind != "halted" or not rope_equals(out.rope, sigma):
        raise ReductionDiverged("wrapped run failed to reproduce the target")
    t_prime = TimeBound.from_table([max(total, t(n)) for n in range(len(sigma) + 1)])
    return lifted, t_prime
