"""Brute-force stage- and time-bounded program-size complexity.

All complexity queries share one enumeration per (oracle, cap), kept in
toyvm.MEMO.tables: a HaltingTable resolves every program of at most cap
bits and resumes the live ones only as far as queries require, so a
stage sweep costs one pass over the program space rather than one per
stage.

The pass does not run the programs one by one.  It walks a trie of
instruction prefixes and runs each prefix once: bodies that share a
prefix run identically until the program counter first leaves it, and
at the caps in use almost every run halts, aborts or diverges within a
few steps of its first instructions.  A prefix whose run ends inside it
settles its whole subtree, whose mass has a closed form; a prefix whose
run reaches its end settles the bodies whose remaining bits hold no
complete instruction and splits into one child per next instruction,
less two kinds: the one-step halts, which it settles itself, and the
R3 half of each R2/R3 mirror pair, which its R2 twin stands for.
An ORACLE is one more branch point: under toyvm.OracleBranches a run
that asks an unpinned index splits into one child per answer.  That is how
semimeasure.PrefixMassEvaluator averages over oracle prefixes, and it
never fires under the real oracles of a HaltingTable.  PrefixTrie holds
the one walk loop both use, its rules, and why the cycle key of a
prefix is sound for all its extensions.

As runs halt, the table folds them into one index by output: per
halting step, the least program index and the summed mass.  Every read
at a budget -- K_s, m_s, the output map, the cylinder sums of the
machine martingale, the first-crossing search -- scans the halt steps
of the outputs it reads (a handful each at the caps in use), so no read
rescans the programs or keeps a cache per (budget, length).  Witnesses
are the lexicographically least among the shortest: a program's index
is its rank in canonical order, and each step keeps the least index
folded into it.

The unrelativised complexity runs with no oracle at all: a program that
executes ORACLE then aborts, so every oracle-free witness is verbatim a
witness under any oracle and K^A <= K holds with constant zero.

Randomness deficiency, the largest n - K_s over a string's prefixes, is
read here too, so the commands that read it load no martingale code.
"""

from __future__ import annotations

from typing import NamedTuple

from .bits import check_bits, parse_int, read_input
from .toyvm import (
    INSTRUCTION_CODES,
    MEMO,
    OP_DEC,
    OP_EMITR,
    OP_HALT,
    OP_INC,
    OP_JZ,
    Instructions,
    NO_PINS,
    MachineError,
    MachineState,
    OracleBranches,
    Program,
    _advance,
    bits_to_hex,
    extend,
    max_body_length,
    oracle_key,
    output_string,
    program_length,
    programs_up_to,
)


# --------------------------------------------------------------------------
# time bounds


class TimeBound(NamedTuple):
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
        if min(vals) < 0:
            raise ValueError(f"table time bound must be nonnegative, got {min(vals)}")
        if any(y < x for x, y in zip(vals, vals[1:])):
            raise ValueError("table time bound must be nondecreasing")
        return cls("table", table=vals)

    @classmethod
    def parse(cls, text: str) -> "TimeBound":
        kind, _, arg = text.partition(":")
        if kind == "poly":
            try:
                a, b = map(int, arg.split(","))
            except ValueError:
                raise ValueError(f"time bound {text!r} is not poly:A,B") from None
            return cls.poly(a, b)
        if kind == "table":
            return read_input(arg, "time bound table", lambda lines: cls.from_table(
                parse_int(tok) for line in lines for tok in line.split()))
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


def _within(at: dict, budget: int):
    """(least program index, mass numerator) of the halts within budget in
    one output's {halt step: [least index, mass]}, or None."""
    least, total = None, 0
    for s, (i, m) in at.items():
        if s <= budget:
            total += m
            if least is None or i < least:
                least = i
    return None if least is None else (least, total)


def _tail_counts() -> list:
    """count[l]: how many l-bit strings hold no complete instruction, that
    is, no prefix in INSTRUCTION_CODES; 0 from the widest code on."""
    counts = []
    while not counts or counts[-1]:
        n = len(counts)
        counts.append((1 << n) - sum(1 << (n - w) for w, *_ in INSTRUCTION_CODES if w <= n))
    return counts


# the instructions that halt when executed: HALT and the reserved opcodes
_ONE_STEP_HALTS = frozenset(code[2] for code in INSTRUCTION_CODES
                            if code[2][0] == OP_HALT or code[2][0] > OP_EMITR)
# the instructions that name R2 or R3: INC, DEC and JZ on either
_NAMES_R2_R3 = frozenset(code[2] for code in INSTRUCTION_CODES
                         if code[2][0] in (OP_INC, OP_DEC, OP_JZ) and code[2][1] >= 2)


def _mirror_factor(code: tuple) -> int:
    """The multiplicity factor of a code's child under an unmirrored node:
    2 for an R2 code, 0 for the R3 code it stands for, 1 for the rest."""
    if code[2] not in _NAMES_R2_R3:
        return 1
    return 2 if code[2][1] == 2 else 0


class PrefixTrie:
    """The trie of instruction prefixes of the bodies of at most cap bits,
    and the one loop that walks it.

    A node is (instructions, prefix length, prefix value, MachineState,
    pins, multiplicity): a body prefix P of whole instructions run as the
    body P alone, under the oracle answers its pins fix (NO_PINS under a
    real oracle), standing for `multiplicity` subtrees that run alike (see
    below; 1 at the root).  Every body P.x runs exactly as P does until
    the program counter first leaves P's instructions, so the run stops in
    one of four ways:

    * It halts, aborts or diverges inside P (HALT, a reserved opcode, a
      jump before the start, an oracle abort, a repeated cycle key).
      Every extension of P does the same, so the subtree is settled at
      once: a halt has mass sum over body lengths n of
      2^(n-|P|) 2^-|gamma(n+1)| 2^-n and least program index that of P.
    * It traps: the program counter reaches len(P) or beyond.  The bodies
      P.x whose tail x holds no complete next instruction halt there, and
      make one halt (the tail counts follow from the opcode widths).
      Every other body is P.I.y for exactly one next instruction I, so
      one child per INSTRUCTION_CODES entry that fits under the cap (the
      one decoder, which toyvm.parse_body reads too) resumes from a copy
      of the state; a child whose program counter is still past its end
      traps again at once.  Two kinds of child are not pushed:
      - When the program counter is exactly len(P) and the budget has a
        step to spare, the HALT child and the six reserved-opcode
        children (4-bit codes 0 and 10-15) each halt after one step with
        P's output.  They make one halt: one more step, their summed
        subtree masses, and the index of P.HALT, the least of the seven.
        With no step to spare they are pushed, and wait in `live`.
      - A node is unmirrored when its body names neither R2 nor R3 and
        its state has R2 == R3.  Swapping R2 and R3 throughout a body
        then maps the subtree of each child naming R3 onto that of its
        mirror naming R2 (see the toyvm docstring), so an unmirrored node
        pushes the R2 child of each INC, DEC and JZ code with twice its
        multiplicity and skips the R3 child.  The R2 body has the smaller
        index, so least indices do not change.
    * It stops at an ORACLE of an OracleBranches whose answer is not
      pinned.  An index below depth splits the node into two children on
      the same P, one per answer: each resumes at the next instruction
      with R1 set to its answer and the index added to its pins; `steps`
      already counts the ORACLE step.  An index at or beyond depth drops
      the node and is recorded by the oracle.  A real oracle never leaves
      an answer unpinned, so under one this never happens.
      toyvm.OracleBranches.children builds the two children; it is the
      one split rule, which pi01forcing.Functional.values shares.
    * It reaches the budget: the node goes to `live` for a later walk
      at a larger budget, or is dropped when there is none.

    Every halt a node yields carries its mass times its multiplicity.
    Cycle keys project onto P's control registers.  That is sound for
    every extension, because between two equal keys the run executed only
    P's instructions, which read no other register, and asked no index
    it had not pinned."""

    def __init__(self, cap: int):
        if cap < 2:
            raise ValueError("cap must be at least 2")
        nmax = self.nmax = max_body_length(cap)
        weight = [1 << (cap - program_length(n)) for n in range(nmax + 1)]
        tails = _tail_counts()
        # per prefix length p, in units of 2^-cap: the mass of the subtree,
        # of its tails that hold no complete instruction, and of the
        # subtrees of its one-step halts
        subtree = [0] * (nmax + 2)
        for p in range(nmax, -1, -1):
            subtree[p] = weight[p] + 2 * subtree[p + 1]
        self.subtree_mass = subtree[:-1]
        self.tail_mass = [sum(c * weight[p + n] for n, c in enumerate(tails)
                              if p + n <= nmax) for p in range(nmax + 1)]
        halts = [code for code in INSTRUCTION_CODES if code[2] in _ONE_STEP_HALTS]
        self.halt_mass = [sum(subtree[p + code[0]] for code in halts)
                          for p in range(nmax - 3)]
        # per (unmirrored, settled) and number of body bits left: the
        # (code, multiplicity factor) of each child a trapped node pushes;
        # every room past the widest code shares one list
        widest = max(code[0] for code in INSTRUCTION_CODES)
        self.kids = {}
        for unmirrored in (False, True):
            for settled in (False, True):
                kids = [(code, _mirror_factor(code) if unmirrored else 1)
                        for code in INSTRUCTION_CODES
                        if not (settled and code in halts)]
                fits = [[kid for kid in kids if kid[1] and kid[0][0] <= room]
                        for room in range(widest + 1)]
                self.kids[unmirrored, settled] = [fits[min(room, widest)]
                                                  for room in range(nmax + 1)]

    @staticmethod
    def root() -> list:
        """A stack holding the root, the empty body."""
        return [(Instructions(), 0, 0, MachineState(), NO_PINS, 1)]

    def walk(self, stack: list, oracle, budget: int, live: list | None = None):
        """Run the nodes on stack and all their descendants to budget,
        popping them; yield (least program index, pins, halted
        MachineState, mass numerator) for each halt, in no fixed order.
        The state is the walk's own: read it before the next item."""
        nmax, kids = self.nmax, self.kids
        subtree_mass, tail_mass, halt_mass = self.subtree_mass, self.tail_mass, self.halt_mass
        branching = isinstance(oracle, OracleBranches)
        while stack:
            node = stack.pop()
            instrs, p, v, st, pins, mult = node
            if branching:
                oracle.pins = pins
            kind = _advance(instrs, oracle, budget, st, True)
            if kind != "halted":
                if kind is None:
                    if live is not None:
                        live.append(node)
                elif kind == "aborted" and branching:
                    for child_pins, child in oracle.children((1 << p) - 1 + v, st):
                        stack.append((instrs, p, v, child, child_pins, mult))
                continue
            if st.pc < len(instrs):
                yield (1 << p) - 1 + v, pins, st, subtree_mass[p] * mult
                continue
            room = nmax - p
            settled = st.pc == len(instrs) and st.steps < budget and room >= 4
            unmirrored = st.regs[2] == st.regs[3] and _NAMES_R2_R3.isdisjoint(instrs)
            for code, times in kids[unmirrored, settled][room]:
                width = code[0]
                stack.append((extend(instrs, code), p + width, v << width | code[1],
                              st.copy(), pins, mult * times))
            yield (1 << p) - 1 + v, pins, st, tail_mass[p] * mult
            if settled:
                st.steps += 1
                yield (1 << (p + 4)) - 1 + (v << 4), pins, st, halt_mass[p] * mult


MAX_CAP = 40
"""The largest cap of a walk from the root.  Such a walk runs about 3.5
times the nodes per two more cap bits: a stage-1 build at cap 42 runs
15.9 M nodes in 51 s, and one at cap 5000 runs out of memory.  The caps
in use reach 37, where the first halting runs that revisit a program
counter fit, so HaltingTable and PrefixMassEvaluator refuse a larger cap
through check_cap before they build a PrefixTrie."""


def check_cap(cap: int) -> int:
    if cap > MAX_CAP:
        raise ValueError(f"cap {cap} is above the bound {MAX_CAP}")
    return cap


class HaltingTable:
    """Resumable halting data for every program of at most cap bits under
    one oracle.  Results are independent of query interleaving.

    The programs are walked as a PrefixTrie, not one by one: a node whose
    run ends inside its prefix settles its whole subtree, one that traps
    settles its tails and one-step halts and grows one child per next
    instruction and mirror pair, and one that reaches the budget waits in
    `_live`, with its multiplicity, for the next `ensure`.  The
    oracle is a real one, so no node branches on an oracle answer (the
    trie's ORACLE branch point serves PrefixMassEvaluator).

    Halts are folded into one index output -> {halt step: [least program
    index, mass numerator]}, masses in units of 2^-cap.  The walk is not
    in canonical order, so each step keeps the minimum index it is given.
    Each halt is keyed by its whole output (toyvm.output_string), so a
    halt on more than toyvm.OUTPUT_LIMIT bits stops the walk with
    MachineError, and the table refuses any later `ensure`.  Every read
    at a budget scans the steps of the outputs it reads in place: the
    least index and summed mass of the steps within the budget."""

    def __init__(self, oracle, cap: int):
        self._trie = PrefixTrie(check_cap(cap))
        self.oracle = oracle
        self.cap = cap
        self.programs = programs_up_to(cap)
        self._halts: dict = {}  # output -> {halt step: [least index, mass]}
        # trie nodes waiting on a larger budget; the root is the empty body;
        # None after a walk that raised, whose nodes are lost
        self._live: list | None = PrefixTrie.root()
        self._budget = -1       # every run is resolved or advanced this far

    @property
    def unresolved(self) -> int:
        """Number of programs whose run neither halted, aborted nor
        provably diverged within the budgets ensured so far."""
        nmax = self._trie.nmax
        return sum(((1 << (nmax - p + 1)) - 1) * mult
                   for _i, p, _v, _st, _pins, mult in self._live)

    @property
    def settled_stage(self) -> int | None:
        """The largest halting step resolved so far, or None before any
        halt: every read at a larger budget equals the read at this one
        once nothing is unresolved."""
        return max((s for at in self._halts.values() for s in at), default=None)

    @property
    def reach(self) -> int | None:
        """The longest output resolved so far, or None before any halt."""
        return max(map(len, self._halts), default=None)

    def ensure(self, budget: int) -> None:
        if budget <= self._budget:
            return
        if self._live is None:
            raise MachineError("an earlier walk of this table stopped part-way")
        halts, pending, live = self._halts, self._live, []
        self._live = None
        for index, _pins, st, mass in self._trie.walk(pending, self.oracle, budget, live):
            at = halts.setdefault(output_string(st.rope), {})
            entry = at.setdefault(st.steps, [index, 0])
            entry[0] = min(entry[0], index)
            entry[1] += mass
        self._live = live
        self._budget = budget

    def halts_on(self, sigma: str) -> dict:
        """{halt step: [least program index, mass numerator]} of the halts
        on sigma resolved so far, the table's own record, to be read and
        not changed; call ensure() first.  Does not advance any program."""
        return self._halts.get(sigma, {})

    def first(self, sigma: str, budget: int) -> Program | None:
        """The canonically first program halting on sigma within budget."""
        self.ensure(budget)
        hit = _within(self.halts_on(sigma), budget)
        return None if hit is None else self.programs[hit[0]]

    def mass_numerator(self, sigma: str, budget: int) -> int:
        """Halting mass on sigma within budget, in units of 2^-cap."""
        self.ensure(budget)
        hit = _within(self.halts_on(sigma), budget)
        return 0 if hit is None else hit[1]

    def output_map(self, budget: int, max_len: int) -> dict:
        """output string -> (program length, Program), first (= canonical)
        witness per output, restricted to outputs of at most max_len bits,
        in canonical order of the witnesses."""
        self.ensure(budget)
        found = []
        for sigma, at in self._halts.items():
            hit = _within(at, budget) if len(sigma) <= max_len else None
            if hit is not None:
                found.append((hit[0], sigma))
        found.sort()
        witnesses = {sigma: self.programs[i] for i, sigma in found}
        return {sigma: (len(p), p) for sigma, p in witnesses.items()}

    def total_mass(self, budget: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self.cylinder_numerator("", budget), 1 << self.cap)

    def cylinder_numerator(self, prefix: str, budget: int) -> int:
        """Halting mass within budget on the outputs extending prefix, in
        units of 2^-cap: the l = 0 read of cylinder_numerators."""
        return self.cylinder_numerators(prefix, 0, budget).get(0, 0)

    def cylinder_numerators(self, prefix: str, l: int, budget: int) -> dict:
        """{int(tau, 2): halting mass within budget on the outputs extending
        prefix + tau} over the tau of l bits, in units of 2^-cap, nonzero
        masses only.  One pass over the outputs: an output shorter than
        prefix + tau extends no such cylinder."""
        check_bits(prefix)
        self.ensure(budget)
        start, end = len(prefix), len(prefix) + l
        masses: dict = {}
        for sigma, at in self._halts.items():
            if len(sigma) < end or not sigma.startswith(prefix):
                continue
            hit = _within(at, budget)
            if hit is not None:
                tau = int(sigma[start:end] or "0", 2)
                masses[tau] = masses.get(tau, 0) + hit[1]
        return masses


def halting_table(oracle, cap: int) -> HaltingTable:
    key = (oracle_key(oracle), cap)
    table = MEMO.tables.get(key)
    if table is None:
        table = MEMO.tables[key] = HaltingTable(oracle, cap)
    return table


# --------------------------------------------------------------------------
# complexity queries


class ComplexityResult(NamedTuple):
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
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    p = halting_table(oracle, cap).first(sigma, stage)
    return ComplexityResult(None, None) if p is None else ComplexityResult(len(p), p)


def k_time_bounded(sigma: str, t: TimeBound, oracle=None, cap: int = 16) -> ComplexityResult:
    """Time-bounded complexity: the stage query at absolute budget t(|sigma|)."""
    return k_stage(sigma, t(len(sigma)), oracle, cap)


def m_numerator(sigma: str, stage: int, oracle=None, cap: int = 16) -> int:
    """The stage approximation of the machine semimeasure at sigma, as
    its numerator over 2^cap: the mass of the programs within the cap
    that print sigma within `stage` steps."""
    check_bits(sigma)
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    return halting_table(oracle, cap).mass_numerator(sigma, stage)


def result_csv_row(sigma: str, descriptor: str, result: ComplexityResult) -> str:
    value = "above-cap" if result.above_cap else str(result.value)
    witness = "" if result.witness is None else bits_to_hex(result.witness.bits)
    fields = [sigma, descriptor, value, witness]
    return ",".join(f'"{f}"' if "," in f else f for f in fields)


# --------------------------------------------------------------------------
# randomness deficiency


class DeficiencyRecord(NamedTuple):
    """max over n <= |sigma| of n - K_s(prefix of length n); above-cap
    complexities enter as cap + 1, so the value is an upper bound on the
    same quantity under the (unknowable) true stage-s complexities."""

    sigma: str
    stage: int
    value: int
    argmax: int
    cap: int


def deficiency(sigma: str, stage: int, cap: int = 16, oracle=None) -> DeficiencyRecord:
    check_bits(sigma)
    best, arg = None, 0
    for n in range(len(sigma) + 1):
        term = n - k_stage(sigma[:n], stage, oracle, cap).clamped(cap)
        if best is None or term > best:
            best, arg = term, n
    return DeficiencyRecord(sigma, stage, best, arg, cap)
