"""Reference halting data for the table tests, computed one program at a
time with toyvm.run: it reads no HaltingTable, so the table's index is
checked against runs it did not make.  walked_index builds the table's
own index the same way, one walked_run per program, so it knows no
subtree mass, multiplicity or settled halt of the prefix-trie walk.
recorded_run also reports the oracle indices a run was answered, which
the machine does not keep.  set_rule_run detects cycles by keeping every
key a run meets, the rule the machine's one saved key is checked against.
oracle_leaves explores one program's oracle branches by restarting it per
branch; it reads nothing from the prefix-trie walk, so the evaluator's
branch index is checked against runs it did not make either."""

from fractions import Fraction
from typing import NamedTuple

from depthlab.complexity import INSTRUCTION_CODES
from depthlab.semimeasure import DepthViolation
from depthlab.toyvm import (Instructions, MachineState, OutOfTableError, Program, _advance,
                            _outcome, extend, output_string, parse_body, programs_up_to,
                            run)

REFERENCE_BUDGET = 10 ** 4


class RecordingOracle:
    """Forwards answer to a real oracle and keeps in `asked` every index
    that oracle answered; an index whose answer raised is not kept."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.key = oracle.key
        self.asked: set = set()

    def answer(self, index: int) -> int:
        bit = self.oracle.answer(index)
        self.asked.add(index)
        return bit


def run_body(body: str, oracle, budget: int, **kw):
    """run of the program whose body is the given bits."""
    return run(Program.encode(body), oracle, budget, **kw)


def recorded_run(program, oracle, budget: int, **kw):
    """(run(program, oracle, budget, **kw), frozenset of the oracle indices
    it was answered); a run under no oracle is answered none."""
    if oracle is None:
        return run(program, None, budget, **kw), frozenset()
    recorder = RecordingOracle(oracle)
    return run(program, recorder, budget, **kw), frozenset(recorder.asked)


def set_rule_run(program, oracle, budget: int, r2: int = 0):
    """(Outcome, mu) of run(program, oracle, budget, r2=r2,
    detect_cycles=True) under the rule that keeps every cycle key met, with
    no cap: the run stops as "diverged" at the first step whose key it met
    before, at step mu (None when the run stops otherwise).  It makes one
    plain _advance call per step and keys the state between calls, so it
    shares the machine's steps but not its detector."""
    instrs = program.instructions()
    project = instrs.project
    st = MachineState(regs=[0, 0, r2, 0])
    met: dict = {}  # key -> the step it was first met at
    while True:
        if 0 <= st.pc < len(instrs) and st.steps < budget:
            key = (st.pc, project(st.regs)) if project else st.pc
            if key in met:
                return _outcome("diverged", st), met[key]
            met[key] = st.steps
        kind = _advance(instrs, oracle, min(budget, st.steps + 1), st, False)
        if kind is not None or st.steps >= budget:
            return _outcome(kind, st), None


def brent_bound(mu: int, repeat: int) -> int:
    """The last step at which a run whose key met at step mu first comes
    back at step repeat can stop as "diverged": S + lambda, for the cycle
    length lambda = repeat - mu and S the least 2^k - 1 >= max(mu,
    lambda - 1)."""
    lam = repeat - mu
    s = 0
    while s < max(mu, lam - 1):
        s = 2 * s + 1
    return s + lam


def halting_runs(oracle, cap: int, budget: int = REFERENCE_BUDGET) -> list:
    """(program index, Program, halt step, output) of every program of at
    most cap bits that halts within budget, in canonical program order.  A
    run's halt step does not depend on the budget it was given, so one run
    at the largest budget serves every smaller one."""
    runs = []
    for i, p in enumerate(programs_up_to(cap)):
        out = run(p, oracle, budget)
        if out.kind == "halted":
            runs.append((i, p, out.steps, out.output))
    return runs


_CODE = {code[2]: code for code in INSTRUCTION_CODES}


def walked_run(program, oracle, budget: int):
    """The Outcome of program as the prefix-trie walk runs it: on the
    instructions reached so far, looking for cycles over their control
    registers, and resumed with one more instruction, from a copy with no
    saved cycle key, each time the program counter reaches their end.  It
    halts exactly when run does; it may see a divergence later."""
    instrs = program.instructions()
    reached, st = Instructions(), MachineState()
    while True:
        kind = _advance(reached, oracle, budget, st, True)
        if kind != "halted" or st.pc < len(reached) or len(reached) == len(instrs):
            return _outcome(kind, st)
        reached = extend(reached, _CODE[instrs[len(reached)]])
        st = st.copy()


def walked_index(oracle, cap: int, budget: int) -> tuple[dict, int]:
    """(HaltingTable._halts, HaltingTable.unresolved) of a table ensured
    to budget, from one walked_run per program: output -> {halt step:
    [least program index, mass in units of 2^-cap]}, and the number of
    runs the budget left live."""
    halts: dict = {}
    unresolved = 0
    for i, p in enumerate(programs_up_to(cap)):
        out = walked_run(p, oracle, budget)
        if out.kind == "halted":
            entry = halts.setdefault(out.output, {}).setdefault(out.steps, [i, 0])
            entry[1] += 1 << (cap - len(p))
        unresolved += out.kind == "budget"
    return halts, unresolved


def reference_output_map(runs, budget: int, max_len: int) -> dict:
    """output -> (program length, Program) of the canonically first run
    halting on it within budget, in the order those first runs come."""
    omap: dict = {}
    for _i, p, steps, out in runs:
        if steps <= budget and len(out) <= max_len and out not in omap:
            omap[out] = (len(p), p)
    return omap


def _mass(lengths: dict) -> Fraction:
    """sum 2^-n over a {program length n: count} tally."""
    return sum((Fraction(count, 1 << n) for n, count in lengths.items()), Fraction(0))


def reference_mass_map(runs, budget: int, max_len: int) -> dict:
    """output -> summed 2^-|p| of the runs halting on it within budget, in
    the order of the first such run."""
    lengths: dict = {}
    for _i, p, steps, out in runs:
        if steps <= budget and len(out) <= max_len:
            tally = lengths.setdefault(out, {})
            tally[len(p)] = tally.get(len(p), 0) + 1
    return {out: _mass(tally) for out, tally in lengths.items()}


def reference_total_mass(runs, budget: int) -> Fraction:
    tally: dict = {}
    for _i, p, steps, _out in runs:
        if steps <= budget:
            tally[len(p)] = tally.get(len(p), 0) + 1
    return _mass(tally)


def reference_cylinder(runs, sigma: str, budget: int) -> Fraction:
    """2^|sigma| times the mass of the runs halting within budget on an
    output that extends sigma, summed one run at a time."""
    total = Fraction(0)
    for _i, p, steps, out in runs:
        if steps <= budget and out.startswith(sigma):
            total += Fraction(1, 1 << len(p))
    return total * (1 << len(sigma))


# ------------------------------------------------------------------ oracle branches


class _ProbeOracle:
    def __init__(self, assign: dict, depth: int):
        self.assign = assign
        self.depth = depth
        self.missing: int | None = None
        self.too_deep: int | None = None

    def answer(self, index: int) -> int:
        if index >= self.depth:
            self.too_deep = index
            raise OutOfTableError(f"query at {index} beyond depth {self.depth}")
        bit = self.assign.get(index)
        if bit is None:
            self.missing = index
            raise OutOfTableError(f"unassigned index {index}")
        return bit


class OracleLeaf(NamedTuple):
    """One reachable answer pattern: the pinned bits and the run outcome."""

    assign: tuple
    halted: bool
    output: str | None

    def consistent(self, prefix: str) -> bool:
        return all(prefix[i] == ("1" if b else "0") for i, b in self.assign)


def oracle_leaves(program: Program, budget: int, depth: int) -> tuple[OracleLeaf, ...]:
    """All reachable oracle-answer branches of one program at one budget,
    each halting one with its whole output (toyvm.output_string).  Raises
    DepthViolation if any reachable query lands at or past depth."""
    instrs = parse_body(program.body)
    leaves = []

    def explore(assign: dict):
        probe = _ProbeOracle(assign, depth)
        st = MachineState()
        kind = _advance(instrs, probe, budget, st, True)
        if kind == "aborted":
            if probe.too_deep is not None:
                raise DepthViolation(
                    f"program {program.bits} queries index {probe.too_deep}")
            if probe.missing is not None:
                idx = probe.missing
                for bit in (0, 1):
                    explore({**assign, idx: bit})
                return
        halted = kind == "halted"
        leaves.append(OracleLeaf(
            tuple(sorted(assign.items())),
            halted,
            output_string(st.rope) if halted else None,
        ))

    explore({})
    return tuple(leaves)
