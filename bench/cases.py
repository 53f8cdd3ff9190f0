"""The four workloads: seeded `depthlab` command lines and their checks.

Each workload turns a seed into a fixed-size list of cases.  The seed
picks targets, bit strings, tables and schedules; it never changes how
many commands run or the sizes they run at, so run-to-run cost stays
comparable across seeds.  Every case carries a check that recomputes
something in this process (a witness replay, a smaller-cap reference, an
exact identity) and a `values` extractor that names the exact values the
artifact must reproduce; at the default seed those are compared with
`expected.json`, recorded from the parent commit.  Checks name fields
rather than compare whole artifacts, so added keys are not failures.

Everything here imports `depthlab` from the checkout's `src/`; `run.py`
puts it on `sys.path` first.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from depthlab import pi01forcing, randomness, semimeasure
from depthlab.complexity import TimeBound
from depthlab.toyvm import (
    Program,
    bits_to_hex,
    hex_to_bits,
    int_to_bin,
    parse_oracle,
    program_length,
    programs_up_to,
    rope_materialize,
    run,
)

DEFAULT_SEED = 0
REF_CAP = 20
"""Cap of the in-process reference.  A shortest program of at most
REF_CAP bits is also the shortest at any larger cap, so a value the
reference finds must be reproduced exactly, witness included, and one it
misses must come out above REF_CAP."""


@dataclass
class Case:
    name: str
    argv: list
    check: object                      # stdout text -> list of problems
    files: dict = field(default_factory=dict)  # relative path -> content


@dataclass
class Workload:
    cases: list
    cross_check: object = None         # {case name: values} -> [(case, problem)]


def bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def strings_up_to(n: int, start: int = 0):
    return [format(v, "b").zfill(m) if m else ""
            for m in range(start, n + 1) for v in range(1 << m)]


def frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def csv_rows(out: str) -> list:
    return list(csv.DictReader(io.StringIO(out)))


def k_value(text: str):
    return None if text == "above-cap" else int(text)


def kraft_tail(lo: int, hi: int) -> Fraction:
    """Sum of 2^-|p| over all programs p with lo < |p| <= hi."""
    total, b = Fraction(0), 0
    while program_length(b) <= hi:
        if program_length(b) > lo:
            total += Fraction(1 << b, 1 << program_length(b))
        b += 1
    return total


class Reference:
    """Shortest programs and masses over the programs of at most REF_CAP
    bits, found by running each one with `toyvm.run`: a path independent
    of the enumeration table and maps that the command line reads."""

    def __init__(self, oracle: str, stage: int):
        self.oracle, self.stage = oracle, stage
        self._by_output = None

    def halts(self, sigma: str, budget: int) -> list:
        """Programs printing sigma within budget, in canonical order."""
        if budget > self.stage:
            raise ValueError(f"budget {budget} past the reference stage {self.stage}")
        if self._by_output is None:
            orc = parse_oracle(self.oracle)
            self._by_output = {}
            for p in programs_up_to(REF_CAP):
                out = run(p, orc, self.stage, detect_cycles=True)
                if out.kind == "halted":
                    self._by_output.setdefault(
                        rope_materialize(out.rope, 64), []).append((out.steps, p))
        return [p for steps, p in self._by_output.get(sigma, ()) if steps <= budget]

    def witness(self, sigma: str, budget: int):
        """The lex-least shortest program printing sigma within budget."""
        return next(iter(self.halts(sigma, budget)), None)

    def k(self, sigma: str, budget: int):
        w = self.witness(sigma, budget)
        return None if w is None else len(w)

    def mass(self, sigma: str, budget: int) -> Fraction:
        return sum((Fraction(1, 1 << len(p)) for p in self.halts(sigma, budget)),
                   Fraction(0))


def check_against_ref(label: str, value, ref, cap: int) -> list:
    """A value at `cap` against the reference value at REF_CAP."""
    if ref is not None:
        if value != ref:
            return [f"{label}: {value} at cap {cap}, reference {ref}"]
    elif value is not None and value <= REF_CAP:
        return [f"{label}: {value} at cap {cap} but none at cap {REF_CAP}"]
    return []


# --------------------------------------------------------------------------
# exact values per command, compared with expected.json at the default seed


def values_of(command: str, out: str) -> dict:
    if command == "k":
        row = csv_rows(out)[0]
        return {"value": row["value"], "witness": row["witness"]}
    if command == "profile":
        return {"rows": [[r["n"], r["k_time"], r["k_stage"], r["gap"]]
                         for r in csv_rows(out)]}
    doc = json.loads(out)
    keys = {
        "m": ("mass",),
        "solovay": ("tight", "violations", "undecided"),
        "convert-timebound": ("stage",),
        "join-check": ("xor_ok", "x_random_ok", "y_random_ok", "dnc_ok",
                       "x_deficiency", "y_deficiency", "all_ok"),
        "space-lemma": ("violations", "tested", "extension_length"),
        "avg": ("exact", "mc_mean"),
        "measure-cheap": ("measure",),
        "psi": ("value", "dropped-terms"),
    }.get(command)
    if keys is not None:
        return {k: doc.get(k) for k in keys}
    if command == "build-deep":
        rounds = doc["rounds"]
        return {"sigma": [r["sigma_hex"] for r in rounds],
                "ext_count": [r["ext_count"] for r in rounds],
                "d": [f'{r["d_num"]}/{r["d_den"]}' for r in rounds],
                "flagged": [r["flagged"] for r in rounds],
                "checks": [doc["checks"]["claim2"], doc["checks"]["claim3"]]}
    if command == "force":
        steps = doc["steps"]
        return {"b_prefix": doc["b_prefix"], "b_member": doc["b_member"],
                "dodge": [s["dodge_bit"] for s in steps],
                "coding": [s["coding_bit"] for s in steps],
                "m_index": [s["m_index"] for s in steps],
                "match": [t["match"] for t in doc["reconstruction"]]}
    raise ValueError(f"no value extractor for {command!r}")


# --------------------------------------------------------------------------
# enumerate: cold enumeration builds, one read each

ENUM_SETTINGS = (("none", 24), ("zero", 22), ("halting:10000", 20))
ENUM_STAGE = 10 ** 5


def check_k(sigma: str, ref: Reference, cap: int):
    def check(out: str) -> list:
        row = csv_rows(out)[0]
        if row["sigma"] != sigma:
            return [f"k row for {row['sigma']!r}, asked {sigma!r}"]
        value = k_value(row["value"])
        witness = ref.witness(sigma, ref.stage)
        problems = check_against_ref("k", value, ref.k(sigma, ref.stage), cap)
        if value is None:
            return problems + ([] if row["witness"] == "" else ["witness without value"])
        if witness is not None and row["witness"] != bits_to_hex(witness.bits):
            problems.append(f"witness {row['witness']} is not the lex-least shortest")
        prog = Program.decode(hex_to_bits(row["witness"]))
        outcome = run(prog, parse_oracle(ref.oracle), ref.stage)
        if len(prog) != value or value > cap:
            problems.append(f"witness of {len(prog)} bits for value {value}")
        if outcome.kind != "halted" or outcome.output != sigma:
            problems.append(f"witness replay gives {outcome.kind}, not {sigma!r}")
        return problems
    return check


def check_m(sigma: str, ref: Reference, cap: int):
    def check(out: str) -> list:
        mass = frac(json.loads(out)["mass"])
        lo = ref.mass(sigma, ref.stage)
        hi = lo + kraft_tail(REF_CAP, cap)
        if not lo <= mass <= hi:
            return [f"mass {mass} outside [{lo}, {hi}]"]
        return []
    return check


def enumerate_cross(values: dict) -> list:
    """k and m of one target must agree: mass 0 exactly when above-cap,
    and at least the witness's own 2^-K otherwise."""
    problems = []
    for _oracle, cap in ENUM_SETTINGS:
        k = k_value(values[f"k-{cap}"]["value"])
        mass = frac(values[f"m-{cap}"]["mass"])
        if (k is None) != (mass == 0) or (k is not None and mass < Fraction(1, 1 << k)):
            problems.append((f"m-{cap}", f"K = {k} but mass = {mass}"))
    return problems


def make_enumerate(rng: random.Random, _work: str) -> Workload:
    targets = strings_up_to(4, start=1)
    cases = []
    for oracle, cap in ENUM_SETTINGS:
        sigma = rng.choice(targets)
        tail = ["--sigma", sigma, "--stage", str(ENUM_STAGE), "--cap", str(cap),
                "--oracle", oracle]
        ref = Reference(oracle, ENUM_STAGE)
        cases.append(Case(f"k-{cap}", ["k", *tail], check_k(sigma, ref, cap)))
        cases.append(Case(f"m-{cap}", ["m", *tail], check_m(sigma, ref, cap)))
    return Workload(cases, enumerate_cross)


# --------------------------------------------------------------------------
# query: one cap-22 table per process, dozens of (budget, length) keys

QUERY_CAP = 22
CONVERT_CAP = REF_CAP  # so the reference masses are the conversion's own
CONVERT_STAGE = 10 ** 4


def check_solovay(t: TimeBound, n_range: int, c: int, ref: Reference):
    def check(out: str) -> list:
        doc = json.loads(out)
        tight, undecided = set(doc["tight"]), set(doc["undecided"])
        problems = []
        if doc["violations"]:
            problems.append(f"K_stage above K^t at {doc['violations'][:5]}")
        if tight & undecided or not tight | undecided <= set(range(n_range)):
            problems.append("tight/undecided lists overlap or leave the range")
        decided = n_range - len(undecided)
        if doc["tight_density_over_decided"] != (len(tight) / decided if decided else None):
            problems.append("tight density does not match the lists")
        for n in range(n_range):
            sigma = int_to_bin(n)
            kt, ks = ref.k(sigma, t(len(sigma))), ref.k(sigma, ref.stage)
            if (kt is not None or ks is not None) and n in undecided:
                problems.append(f"{n} undecided but found at cap {REF_CAP}")
            if kt is not None and ks is not None and (kt <= ks + c) != (n in tight):
                problems.append(f"{n}: tightness disagrees with cap {REF_CAP}")
        return problems[:10]
    return check


def check_profile(x: str, t: TimeBound, ref: Reference, cap: int):
    def check(out: str) -> list:
        rows = csv_rows(out)
        if [int(r["n"]) for r in rows] != list(range(1, len(x) + 1)):
            return ["profile rows do not cover every prefix"]
        problems = []
        for r in rows:
            n = int(r["n"])
            kt, ks = k_value(r["k_time"]), k_value(r["k_stage"])
            clamp = lambda v: cap + 1 if v is None else v  # noqa: E731
            if int(r["gap"]) != clamp(kt) - clamp(ks) or int(r["gap"]) < 0:
                problems.append(f"row {n}: gap {r['gap']} for {kt}, {ks}")
            problems += check_against_ref(f"k_time({n})", kt, ref.k(x[:n], t(n)), cap)
            problems += check_against_ref(f"k_stage({n})", ks, ref.k(x[:n], ref.stage), cap)
        return problems[:10]
    return check


def check_convert(table: dict, c: Fraction, n: int, ref: Reference):
    """The reference runs every program of the conversion's own cap."""
    def check(out: str) -> list:
        s = json.loads(out)["stage"]
        sigmas = strings_up_to(n, start=n)
        if not all(table[x] < c * ref.mass(x, s) for x in sigmas):
            return [f"stage {s} does not dominate the table at c = {c}"]
        if s > 0 and all(table[x] < c * ref.mass(x, s - 1) for x in sigmas):
            return [f"stage {s - 1} already dominates; {s} is not the least"]
        return []
    return check


def check_join(f: str, x: str, y: str, k: int, ref: Reference, cap: int):
    stage = ref.stage

    def deficiency_range(z: str):
        lo = hi = None
        for n in range(len(z) + 1):
            kv = ref.k(z[:n], stage)
            t_lo = n - (kv if kv is not None else cap + 1)
            t_hi = n - (kv if kv is not None else REF_CAP + 1)
            lo = t_lo if lo is None else max(lo, t_lo)
            hi = t_hi if hi is None else max(hi, t_hi)
        return lo, hi

    def check(out: str) -> list:
        doc = json.loads(out)
        witness = pi01forcing.Dnc2Witness.frozen(stage, {e: int(b) for e, b in enumerate(f)})
        dnc_ok, _counter = pi01forcing.is_dnc2(witness, stage)
        problems = []
        if doc["xor_ok"] is not True or doc["dnc_ok"] != dnc_ok:
            problems.append(f"xor_ok {doc['xor_ok']}, dnc_ok {doc['dnc_ok']} != {dnc_ok}")
        for side, z in (("x", x), ("y", y)):
            d = doc[f"{side}_deficiency"]
            lo, hi = deficiency_range(z)
            if not lo <= d <= hi:
                problems.append(f"{side} deficiency {d} outside [{lo}, {hi}]")
            if doc[f"{side}_random_ok"] != (d <= k):
                problems.append(f"{side}_random_ok disagrees with deficiency {d}")
        flags = ("xor_ok", "x_random_ok", "y_random_ok", "dnc_ok")
        if doc["all_ok"] != all(doc[fl] for fl in flags):
            problems.append("all_ok is not the conjunction of the clauses")
        return problems
    return check


def make_query(rng: random.Random, work: str) -> Workload:
    cases = []
    t = TimeBound.poly(rng.randint(3, 5), 2)
    n_range, c = rng.randint(3072, 4096), rng.randint(4, 12)
    cases.append(Case("solovay", [
        "solovay", "--t", t.describe(), "--range", str(n_range), "--c", str(c),
        "--stage", str(ENUM_STAGE), "--cap", str(QUERY_CAP)],
        check_solovay(t, n_range, c, Reference("none", ENUM_STAGE))))

    ref = Reference("none", CONVERT_STAGE)
    x = bits(rng, 36)
    t = TimeBound.poly(rng.randint(1, 3), 2)
    cases.append(Case("profile", [
        "profile", "--in", f"bits:{x}", "--t", t.describe(),
        "--stage", str(CONVERT_STAGE), "--cap", str(QUERY_CAP)],
        check_profile(x, t, ref, QUERY_CAP)))

    # the acceptance rule: c = 2 * worst + 1 against limit-stage masses
    table = {s: Fraction(rng.randrange(0, 8), 64) for s in strings_up_to(2)}
    n = rng.randint(1, 2)
    worst = max(table[s] / ref.mass(s, CONVERT_STAGE) for s in strings_up_to(n, start=n))
    c_conv = 2 * worst + 1
    path = os.path.join(work, "table.tsv")
    cases.append(Case("convert-timebound", [
        "convert-timebound", "--table", path,
        "--c", f"{c_conv.numerator}/{c_conv.denominator}", "--n", str(n),
        "--cap", str(CONVERT_CAP), "--ceiling", str(CONVERT_STAGE)],
        check_convert(table, c_conv, n, ref),
        files={path: "".join(f"{s}\t{v.numerator}/{v.denominator}\n"
                             for s, v in table.items())}))

    witness = pi01forcing.Dnc2Witness.from_halting_table(CONVERT_STAGE)
    f = "".join(str(witness.value(e)) for e in range(16))
    x = bits(rng, 16)
    y = "".join("1" if a != b else "0" for a, b in zip(f, x))
    k = rng.randint(3, 5)
    cases.append(Case("join-check", [
        "join-check", "--F", f"bits:{f}", "--X", f"bits:{x}", "--Y", f"bits:{y}",
        "--k", str(k), "--stage", str(CONVERT_STAGE), "--cap", str(QUERY_CAP)],
        check_join(f, x, y, k, ref, QUERY_CAP)))
    return Workload(cases)


# --------------------------------------------------------------------------
# bet: exact betting arithmetic

BUILD_LENGTHS = [3, 8, 15, 24, 34, 46, 59, 74]


def check_space_lemma(delta: str, k: int, tested):
    def check(out: str) -> list:
        doc = json.loads(out)
        problems = []
        if doc["violations"] != 0:
            problems.append(f"{doc['violations']} counting-bound violations")
        if doc["extension_length"] != randomness.space_lemma_length(frac(delta), k):
            problems.append("extension length differs from the formula")
        if (doc["tested"] != tested) if tested else not doc["tested"]:
            problems.append(f"tested {doc['tested']} tables")
        return problems
    return check


def check_build(out: str) -> list:
    doc = json.loads(out)
    problems = []
    if not (doc["checks"]["claim2"] and doc["checks"]["claim3"]):
        problems.append(f"builder checks {doc['checks']}")
    sigmas = [hex_to_bits(r["sigma_hex"]) for r in doc["rounds"]]
    if [len(s) for s in sigmas] != BUILD_LENGTHS:
        problems.append(f"lengths {[len(s) for s in sigmas]}")
    prev = ""
    for r, s in zip(doc["rounds"], sigmas):
        l = len(s) - len(prev)
        if not s.startswith(prev) or not 1 << r["n"] <= r["ext_count"] <= 1 << l:
            problems.append(f"round {r['n']}: {r['ext_count']} cheap of {1 << l}")
        prev = s
    return problems


def make_bet(rng: random.Random, _work: str) -> Workload:
    # every (delta, k) offered to one mode gives the same extension length
    delta, k = rng.choice((("2", 2), ("3/2", 1), ("2", 3), ("3", 3)))
    n = 1000
    sample = Case("space-lemma-sample", [
        "space-lemma", "--delta", delta, "--k", str(k), "--mode", "sample",
        "--n", str(n), "--seed", str(rng.randrange(10 ** 6)), "--depth", "6"],
        check_space_lemma(delta, k, n))
    delta, k = rng.choice((("2", 1), ("3", 1), ("4", 1), ("5", 1)))
    exhaustive = Case("space-lemma-exhaustive", [
        "space-lemma", "--delta", delta, "--k", str(k), "--mode", "exhaustive"],
        check_space_lemma(delta, k, None))
    build = Case("build-deep", [
        "build-deep", "--rounds", "8", "--oracle", "halting:10000",
        "--T", f"poly:{rng.randint(1, 3)},2", "--cap", "18"], check_build)
    return Workload([sample, exhaustive, build])


# --------------------------------------------------------------------------
# oracle: oracle-branch exploration and forcing

AVG_T = TimeBound.poly(10, 1)
FORCE_DEPTH, FORCE_STEPS, FORCE_BUDGET = 12, 5, 4096


def check_avg(sigma: str, cap: int, depth: int, mc: int):
    def check(out: str) -> list:
        doc = json.loads(out)
        exact = frac(doc["exact"])
        direct = semimeasure.oracle_average_direct(sigma, AVG_T, cap, depth)
        problems = [] if exact == direct else [f"exact {exact} != direct {direct}"]
        if mc:
            ev = semimeasure.prefix_mass_evaluator(AVG_T(len(sigma)), cap, depth)
            masses = [ev.mass(sigma, p) for p in strings_up_to(depth, start=depth)]
            if not min(masses) <= frac(doc["mc_mean"]) <= max(masses):
                problems.append(f"mc mean {doc['mc_mean']} outside the prefix masses")
        return problems
    return check


def check_measure(x: str, n: int, k: int, depth: int, cap: int):
    """Markov: the oracles that lift the mass k-fold have measure at most
    avg / (k * mass), with the mass at the same budget t(n)."""
    def check(out: str) -> list:
        mu = frac(json.loads(out)["measure"])
        base = Reference("none", AVG_T(n)).mass(x[:n], AVG_T(n))
        bound = semimeasure.oracle_average(x[:n], AVG_T, cap, depth) / (base * k)
        problems = [] if mu <= bound else [f"measure {mu} above the Markov bound {bound}"]
        if (mu * (1 << depth)).denominator != 1:
            problems.append(f"measure {mu} is not a multiple of 2^-{depth}")
        return problems
    return check


def check_psi(a: str, t: TimeBound, len_cap: int, stage: int, cap: int):
    def check(out: str) -> list:
        doc = json.loads(out)
        ref = randomness.psi(a, t, t, Fraction(1), len_cap, stage, cap)
        if frac(doc["value"]) != ref.value or doc["dropped-terms"] != ref.dropped_terms:
            return [f"psi {doc['value']} != recomputed {ref.value}"]
        return []
    return check


def check_force(out: str) -> list:
    doc = json.loads(out)
    member = doc["b_member"]
    problems = []
    if doc["inconclusive"] or not member.startswith(doc["b_prefix"]):
        problems.append("inconclusive steps or member off the forced prefix")
    if not all(t["match"] for t in doc["reconstruction"]):
        problems.append("a consumed bit does not reconstruct")
    if not all(member.startswith(s["sigma"]) and s["members_after"] > 0
               for s in doc["steps"]):
        problems.append("a step's class misses the emitted member")
    return problems


def force_schedule(rng: random.Random) -> dict:
    """Two distinct forbidden 3-bit strings under "1", at stages 0 and 1.
    The forcing loop steers into the 0 side, so every such schedule keeps
    the class non-empty and costs the same 10,917 functional applications
    (all 12 were run through `force`)."""
    a, b = rng.sample(["100", "101", "110", "111"], 2)
    return {"depth": FORCE_DEPTH,
            "stages": [{"s": 0, "forbid": [a]}, {"s": 1, "forbid": [b]}]}


def make_oracle(rng: random.Random, work: str) -> Workload:
    pairs = strings_up_to(2, start=2)
    sigma = rng.choice(pairs)
    cases = [Case("avg-22", [
        "avg", "--sigma", sigma, "--t", AVG_T.describe(), "--cap", "22",
        "--depth", "6", "--mc", "0"], check_avg(sigma, 22, 6, 0))]
    sigma = rng.choice(pairs)
    cases.append(Case("avg-mc", [
        "avg", "--sigma", sigma, "--t", AVG_T.describe(), "--cap", "16",
        "--depth", "4", "--mc", "10000", "--seed", str(rng.randrange(10 ** 6))],
        check_avg(sigma, 16, 4, 10000)))
    x, k = bits(rng, 4), rng.choice((1, 2, 4, 8))
    cases.append(Case("measure-cheap", [
        "measure-cheap", "--x", f"bits:{x}", "--n", "1", "--k", str(k),
        "--t", AVG_T.describe(), "--stage", str(AVG_T(1)), "--depth", "8",
        "--cap", str(REF_CAP)], check_measure(x, 1, k, 8, REF_CAP)))
    a, t = bits(rng, 6), TimeBound.poly(5, 1)
    cases.append(Case("psi", [
        "psi", "--a-prefix", f"bits:{a}", "--t", t.describe(), "--tprime",
        t.describe(), "--len-cap", "2", "--stage", "1000", "--cap", "18"],
        check_psi(a, t, 2, 1000, 18)))
    path = os.path.join(work, "schedule.json")
    cases.append(Case("force", [
        "force", "--class", path, "--f", "halting-dnc", "--steps", str(FORCE_STEPS),
        "--budget", str(FORCE_BUDGET)], check_force,
        files={path: json.dumps(force_schedule(rng), sort_keys=True)}))
    return Workload(cases)


WORKLOADS = {
    "enumerate": make_enumerate,
    "query": make_query,
    "bet": make_bet,
    "oracle": make_oracle,
}


def make_workload(name: str, seed: int, work: str) -> Workload:
    """The seeded cases of one workload; input files go under `work`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
