"""Batch front door: one subcommand per experiment, CSV/JSON out.

Every subcommand resolves its parameters (config file first, flags
override), runs one experiment and emits a machine-readable artifact
that embeds the resolved parameters, so a result file is always
self-describing.  Fixed seed and config give byte-identical bytes out.

Exit codes: 0 success, 2 validation error, 3 budget-inconclusive.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import complexity, constructions, pi01forcing, randomness, semimeasure
from .complexity import TimeBound, k_stage, k_time_bounded
from .semimeasure import parse_fraction
from .toyvm import (
    ZERO,
    MachineError,
    check_bits,
    compile_const,
    fixed_point,
    int_to_bin,
    parse_oracle,
    phi,
    programs_up_to,
    smn,
    strings_of_length,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_bits(text: str) -> str:
    """Bits from "bits:0101" or from a one-line file of 0/1 characters."""
    if text.startswith("bits:"):
        return check_bits(text[5:])
    with open(text, "r", encoding="ascii") as fh:
        return check_bits(fh.readline().strip())


def _resolved(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_k(args) -> int:
    t = TimeBound.parse(args.t) if args.t else None
    oracle = parse_oracle(args.oracle)
    if t is not None:
        res = k_time_bounded(args.sigma, t, oracle, args.cap)
        descriptor = t.describe()
    else:
        res = k_stage(args.sigma, args.stage, oracle, args.cap)
        descriptor = f"stage:{args.stage}"
    lines = ["sigma,budget,value,witness",
             complexity.result_csv_row(args.sigma, descriptor, res)]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_m(args) -> int:
    oracle = parse_oracle(args.oracle)
    if args.t:
        t = TimeBound.parse(args.t)
        mass = semimeasure.m_time_bounded(args.sigma, t, oracle, args.cap)
        budget = t.describe()
    else:
        mass = semimeasure.m_stage(args.sigma, args.stage, oracle, args.cap)
        budget = f"stage:{args.stage}"
    _emit_json(args, {
        "mass": _frac_str(mass),
        "config": _resolved(args, ("sigma", "cap", "oracle")) | {"budget": budget},
    })
    return EXIT_OK


def _cmd_convert_timebound(args) -> int:
    m = semimeasure.ComputableSemimeasure.from_file(args.table)
    oracle = parse_oracle(args.oracle)
    try:
        stage = semimeasure.semimeasure_to_timebound(
            m, parse_fraction(args.c), args.n, oracle, args.cap, args.ceiling)
    except complexity.NoStageWithinBudget as exc:
        _emit_json(args, {"error": "no-stage-within-budget", "detail": str(exc),
                          "config": _resolved(args, ("table", "c", "n", "cap", "ceiling"))})
        return EXIT_INCONCLUSIVE
    _emit_json(args, {
        "stage": stage,
        "config": _resolved(args, ("table", "c", "n", "cap", "ceiling", "oracle")),
    })
    return EXIT_OK


def _cmd_space_lemma(args) -> int:
    delta = parse_fraction(args.delta)
    l = randomness.space_lemma_length(delta, args.k)
    tested = violations = 0
    if args.mode == "exhaustive":
        for fam_depth, splits in ((3, randomness.DYADIC_SPLITS),
                                  (2, tuple(Fraction(i, 4) for i in range(5)))):
            for table in randomness.dyadic_family(fam_depth, splits):
                for slen in range(max(fam_depth + 1, l + 1) - l):
                    for sigma in strings_of_length(slen):
                        if len(sigma) + l > table.depth or table.value(sigma) == 0:
                            continue
                        tested += 1
                        if randomness.count_cheap_extensions(table, sigma, delta, l) < args.k:
                            violations += 1
    else:
        rng = random.Random(args.seed)
        depth = max(args.depth, l)
        for _ in range(args.n):
            table = randomness.random_table(depth, rng)
            tested += 1
            if randomness.count_cheap_extensions(table, "", delta, l) < args.k:
                violations += 1
    _emit_json(args, {
        "violations": violations,
        "tested": tested,
        "extension_length": l,
        "config": _resolved(args, ("delta", "k", "mode", "n", "seed", "depth")),
    })
    return EXIT_OK


def _cmd_psi(args) -> int:
    res = randomness.psi(
        _read_bits(args.a_prefix), TimeBound.parse(args.t),
        TimeBound.parse(args.tprime), parse_fraction(args.c),
        args.len_cap, args.stage, args.cap)
    _emit_json(args, {
        "value": _frac_str(res.value),
        "dropped-terms": res.dropped_terms,
        "params": res.params,
    })
    return EXIT_OK


def _cmd_avg(args) -> int:
    t = TimeBound.parse(args.t)
    exact = semimeasure.oracle_average(args.sigma, t, args.cap, args.depth)
    payload = {
        "exact": _frac_str(exact),
        "config": _resolved(args, ("sigma", "t", "cap", "depth", "mc", "seed")),
    }
    if args.mc:
        mean, se = semimeasure.monte_carlo_average(
            args.sigma, t, args.cap, args.depth, args.mc, args.seed)
        payload["mc_mean"] = _frac_str(mean)
        payload["mc_se"] = repr(se)
        payload["mc_within_3se"] = bool(abs(float(mean) - float(exact)) <= 3 * se + 1e-15)
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_measure_cheap(args) -> int:
    mu = randomness.measure_cheap_oracles(
        _read_bits(args.x), args.n, parse_fraction(args.k),
        TimeBound.parse(args.t), args.stage, args.depth, args.cap)
    _emit_json(args, {
        "measure": _frac_str(mu),
        "config": _resolved(args, ("x", "n", "k", "t", "stage", "depth", "cap")),
    })
    return EXIT_OK


def _cmd_profile(args) -> int:
    bits = _read_bits(args.infile)
    prof = constructions.depth_profile(
        bits, TimeBound.parse(args.t), args.stage,
        parse_oracle(args.oracle), args.cap)
    if args.csv and not args.out:
        args.out = args.csv
    _emit(args, "\n".join(prof.csv_lines()) + "\n")
    return EXIT_OK


def _cmd_build_deep(args) -> int:
    oracle = parse_oracle(args.oracle)
    if args.mart != "mixture":
        raise ValueError(f"unknown martingale family {args.mart!r}")
    cfg = constructions.BuilderConfig(
        rounds=args.rounds,
        martingale=randomness.default_builder_martingale(oracle, args.cap),
        oracle=oracle,
        dominating=TimeBound.parse(args.T),
        cap=args.cap,
        mart_stage=args.mart_stage,
    )
    trace = constructions.build_deep_random(cfg)
    _emit_json(args, trace.to_json())
    return EXIT_OK


def _cmd_force(args) -> int:
    schedule = pi01forcing.PruningSchedule.from_file(args.schedule)
    if args.f == "halting-dnc":
        source = pi01forcing.Dnc2Witness.from_halting_table(args.budget)
    else:
        source = _read_bits(args.f)
    functional = pi01forcing.Functional.projection(
        tuple(int(q) for q in args.query_schedule.split(","))
        if args.query_schedule else
        tuple(args.steps + s for s in range(args.steps)),
        args.functional_budget)
    result = pi01forcing.force(schedule, source, args.steps, args.budget,
                               functional=functional)
    payload = result.to_json()
    payload["reconstruction"] = result.reconstruct(functional)
    payload["config"] = _resolved(args, ("f", "steps", "budget", "query_schedule"))
    payload["config"]["schedule"] = schedule.to_json()
    _emit_json(args, payload)
    return EXIT_INCONCLUSIVE if result.inconclusive else EXIT_OK


def _cmd_join_check(args) -> int:
    rep = pi01forcing.join_check(
        _read_bits(args.F), _read_bits(args.X), _read_bits(args.Y),
        args.k, args.stage, args.cap)
    _emit_json(args, {
        "xor_ok": rep.xor_ok,
        "x_random_ok": rep.x_random_ok,
        "y_random_ok": rep.y_random_ok,
        "dnc_ok": rep.dnc_ok,
        "dnc_counterexample": rep.dnc_counterexample,
        "x_deficiency": rep.x_deficiency,
        "y_deficiency": rep.y_deficiency,
        "all_ok": rep.all_ok,
        "config": _resolved(args, ("F", "X", "Y", "k", "stage", "cap")),
    })
    return EXIT_OK


def solovay_probe(t: TimeBound, n_range: int, c: int, stage: int,
                  cap: int = 16) -> dict:
    """Where the time-bounded complexity of integer codes is tight.

    For n below the range, compares the stage complexity of bin(n)
    against its time-bounded complexity: `tight` lists n with
    K^t(bin n) <= K_stage(bin n) + c, `violations` lists n with
    K_stage above K^t (impossible once the stage covers every time
    budget: the bounded search space is contained in the staged one),
    and `undecided` collects n where both sides sit above the cap.
    The density of the tight list is reported, never asserted."""
    tight, violations, undecided = [], [], []
    for n in range(n_range):
        sigma = int_to_bin(n)
        kt = k_time_bounded(sigma, t, None, cap)
        ks = k_stage(sigma, stage, None, cap)
        if kt.above_cap and ks.above_cap:
            undecided.append(n)
            continue
        kt_v = kt.clamped(cap)
        ks_v = ks.clamped(cap)
        if ks_v > kt_v:
            violations.append(n)
        if kt_v <= ks_v + c:
            tight.append(n)
    decided = n_range - len(undecided)
    return {
        "tight": tight,
        "violations": violations,
        "undecided": undecided,
        "tight_density_over_decided": (len(tight) / decided) if decided else None,
    }


def _cmd_solovay(args) -> int:
    t = TimeBound.parse(args.t)
    report = solovay_probe(t, args.range, args.c, args.stage, args.cap)
    report["config"] = _resolved(args, ("t", "range", "c", "stage", "cap"))
    _emit_json(args, report)
    return EXIT_OK


# --------------------------------------------------------------------------
# selftest


def selftest(seed: int = 7) -> dict:
    """Deterministic aggregate of the package invariants, sized to run in
    well under a minute; the acceptance suite in tests/ runs the full
    versions."""
    rng = random.Random(seed)
    report: dict = {"seed": seed}

    programs = programs_up_to(14)
    bits = sorted(p.bits for p in programs)
    report["prefix_free_cap14"] = {
        "programs": len(programs),
        "prefix_pairs": sum(1 for a, b in zip(bits, bits[1:]) if b.startswith(a)),
    }

    table = complexity.halting_table(None, 14)
    mass = table.total_mass(2000)
    omap = table.output_map(2000, 4)
    kraft = sum(Fraction(1, 1 << plen) for plen, _p in omap.values())
    report["mass_cap14_stage2000"] = {
        "semimeasure_mass": _frac_str(mass),
        "kraft_sum": _frac_str(kraft),
        "both_at_most_one": bool(mass <= 1 and kraft <= 1),
    }

    mono = True
    for s1, s2 in ((0, 10), (10, 200), (200, 2000)):
        m1, m2 = table.output_map(s1, 3), table.output_map(s2, 3)
        for L in range(4):
            for sigma in strings_of_length(L):
                k1 = m1.get(sigma, (15,))[0]
                k2 = m2.get(sigma, (15,))[0]
                if k2 > k1:
                    mono = False
                if semimeasure.m_stage(sigma, s1, None, 14) > semimeasure.m_stage(sigma, s2, None, 14):
                    mono = False
    report["stage_monotonicity"] = mono

    violations = 0
    for _ in range(500):
        tab = randomness.random_table(5, rng)
        for delta, k in ((Fraction(2), 2), (Fraction(3), 4)):
            l = randomness.space_lemma_length(delta, k)
            if l <= 5 and randomness.count_cheap_extensions(tab, "", delta, l) < k:
                violations += 1
    report["extension_count_sample"] = {"tables": 500, "violations": violations}

    t = TimeBound.poly(10, 1)
    exact = semimeasure.oracle_average("1", t, 12, 4)
    direct = semimeasure.oracle_average_direct("1", t, 12, 4)
    report["oracle_average_identity"] = {
        "exact": _frac_str(exact),
        "direct_matches": bool(exact == direct),
    }

    e_star = fixed_point(compile_const)
    report["recursion_fixed_point"] = {
        "index": e_star,
        "self_reproduces": bool(phi(e_star, 5, ZERO, 1000).value == e_star),
    }

    fn = pi01forcing.Functional.projection((4, 5, 6))
    res = pi01forcing.force(
        pi01forcing.PruningSchedule.full_space(8),
        pi01forcing.Dnc2Witness.from_halting_table(2048),
        steps=3, stage_budget=2048, functional=fn)
    report["forcing_smoke"] = {
        "b_prefix": res.b_prefix,
        "reconstructs": bool(all(t["match"] for t in res.reconstruct(fn))),
    }

    sm = smn(2, 3)
    report["smn_smoke"] = bool(
        phi(sm, 0, ZERO, 100).outcome.kind == "halted")
    report["all_ok"] = bool(
        report["prefix_free_cap14"]["prefix_pairs"] == 0
        and report["mass_cap14_stage2000"]["both_at_most_one"]
        and report["stage_monotonicity"]
        and report["extension_count_sample"]["violations"] == 0
        and report["oracle_average_identity"]["direct_matches"]
        and report["recursion_fixed_point"]["self_reproduces"]
        and report["forcing_smoke"]["reconstructs"]
        and report["smn_smoke"])
    return report


def _cmd_selftest(args) -> int:
    report = selftest(args.seed)
    _emit_json(args, report)
    return EXIT_OK if report["all_ok"] else EXIT_VALIDATION


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="desk-scale complexity, semimeasure and forcing experiments",
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        return p

    p = add("k", _cmd_k, help="shortest-program length of a string")
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", help="time bound poly:a,b or table:<path>")
    p.add_argument("--stage", type=int, default=0, help="absolute budget if no --t")
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--oracle", default="none")

    p = add("m", _cmd_m, help="staged semimeasure mass of a string")
    p.add_argument("--sigma", required=True)
    p.add_argument("--t")
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--oracle", default="none")

    p = add("convert-timebound", _cmd_convert_timebound,
            help="stage at which the machine semimeasure dominates a table")
    p.add_argument("--table", required=True, help="semimeasure table file")
    p.add_argument("--c", required=True, help="domination constant, num/den")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--ceiling", type=int, default=10 ** 5)
    p.add_argument("--oracle", default="none")

    p = add("space-lemma", _cmd_space_lemma, help="cheap-extension counting sweep")
    p.add_argument("--delta", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)

    p = add("psi", _cmd_psi, help="truncated oracle integral test")
    p.add_argument("--a-prefix", dest="a_prefix", required=True,
                   help="bits:... or a file of 0/1 characters")
    p.add_argument("--t", required=True)
    p.add_argument("--tprime", required=True)
    p.add_argument("--c", default="1")
    p.add_argument("--len-cap", dest="len_cap", type=int, default=2)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=14)

    p = add("avg", _cmd_avg, help="exact oracle average of the relative mass")
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)

    p = add("measure-cheap", _cmd_measure_cheap,
            help="measure of oracle prefixes compressing a fixed prefix")
    p.add_argument("--x", required=True, help="bits:... or file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--cap", type=int, default=14)

    p = add("profile", _cmd_profile, help="per-prefix depth profile CSV")
    p.add_argument("--in", dest="infile", required=True, help="bits:... or file")
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--oracle", default="none")
    p.add_argument("--cap", type=int, default=18)
    p.add_argument("--csv", help="CSV destination (same as --out)")

    p = add("build-deep", _cmd_build_deep, help="finite-extension builder")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--mart", default="mixture")
    p.add_argument("--oracle", default="halting:10000")
    p.add_argument("--T", required=True, help="dominating time bound")
    p.add_argument("--cap", type=int, default=18)
    p.add_argument("--mart-stage", dest="mart_stage", type=int, default=10 ** 4)

    p = add("force", _cmd_force, help="schedule forcing loop")
    p.add_argument("--class", dest="schedule", required=True, help="schedule JSON file")
    p.add_argument("--f", required=True, help="halting-dnc, bits:... or file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--query-schedule", dest="query_schedule",
                   help="comma-separated functional query indices")
    p.add_argument("--functional-budget", dest="functional_budget",
                   type=int, default=4096)

    p = add("join-check", _cmd_join_check, help="xor-join randomness report")
    p.add_argument("--F", required=True, help="bits:... or file")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=18)

    p = add("solovay", _cmd_solovay, help="tightness of the time-bounded bound on integer codes")
    p.add_argument("--t", required=True)
    p.add_argument("--range", type=int, default=256)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--stage", type=int, default=10 ** 5)
    p.add_argument("--cap", type=int, default=16)

    p = add("selftest", _cmd_selftest, help="deterministic invariant suite")
    p.add_argument("--seed", type=int, default=7)

    return parser


def _config_argv(path: str) -> list[str]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out.append(f"--{key.strip()}={value.strip()}")
    return out


def dispatch(argv: list[str]) -> int:
    """Parse arguments (config file first so flags win) and run one
    subcommand; returns the exit status.  Bad input exits 2 with an
    `error:` line on stderr, argparse's own errors included."""
    try:
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 == len(argv):
                raise ValueError("--config needs a file")
            head, tail = argv[: i + 2], argv[i + 2 :]
            argv = head + tail[:1] + _config_argv(argv[i + 1]) + tail[1:]
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, KeyError, OSError, MachineError,
            complexity.ReductionDiverged, constructions.BuilderError,
            constructions.ReductionMismatch, pi01forcing.ForcingError,
            randomness.FairnessError, semimeasure.DepthViolation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except complexity.NoStageWithinBudget as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
