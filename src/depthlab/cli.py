"""Batch front door: one subcommand per experiment, CSV/JSON out.

Every subcommand resolves its parameters (config file first, flags
override), runs one experiment and emits a machine-readable artifact
that embeds the resolved parameters, so a result file is always
self-describing.  Fixed seed and config give byte-identical bytes out.

Exit codes: 0 success, 2 validation error, 3 budget-inconclusive.

A command loads only the modules it runs: each handler imports the
measuring modules (and the standard library beyond argparse and sys)
in its own body, so a `k` run starts with just toyvm and complexity.
"""

from __future__ import annotations

import argparse
import sys

from . import complexity
from .complexity import TimeBound, k_stage, k_time_bounded
from .toyvm import (
    DepthlabError,
    int_to_bin,
    parse_fraction,
    parse_oracle,
    read_bits,
    read_input,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    import json

    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolved(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _require_nonnegative(args, *flags) -> None:
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")


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
    from . import semimeasure

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
    from . import semimeasure

    _require_nonnegative(args, "--n", "--ceiling")
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
    from fractions import Fraction

    from . import randomness

    _require_nonnegative(args, "--n", "--depth")
    delta = parse_fraction(args.delta)
    l = randomness.space_lemma_length(delta, args.k)
    if args.mode == "exhaustive":
        tested = violations = 0
        for fam_depth, splits in ((3, randomness.DYADIC_SPLITS),
                                  (2, tuple(Fraction(i, 4) for i in range(5)))):
            counts = randomness.space_lemma_grid(fam_depth, splits, delta, l, args.k)
            tested += counts[0]
            violations += counts[1]
    else:
        tested, violations = randomness.space_lemma_sample(
            max(args.depth, l), args.n, args.seed, delta, l, args.k)
    _emit_json(args, {
        "violations": violations,
        "tested": tested,
        "extension_length": l,
        "config": _resolved(args, ("delta", "k", "mode", "n", "seed", "depth")),
    })
    return EXIT_OK


def _cmd_psi(args) -> int:
    from . import randomness

    _require_nonnegative(args, "--len-cap")
    res = randomness.psi(
        read_bits(args.a_prefix), TimeBound.parse(args.t),
        TimeBound.parse(args.tprime), parse_fraction(args.c),
        args.len_cap, args.stage, args.cap)
    _emit_json(args, {
        "value": _frac_str(res.value),
        "dropped-terms": res.dropped_terms,
        "params": res.params,
    })
    return EXIT_OK


def _cmd_avg(args) -> int:
    from . import semimeasure

    _require_nonnegative(args, "--depth", "--mc")
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
    from . import randomness

    _require_nonnegative(args, "--depth")
    mu = randomness.measure_cheap_oracles(
        read_bits(args.x), args.n, parse_fraction(args.k),
        TimeBound.parse(args.t), args.stage, args.depth, args.cap)
    _emit_json(args, {
        "measure": _frac_str(mu),
        "config": _resolved(args, ("x", "n", "k", "t", "stage", "depth", "cap")),
    })
    return EXIT_OK


def _cmd_profile(args) -> int:
    import warnings

    from . import constructions

    _require_nonnegative(args, "--stage")
    bits = read_bits(args.infile)
    with warnings.catch_warnings(record=True) as notices:
        warnings.simplefilter("always")
        prof = constructions.depth_profile(
            bits, TimeBound.parse(args.t), args.stage,
            parse_oracle(args.oracle), args.cap)
    for notice in notices:
        sys.stderr.write(f"warning: {notice.message}\n")
    _emit(args, "\n".join(prof.csv_lines()) + "\n")
    return EXIT_OK


def _cmd_build_deep(args) -> int:
    from . import constructions, randomness

    _require_nonnegative(args, "--mart-stage")
    oracle = parse_oracle(args.oracle)
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
    from . import pi01forcing

    _require_nonnegative(args, "--steps", "--budget", "--functional-budget")
    schedule = pi01forcing.PruningSchedule.from_file(args.schedule)
    if args.f == "halting-dnc":
        source = pi01forcing.Dnc2Witness.from_halting_table(args.budget)
    else:
        source = read_bits(args.f)
    queries = tuple(args.steps + s for s in range(args.steps))
    if args.query_schedule is not None:
        try:
            queries = tuple(map(int, args.query_schedule.split(",")))
        except ValueError:
            raise ValueError(f"bad --query-schedule {args.query_schedule!r}") from None
    functional = pi01forcing.Functional.projection(queries, args.functional_budget)
    result = pi01forcing.force(schedule, source, args.steps, args.budget,
                               functional=functional)
    payload = result.to_json()
    payload["reconstruction"] = result.reconstruct(functional)
    payload["config"] = _resolved(args, ("f", "steps", "budget", "query_schedule"))
    payload["config"]["schedule"] = schedule.to_json()
    _emit_json(args, payload)
    return EXIT_INCONCLUSIVE if result.inconclusive else EXIT_OK


def _cmd_join_check(args) -> int:
    from . import pi01forcing

    _require_nonnegative(args, "--stage")
    rep = pi01forcing.join_check(
        read_bits(args.F), read_bits(args.X), read_bits(args.Y),
        args.k, args.stage, args.cap)
    _emit_json(args, {
        **rep._asdict(), "all_ok": rep.all_ok,
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
    if n_range < 0:
        raise ValueError(f"range must be nonnegative, got {n_range}")
    table = complexity.halting_table(None, cap)
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    tight, violations, undecided = [], [], []
    if n_range:
        # one output map at the stage, and one per code length at t(length)
        staged = table.output_map(stage, len(int_to_bin(n_range - 1)))
    timed: dict = {}
    for n in range(n_range):
        sigma = int_to_bin(n)
        omap = timed.get(len(sigma))
        if omap is None:
            omap = timed[len(sigma)] = table.output_map(t(len(sigma)), len(sigma))
        kt = omap.get(sigma)
        ks = staged.get(sigma)
        if kt is None and ks is None:
            undecided.append(n)
            continue
        kt_v = cap + 1 if kt is None else kt[0]
        ks_v = cap + 1 if ks is None else ks[0]
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


def _cmd_selftest(args) -> int:
    from .selftest import selftest

    report = selftest(args.seed)
    _emit_json(args, report)
    return EXIT_OK if report["all_ok"] else EXIT_VALIDATION


# --------------------------------------------------------------------------
# parser


def _k_arguments(p) -> None:
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", help="time bound poly:a,b or table:<path>")
    p.add_argument("--stage", type=int, default=0, help="absolute budget if no --t")
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--oracle", default="none")


def _convert_timebound_arguments(p) -> None:
    p.add_argument("--table", required=True, help="semimeasure table file")
    p.add_argument("--c", required=True, help="domination constant, num/den")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--ceiling", type=int, default=10 ** 5)
    p.add_argument("--oracle", default="none")


def _space_lemma_arguments(p) -> None:
    p.add_argument("--delta", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)


def _psi_arguments(p) -> None:
    p.add_argument("--a-prefix", dest="a_prefix", required=True,
                   help="bits:... or a file of 0/1 characters")
    p.add_argument("--t", required=True)
    p.add_argument("--tprime", required=True)
    p.add_argument("--c", default="1")
    p.add_argument("--len-cap", dest="len_cap", type=int, default=2)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=14)


def _avg_arguments(p) -> None:
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)


def _measure_cheap_arguments(p) -> None:
    p.add_argument("--x", required=True, help="bits:... or file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--cap", type=int, default=14)


def _profile_arguments(p) -> None:
    p.add_argument("--in", dest="infile", required=True, help="bits:... or file")
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--oracle", default="none")
    p.add_argument("--cap", type=int, default=18)


def _build_deep_arguments(p) -> None:
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--oracle", default="halting:10000")
    p.add_argument("--T", required=True, help="dominating time bound")
    p.add_argument("--cap", type=int, default=18)
    p.add_argument("--mart-stage", dest="mart_stage", type=int, default=10 ** 4)


def _force_arguments(p) -> None:
    p.add_argument("--class", dest="schedule", required=True, help="schedule JSON file")
    p.add_argument("--f", required=True, help="halting-dnc, bits:... or file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--query-schedule", dest="query_schedule",
                   help="comma-separated functional query indices")
    p.add_argument("--functional-budget", dest="functional_budget",
                   type=int, default=4096)


def _join_check_arguments(p) -> None:
    p.add_argument("--F", required=True, help="bits:... or file")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=18)


def _solovay_arguments(p) -> None:
    p.add_argument("--t", required=True)
    p.add_argument("--range", type=int, default=256)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--stage", type=int, default=10 ** 5)
    p.add_argument("--cap", type=int, default=16)


def _selftest_arguments(p) -> None:
    p.add_argument("--seed", type=int, default=7)


# name -> (handler, help line, arguments), in the order --help lists them
COMMANDS = {
    "k": (_cmd_k, "shortest-program length of a string", _k_arguments),
    "m": (_cmd_m, "staged semimeasure mass of a string", _k_arguments),
    "convert-timebound": (_cmd_convert_timebound,
                          "stage at which the machine semimeasure dominates a table",
                          _convert_timebound_arguments),
    "space-lemma": (_cmd_space_lemma, "cheap-extension counting sweep",
                    _space_lemma_arguments),
    "psi": (_cmd_psi, "truncated oracle integral test", _psi_arguments),
    "avg": (_cmd_avg, "exact oracle average of the relative mass", _avg_arguments),
    "measure-cheap": (_cmd_measure_cheap,
                      "measure of oracle prefixes compressing a fixed prefix",
                      _measure_cheap_arguments),
    "profile": (_cmd_profile, "per-prefix depth profile CSV", _profile_arguments),
    "build-deep": (_cmd_build_deep, "finite-extension builder", _build_deep_arguments),
    "force": (_cmd_force, "schedule forcing loop", _force_arguments),
    "join-check": (_cmd_join_check, "xor-join randomness report", _join_check_arguments),
    "solovay": (_cmd_solovay, "tightness of the time-bounded bound on integer codes",
                _solovay_arguments),
    "selftest": (_cmd_selftest, "deterministic invariant suite", _selftest_arguments),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.  The
    one-command parser names all of them in its usage line, so an error
    it reports prints what the full parser's would."""
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="desk-scale complexity, semimeasure and forcing experiments",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    # a metavar would also rename `command` in the missing-command error,
    # which only the full parser can report
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        handler, help_line, arguments = COMMANDS[name]
        p = sub.add_parser(name, allow_abbrev=False, help=help_line)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        arguments(p)
    return parser


def _leading_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The file a leading `--config FILE` or `--config=FILE` names (None
    without one) and the argv past it; argparse rejects one after the
    command, and a second one before it is an error here."""
    if argv and argv[0].startswith("--config="):
        argv = ["--config", argv[0][len("--config="):], *argv[1:]]
    if argv[:1] != ["--config"]:
        return None, argv
    if len(argv) == 1:
        raise ValueError("--config needs a file")
    if _leading_config(argv[2:])[0] is not None:
        raise ValueError("--config given twice before the command")
    return argv[1], argv[2:]


def _named_command(argv: list[str]) -> str | None:
    """The subcommand argv names as its first token past a leading
    --config, or None when that token is not a subcommand."""
    first = _leading_config(argv)[1][:1]
    return first[0] if first and first[0] in COMMANDS else None


def _config_flags(lines) -> list[str]:
    out, keys = [], set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"{line!r} is not key=value")
        if key in keys:
            raise ValueError(f"key {key!r} given twice")
        keys.add(key)
        out.append(f"--{key}={value.strip()}")
    return out


def dispatch(argv: list[str]) -> int:
    """Parse arguments (config file first so flags win) and run one
    subcommand; returns the exit status.  Bad input exits 2 with an
    `error:` line on stderr, argparse's own errors included."""
    try:
        path, rest = _leading_config(argv)
        if path is not None:
            rest = rest[:1] + read_input(path, "config file", _config_flags) + rest[1:]
        args = _build_parser(_named_command(argv)).parse_args(rest)
        return args.handler(args)
    except (ValueError, KeyError, OSError, DepthlabError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except complexity.NoStageWithinBudget as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
