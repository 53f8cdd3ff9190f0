"""`depthlab convert-timebound`: the stage at which the machine
semimeasure dominates a table."""

from __future__ import annotations

from .. import semimeasure
from ..bits import NoStageWithinBudget, parse_fraction
from ..cli import EXIT_INCONCLUSIVE, EXIT_OK, _emit_json, _require_nonnegative, _resolved
from ..toyvm import parse_oracle


def arguments(p) -> None:
    p.add_argument("--table", required=True, help="semimeasure table file")
    p.add_argument("--c", required=True, help="domination constant, num/den")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--ceiling", type=int, default=10 ** 5)
    p.add_argument("--oracle", default="none")


def run(args) -> int:
    _require_nonnegative(args, "--n", "--ceiling")
    m = semimeasure.ComputableSemimeasure.from_file(args.table)
    oracle = parse_oracle(args.oracle)
    try:
        stage = semimeasure.semimeasure_to_timebound(
            m, parse_fraction(args.c), args.n, oracle, args.cap, args.ceiling)
    except NoStageWithinBudget as exc:
        _emit_json(args, {"error": "no-stage-within-budget", "detail": str(exc),
                          "config": _resolved(args, ("table", "c", "n", "cap", "ceiling"))})
        return EXIT_INCONCLUSIVE
    _emit_json(args, {
        "stage": stage,
        "config": _resolved(args, ("table", "c", "n", "cap", "ceiling", "oracle")),
    })
    return EXIT_OK
