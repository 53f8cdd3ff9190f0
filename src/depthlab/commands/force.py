"""`depthlab force`: the schedule forcing loop."""

from __future__ import annotations

from .. import pi01forcing
from ..cli import EXIT_INCONCLUSIVE, EXIT_OK, _emit_json, _require_nonnegative, _resolved
from ..toyvm import read_bits


def arguments(p) -> None:
    p.add_argument("--class", dest="schedule", required=True, help="schedule JSON file")
    p.add_argument("--f", required=True, help="halting-dnc, bits:... or file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--query-schedule", dest="query_schedule",
                   help="comma-separated functional query indices")
    p.add_argument("--functional-budget", dest="functional_budget",
                   type=int, default=4096)


def run(args) -> int:
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
            if min(queries) < 0:
                raise ValueError
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
