"""`depthlab k`: shortest-program length of a string."""

from __future__ import annotations

from .. import complexity
from ..cli import EXIT_OK, _emit
from ..complexity import TimeBound
from ..toyvm import parse_oracle


def arguments(p) -> None:
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", help="time bound poly:a,b or table:<path>")
    p.add_argument("--stage", type=int, default=0, help="absolute budget if no --t")
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--oracle", default="none")


def run(args) -> int:
    t = TimeBound.parse(args.t) if args.t else None
    oracle = parse_oracle(args.oracle)
    if t is not None:
        res = complexity.k_time_bounded(args.sigma, t, oracle, args.cap)
        descriptor = t.describe()
    else:
        res = complexity.k_stage(args.sigma, args.stage, oracle, args.cap)
        descriptor = f"stage:{args.stage}"
    lines = ["sigma,budget,value,witness",
             complexity.result_csv_row(args.sigma, descriptor, res)]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK
