"""`depthlab build-deep`: the finite-extension builder."""

from __future__ import annotations

from .. import constructions, randomness
from ..cli import EXIT_OK, _emit_json, _require_nonnegative
from ..complexity import TimeBound
from ..toyvm import parse_oracle


def arguments(p) -> None:
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--oracle", default="halting:10000")
    p.add_argument("--T", required=True, help="dominating time bound")
    p.add_argument("--cap", type=int, default=18)
    p.add_argument("--mart-stage", dest="mart_stage", type=int, default=10 ** 4)


def run(args) -> int:
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
