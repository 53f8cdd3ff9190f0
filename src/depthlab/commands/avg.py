"""`depthlab avg`: the exact oracle average of the relative mass."""

from __future__ import annotations

from .. import semimeasure
from ..cli import EXIT_OK, _emit_json, _frac_str, _require_nonnegative, _resolved
from ..complexity import TimeBound


def arguments(p) -> None:
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)


def run(args) -> int:
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
