"""`depthlab measure-cheap`: the measure of the oracle prefixes that
compress a fixed prefix."""

from __future__ import annotations

from .. import randomness
from ..cli import EXIT_OK, _emit_json, _frac_str, _require_nonnegative, _resolved
from ..complexity import TimeBound
from ..toyvm import parse_fraction, read_bits


def arguments(p) -> None:
    p.add_argument("--x", required=True, help="bits:... or file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--cap", type=int, default=14)


def run(args) -> int:
    _require_nonnegative(args, "--depth")
    mu = randomness.measure_cheap_oracles(
        read_bits(args.x), args.n, parse_fraction(args.k),
        TimeBound.parse(args.t), args.stage, args.depth, args.cap)
    _emit_json(args, {
        "measure": _frac_str(mu),
        "config": _resolved(args, ("x", "n", "k", "t", "stage", "depth", "cap")),
    })
    return EXIT_OK
