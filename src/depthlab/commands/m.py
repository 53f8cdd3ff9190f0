"""`depthlab m`: staged semimeasure mass of a string.

The mass is an integer over 2^cap, printed in lowest terms without a
Fraction, so a run loads neither `semimeasure` nor `fractions`."""

from __future__ import annotations

from math import gcd

from .. import complexity
from ..cli import EXIT_OK, _emit_json, _resolved
from ..complexity import TimeBound
from ..toyvm import parse_oracle
from .k import arguments  # noqa: F401  (m takes k's flags)


def run(args) -> int:
    oracle = parse_oracle(args.oracle)
    if args.t:
        t = TimeBound.parse(args.t)
        num = complexity.m_numerator(args.sigma, t(len(args.sigma)), oracle, args.cap)
        budget = t.describe()
    else:
        num = complexity.m_numerator(args.sigma, args.stage, oracle, args.cap)
        budget = f"stage:{args.stage}"
    den = 1 << args.cap
    g = gcd(num, den)
    _emit_json(args, {
        "mass": f"{num // g}/{den // g}",
        "config": _resolved(args, ("sigma", "cap", "oracle")) | {"budget": budget},
    })
    return EXIT_OK
