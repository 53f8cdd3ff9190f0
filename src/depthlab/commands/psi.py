"""`depthlab psi`: the truncated oracle integral test."""

from __future__ import annotations

from .. import randomness
from ..bits import parse_fraction, read_bits
from ..cli import EXIT_OK, _emit_json, _frac_str, _require_nonnegative
from ..complexity import TimeBound


def arguments(p) -> None:
    p.add_argument("--a-prefix", dest="a_prefix", required=True,
                   help="bits:... or a file of 0/1 characters")
    p.add_argument("--t", required=True)
    p.add_argument("--tprime", required=True)
    p.add_argument("--c", default="1")
    p.add_argument("--len-cap", dest="len_cap", type=int, default=2)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=14)


def run(args) -> int:
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
