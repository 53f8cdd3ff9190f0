"""`depthlab join-check`: the xor-join randomness report."""

from __future__ import annotations

from .. import dnc
from ..bits import read_bits
from ..cli import EXIT_OK, _emit_json, _require_nonnegative, _resolved


def arguments(p) -> None:
    p.add_argument("--F", required=True, help="bits:... or file")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stage", type=int, default=10 ** 4)
    p.add_argument("--cap", type=int, default=18)


def run(args) -> int:
    _require_nonnegative(args, "--stage")
    rep = dnc.join_check(
        read_bits(args.F), read_bits(args.X), read_bits(args.Y),
        args.k, args.stage, args.cap)
    _emit_json(args, {
        **rep._asdict(), "all_ok": rep.all_ok,
        "config": _resolved(args, ("F", "X", "Y", "k", "stage", "cap")),
    })
    return EXIT_OK
