"""`depthlab profile`: the per-prefix depth profile, as CSV."""

from __future__ import annotations

import sys
import warnings

from .. import depth
from ..bits import read_bits
from ..cli import EXIT_OK, _emit, _require_nonnegative
from ..complexity import TimeBound
from ..toyvm import parse_oracle


def arguments(p) -> None:
    p.add_argument("--in", dest="infile", required=True, help="bits:... or file")
    p.add_argument("--t", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--oracle", default="none")
    p.add_argument("--cap", type=int, default=18)


def run(args) -> int:
    _require_nonnegative(args, "--stage")
    bits = read_bits(args.infile)
    with warnings.catch_warnings(record=True) as notices:
        warnings.simplefilter("always")
        prof = depth.depth_profile(
            bits, TimeBound.parse(args.t), args.stage,
            parse_oracle(args.oracle), args.cap)
    for notice in notices:
        sys.stderr.write(f"warning: {notice.message}\n")
    _emit(args, "\n".join(prof.csv_lines()) + "\n")
    return EXIT_OK
