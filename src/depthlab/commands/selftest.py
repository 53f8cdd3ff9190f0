"""`depthlab selftest`: the deterministic invariant suite."""

from __future__ import annotations

from ..cli import EXIT_OK, EXIT_VALIDATION, _emit_json
from ..selftest import selftest


def arguments(p) -> None:
    p.add_argument("--seed", type=int, default=7)


def run(args) -> int:
    report = selftest(args.seed)
    _emit_json(args, report)
    return EXIT_OK if report["all_ok"] else EXIT_VALIDATION
