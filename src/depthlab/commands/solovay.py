"""`depthlab solovay`: tightness of the time-bounded bound on integer
codes."""

from __future__ import annotations

from .. import complexity
from ..cli import EXIT_OK, _emit_json, _resolved
from ..complexity import TimeBound
from ..toyvm import int_to_bin


def arguments(p) -> None:
    p.add_argument("--t", required=True)
    p.add_argument("--range", type=int, default=256)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--stage", type=int, default=10 ** 5)
    p.add_argument("--cap", type=int, default=16)


def solovay_probe(t: TimeBound, n_range: int, c: int, stage: int,
                  cap: int = 16) -> dict:
    """Where the time-bounded complexity of integer codes is tight.

    For n below the range, compares the stage complexity of bin(n)
    against its time-bounded complexity: `tight` lists n with
    K^t(bin n) <= K_stage(bin n) + c, `violations` lists n with
    K_stage above K^t (impossible once the stage covers every time
    budget: the bounded search space is contained in the staged one),
    and `undecided` collects n where both sides sit above the cap.
    The density of the tight list is reported, never asserted."""
    if n_range < 0:
        raise ValueError(f"range must be nonnegative, got {n_range}")
    table = complexity.halting_table(None, cap)
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    tight, violations, undecided = [], [], []
    if n_range:
        # one output map at the stage, and one per code length at t(length)
        staged = table.output_map(stage, len(int_to_bin(n_range - 1)))
    timed: dict = {}
    for n in range(n_range):
        sigma = int_to_bin(n)
        omap = timed.get(len(sigma))
        if omap is None:
            omap = timed[len(sigma)] = table.output_map(t(len(sigma)), len(sigma))
        kt = omap.get(sigma)
        ks = staged.get(sigma)
        if kt is None and ks is None:
            undecided.append(n)
            continue
        kt_v = cap + 1 if kt is None else kt[0]
        ks_v = cap + 1 if ks is None else ks[0]
        if ks_v > kt_v:
            violations.append(n)
        if kt_v <= ks_v + c:
            tight.append(n)
    decided = n_range - len(undecided)
    return {
        "tight": tight,
        "violations": violations,
        "undecided": undecided,
        "tight_density_over_decided": (len(tight) / decided) if decided else None,
    }


def run(args) -> int:
    t = TimeBound.parse(args.t)
    report = solovay_probe(t, args.range, args.c, args.stage, args.cap)
    report["config"] = _resolved(args, ("t", "range", "c", "stage", "cap"))
    _emit_json(args, report)
    return EXIT_OK
