"""`depthlab space-lemma`: the cheap-extension counting sweep."""

from __future__ import annotations

from fractions import Fraction

from .. import randomness
from ..bits import parse_fraction
from ..cli import EXIT_OK, _emit_json, _require_nonnegative, _resolved


def arguments(p) -> None:
    p.add_argument("--delta", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)


def run(args) -> int:
    _require_nonnegative(args, "--n", "--depth")
    delta = parse_fraction(args.delta)
    l = randomness.space_lemma_length(delta, args.k)
    if args.mode == "exhaustive":
        # the grid is fixed, so the sample's --n, --seed and --depth go unread
        read = ("delta", "k", "mode")
        tested = violations = 0
        for fam_depth, splits in ((3, randomness.DYADIC_SPLITS),
                                  (2, tuple(Fraction(i, 4) for i in range(5)))):
            counts = randomness.space_lemma_grid(fam_depth, splits, delta, l, args.k)
            tested += counts[0]
            violations += counts[1]
    else:
        read = ("delta", "k", "mode", "n", "seed", "depth")
        tested, violations = randomness.space_lemma_sample(
            max(args.depth, l), args.n, args.seed, delta, l, args.k)
    _emit_json(args, {
        "violations": violations,
        "tested": tested,
        "extension_length": l,
        "config": _resolved(args, read),
    })
    return EXIT_OK
