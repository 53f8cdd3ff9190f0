"""Finite-extension builder and depth profiles.

The builder grows a binary string round by round.  At round r it takes
delta_r = 1 + 1/r^2, looks at all extensions of length
l(delta_r, 2^r) = ceil(log2((2^r + 1)/(1 - 1/delta_r))), keeps the ones
the configured supermartingale prices below delta_r times the current
value (the counting bound guarantees at least 2^r of them), and among
those picks the first whose oracle-relative time-bounded complexity
exceeds r - 1.  The martingale budget keeps every prefix cheap for the
betting strategy while the complexity filter keeps it expensive for the
budgeted oracle machine; the trace records both sides exactly.

All substitutions relative to the idealised construction are explicit
configuration: the halting oracle is the stage-bounded diagonal table,
the dominating time bound is whatever TimeBound the caller supplies, and
the limit complexity is its stage approximation.  The trace is what the
artifact certifies.

Only the builder reads the betting code, so this module imports
randomness inside the builder's functions: a depth profile loads none
of it.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .complexity import TimeBound, halting_table, k_stage
from .toyvm import DepthlabError, bits_to_hex, check_bits, oracle_key

if TYPE_CHECKING:
    from .randomness import StagedSupermartingale


class BuilderError(DepthlabError):
    """An internal invariant of the builder failed (empty extension set)."""


class BuilderConfig(NamedTuple):
    """The builder's settings; build_deep_random checks that there is at
    least one round."""

    rounds: int
    martingale: StagedSupermartingale
    oracle: object
    dominating: TimeBound
    cap: int = 18
    mart_stage: int = 10 ** 4


class BuilderRound(NamedTuple):
    """One round of the builder.  `k_rejected` counts the cheap candidates
    the complexity filter rejected before the chosen one (every candidate
    on a flagged round); 0 means the filter rejected nothing.
    `price_rejected` counts the candidates the price filter rejected, and
    a round is `vacuous` when neither filter rejected any."""

    n: int
    sigma: str
    extension_length: int
    ext_count: int
    chosen: str
    d_value: Fraction
    k_value: int | None
    flagged: bool
    k_rejected: int

    @property
    def price_rejected(self) -> int:
        return (1 << self.extension_length) - self.ext_count

    @property
    def vacuous(self) -> bool:
        return self.price_rejected == 0 and self.k_rejected == 0


class BuilderTrace:
    __slots__ = ("config_summary", "rounds", "d_lambda")

    def __init__(self, config_summary: dict, d_lambda: Fraction):
        self.config_summary = config_summary
        self.rounds: list[BuilderRound] = []
        self.d_lambda = d_lambda

    @property
    def sigma(self) -> str:
        return self.rounds[-1].sigma if self.rounds else ""

    def claim_bound_products(self):
        """Exact per-round budget bound: d(lambda) * prod_{i<=n} (1 + 1/i^2)."""
        bound = self.d_lambda
        out = []
        for r in self.rounds:
            bound = bound * (1 + Fraction(1, r.n ** 2))
            out.append(bound)
        return out

    def check_martingale_budget(self) -> bool:
        return all(r.d_value <= b
                   for r, b in zip(self.rounds, self.claim_bound_products()))

    def check_length_recurrence(self) -> bool:
        from .randomness import space_lemma_length

        prev = 0
        for r in self.rounds:
            l = space_lemma_length(1 + Fraction(1, r.n ** 2), 1 << r.n)
            if len(r.sigma) - prev != l or r.extension_length != l:
                return False
            prev = len(r.sigma)
        return True

    def length_fit(self):
        """(n, |sigma_n|, n^2/2) rows: the quadratic profile is reported,
        not asserted."""
        return [(r.n, len(r.sigma), r.n ** 2 / 2) for r in self.rounds]

    def to_json(self) -> dict:
        return {
            "config": self.config_summary,
            "rounds": [
                {
                    "n": r.n,
                    "sigma_hex": bits_to_hex(r.sigma),
                    "ext_count": r.ext_count,
                    "d_num": r.d_value.numerator,
                    "d_den": r.d_value.denominator,
                    "flagged": r.flagged,
                    "k_rejected": r.k_rejected,
                    "price_rejected": r.price_rejected,
                    "vacuous": r.vacuous,
                }
                for r in self.rounds
            ],
            "checks": {
                "claim2": self.check_martingale_budget(),
                "claim3": self.check_length_recurrence(),
            },
        }


def build_deep_random(cfg: BuilderConfig) -> BuilderTrace:
    """Run the finite-extension construction and return its full trace."""
    from .randomness import space_lemma_length

    if cfg.rounds < 1:
        raise ValueError("at least one round")
    d = cfg.martingale
    table = halting_table(cfg.oracle, cfg.cap)
    trace = BuilderTrace({
        "rounds": cfg.rounds,
        "martingale": d.description,
        "oracle": list(map(str, oracle_key(cfg.oracle))),
        "dominating": cfg.dominating.describe(),
        "cap": cfg.cap,
        "mart_stage": cfg.mart_stage,
    }, d("", cfg.mart_stage))
    sigma = ""
    for r in range(1, cfg.rounds + 1):
        delta = 1 + Fraction(1, r * r)
        k = 1 << r
        l = space_lemma_length(delta, k)
        current = d.numerator(sigma, cfg.mart_stage)
        if not current:
            raise BuilderError(
                f"round {r}: d({sigma!r}) is 0 at stage {cfg.mart_stage}, so no"
                f" extension can be priced under {delta} x current; the counting"
                " bound holds only where the martingale is positive")
        # d(sigma tau) < delta d(sigma), cross-multiplied over d's scale
        bound = delta.numerator * current
        den = delta.denominator
        budget = cfg.dominating(len(sigma) + l)
        omap = table.output_map(budget, len(sigma) + l)
        # one pass over the price runs, in lex order, through both filters:
        # count the cheap extensions, take the first one the complexity
        # filter passes, and remember the least-compressible rejected one
        # (first on ties); tau strings are built only inside cheap runs,
        # up to the chosen one
        ext_count = rejected = start = 0
        chosen = fallback = None
        best_k = -1
        for count, price in d.extensions(sigma, l, cfg.mart_stage):
            if price * den < bound:
                ext_count += count
                v = start
                while chosen is None and v < start + count:
                    tau = format(v, "b").zfill(l)
                    hit = omap.get(sigma + tau)
                    if hit is None or hit[0] > r - 1:
                        chosen = tau
                    else:
                        rejected += 1
                        if hit[0] > best_k:
                            fallback, best_k = tau, hit[0]
                    v += 1
            start += count
        if not ext_count:
            raise BuilderError(
                f"round {r}: no extension priced under {delta} x current;"
                " the counting bound guarantees at least"
                f" {k}, so the martingale is not a supermartingale")
        # if every candidate compresses below the threshold at this cap,
        # take the least-compressible one and mark the round
        flagged = chosen is None
        if flagged:
            chosen = fallback
        sigma = sigma + chosen
        hit = omap.get(sigma)
        trace.rounds.append(BuilderRound(
            n=r,
            sigma=sigma,
            extension_length=l,
            ext_count=ext_count,
            chosen=chosen,
            d_value=d(sigma, cfg.mart_stage),
            k_value=None if hit is None else hit[0],
            flagged=flagged,
            k_rejected=rejected,
        ))
    return trace


# --------------------------------------------------------------------------
# depth profiles


class ProfileRow(NamedTuple):
    n: int
    k_time: int | None
    k_stage: int | None
    gap: int

    @property
    def above_cap(self) -> bool:
        return self.k_time is None or self.k_stage is None


class DepthProfile(NamedTuple):
    sigma: str
    rows: tuple
    params: dict

    def csv_lines(self):
        yield "n,k_time,k_stage,gap,above_cap"
        for r in self.rows:
            kt = "above-cap" if r.k_time is None else r.k_time
            ks = "above-cap" if r.k_stage is None else r.k_stage
            yield f"{r.n},{kt},{ks},{r.gap},{int(r.above_cap)}"


def depth_profile(x_prefix: str, t: TimeBound, stage: int, oracle=None,
                  cap: int = 18) -> DepthProfile:
    """Per-prefix gap between time-bounded and stage-approximated
    complexity, both relative to the same oracle; the gap column is the
    desk-scale depth signal.  Above-cap values enter the gap as cap+1."""
    check_bits(x_prefix)
    halting_table(oracle, cap)  # a bad cap raises before any warning
    worst = max((t(n) for n in range(1, len(x_prefix) + 1)), default=0)
    if stage < worst:
        warnings.warn(
            f"stage {stage} is below the largest time budget {worst};"
            " gaps may come out negative", stacklevel=2)
    rows = []
    for n in range(1, len(x_prefix) + 1):
        k_t = k_stage(x_prefix[:n], t(n), oracle, cap)
        k_s = k_stage(x_prefix[:n], stage, oracle, cap)
        rows.append(ProfileRow(n, k_t.value, k_s.value, k_t.clamped(cap) - k_s.clamped(cap)))
    return DepthProfile(x_prefix, tuple(rows), {
        "t": t.describe(), "stage": stage, "cap": cap,
        "oracle": list(map(str, oracle_key(oracle))),
    })
