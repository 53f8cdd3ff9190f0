"""Finite-extension builder, depth profiles and reduction comparisons.

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .complexity import WRAPPER_BITS, Reduction, TimeBound, halting_table
from .randomness import StagedSupermartingale, space_lemma_length
from .toyvm import PrefixOracle, bits_to_hex, check_bits, oracle_key, strings_of_length


class BuilderError(Exception):
    """An internal invariant of the builder failed (empty extension set)."""


class ReductionMismatch(Exception):
    """A claimed reduction does not compute the source from the target."""


@dataclass(frozen=True)
class BuilderConfig:
    rounds: int
    martingale: StagedSupermartingale
    oracle: object
    dominating: TimeBound
    cap: int = 18
    mart_stage: int = 10 ** 4

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("at least one round")


@dataclass(frozen=True)
class BuilderRound:
    n: int
    sigma: str
    extension_length: int
    ext_count: int
    chosen: str
    d_value: Fraction
    k_value: int | None
    flagged: bool


@dataclass
class BuilderTrace:
    config_summary: dict
    rounds: list[BuilderRound] = field(default_factory=list)
    d_lambda: Fraction = Fraction(0)

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
    d = cfg.martingale
    table = halting_table(cfg.oracle, cfg.cap)
    trace = BuilderTrace({
        "rounds": cfg.rounds,
        "martingale": d.description,
        "oracle": list(map(str, oracle_key(cfg.oracle))),
        "dominating": cfg.dominating.describe(),
        "cap": cfg.cap,
        "mart_stage": cfg.mart_stage,
    })
    trace.d_lambda = d("", cfg.mart_stage)
    sigma = ""
    for r in range(1, cfg.rounds + 1):
        delta = 1 + Fraction(1, r * r)
        k = 1 << r
        l = space_lemma_length(delta, k)
        base_value = d(sigma, cfg.mart_stage)
        bound = delta * base_value
        cheap = [tau for tau in strings_of_length(l)
                 if d(sigma + tau, cfg.mart_stage) < bound]
        if not cheap:
            raise BuilderError(
                f"round {r}: no extension priced under {delta} x current;"
                " the counting bound guarantees at least"
                f" {k}, so the martingale is not a supermartingale")
        budget = cfg.dominating(len(sigma) + l)
        omap = table.output_map(budget, len(sigma) + l)
        chosen = None
        for tau in cheap:
            hit = omap.get(sigma + tau)
            if hit is None or hit[0] > r - 1:
                chosen = tau
                flagged = False
                break
        if chosen is None:
            # every candidate compresses below the threshold at this cap:
            # take the least-compressible one (first in lex order on ties)
            # and mark the round
            best_k = -1
            for tau in cheap:
                kv = omap.get(sigma + tau, (cfg.cap + 1,))[0]
                if kv > best_k:
                    chosen, best_k = tau, kv
            flagged = True
        sigma = sigma + chosen
        hit = omap.get(sigma)
        trace.rounds.append(BuilderRound(
            n=r,
            sigma=sigma,
            extension_length=l,
            ext_count=len(cheap),
            chosen=chosen,
            d_value=d(sigma, cfg.mart_stage),
            k_value=None if hit is None else hit[0],
            flagged=flagged,
        ))
    return trace


# --------------------------------------------------------------------------
# depth profiles


@dataclass(frozen=True)
class ProfileRow:
    n: int
    k_time: int | None
    k_stage: int | None
    gap: int

    @property
    def above_cap(self) -> bool:
        return self.k_time is None or self.k_stage is None


@dataclass(frozen=True)
class DepthProfile:
    sigma: str
    rows: tuple
    params: dict

    def gaps(self):
        return [r.gap for r in self.rows]

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
    worst = max((t(n) for n in range(1, len(x_prefix) + 1)), default=0)
    if stage < worst:
        warnings.warn(
            f"stage {stage} is below the largest time budget {worst};"
            " gaps may come out negative", stacklevel=2)
    table = halting_table(oracle, cap)
    smap = table.output_map(stage, len(x_prefix))
    rows = []
    for n in range(1, len(x_prefix) + 1):
        prefix = x_prefix[:n]
        tmap = table.output_map(t(n), n)
        hit_t = tmap.get(prefix)
        hit_s = smap.get(prefix)
        k_t = None if hit_t is None else hit_t[0]
        k_s = None if hit_s is None else hit_s[0]
        gap = (k_t if k_t is not None else cap + 1) - (k_s if k_s is not None else cap + 1)
        rows.append(ProfileRow(n, k_t, k_s, gap))
    return DepthProfile(x_prefix, tuple(rows), {
        "t": t.describe(), "stage": stage, "cap": cap,
        "oracle": list(map(str, oracle_key(oracle))),
    })


# --------------------------------------------------------------------------
# symmetric difference and the slow-growth comparison


def symdiff(a_prefix: str, x_prefix: str) -> str:
    """Bitwise exclusive or of equal-length prefixes."""
    check_bits(a_prefix)
    check_bits(x_prefix)
    if len(a_prefix) != len(x_prefix):
        raise ValueError("length mismatch")
    return "".join("1" if a != b else "0" for a, b in zip(a_prefix, x_prefix))


@dataclass(frozen=True)
class SglReport:
    """`overhead` is the measured constant: the least C >= 0 with
    gap_Y(n) >= gap_X(n) - C on the shared range.  `holds_with_overhead`
    says whether that inequality holds with the a-priori constant C =
    |reduction program| + WRAPPER_BITS, the size of the code that turns a
    Y-program into an X-program."""

    profile_x: DepthProfile
    profile_y: DepthProfile
    overhead: int
    holds_with_overhead: bool
    reduction_steps: int


def sgl_compare(x_prefix: str, y_prefix: str, reduction: Reduction,
                t: TimeBound, stage: int, oracle=None, cap: int = 18) -> SglReport:
    """Validate that the reduction computes X from Y within its declared
    budget, then emit both depth profiles, the measured overhead and
    whether the gaps respect the a-priori one (see SglReport)."""
    base = PrefixOracle(y_prefix)
    spent = 0
    for i, want in enumerate(x_prefix):
        bit, steps = reduction.bit(base, i)
        spent = max(spent, steps)
        if bit != (1 if want == "1" else 0):
            raise ReductionMismatch(f"reduction disagrees with X at {i}")
    px = depth_profile(x_prefix, t, stage, oracle, cap)
    py = depth_profile(y_prefix, t, stage, oracle, cap)
    shared = min(len(px.rows), len(py.rows))
    overhead = max((px.rows[i].gap - py.rows[i].gap for i in range(shared)),
                   default=0)
    overhead = max(overhead, 0)
    holds = overhead <= len(reduction.program) + WRAPPER_BITS
    return SglReport(px, py, overhead, holds, spent)
