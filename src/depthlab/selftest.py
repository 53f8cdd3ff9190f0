"""The selftest command: a deterministic aggregate of the package's
invariants, from machine prefix-freeness to the forcing loop.

It reads every measuring module, so it lives apart from the command
line: only `depthlab selftest` loads it.
"""

from __future__ import annotations

from fractions import Fraction

from . import pi01forcing, randomness, semimeasure
from .cli import _frac_str
from .complexity import TimeBound, halting_table
from .toyvm import (
    ZERO,
    compile_const,
    fixed_point,
    phi,
    programs_up_to,
    smn,
    strings_of_length,
)


def selftest(seed: int = 7) -> dict:
    """Deterministic aggregate of the package invariants, sized to run in
    well under a minute; the acceptance suite in tests/ runs the full
    versions."""
    report: dict = {"seed": seed}

    programs = programs_up_to(14)
    bits = sorted(p.bits for p in programs)
    report["prefix_free_cap14"] = {
        "programs": len(programs),
        "prefix_pairs": sum(1 for a, b in zip(bits, bits[1:]) if b.startswith(a)),
    }

    table = halting_table(None, 14)
    mass = table.total_mass(2000)
    omap = table.output_map(2000, 4)
    kraft = sum(Fraction(1, 1 << plen) for plen, _p in omap.values())
    report["mass_cap14_stage2000"] = {
        "semimeasure_mass": _frac_str(mass),
        "kraft_sum": _frac_str(kraft),
        "both_at_most_one": bool(mass <= 1 and kraft <= 1),
    }

    mono = True
    for s1, s2 in ((0, 10), (10, 200), (200, 2000)):
        m1, m2 = table.output_map(s1, 3), table.output_map(s2, 3)
        for L in range(4):
            for sigma in strings_of_length(L):
                k1 = m1.get(sigma, (15,))[0]
                k2 = m2.get(sigma, (15,))[0]
                if k2 > k1:
                    mono = False
                if semimeasure.m_stage(sigma, s1, None, 14) > semimeasure.m_stage(sigma, s2, None, 14):
                    mono = False
    report["stage_monotonicity"] = mono

    violations = 0
    for delta, k in ((Fraction(2), 2), (Fraction(3), 4)):
        l = randomness.space_lemma_length(delta, k)
        violations += randomness.space_lemma_sample(5, 500, seed, delta, l, k)[1]
    report["extension_count_sample"] = {"tables": 500, "violations": violations}

    t = TimeBound.poly(10, 1)
    exact = semimeasure.oracle_average("1", t, 12, 4)
    direct = semimeasure.oracle_average_direct("1", t, 12, 4)
    report["oracle_average_identity"] = {
        "exact": _frac_str(exact),
        "direct_matches": bool(exact == direct),
    }

    e_star = fixed_point(compile_const)
    report["recursion_fixed_point"] = {
        "index": e_star,
        "self_reproduces": bool(phi(e_star, 5, ZERO, 1000).value == e_star),
    }

    fn = pi01forcing.Functional.projection((4, 5, 6))
    res = pi01forcing.force(
        pi01forcing.PruningSchedule.full_space(8),
        pi01forcing.Dnc2Witness.from_halting_table(2048),
        steps=3, stage_budget=2048, functional=fn)
    report["forcing_smoke"] = {
        "b_prefix": res.b_prefix,
        "reconstructs": bool(all(t["match"] for t in res.reconstruct(fn))),
    }

    report["smn_smoke"] = phi(smn(2, 3), 0, ZERO, 100).halted
    report["all_ok"] = bool(
        report["prefix_free_cap14"]["prefix_pairs"] == 0
        and report["mass_cap14_stage2000"]["both_at_most_one"]
        and report["stage_monotonicity"]
        and report["extension_count_sample"]["violations"] == 0
        and report["oracle_average_identity"]["direct_matches"]
        and report["recursion_fixed_point"]["self_reproduces"]
        and report["forcing_smoke"]["reconstructs"]
        and report["smn_smoke"])
    return report
