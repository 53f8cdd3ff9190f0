"""Diagonally non-computable bit sources and the xor-join check.

A Dnc2Witness is a finite map e -> {0,1} meant to disagree with the
parity of the diagonal value phi_e(e) wherever that halts within a
stage; is_dnc2 checks one against numbering.diagonal.  The forcing loop
of pi01forcing reads its dodge bits from one.

join_check is the desk-scale form of the result that every DNC_2
function is tt-equivalent to the join of two ML-random sets: it checks
that a prefix is the exact xor of two others, that both of those look
k-random at a stage, and that the prefix's bits dodge the diagonal.  It
runs no forcing loop, so `join-check` loads no pi01forcing; and it
imports complexity's deficiency only in its body, so a force run, which
imports this module for its witness, loads no enumeration.
"""

from __future__ import annotations

from typing import NamedTuple

from .bits import DepthlabError, check_bits
from .numbering import diagonal


class ForcingError(DepthlabError):
    """A precondition or internal invariant of the forcing loop failed."""


# --------------------------------------------------------------------------
# diagonally non-computable bit sources


class Dnc2Witness:
    """Finite map e -> {0,1} meant to disagree with the parity of the
    diagonal value phi_e(e) wherever that halts within the stage.

    The canonical witness materialises values on demand from the diagonal
    table (1 - value mod 2 on halting indices, 0 elsewhere); a frozen map
    raises on unlisted indices, which the forcing loop reports as a
    precondition failure."""

    def __init__(self, stage: int, values: dict | None = None, dynamic: bool = True):
        self.stage = stage
        self.values = dict(values or {})
        self.dynamic = dynamic

    @classmethod
    def from_halting_table(cls, stage: int) -> "Dnc2Witness":
        return cls(stage)

    @classmethod
    def frozen(cls, stage: int, values: dict) -> "Dnc2Witness":
        return cls(stage, values, dynamic=False)

    def value(self, e: int) -> int:
        if e in self.values:
            return self.values[e]
        if not self.dynamic:
            raise ForcingError(f"bit source undefined at index {e}")
        halts, val, _step = diagonal(e, self.stage)
        bit = 1 - (val % 2) if halts else 0
        self.values[e] = bit
        return bit


def is_dnc2(witness: Dnc2Witness, stage: int):
    """(ok, counterexample): every listed index must disagree with the
    parity of its halting diagonal value at the stage."""
    for e in sorted(witness.values):
        halts, val, _step = diagonal(e, stage)
        if halts and witness.values[e] == val % 2:
            return False, e
    return True, None


# --------------------------------------------------------------------------
# xor-join verification


def symdiff(a_prefix: str, x_prefix: str) -> str:
    """Bitwise exclusive or of equal-length prefixes."""
    check_bits(a_prefix)
    check_bits(x_prefix)
    if len(a_prefix) != len(x_prefix):
        raise ValueError("length mismatch")
    return "".join("1" if a != b else "0" for a, b in zip(a_prefix, x_prefix))


class JoinReport(NamedTuple):
    xor_ok: bool
    x_random_ok: bool
    y_random_ok: bool
    dnc_ok: bool
    dnc_counterexample: int | None
    x_deficiency: int
    y_deficiency: int

    @property
    def all_ok(self) -> bool:
        return self.xor_ok and self.x_random_ok and self.y_random_ok and self.dnc_ok


def join_check(f_prefix: str, x_prefix: str, y_prefix: str, k: int,
               stage: int, cap: int = 18) -> JoinReport:
    """Three clauses: the prefix is the exact xor of the two others, both
    of those look k-random at the stage (deficiency at most k), and the
    prefix's bits form a valid dodging witness on its listed indices."""
    from .complexity import deficiency

    if not len(f_prefix) == len(x_prefix) == len(y_prefix):
        raise ValueError("length mismatch")
    xor_ok = f_prefix == symdiff(x_prefix, y_prefix)
    dx = deficiency(x_prefix, stage, cap)
    dy = deficiency(y_prefix, stage, cap)
    witness = Dnc2Witness.frozen(stage, {e: int(b) for e, b in enumerate(f_prefix)})
    ok, counter = is_dnc2(witness, stage)
    return JoinReport(
        xor_ok=xor_ok,
        x_random_ok=dx.value <= k,
        y_random_ok=dy.value <= k,
        dnc_ok=ok,
        dnc_counterexample=counter,
        x_deficiency=dx.value,
        y_deficiency=dy.value,
    )
