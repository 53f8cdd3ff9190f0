"""A fixed program that measures how fast the host runs Python right now.

`run.py` runs this in a fresh interpreter before every case, the same
way it runs the cases, and scales each case's seconds by the calibration
times next to it (see `run.measure`).  On a shared host every process
slows together, by up to 2x for minutes at a time; the calibration slows
with them, so the ratio stays put while the raw seconds move.  It uses
the standard library only, so no change to `depthlab` can move it.

The mix follows what the workloads spend their time on: an interpreter
loop over integers and dict lookups (the machine), exact Fraction sums
(the betting arithmetic), and a few megabytes of short-lived lists (the
enumeration table).  It prints a checksum so the work cannot be skipped.
"""

from fractions import Fraction

CHECKSUM = "23b65278 8fa41"


def interpreter(n: int) -> int:
    regs, table, acc = [0] * 8, {i: (i * 7 + 3) & 255 for i in range(256)}, 0
    for i in range(n):
        op = table[i & 255]
        regs[op & 7] = (regs[(op >> 3) & 7] + op + i) & 0xFFFFFFFF
        acc ^= regs[op & 7]
    return acc


def fractions(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n):
        total = total * Fraction(3, 4) + Fraction(i % 13, (i % 29) + 1)
    return total


def allocation(n: int) -> int:
    rows = [(i, i >> 3, str(i & 1023)) for i in range(n)]
    return sum(a ^ b for a, b, _c in rows[::7]) & 0xFFFFF


def main() -> None:
    acc = interpreter(300_000)
    total = fractions(4_000)
    size = allocation(200_000)
    print(f"{acc:08x} {(total.numerator ^ size) & 0xFFFFF:x}")


if __name__ == "__main__":
    main()
