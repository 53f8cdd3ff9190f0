#!/usr/bin/env python3
"""Tour of the pinned machine: programs, runs, oracles.

Run with: python3 demos/demo_01_machine.py
"""

from depthlab.bits import body_index, index_to_body
from depthlab.numbering import HaltingOracle, assemble, disassemble, phi, smn
from depthlab.toyvm import PrefixOracle, Program, ZERO, programs_up_to, run

# Every program is a gamma header followed by a raw body.  The header is
# self-delimiting, so the program set is prefix-free: this is what makes
# sum(2^-|p|) a semimeasure later on.
p = Program.encode("0001")
print("body 0001 encodes to", p.bits, f"({len(p)} bits)")
print("the empty program is", Program.encode("").bits)

bits = sorted(q.bits for q in programs_up_to(14))
clashes = sum(1 for a, b in zip(bits, bits[1:]) if b.startswith(a))
print(f"{len(bits)} programs of <= 14 bits, prefix clashes: {clashes}")

# The body is a sequence of 4-bit opcodes.  EMIT0 writes one output bit;
# a run transcript is (outcome kind, output, steps).
out = run(p, None, budget=10)
print("running it:", out.kind, repr(out.output), f"{out.steps} step(s)")

# DOUBLE squares the output string, so short programs can write long
# strings; that asymmetry is where all the later compressibility
# structure comes from.
body = assemble([("EMIT1",), ("DOUBLE",), ("DOUBLE",), ("DOUBLE",)])
print("EMIT1 DOUBLE^3 writes", run(Program.encode(body), None, 10).output)

# Oracles answer ORACLE instructions: a finite table, the zero rule, or
# the stage-bounded diagonal halting table.
probe = assemble([("ORACLE",), ("EMITR",)])
print("echoing oracle bit 0 of '10':",
      run(Program.encode(probe), PrefixOracle("10"), 10).output)
h = HaltingOracle(1000)
print("halting-table bits 0..9:", "".join(str(h.answer(e)) for e in range(10)))

# Bodies are ranked length-lexicographically; phi(e, x) runs body e with
# R2 = x and returns the final R3.  The parameter channel is a prologue
# of INC R1 instructions, which smn prepends.
e = body_index("010011")  # INC R3
print("phi_e(x) for the INC R3 body:", phi(e, 5, ZERO, 10).value)
e2 = smn(e, 2)
print("smn(e, 2) body disassembles to:", "; ".join(disassemble(index_to_body(e2))))
