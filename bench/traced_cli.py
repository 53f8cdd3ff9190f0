"""Run one `depthlab` command with spans recorded around each layer.

Usage: python bench/traced_cli.py SPANS_FILE CASE_ID -- ARGV...

The public entry points of every depthlab module are wrapped from here,
so the package itself is unchanged.  Each span records its name, start,
end and parent; the case id is the same for every span of one process
and sits in the file header.  Spans stay in memory and are written to
SPANS_FILE when the command returns, as one JSON header line followed by
the raw bytes of four arrays (see `bench/layers.py` for the reader).

Counters are taken at the same boundaries: machine steps and resolved
runs of `_advance`, `halted_by` scans inside `output_map`, programs per
enumeration table, oracle leaves built, martingale tables built and the
builder's priced candidates.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

perf = time.perf_counter


class Recorder:
    """Spans in parallel arrays; a name id is stored doubled, with the low
    bit set when no span of the same name is open (outermost)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.open_count: list[int] = []
        self.counters: dict[str, int] = {}
        self.unwrapped: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.open_count.append(0)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.starts)
        self.kinds.append(2 * nid + (self.open_count[nid] == 0))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.open_count[nid] += 1
        self.stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(perf())
        return idx

    def leave(self, idx: int) -> None:
        self.ends[idx] = perf()
        self.stack.pop()
        self.open_count[self.kinds[idx] >> 1] -= 1

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def write(self, path: str, case_id: str) -> None:
        header = {"case": case_id, "names": self.names, "spans": len(self.starts),
                  "counters": self.counters, "unwrapped": self.unwrapped}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for arr in (self.kinds, self.parents, self.starts, self.ends):
                fh.write(arr.tobytes())


REC = Recorder()


def spanned(name: str, fn, after=None):
    """fn wrapped in a span; after(result, args) runs inside the span."""
    nid = REC.name_id(name)
    enter, leave = REC.enter, REC.leave

    def wrapper(*args, **kwargs):
        idx = enter(nid)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        finally:
            leave(idx)

    return wrapper


def rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`;
    `from x import f` copies the binding, so each module is patched."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module binds {original!r}")


def patch_method(cls, attr: str, name: str, after=None) -> None:
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(spanned(name, raw.__func__, after)))
    else:
        setattr(cls, attr, spanned(name, raw, after))


def install(cli) -> None:
    """Wrap the layer entry points of every depthlab module.  An entry
    point a later refactor removes or renames is listed in the span file
    as unwrapped, and its metrics read 0, rather than failing the case."""
    from depthlab import (complexity, constructions, pi01forcing, randomness,
                          semimeasure, toyvm)

    modules = (toyvm, complexity, semimeasure, randomness, constructions,
               pi01forcing, cli)
    enter, leave, counters = REC.enter, REC.leave, REC.counters

    def attempt(label: str, patch) -> None:
        try:
            patch()
        except (AttributeError, KeyError, RuntimeError):
            REC.unwrapped.append(label)

    def wrap_function(mod, attr: str, name: str, after=None) -> None:
        attempt(name, lambda: rebind(
            modules, getattr(mod, attr), spanned(name, getattr(mod, attr), after)))

    # toyvm: the machine.  `_advance` is bound in toyvm, complexity and
    # semimeasure; the enumeration calls the latter two bindings.
    def patch_advance():
        advance = toyvm._advance
        nid = REC.name_id("toyvm.advance")

        def traced_advance(instrs, oracle, budget, st, detect_cycles):
            idx = enter(nid)
            before = st.steps
            try:
                outcome = advance(instrs, oracle, budget, st, detect_cycles)
            finally:
                leave(idx)
            counters["toyvm.steps"] = counters.get("toyvm.steps", 0) + st.steps - before
            if outcome is not None:
                counters["toyvm.resolved"] = counters.get("toyvm.resolved", 0) + 1
            return outcome

        rebind(modules, advance, traced_advance)

    attempt("toyvm.advance", patch_advance)
    wrap_function(toyvm, "phi", "toyvm.phi")
    wrap_function(toyvm, "fixed_point", "toyvm.fixed_point")

    # complexity: the shared enumeration table and its maps
    def patch_table():
        table = complexity.HaltingTable
        patch_method(table, "__init__", "complexity.table_init",
                     lambda _r, args: REC.count("complexity.programs",
                                                len(args[0].programs)))
        patch_method(table, "ensure", "complexity.ensure")
        patch_method(table, "output_map", "complexity.output_map")
        patch_method(table, "mass_map", "semimeasure.mass_map")
        halted_by = table.halted_by
        om_nid = REC.name_id("complexity.output_map")

        def counted_halted_by(self, budget):
            if REC.open_count[om_nid]:
                REC.count("complexity.output_map.scans")
            return halted_by(self, budget)

        table.halted_by = counted_halted_by

    attempt("complexity.HaltingTable", patch_table)

    # semimeasure: stage conversion, oracle branches, prefix sweeps
    wrap_function(semimeasure, "semimeasure_to_timebound", "semimeasure.timebound")

    def patch_leaves():
        leaves_fn = semimeasure.oracle_leaves
        cache = semimeasure._LEAVES
        nid = REC.name_id("semimeasure.oracle_leaves")

        def traced_oracle_leaves(program, budget, depth, *rest):
            built = (program.bits, budget, depth) not in cache
            idx = enter(nid)
            try:
                result = leaves_fn(program, budget, depth, *rest)
            finally:
                leave(idx)
            if built:
                REC.count("semimeasure.leaves", len(result))
            return result

        rebind(modules, leaves_fn, traced_oracle_leaves)

    attempt("semimeasure.oracle_leaves", patch_leaves)
    attempt("semimeasure.prefix_mass", lambda: patch_method(
        semimeasure.PrefixMassEvaluator, "mass", "semimeasure.prefix_mass"))

    # randomness: martingale tables, counting, evaluation, the psi test
    def patch_tables():
        mart = randomness.MartingaleTable
        patch_method(mart, "__init__", "randomness.table_build",
                     lambda _r, _a: REC.count("randomness.tables"))
        patch_method(mart, "from_splits", "randomness.table_build")
        patch_method(mart, "constant", "randomness.table_build")

    attempt("randomness.MartingaleTable", patch_tables)
    wrap_function(randomness, "count_cheap_extensions", "randomness.count_cheap")
    attempt("randomness.mart_eval", lambda: patch_method(
        randomness.StagedSupermartingale, "__call__", "randomness.mart_eval"))
    wrap_function(randomness, "psi", "randomness.psi")

    # constructions: the builder and depth profiles
    def priced(trace, _args):
        sizes = [1 << r.extension_length for r in trace.rounds]
        REC.count("constructions.candidates", sum(sizes))
        REC.count("constructions.cheap", sum(r.ext_count for r in trace.rounds))

    wrap_function(constructions, "build_deep_random", "constructions.build", priced)
    wrap_function(constructions, "depth_profile", "constructions.profile")

    # pi01forcing: the forcing loop, functional applications, class members
    wrap_function(pi01forcing, "force", "pi01forcing.force")
    attempt("pi01forcing.apply", lambda: patch_method(
        pi01forcing.Functional, "apply", "pi01forcing.apply"))
    wrap_function(pi01forcing, "members_at_stage", "pi01forcing.members")
    wrap_function(pi01forcing, "join_check", "pi01forcing.join_check")


def main() -> int:
    spans_path, case_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE CASE_ID -- ARGV...")
    idx = REC.enter(REC.name_id("cli.import"))
    import depthlab.cli as cli
    REC.leave(idx)
    install(cli)
    idx = REC.enter(REC.name_id("cli.dispatch"))
    try:
        return cli.dispatch(argv)
    finally:
        REC.leave(idx)
        REC.write(spans_path, case_id)


if __name__ == "__main__":
    sys.exit(main())
