"""Per-layer metrics from the span files that `traced_cli.py` writes.

A layer's `.s` metric is the summed duration of its outermost spans (a
span with no open ancestor of the same name), so re-entry is not counted
twice: the machine re-enters `_advance` when a halting-oracle query runs
a diagonal, and a mixture martingale calls its machine part.  `.calls`
counts every span, re-entries included.  `toyvm.advance.self_s` is self
time: each span's duration minus the durations of its direct children.  No layer queues or
waits, so busy time and counts are all there is to report.
"""

from __future__ import annotations

import json
from array import array

# metric name -> (kind, span or counter name)
#   s: outermost span time; calls: span count; self_s: self time;
#   count: counter total; ratio: a / b of two of those; miss_ratio: 1 - a / b
LAYER_METRICS = {
    "toyvm.advance.calls": ("calls", "toyvm.advance"),
    "toyvm.advance.self_s": ("self_s", "toyvm.advance"),
    "toyvm.steps": ("count", "toyvm.steps"),
    "toyvm.resolved_ratio": ("ratio", (("count", "toyvm.resolved"),
                                       ("calls", "toyvm.advance"))),
    "toyvm.phi.calls": ("calls", "toyvm.phi"),
    "toyvm.fixed_point.s": ("s", "toyvm.fixed_point"),
    "complexity.table_init.s": ("s", "complexity.table_init"),
    "complexity.programs": ("count", "complexity.programs"),
    "complexity.ensure.s": ("s", "complexity.ensure"),
    "complexity.ensure.calls": ("calls", "complexity.ensure"),
    "complexity.output_map.s": ("s", "complexity.output_map"),
    "complexity.output_map.calls": ("calls", "complexity.output_map"),
    "complexity.output_map.hit_ratio": ("miss_ratio", (
        ("count", "complexity.output_map.scans"), ("calls", "complexity.output_map"))),
    "semimeasure.mass_map.s": ("s", "semimeasure.mass_map"),
    "semimeasure.timebound.s": ("s", "semimeasure.timebound"),
    "semimeasure.oracle_leaves.s": ("s", "semimeasure.oracle_leaves"),
    "semimeasure.leaves": ("count", "semimeasure.leaves"),
    "semimeasure.prefix_mass.s": ("s", "semimeasure.prefix_mass"),
    "semimeasure.prefix_mass.calls": ("calls", "semimeasure.prefix_mass"),
    "randomness.table_build.s": ("s", "randomness.table_build"),
    "randomness.tables": ("count", "randomness.tables"),
    "randomness.count_cheap.s": ("s", "randomness.count_cheap"),
    "randomness.mart_eval.s": ("s", "randomness.mart_eval"),
    "randomness.mart_eval.calls": ("calls", "randomness.mart_eval"),
    "randomness.psi.s": ("s", "randomness.psi"),
    "constructions.build.s": ("s", "constructions.build"),
    "constructions.candidates": ("count", "constructions.candidates"),
    "constructions.cheap_ratio": ("ratio", (("count", "constructions.cheap"),
                                            ("count", "constructions.candidates"))),
    "constructions.profile.s": ("s", "constructions.profile"),
    "pi01forcing.force.s": ("s", "pi01forcing.force"),
    "pi01forcing.apply.calls": ("calls", "pi01forcing.apply"),
    "pi01forcing.apply.s": ("s", "pi01forcing.apply"),
    "pi01forcing.members.s": ("s", "pi01forcing.members"),
    "pi01forcing.join_check.s": ("s", "pi01forcing.join_check"),
    "cli.import.s": ("s", "cli.import"),
    "cli.dispatch.s": ("s", "cli.dispatch"),
}

# metrics that must repeat exactly between traced passes of one seed
EXACT_COUNTS = ("toyvm.steps", "toyvm.advance.calls", "complexity.programs",
                "semimeasure.leaves", "pi01forcing.apply.calls",
                "constructions.candidates")

UNITS = {"s": "s", "self_s": "s", "calls": "count", "count": "count",
         "ratio": "ratio", "miss_ratio": "ratio"}


def unit_of(metric: str) -> str:
    if metric == "trace.overhead_ratio":
        return "ratio"
    return UNITS[LAYER_METRICS[metric][0]]


def read_spans(path: str) -> dict:
    """Totals of one span file: per name outermost time, span count and
    self time, plus the counters."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * n))
            arrays.append(arr)
    kinds, parents, starts, ends = arrays
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    names = header["names"]
    incl = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for i in range(n):
        name = names[kinds[i] >> 1]
        dur = ends[i] - starts[i]
        self_s[name] += dur - child[i]
        calls[name] += 1
        if kinds[i] & 1:
            incl[name] += dur
    return {"s": incl, "calls": calls, "self_s": self_s, "counters": header["counters"],
            "case": header["case"], "unwrapped": header["unwrapped"]}


def add_totals(acc: dict, totals: dict) -> None:
    for kind in ("s", "calls", "self_s", "counters"):
        for key, value in totals[kind].items():
            acc.setdefault(kind, {})
            acc[kind][key] = acc[kind].get(key, 0) + value


def layer_metrics(acc: dict) -> dict:
    """Every named metric of one traced pass, 0 where a layer was idle."""
    def value(kind: str, key: str):
        return acc.get("counters" if kind == "count" else kind, {}).get(key, 0)

    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind in ("ratio", "miss_ratio"):
            num, den = value(*key[0]), value(*key[1])
            share = num / den if den else 0
            out[metric] = 1 - share if kind == "miss_ratio" and den else share
        else:
            out[metric] = value(kind, key)
    return out
