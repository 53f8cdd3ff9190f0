"""depthlab benchmark: seeded CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check
    python3 bench/run.py --record-expected

Run from the root of a checkout; `src/depthlab` is imported from there.
A run generates the workload's cases from the seed, then repeats passes
over them for S seconds (see `measure`).  The
load is a closed loop: this process runs one child at a time, each case
in a fresh interpreter so that the package's module-level caches never
carry over between cases.

With --trace 0 a run reports the end-to-end metrics:
  wall_s       spawn-to-exit seconds summed over the workload's cases,
               each case at its mean over the run's passes
  setup_s      median seconds from spawning an interpreter to
               `import depthlab.cli` done (several spawns per pass)
  peak_rss_mb  median over passes of the largest per-child max RSS,
               read from os.wait4 for that child alone
Both times are given at a reference host speed.  On a shared host every
process slows together, by up to 2x for minutes at a time, so raw
seconds from two runs of the same code can differ by more than any
useful bound.  Before every case an untraced pass also runs the fixed
program `calibrate.py`.  A case's time is scaled by CALIBRATION_REF_S
over the calibration times next to it: the host's speed holds for some
seconds at a time, so the calibrations just before and just after a case
ran at much the same speed as the case.  `setup_s` is scaled by the
run's median calibration time.  The raw seconds and the calibration
times are in the record line.
With --trace 1 it alternates untraced passes with traced ones (each
case run through `traced_cli.py`) and reports the per-layer metrics of
`layers.py` plus trace.overhead_ratio, traced over untraced wall time.

Every case's artifact is checked on the first pass (see `cases.py`);
later passes, traced ones included, must reproduce it byte for byte.
The last line of stdout is the JSON result; the line before it records
the generated argv and the machine (Python version, nproc, load).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK_ROOT = ".bench_work"
EXPECTED = os.path.join(BENCH, "expected.json")
CALIBRATE = os.path.join(BENCH, "calibrate.py")
CALIBRATION_REF_S = 0.30
"""Seconds `calibrate.py` takes on the reference host: the timed metrics
are scaled to what they would be where it takes this long."""
SETUP_SPAWNS_PER_PASS = 5
MIN_PASSES = 2
CASE_TIMEOUT_S = 60
RUN_CLI = "import sys; from depthlab.cli import main; main()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, out_path: str, err_path: str, env: dict):
    """Run `python ARGS` to exit: (exit code, wall seconds, max RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    timer = threading.Timer(CASE_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    reaped = False
    try:
        _pid, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Runner:
    """Runs the cases of one workload and collects artifacts and problems."""

    def __init__(self, workload_name: str, seed: int, expected: dict | None):
        import cases
        self.cases_mod = cases
        self.name = workload_name
        self.work = os.path.join(WORK_ROOT, f"{workload_name}-{seed}")
        os.makedirs(self.work, exist_ok=True)
        self.workload = cases.make_workload(workload_name, seed, self.work)
        for path, text in ((p, t) for c in self.workload.cases for p, t in c.files.items()):
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        self.expected = expected
        self.env = child_env()
        self.reference: dict = {}        # case name -> (exit code, stdout)
        self.attempted = 0
        self.cost: dict = {}             # case name -> seconds its last run took
        self.problems: list = []         # (run id, case name, problem)

    def argv_record(self) -> list:
        return [{"case": c.name, "argv": c.argv} for c in self.workload.cases]

    def setup_time(self) -> float:
        out = os.path.join(self.work, "setup.out")
        rc, wall, _rss = spawn(["-c", "import depthlab.cli"], out, out, self.env)
        if rc != 0:
            raise RuntimeError(f"import depthlab.cli failed: {read(out)[-500:]}")
        return wall

    def calibration_time(self) -> float:
        import calibrate
        out = os.path.join(self.work, "calibrate.out")
        rc, wall, _rss = spawn([CALIBRATE], out, out, self.env)
        if rc != 0 or read(out).strip() != calibrate.CHECKSUM:
            raise RuntimeError(f"calibrate.py failed: {read(out)[-500:]}")
        return wall

    def run_pass(self, traced: bool, calibration: list | None = None,
                 deadline: float | None = None):
        """One pass over the cases: per-case (wall seconds, max RSS in MB),
        per-case span totals when traced, and per-case run ids.  With a
        `calibration` list, a calibration time is appended before each case.
        With a `deadline`, the pass stops before a case that would end after
        it, judged by how long that case took last time."""
        import layers
        usage, spans, run_ids = {}, {}, {}
        values: dict = {}
        for case in self.workload.cases:
            case_start = time.perf_counter()
            if deadline is not None and case_start + self.cost[case.name] > deadline:
                break
            if calibration is not None:
                calibration.append(self.calibration_time())
            out = os.path.join(self.work, f"{case.name}.out")
            err = os.path.join(self.work, f"{case.name}.err")
            span_file = os.path.join(self.work, f"{case.name}.spans")
            args = (["bench/traced_cli.py", span_file, f"{self.name}/{case.name}", "--"]
                    if traced else ["-c", RUN_CLI])
            rc, wall, rss = spawn([*args, *case.argv], out, err, self.env)
            usage[case.name] = (wall, rss)
            self.cost[case.name] = time.perf_counter() - case_start
            run_ids[case.name] = self.attempted
            self.attempted += 1
            stdout, stderr = read(out), read(err)
            found = []
            if rc != 0 or "Traceback" in stderr:
                found.append(f"exit {rc}: {stderr.strip()[-300:]}")
            elif case.name not in self.reference:
                self.reference[case.name] = (rc, stdout)
                found += self.first_checks(case, stdout, values)
            elif self.reference[case.name] != (rc, stdout):
                found.append("artifact differs from the first pass"
                             + (" (traced)" if traced else ""))
            if traced and rc == 0:
                spans[case.name] = layers.read_spans(span_file)
                os.remove(span_file)
            self.report(run_ids[case.name], case.name, found)
        cross = self.workload.cross_check
        if cross and len(values) == len(self.workload.cases):
            try:
                found = cross(values)
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                found = [(self.workload.cases[0].name, f"cross-check raised {exc!r}")]
            for name, problem in found:
                self.report(run_ids[name], name, [problem])
        return usage, spans, run_ids

    def report(self, run_id: int, case: str, problems: list) -> None:
        self.problems += [(run_id, case, p) for p in problems]

    @property
    def failed(self) -> int:
        """Case runs with at least one problem."""
        return len({run_id for run_id, _c, _p in self.problems})

    def first_checks(self, case, stdout: str, values: dict) -> list:
        command = case.argv[0]
        found = self.safe(lambda: case.check(stdout))
        try:
            got = self.cases_mod.values_of(command, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return found + [f"artifact unreadable: {exc!r}"]
        values[case.name] = got
        want = (self.expected or {}).get(case.name)
        if want is not None:
            found += [f"{k} = {got.get(k)!r}, recorded {v!r}"
                      for k, v in want.items() if got.get(k) != v]
        return found

    @staticmethod
    def safe(check) -> list:
        """A check that raises has found a malformed artifact."""
        try:
            return check()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            return [f"check raised {exc!r}"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes over the cases for `seconds`: (metrics, per-pass record).

    Untraced, a run makes at least MIN_PASSES whole passes, then goes on
    and stops before the first case that would end after `seconds`, so
    the cases of a last, cut pass are measured too.  With --trace 1 each
    round is one untraced and one traced pass, until the next round would
    end after `seconds`."""
    import layers
    start = time.perf_counter()
    deadline = start + seconds
    n_cases = len(runner.workload.cases)
    setup, calibration, walls, peaks, case_walls = [], [], [], [], {}
    samples = []                         # (case, wall, index of its calibration)
    traced_walls, traced_layers, counts, unwrapped = [], [], {}, set()
    while True:
        pass_start = time.perf_counter()
        cut = None if trace or len(walls) < MIN_PASSES else deadline
        if cut is not None and pass_start > cut:
            break
        for _ in range(SETUP_SPAWNS_PER_PASS):
            setup.append(runner.setup_time())
        base = len(calibration)
        usage, _spans, _ids = runner.run_pass(traced=False, calibration=calibration,
                                              deadline=cut)
        for i, (case, (wall, _rss)) in enumerate(usage.items()):
            case_walls.setdefault(case, []).append(wall)
            samples.append((case, wall, base + i))
        if len(usage) < n_cases:
            break
        walls.append(sum(w for w, _r in usage.values()))
        peaks.append(max(r for _w, r in usage.values()))
        if trace:
            usage, spans, run_ids = runner.run_pass(traced=True)
            traced_walls.append(sum(w for w, _r in usage.values()))
            acc: dict = {}
            for case, totals in spans.items():
                layers.add_totals(acc, totals)
                unwrapped.update(totals["unwrapped"])
                now = layers.layer_metrics(totals)
                first = counts.setdefault(case, now)
                runner.report(run_ids[case], case, [
                    f"{m} = {now[m]} in one traced pass, {first[m]} in another"
                    for m in layers.EXACT_COUNTS if now[m] != first[m]])
            traced_layers.append(layers.layer_metrics(acc))
        now = time.perf_counter()
        if trace and now + (now - pass_start) > deadline:
            break
    calibration.append(runner.calibration_time())  # the last case's "after"
    # Each case: its summed walls over the summed calibration times around
    # them, the mean of the one just before and the one just after.
    paired: dict = {}
    for case, wall, k in samples:
        acc = paired.setdefault(case, [0.0, 0.0])
        acc[0] += wall
        acc[1] += (calibration[k] + calibration[k + 1]) / 2
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    record = {"pass_wall_s": walls, "traced_pass_wall_s": traced_walls,
              "case_s": case_walls, "setup_raw_s": statistics.median(setup),
              "setup_spawns": len(setup), "calibration_s": calibration,
              "scale": scale, "unwrapped": sorted(unwrapped)}
    if not trace:
        return {"wall_s": (CALIBRATION_REF_S * sum(w / c for w, c in paired.values()), "s"),
                "setup_s": (statistics.median(setup) * scale, "s"),
                "peak_rss_mb": (statistics.median(peaks), "MB")}, record
    metrics = {m: (statistics.median(p[m] for p in traced_layers), layers.unit_of(m))
               for m in layers.LAYER_METRICS}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls), "ratio")
    return metrics, record


def machine_record() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def load_expected(workload: str, seed: int):
    import cases
    if seed != cases.DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="ascii") as fh:
        return json.load(fh).get(workload)


def bench(args) -> int:
    runner = Runner(args.workload, args.seed, load_expected(args.workload, args.seed))
    try:
        runner.setup_time()  # byte-compile once, outside every timing
        metrics, record = measure(runner, args.seconds, bool(args.trace))
    finally:
        runner.close()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_record(), "cases": runner.argv_record(),
            **record, "problems": [f"{c}: {p}" for _r, c, p in runner.problems]}
    for problem in info["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record_expected() -> int:
    """Write expected.json: the exact values of every case at the default
    seed, after they pass their checks.  Run on the commit whose values
    later commits must reproduce."""
    import cases
    recorded = {}
    for name in cases.WORKLOADS:
        runner = Runner(name, cases.DEFAULT_SEED, None)
        values: dict = {}
        try:
            runner.run_pass(traced=False)
            for case in runner.workload.cases:
                values[case.name] = cases.values_of(case.argv[0], runner.reference[case.name][1])
        finally:
            runner.close()
        if runner.problems:
            print(json.dumps(runner.problems), file=sys.stderr)
            return 1
        recorded[name] = values
    workloads = []
    for name, values in sorted(recorded.items()):
        lines = [f"  {json.dumps(case)}: {json.dumps(v, sort_keys=True)}"
                 for case, v in sorted(values.items())]
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(EXPECTED, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(workloads) + "\n}\n")
    return 0


def self_check() -> int:
    """The benchmark's own checks: seeding is reproducible, and a planted
    wrong expected value is counted as a failed case."""
    import cases
    errors = []
    for name in cases.WORKLOADS:
        argv = [[c.argv for c in cases.make_workload(name, s, WORK_ROOT).cases]
                for s in (cases.DEFAULT_SEED, cases.DEFAULT_SEED, cases.DEFAULT_SEED + 1)]
        if argv[0] != argv[1]:
            errors.append(f"{name}: one seed gave two different argv lists")
        if argv[0] == argv[2]:
            errors.append(f"{name}: two seeds gave the same argv list")

    name = "oracle"
    with open(EXPECTED, encoding="ascii") as fh:
        expected = json.load(fh)[name]
    planted = copy.deepcopy(expected)
    planted["psi"]["value"] = "0/1"
    for exp, want in ((expected, 0), (planted, 1)):
        runner = Runner(name, cases.DEFAULT_SEED, exp)
        try:
            runner.run_pass(traced=False)
        finally:
            runner.close()
        bad = {c for _r, c, _p in runner.problems}
        if len(bad) != want or (want and bad != {"psi"}):
            errors.append(f"{name}: {want} failure(s) expected, got {runner.problems}")
    for err in errors:
        print(f"self-check: {err}", file=sys.stderr)
    print("self-check " + ("failed" if errors else "ok"))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "depthlab", "cli.py")):
        print("bench: no src/depthlab here; run from the root of a depthlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.self_check:
        return self_check()
    if args.record_expected:
        return record_expected()
    import cases
    if args.workload not in cases.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cases.WORKLOADS)}")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
