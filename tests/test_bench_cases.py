"""The benchmark's workloads still build and parse against this tree.

bench/cases.py imports names from depthlab, reads attributes of its
modules and hands argv lists to the command line.  Building every
workload at seed 0 and parsing each case's argv here makes a renamed
function or a removed flag fail the test suite, not only a benchmark
run.  The betting workload's commands also run here, in process, and
their values are compared with expected.json.  The reference the checks
read runs at a small cap against the enumeration table.  Nothing is
spawned and no file is written: the cases' input files are only named,
and the module is loaded without a bytecode cache.
"""

import ast
import importlib.util
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from depthlab import cli
from depthlab.complexity import halting_table
from depthlab.semimeasure import PrefixMassEvaluator
from depthlab.toyvm import parse_oracle

CASES_PATH = Path(__file__).resolve().parents[1] / "bench" / "cases.py"
EXPECTED_PATH = CASES_PATH.with_name("expected.json")


def _load_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", CASES_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


cases = _load_cases()


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_workload_argvs_parse(name):
    workload = cases.make_workload(name, cases.DEFAULT_SEED, "work")
    assert workload.cases
    parser = cli._build_parser()
    for case in workload.cases:
        args = parser.parse_args(case.argv)
        assert args.command == case.argv[0], case.name


def test_depthlab_attributes_the_cases_read_exist():
    modules = {name for name, value in vars(cases).items()
               if isinstance(value, types.ModuleType)
               and value.__name__.startswith("depthlab")}
    read = set()
    for node in ast.walk(ast.parse(CASES_PATH.read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            read.add((node.id, *reversed(chain)))
    assert ("semimeasure", "oracle_average_direct") in read
    for root, *names in sorted(read):
        value = getattr(cases, root)
        for attr in names:
            assert hasattr(value, attr), ".".join([root, *names])
            value = getattr(value, attr)
    # read off the evaluator that semimeasure.prefix_mass_evaluator returns
    assert callable(PrefixMassEvaluator.mass)


@pytest.mark.parametrize("case", cases.make_workload("bet", cases.DEFAULT_SEED, "work").cases,
                         ids=lambda case: case.name)
def test_bet_values_match_expected(case, capsys):
    """The betting workload's seed-0 commands, run in this process, give
    the values recorded in expected.json and pass the case's own check, so
    a drift in the betting layer fails the suite, not only a bench run."""
    expected = json.loads(EXPECTED_PATH.read_text(encoding="ascii"))["bet"][case.name]
    assert cli.dispatch(case.argv) == 0
    out = capsys.readouterr().out
    assert cases.values_of(case.argv[0], out) == expected
    assert case.check(out) == []


@pytest.mark.parametrize("oracle", ["none", "zero", "halting:1000"])
def test_reference_runs_agree_with_the_table_at_a_small_cap(oracle, monkeypatch, capsys):
    """cases.Reference, the benchmark's independent path through toyvm.run,
    read at a small REF_CAP against the enumeration table and through the
    enumerate workload's k check, so a change to what run returns fails
    the suite, not only a bench run."""
    cap, stage = 16, 10 ** 4
    monkeypatch.setattr(cases, "REF_CAP", cap)
    ref = cases.Reference(oracle, stage)
    table = halting_table(parse_oracle(oracle), cap)
    found = 0
    for sigma in cases.strings_up_to(4):
        for budget in (0, 3, 20, stage):
            assert ref.witness(sigma, budget) == table.first(sigma, budget), (sigma, budget)
            assert ref.mass(sigma, budget) == Fraction(
                table.mass_numerator(sigma, budget), 1 << cap), (sigma, budget)
        found += ref.witness(sigma, stage) is not None
        argv = ["k", "--sigma", sigma, "--stage", str(stage), "--cap", str(cap),
                "--oracle", oracle]
        assert cli.dispatch(argv) == 0
        assert cases.check_k(sigma, ref, cap)(capsys.readouterr().out) == [], sigma
    assert found >= 5  # not vacuous: some targets have a witness at this cap
