import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depthlab import cli, complexity, semimeasure
from depthlab.bits import DepthlabError, NoStageWithinBudget
from depthlab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    dispatch,
)
from depthlab.commands.solovay import solovay_probe
from depthlab.complexity import (
    TimeBound,
    k_stage,
    k_time_bounded,
)
from depthlab.constructions import BuilderError
from depthlab.depth import depth_profile
from depthlab.dnc import ForcingError
from depthlab.numbering import FixedPointError
from depthlab.randomness import FairnessError
from depthlab.semimeasure import DepthViolation
from depthlab.toyvm import DecodeError, MachineError, int_to_bin, parse_oracle

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(tmp_path, *argv):
    out = tmp_path / "artifact.json"
    code = dispatch(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# ------------------------------------------------------------------ commands

def test_k_subcommand_matches_contract(tmp_path):
    code, text = run_cli(tmp_path, "k", "--sigma", "0", "--t", "poly:10,1",
                         "--cap", "12")
    assert code == EXIT_OK
    assert text.splitlines()[1] == '0,"poly:10,1",9,9:51'


def test_m_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "m", "--sigma", "", "--stage", "100",
                         "--cap", "14")
    doc = json.loads(text)
    assert code == EXIT_OK
    num, den = doc["mass"].split("/")
    assert int(num) * 2 >= int(den)
    assert doc["config"]["cap"] == 14


@pytest.mark.parametrize("cap", [8, 14, 20])
@pytest.mark.parametrize("oracle", ["none", "zero", "halting:1000"])
def test_m_prints_its_integer_numerator_in_lowest_terms(tmp_path, oracle, cap):
    # the command reads m_numerator and reduces it over 2^cap itself; the
    # string must be the Fraction that semimeasure computes
    masses = []
    for sigma in ("", "0", "01", "111"):
        for stage in (0, 1, 100):
            mass = semimeasure.m_stage(sigma, stage, parse_oracle(oracle), cap)
            num = complexity.m_numerator(sigma, stage, parse_oracle(oracle), cap)
            assert mass == Fraction(num, 2 ** cap)
            code, text = run_cli(tmp_path, "m", "--sigma", sigma, "--stage", str(stage),
                                 "--oracle", oracle, "--cap", str(cap))
            assert code == EXIT_OK
            assert json.loads(text)["mass"] == cli._frac_str(mass)
            masses.append(mass)
        t = TimeBound.poly(10, 1)
        mass = semimeasure.m_stage(sigma, t(len(sigma)), parse_oracle(oracle), cap)
        code, text = run_cli(tmp_path, "m", "--sigma", sigma, "--t", "poly:10,1",
                             "--oracle", oracle, "--cap", str(cap))
        assert code == EXIT_OK
        assert json.loads(text)["mass"] == cli._frac_str(mass)
        masses.append(mass)
    # zero masses print 0/1, and some nonzero ones reduce below 2^cap
    assert 0 in masses
    assert any(0 < mass.denominator < 2 ** cap for mass in masses)


def test_space_lemma_sample_zero_violations(tmp_path):
    code, text = run_cli(tmp_path, "space-lemma", "--delta", "2", "--k", "2",
                         "--mode", "sample", "--n", "200", "--seed", "7")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["violations"] == 0 and doc["tested"] == 200


def test_convert_timebound_and_inconclusive(tmp_path):
    table = tmp_path / "semi.tsv"
    table.write_text("\t1/4\n0\t1/8\n")
    code, text = run_cli(tmp_path, "convert-timebound", "--table", str(table),
                         "--c", "16", "--n", "1", "--cap", "14")
    assert code == EXIT_OK
    assert json.loads(text)["stage"] == 1
    code, text = run_cli(tmp_path, "convert-timebound", "--table", str(table),
                         "--c", "4", "--n", "1", "--cap", "14",
                         "--ceiling", "1000")
    assert code == EXIT_INCONCLUSIVE


def test_psi_subcommand_schema(tmp_path):
    code, text = run_cli(tmp_path, "psi", "--a-prefix", "bits:0000",
                         "--t", "poly:5,1", "--tprime", "poly:5,1",
                         "--c", "1", "--len-cap", "1", "--stage", "100",
                         "--cap", "12")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert set(doc) == {"value", "dropped-terms", "params"}


def test_avg_subcommand_with_mc(tmp_path):
    code, text = run_cli(tmp_path, "avg", "--sigma", "1", "--t", "poly:10,1",
                         "--cap", "15", "--depth", "3", "--mc", "500",
                         "--seed", "3")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["mc_within_3se"] is True


def test_measure_cheap_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "measure-cheap", "--x", "bits:0000",
                         "--n", "1", "--k", "1", "--t", "poly:10,1",
                         "--stage", "20", "--depth", "3", "--cap", "14")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["measure"] == "1/1"


def test_profile_subcommand(tmp_path):
    bits = tmp_path / "bits.txt"
    bits.write_text("0000\n")
    code, text = run_cli(tmp_path, "profile", "--in", str(bits),
                         "--t", "poly:50,1", "--stage", "250", "--cap", "19")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "n,k_time,k_stage,gap,above_cap"
    assert len(lines) == 5


def test_profile_validates_cap_before_the_low_stage_warning(capsys):
    argv = ["profile", "--in", "bits:0000", "--t", "poly:5,1", "--stage", "10", "--cap", "-2"]
    assert dispatch(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: cap must be at least 2\n"
    assert captured.out == ""


def test_profile_low_stage_notice_is_a_plain_warning_line(capsys):
    argv = ["profile", "--in", "bits:0000", "--t", "poly:5,1", "--stage", "10", "--cap", "8"]
    assert dispatch(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ("warning: stage 10 is below the largest time budget 25;"
                            " gaps may come out negative\n")
    with pytest.warns(UserWarning):
        prof = depth_profile("0000", TimeBound.poly(5, 1), 10, None, 8)
    assert captured.out == "\n".join(prof.csv_lines()) + "\n"


def test_build_deep_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "build-deep", "--rounds", "2",
                         "--oracle", "halting:1000", "--T", "poly:2,2",
                         "--cap", "16", "--mart-stage", "1000")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["checks"] == {"claim2": True, "claim3": True}
    assert len(doc["rounds"]) == 2


def test_build_deep_sixteen_rounds_pass_both_checks(tmp_path):
    # round 16 extends by 25 bits: 2^25 candidates, priced as runs
    code, text = run_cli(tmp_path, "build-deep", "--rounds", "16", "--T", "poly:2,2")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["checks"] == {"claim2": True, "claim3": True}
    assert len(doc["rounds"]) == 16
    assert doc["rounds"][-1]["ext_count"] + doc["rounds"][-1]["price_rejected"] == 1 << 25


def test_build_deep_without_a_round_exits_2(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert dispatch(["build-deep", "--rounds", "0", "--oracle", "none", "--T", "poly:2,2",
                     "--cap", "8", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: at least one round\n"
    assert not out.exists()


def test_force_subcommand_and_reconstruction(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"depth": 8, "stages": [{"s": 0, "forbid": ["0"]}]}))
    code, text = run_cli(tmp_path, "force", "--class", str(sched),
                         "--f", "halting-dnc", "--steps", "2",
                         "--budget", "4096", "--query-schedule", "5,6")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["b_prefix"].startswith("1")
    assert all(step["match"] for step in doc["reconstruction"])


def test_force_on_a_schedule_settled_at_the_budget_is_conclusive(tmp_path):
    # only the input's stages decide the exit code: none lies past --budget
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"depth": 6, "stages": [{"s": 100, "forbid": []}]}))
    code, text = run_cli(tmp_path, "force", "--class", str(sched), "--f", "bits:101",
                         "--steps", "3", "--budget", "100", "--query-schedule", "3,4,5")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["inconclusive"] == []
    assert [step["members_after"] for step in doc["steps"]] == [16, 4, 1]
    assert all(step["match"] for step in doc["reconstruction"])


def test_join_check_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "join-check", "--F", "bits:" + "1" * 16,
                         "--X", "bits:" + "0" * 16, "--Y", "bits:" + "1" * 16,
                         "--k", "4", "--stage", "10000", "--cap", "18")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["xor_ok"] and doc["all_ok"]


def test_solovay_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "solovay", "--t", "poly:4,2",
                         "--range", "64", "--c", "8", "--stage", "20000",
                         "--cap", "16")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["violations"] == []
    assert doc["tight"]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        dispatch(["k", "--sigma", "0", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["profile", "--in", "bits:01", "--t", "poly:5,1", "--stage", "3", "--cap", "8",
     "--csv", "p.csv"],
    ["build-deep", "--rounds", "1", "--mart", "mixture", "--T", "poly:1,1", "--cap", "8"],
    # not an abbreviation of --mart-stage
    ["build-deep", "--rounds", "1", "--mart", "5", "--T", "poly:1,1", "--cap", "8"],
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path):
    code = dispatch(["m", "--sigma", "0x", "--stage", "1",
                     "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VALIDATION


def test_k_rejects_non_binary_sigma(tmp_path, capsys):
    code = dispatch(["k", "--sigma", "2", "--stage", "100", "--cap", "12",
                     "--out", str(tmp_path / "k.csv")])
    assert code == EXIT_VALIDATION
    assert "not a 0/1 string" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("argv", [
    ["space-lemma", "--delta", "1/0", "--k", "2"],
    ["measure-cheap", "--x", "bits:0000", "--n", "1", "--k", "1/0",
     "--t", "poly:10,1", "--stage", "20", "--depth", "2", "--cap", "10"],
    ["measure-cheap", "--x", "bits:0000", "--n", "-5", "--k", "1",
     "--t", "table:{tmp}/t.txt", "--stage", "20", "--depth", "2", "--cap", "10"],
    ["measure-cheap", "--x", "bits:1111", "--n", "1", "--k", "0",
     "--t", "poly:10,1", "--stage", "20", "--depth", "2", "--cap", "10"],
    ["measure-cheap", "--x", "bits:1111", "--n", "1", "--k", "-2",
     "--t", "poly:10,1", "--stage", "20", "--depth", "2", "--cap", "10"],
    ["measure-cheap", "--x", "bits:1111", "--n", "1", "--k", "1",
     "--t", "poly:10,1", "--stage", "-5", "--depth", "2", "--cap", "10"],
    ["avg", "--sigma", "1", "--t", "table:{tmp}/negative.txt", "--depth", "2",
     "--cap", "10"],
    ["psi", "--a-prefix", "bits:00", "--t", "poly:5,1", "--tprime", "poly:5,1",
     "--c", "1/0", "--cap", "10"],
    ["convert-timebound", "--table", "{tmp}/zero-den.tsv", "--c", "2", "--n", "1",
     "--cap", "10"],
    ["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
     "--budget", "100", "--query-schedule", "5"],
    ["--config", "{tmp}/missing.cfg", "k", "--sigma", "0"],
    ["--config", "{tmp}", "k", "--sigma", "0"],
    ["--config"],
    *(["force", "--class", f"{{tmp}}/{name}", "--f", "halting-dnc", "--steps", "2",
       "--budget", "100"]
      for name in ("list.json", "float-depth.json", "string-forbid.json",
                   "no-depth.json", "deep.json", "no-s.json")),
    ["profile", "--in", "bits:0101", "--t", "table:{tmp}/negative.txt", "--stage", "100",
     "--cap", "10"],
    # one config file may precede the command; a second is an error in either order
    ["--config", "{tmp}/empty.cfg", "--config={tmp}/c.cfg", "m", "--sigma", "01",
     "--stage", "100"],
    ["--config", "{tmp}/c.cfg", "--config={tmp}/empty.cfg", "m", "--sigma", "01",
     "--stage", "100"],
])
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, argv):
    (tmp_path / "t.txt").write_text("1 2 3\n")
    (tmp_path / "negative.txt").write_text("-4 -3\n")
    (tmp_path / "zero-den.tsv").write_text("0\t1/0\n")
    (tmp_path / "sched.json").write_text('{"depth": 8, "stages": []}')
    # schedule files of the wrong shape, and one past the depth bound
    (tmp_path / "list.json").write_text("[1,2]")
    (tmp_path / "float-depth.json").write_text('{"depth": 4.5, "stages": []}')
    (tmp_path / "string-forbid.json").write_text(
        '{"depth": 4, "stages": [{"s": 0, "forbid": "01"}]}')
    (tmp_path / "no-depth.json").write_text('{"stages": []}')
    (tmp_path / "deep.json").write_text('{"depth": 40, "stages": []}')
    (tmp_path / "no-s.json").write_text('{"depth": 4, "stages": [{"forbid": ["0"]}]}')
    (tmp_path / "empty.cfg").write_text("")
    (tmp_path / "c.cfg").write_text("cap=12\n")
    code = dispatch([a.format(tmp=tmp_path) for a in argv])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["k", "--sigma", "0", "--t", "poly:1"], "time bound 'poly:1' is not poly:A,B"),
    (["k", "--sigma", "0", "--t", "poly:a,b"], "time bound 'poly:a,b' is not poly:A,B"),
    (["space-lemma", "--delta", "abc", "--k", "2"], "'abc' is not a fraction num/den"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
      "--budget", "100", "--query-schedule", "1,x"],
     "bad --query-schedule '1,x'"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
      "--budget", "100", "--query-schedule", ""],
     "bad --query-schedule ''"),
    (["--config", "{tmp}/no-schedule.cfg", "force", "--class", "{tmp}/sched.json",
      "--f", "halting-dnc", "--steps", "2", "--budget", "100"],
     "bad --query-schedule ''"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "1",
      "--budget", "100", "--query-schedule", "-1"],
     "bad --query-schedule '-1'"),
    (["--config", "{tmp}/negative-schedule.cfg", "force", "--class", "{tmp}/sched.json",
      "--f", "halting-dnc", "--steps", "2", "--budget", "100"],
     "bad --query-schedule '3,-2'"),
    (["k", "--sigma", "0", "--t", "table:{tmp}/t.txt"],
     "time bound table '{tmp}/t.txt', line 1: 'x' is not an integer"),
    (["k", "--sigma", "0", "--stage", "10", "--oracle", "halting:x"],
     "oracle 'halting:x': 'x' is not an integer"),
    (["convert-timebound", "--table", "{tmp}/semi.tsv", "--c", "2", "--n", "1"],
     "fraction table '{tmp}/semi.tsv', line 2: '1 1/4' is not sigma<TAB>num/den"),
    (["convert-timebound", "--table", "{tmp}/twice.tsv", "--c", "2", "--n", "1"],
     "fraction table '{tmp}/twice.tsv', line 3: sigma '0' given twice"),
    (["--config", "{tmp}/twice.cfg", "k", "--sigma", "0", "--stage", "10"],
     "config file '{tmp}/twice.cfg', line 3: key 'cap' given twice"),
], ids=["poly-one-value", "poly-letters", "fraction-letters", "query-schedule-letter",
        "query-schedule-empty", "query-schedule-empty-in-config",
        "query-schedule-negative", "query-schedule-negative-in-config", "table-letter",
        "halting-letter", "fraction-table-no-tab", "fraction-table-repeated-sigma",
        "config-repeated-key"])
def test_malformed_number_exits_2_quoting_the_text(tmp_path, capsys, argv, message):
    (tmp_path / "sched.json").write_text('{"depth": 8, "stages": []}')
    (tmp_path / "t.txt").write_text("1 x\n")
    (tmp_path / "semi.tsv").write_text("0\t1/4\n1 1/4\n")
    (tmp_path / "twice.tsv").write_text("0\t1/4\n1\t1/8\n0\t1/8\n")
    (tmp_path / "twice.cfg").write_text("cap=12\n# a later value\ncap=14\n")
    (tmp_path / "no-schedule.cfg").write_text("query-schedule=\n")
    (tmp_path / "negative-schedule.cfg").write_text("query-schedule=3,-2\n")
    out = tmp_path / "artifact"
    code = dispatch([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[1,2]", "a schedule must be a JSON object"),
    ('{"depth": 4.5, "stages": []}', "schedule depth must be a nonnegative int, got 4.5"),
    ('{"depth": 4, "stages": [{"s": 0, "forbid": "01"}]}',
     "a stage's forbid must be a list of strings, got '01'"),
    ('{"stages": []}', "schedule depth must be a nonnegative int, got None"),
    ('{"depth": 40, "stages": []}', "schedule depth 40 is above the bound 20"),
    ("1 2", "Extra data: line 1 column 3 (char 2)"),
], ids=["list", "float-depth", "string-forbid", "no-depth", "deep", "not-json"])
def test_bad_schedule_exits_2_naming_the_fault(tmp_path, capsys, text, message):
    (tmp_path / "sched.json").write_text(text)
    out = tmp_path / "force.json"
    assert dispatch(["force", "--class", str(tmp_path / "sched.json"), "--f", "halting-dnc",
                     "--steps", "2", "--budget", "100", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: schedule '{tmp_path}/sched.json': {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["k", "--sigma", "0", "--t", "table:{tmp}/neg.txt"],
    ["profile", "--in", "bits:0101", "--t", "table:{tmp}/neg.txt", "--stage", "100",
     "--cap", "12"],
], ids=["k", "profile"])
def test_negative_time_bound_table_exits_2_naming_the_table(tmp_path, capsys, argv):
    # the fault is in the --t file, not in a valid --stage
    (tmp_path / "neg.txt").write_text("-1 -1 5\n")
    out = tmp_path / "artifact"
    assert dispatch([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: time bound table '{tmp_path}/neg.txt':"
                                       " table time bound must be nonnegative, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("line", ["verbose", "=3", " = 3"])
def test_a_config_line_without_a_key_exits_2_naming_the_line(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# defaults\ncap=10\n{line}\n")
    assert dispatch(["--config", str(cfg), "k", "--sigma", "0", "--stage", "10"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: config file '{cfg}', line 3: {line.strip()!r} is not key=value\n")


# each input format -> (a good first line, a bad token for line 2)
INPUT_LINES = {
    "bits": ("", "01x1"),
    "table": ("1 2", "3 x"),
    "fractions": ("0\t1/4", "1\tx"),
    "schedule": ('{"depth": 4,', ' "stages": x}'),
    "config": ("cap=10", "verbose"),
}
JOIN = ["join-check", "--k", "1", "--stage", "10", "--cap", "8"]
FILE_FLAGS = {
    "oracle-prefix": ("bits", ["k", "--sigma", "0", "--stage", "10", "--oracle",
                               "prefix:{file}"]),
    "t-table": ("table", ["k", "--sigma", "0", "--t", "table:{file}"]),
    "table": ("fractions", ["convert-timebound", "--table", "{file}", "--c", "2",
                            "--n", "1"]),
    "class": ("schedule", ["force", "--class", "{file}", "--f", "halting-dnc",
                           "--steps", "2", "--budget", "100"]),
    "f": ("bits", ["force", "--class", "{tmp}/sched.json", "--f", "{file}",
                   "--steps", "2", "--budget", "100"]),
    "in": ("bits", ["profile", "--in", "{file}", "--t", "poly:5,1", "--stage", "100",
                    "--cap", "8"]),
    "x": ("bits", ["measure-cheap", "--x", "{file}", "--n", "1", "--k", "1",
                   "--t", "poly:10,1", "--stage", "10", "--depth", "2", "--cap", "8"]),
    "a-prefix": ("bits", ["psi", "--a-prefix", "{file}", "--t", "poly:5,1",
                          "--tprime", "poly:5,1", "--cap", "8"]),
    "F": ("bits", JOIN + ["--F", "{file}", "--X", "bits:0011", "--Y", "bits:0110"]),
    "X": ("bits", JOIN + ["--F", "bits:0101", "--X", "{file}", "--Y", "bits:0110"]),
    "Y": ("bits", JOIN + ["--F", "bits:0101", "--X", "bits:0011", "--Y", "{file}"]),
    "config": ("config", ["--config", "{file}", "k", "--sigma", "0", "--stage", "10"]),
}


@pytest.mark.parametrize("fault", ["not-ascii", "line-2", "directory", "missing"])
@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_a_bad_input_file_exits_2_naming_the_file(tmp_path, capsys, flag, fault):
    fmt, argv = FILE_FLAGS[flag]
    first, bad = INPUT_LINES[fmt]
    (tmp_path / "sched.json").write_text('{"depth": 8, "stages": []}')
    path = tmp_path / "input"
    if fault == "not-ascii":
        path.write_bytes(f"{first}\n".encode() + b"\xff\n")
    elif fault == "line-2":
        path.write_text(f"{first}\n{bad}\n")
    elif fault == "directory":
        path.mkdir()
    out = tmp_path / "artifact"
    code = dispatch([a.format(tmp=tmp_path, file=path) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"'{path}'" in err
    if fault in ("not-ascii", "line-2"):
        assert "line 2" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["avg", "--sigma", "1", "--t", "poly:10,1", "--cap", "8", "--mc", "-5"], "--mc"),
    (["solovay", "--t", "poly:1,1", "--range", "-3", "--cap", "8", "--stage", "10"],
     "range"),
    (["solovay", "--t", "poly:1,1", "--range", "0", "--stage", "-3", "--cap", "8"],
     "stage"),
    (["space-lemma", "--delta", "2", "--k", "2", "--mode", "sample", "--n", "-4"],
     "--n"),
    (["avg", "--sigma", "1", "--t", "poly:10,1", "--cap", "8", "--depth", "-2"],
     "--depth"),
    (["measure-cheap", "--x", "bits:0000", "--n", "1", "--k", "1", "--t", "poly:10,1",
      "--stage", "10", "--depth", "-1", "--cap", "8"], "--depth"),
    (["psi", "--a-prefix", "bits:00", "--t", "poly:5,1", "--tprime", "poly:5,1",
      "--len-cap", "-1", "--cap", "8"], "--len-cap"),
    (["profile", "--in", "bits:0000", "--t", "poly:5,1", "--stage", "-3", "--cap", "8"],
     "--stage"),
    (["join-check", "--F", "bits:0101", "--X", "bits:0011", "--Y", "bits:0110",
      "--k", "1", "--stage", "-1", "--cap", "8"], "--stage"),
    (["build-deep", "--rounds", "1", "--T", "poly:2,2", "--cap", "8",
      "--mart-stage", "-5"], "--mart-stage"),
    (["space-lemma", "--delta", "2", "--k", "2", "--mode", "sample", "--depth", "-3"],
     "--depth"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "-1",
      "--budget", "100"], "--steps"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
      "--budget", "-5"], "--budget"),
    (["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
      "--budget", "100", "--functional-budget", "-1"], "--functional-budget"),
    (["convert-timebound", "--table", "{tmp}/m.tsv", "--c", "9/2", "--n", "-1"], "--n"),
    (["convert-timebound", "--table", "{tmp}/m.tsv", "--c", "9/2", "--n", "2",
      "--ceiling", "-4"], "--ceiling"),
], ids=["avg-mc", "solovay-range", "solovay-stage-range-0", "space-lemma-n", "avg-depth",
        "measure-cheap-depth", "psi-len-cap", "profile-stage", "join-check-stage",
        "build-deep-mart-stage", "space-lemma-depth", "force-steps", "force-budget", "force-functional-budget",
        "convert-timebound-n", "convert-timebound-ceiling"])
def test_negative_count_exits_2_without_an_artifact(tmp_path, capsys, argv, flag):
    (tmp_path / "sched.json").write_text('{"depth": 4, "stages": []}')
    (tmp_path / "m.tsv").write_text("\t1/4\n01\t1/8\n")
    out = tmp_path / "artifact.json"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert dispatch(argv + ["--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("extra,depth", [
    (["--depth", "40"], 40),
    (["--depth", "40", "--n", "0"], 40),
    (["--k", "524288"], 21),  # extension length 21 above the default depth 6
], ids=["depth-40", "depth-40-no-tables", "extension-21"])
def test_sample_table_depth_above_the_bound_exits_2_without_an_artifact(
        tmp_path, capsys, extra, depth):
    out = tmp_path / "artifact.json"
    argv = ["space-lemma", "--delta", "2", "--k", "2", "--mode", "sample", "--n", "1"]
    assert dispatch(argv + extra + ["--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: table depth {depth} is above the bound 20\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["m", "--sigma", "0", "--stage", "10", "--cap", "-3"],
    ["m", "--sigma", "0", "--stage", "10", "--cap", "1"],
    ["k", "--sigma", "0", "--stage", "10", "--cap", "1"],
    ["psi", "--a-prefix", "bits:00", "--t", "poly:5,1", "--tprime", "poly:5,1",
     "--cap", "-1"],
    ["measure-cheap", "--x", "bits:0000", "--n", "1", "--k", "1", "--t", "poly:10,1",
     "--stage", "10", "--depth", "2", "--cap", "-4"],
    ["avg", "--sigma", "1", "--t", "poly:10,1", "--depth", "2", "--cap", "1"],
    ["profile", "--in", "bits:0000", "--t", "poly:5,1", "--stage", "100", "--cap", "-2"],
    ["join-check", "--F", "bits:0101", "--X", "bits:0011", "--Y", "bits:0110",
     "--k", "1", "--stage", "10", "--cap", "-1"],
    ["build-deep", "--rounds", "1", "--T", "poly:2,2", "--cap", "0"],
    ["convert-timebound", "--table", "{tmp}/m.tsv", "--c", "2", "--n", "1", "--cap", "-1"],
    ["solovay", "--t", "poly:1,1", "--range", "4", "--stage", "10", "--cap", "1"],
    ["solovay", "--t", "poly:1,1", "--range", "0", "--stage", "3", "--cap", "1"],
], ids=["m-negative", "m-one", "k-one", "psi", "measure-cheap", "avg", "profile",
        "join-check", "build-deep", "convert-timebound", "solovay", "solovay-range-0"])
def test_cap_below_two_exits_2_without_an_artifact(tmp_path, capsys, argv):
    (tmp_path / "m.tsv").write_text("0\t1/4\n")
    out = tmp_path / "artifact"
    assert dispatch([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap must be at least 2" in err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["41", "200000"])
@pytest.mark.parametrize("command", [
    ["k", "--sigma", "0", "--stage", "1"],
    ["avg", "--sigma", "1", "--t", "poly:10,1", "--depth", "2"],
], ids=["table", "evaluator"])
def test_a_cap_above_the_bound_exits_2_without_an_artifact(tmp_path, capsys, command, cap):
    out = tmp_path / "artifact"
    assert dispatch(command + ["--cap", cap, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: cap {cap} is above the bound 40\n"
    assert not out.exists()


def _k_stage_raises(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(complexity, "k_stage", fail)
    return dispatch(["k", "--sigma", "0", "--cap", "10"])


@pytest.mark.parametrize("exc", [MachineError("m"), FixedPointError("f"),
                                 BuilderError("b"), DepthlabError("r"),
                                 DecodeError("d"), ForcingError("fo"),
                                 FairnessError("fa"), DepthViolation("dv")])
def test_machine_and_builder_failures_exit_2(monkeypatch, capsys, exc):
    assert _k_stage_raises(monkeypatch, exc) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_a_stage_search_past_its_ceiling_exits_3(monkeypatch, capsys):
    exc = NoStageWithinBudget("no stage up to 10")
    assert _k_stage_raises(monkeypatch, exc) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == f"inconclusive: {exc}\n"


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for m\ncap=14\n\nstage=100\n")
    out1 = tmp_path / "a.json"
    code = dispatch(["--config", str(cfg), "m", "--sigma", "",
                     "--out", str(out1)])
    assert code == EXIT_OK
    assert json.loads(out1.read_text())["config"]["cap"] == 14
    out2 = tmp_path / "b.json"
    code = dispatch(["--config", str(cfg), "m", "--sigma", "", "--cap", "12",
                     "--out", str(out2)])
    assert code == EXIT_OK
    assert json.loads(out2.read_text())["config"]["cap"] == 12


def test_config_equals_file_is_read(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("cap=12\n")
    out = tmp_path / "a.json"
    code = dispatch([f"--config={cfg}", "m", "--sigma", "01", "--stage", "100",
                     "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["config"]["cap"] == 12


def test_config_after_the_command_is_an_unrecognized_argument(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("cap=12\n")
    with pytest.raises(SystemExit) as exc:
        dispatch(["m", "--config", str(cfg), "--sigma", "01", "--stage", "100"])
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: --config {cfg}\n" in err


def test_selftest_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert dispatch(["selftest", "--seed", "7", "--out", str(a)]) == EXIT_OK
    assert dispatch(["selftest", "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("delta", ["2", "3", "4", "5"])
def test_space_lemma_exhaustive_tests_every_node_above_the_last_two_levels(tmp_path, delta):
    # l = 2 for each: the 2187 dyadic depth-3 tables offer their root and
    # two children, the 125 quarter-grid depth-2 tables their root, each
    # when its value is positive
    code, text = run_cli(tmp_path, "space-lemma", "--delta", delta, "--k", "1")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert (doc["extension_length"], doc["tested"], doc["violations"]) == (2, 5228, 0)


def test_space_lemma_exhaustive_without_a_node_to_test_exits_at_once(tmp_path):
    # l = 7: no node of either family has 7 levels below it, so nothing is
    # tested, and no 7-level subtree's assignments are enumerated
    out = tmp_path / "artifact.json"
    proc = subprocess.run(
        [sys.executable, "-m", "depthlab.cli", "space-lemma", "--delta", "9/8", "--k", "7",
         "--mode", "exhaustive", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(out.read_text())
    assert (doc["extension_length"], doc["tested"], doc["violations"]) == (7, 0, 0)


# ------------------------------------------------------------------ parser

PARSER_ARGVS = {
    "help": ["--help"],
    "unknown-command": ["nosuch"],
    "no-arguments": [],
    "command-help": ["k", "--help"],
    "command-missing-flag": ["k"],
    "command-extra-argument": ["k", "--sigma", "0", "extra"],
    "config-run": ["--config", "CFG", "k", "--sigma", "0"],
    "config-after-command": ["k", "--sigma", "0", "--config", "CFG"],
    "config-equals-run": ["--config=CFG", "k", "--sigma", "0"],
}


def _dispatch_captured(capsys, argv):
    try:
        code = dispatch(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS.values(), ids=PARSER_ARGVS.keys())
def test_one_command_parser_prints_what_the_full_parser_prints(
        monkeypatch, capsys, tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap=12\nstage=100\n")
    argv = [a.replace("CFG", str(cfg)) for a in argv]
    got = _dispatch_captured(capsys, argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda _command=None: full())
    assert _dispatch_captured(capsys, argv) == got


@pytest.mark.parametrize("argv,command", [
    (["k", "--sigma", "0"], "k"),
    (["--config", "run.cfg", "selftest"], "selftest"),
    (["--config", "k"], None),
    (["--config=run.cfg", "k"], "k"),
    (["-h", "k"], None),
    (["nosuch"], None),
    ([], None),
])
def test_only_a_leading_command_gets_a_one_command_parser(argv, command):
    assert cli._named_command(argv) == command
    parser = cli._build_parser(command)
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert list(subparsers.choices) == ([command] if command else list(cli.COMMANDS))


# ------------------------------------------------------------------ import sets

# Runs argv through dispatch, unless it is empty, and prints the loaded
# depthlab modules on one line; on the next, which of the two costly
# standard modules no command needs (dataclasses and the inspect it
# imports) got loaded; and on the third, which of fractions and the
# decimal it imports did.  It needs a fresh interpreter: this process
# already holds every module, so it cannot see which ones a command loads.
LOADED = """import sys
from depthlab.cli import dispatch
code = dispatch(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(m for m in sys.modules if m.split(".")[0] == "depthlab"))
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
print(" ".join(m for m in ("fractions", "decimal") if m in sys.modules))
sys.exit(code)
"""
BASE = ("depthlab", "depthlab.cli", "depthlab.bits")
# a command run also loads the commands package and its own module, and
# no other command's module but those named here: m takes k's flags
SHARED = {"m": ("k",)}
# the machine, which every command but space-lemma runs
MACHINE = ("toyvm", "complexity")
# what importing randomness, constructions, depth, dnc or pi01forcing
# loads beyond BASE and the machine module each imports at load:
# randomness imports complexity and semimeasure, constructions
# randomness, and dnc complexity, only in the functions that read them.
# The numbering (phi, the diagonal, s-m-n) loads with dnc, which
# pi01forcing imports; toyvm imports it only for a halting: oracle
RANDOMNESS = ("randomness",)
CONSTRUCTIONS = ("constructions",)
DEPTH = ("depth",)
DNC = ("numbering", "dnc")
FORCING = DNC + ("pi01forcing",)
SEMIMEASURE = ("semimeasure",)
# the commands that compute no Fraction ("" is the bare import)
NO_FRACTIONS = ("", "k", "m", "solovay", "profile", "force", "join-check")


def command_module(command):
    return "depthlab.commands." + command.replace("-", "_")


@pytest.mark.parametrize("argv,extra", [
    ([], ()),
    (["k", "--sigma", "0", "--stage", "10", "--cap", "8"], MACHINE),
    (["k", "--sigma", "0", "--stage", "10", "--cap", "8", "--oracle", "halting:10"],
     MACHINE + ("numbering",)),
    (["m", "--sigma", "0", "--stage", "10", "--cap", "8"], MACHINE),
    (["convert-timebound", "--table", "{tmp}/m.tsv", "--c", "16", "--n", "1",
      "--cap", "14"], MACHINE + SEMIMEASURE),
    (["space-lemma", "--delta", "2", "--k", "2", "--mode", "sample", "--n", "5"], RANDOMNESS),
    (["psi", "--a-prefix", "bits:00", "--t", "poly:5,1", "--tprime", "poly:5,1",
      "--len-cap", "1", "--stage", "100", "--cap", "8"], MACHINE + RANDOMNESS + SEMIMEASURE),
    (["avg", "--sigma", "1", "--t", "poly:10,1", "--cap", "8", "--depth", "2"],
     MACHINE + SEMIMEASURE),
    (["measure-cheap", "--x", "bits:0000", "--n", "1", "--k", "1", "--t", "poly:10,1",
      "--stage", "10", "--depth", "2", "--cap", "8"], MACHINE + SEMIMEASURE),
    (["profile", "--in", "bits:0000", "--t", "poly:5,1", "--stage", "100", "--cap", "8"],
     MACHINE + DEPTH),
    (["build-deep", "--rounds", "1", "--oracle", "none", "--T", "poly:2,2", "--cap", "8",
      "--mart-stage", "100"], MACHINE + CONSTRUCTIONS + RANDOMNESS),
    (["force", "--class", "{tmp}/sched.json", "--f", "bits:0101", "--steps", "1",
      "--budget", "100"], ("toyvm",) + FORCING),
    (["join-check", "--F", "bits:0101", "--X", "bits:0011", "--Y", "bits:0110",
      "--k", "1", "--stage", "10", "--cap", "8"], MACHINE + DNC),
    (["solovay", "--t", "poly:1,1", "--range", "4", "--stage", "10", "--cap", "8"], MACHINE),
    (["selftest", "--seed", "7"],
     MACHINE + FORCING + RANDOMNESS + SEMIMEASURE + ("selftest",)),
], ids=["import", "k", "k-halting", "m", "convert-timebound", "space-lemma", "psi", "avg",
        "measure-cheap", "profile", "build-deep", "force", "join-check", "solovay",
        "selftest"])
def test_a_command_loads_only_its_own_modules(tmp_path, argv, extra):
    (tmp_path / "m.tsv").write_text("\t1/4\n0\t1/8\n")
    (tmp_path / "sched.json").write_text('{"depth": 3, "stages": []}')
    if argv:
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "artifact")]
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    depthlab_modules, costly, fractions = proc.stdout.split("\n")[:3]
    commands = ()
    if argv:
        commands = ("depthlab.commands", command_module(argv[0]),
                    *map(command_module, SHARED.get(argv[0], ())))
    assert sorted(depthlab_modules.split()) == sorted(
        BASE + commands + tuple(f"depthlab.{m}" for m in extra))
    assert costly.split() == []
    if (argv[0] if argv else "") in NO_FRACTIONS:
        assert fractions.split() == []


COMMANDS_DIR = SRC / "depthlab" / "commands"


def test_each_command_has_one_module():
    modules = sorted(path.stem for path in COMMANDS_DIR.glob("*.py")
                     if path.name != "__init__.py")
    assert modules == sorted(name.replace("-", "_") for name in cli.COMMANDS)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_command_module_imports_alone_with_arguments_and_run(command):
    # a fresh interpreter holds no module that cli or another command
    # would have loaded first
    module = command_module(command)
    code = (f"import {module} as m; "
            "assert callable(m.arguments) and callable(m.run)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# what `python -m depthlab` does, run through runpy under an audit hook
# that counts the executions of cli.py's module code
RUN_AS_MAIN = """import runpy, sys
runs = []
def count(event, args):
    if event == "exec" and args[0].co_filename.endswith("cli.py"):
        runs.append(args[0])
sys.addaudithook(count)
sys.argv[0] = "depthlab"
try:
    runpy.run_module("depthlab", run_name="__main__", alter_sys=True)
finally:
    print(len(runs), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [["k", "--sigma", "0", "--stage", "10", "--cap", "8"],
                                  ["k", "--sigma", "2", "--stage", "10", "--cap", "8"]],
                         ids=["ok", "bad-sigma"])
def test_python_m_depthlab_is_the_depthlab_command_with_one_dispatcher(argv):
    def run(*entry):
        proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = run("-c", "from depthlab.cli import main; main()")
    assert code == (EXIT_OK if argv[2] == "0" else EXIT_VALIDATION)
    assert run("-m", "depthlab") == (code, out, err)
    # the same run once more, with the count of cli executions after its stderr
    assert run("-c", RUN_AS_MAIN) == (code, out, err + b"1\n")


@pytest.mark.parametrize("argv,key,value", [
    (["measure-cheap", "--x", "bits:1111", "--n", "1", "--k", "1", "--t", "poly:10,1",
      "--stage", "5", "--depth", "40", "--cap", "4"], "measure", "1/1"),
    (["psi", "--a-prefix", "bits:01", "--t", "poly:5,1", "--tprime", "poly:5,1",
      "--len-cap", "30", "--stage", "3", "--cap", "4"], "value", "5/8"),
], ids=["measure-cheap-depth-40", "psi-len-cap-30"])
def test_a_command_reads_only_what_a_branch_holds(tmp_path, argv, key, value):
    # 2^40 oracle prefixes and 2^31 strings: each command counts over the
    # bits its branches pin and the outputs they print, so it ends at once
    out = tmp_path / "artifact.json"
    proc = subprocess.run([sys.executable, "-m", "depthlab", *argv, "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out.read_text())[key] == value


# ------------------------------------------------------------------ solovay probe

def per_code_solovay(t, n_range, c, stage, cap):
    """The probe's lists from one time-bounded and one stage query per
    code: the reference for the per-length output maps."""
    tight, violations, undecided = [], [], []
    for n in range(n_range):
        sigma = int_to_bin(n)
        kt = k_time_bounded(sigma, t, None, cap)
        ks = k_stage(sigma, stage, None, cap)
        if kt.above_cap and ks.above_cap:
            undecided.append(n)
            continue
        if ks.clamped(cap) > kt.clamped(cap):
            violations.append(n)
        if kt.clamped(cap) <= ks.clamped(cap) + c:
            tight.append(n)
    return tight, violations, undecided


@pytest.mark.parametrize("cap", [16, 20])
def test_solovay_probe_matches_per_code_queries(cap):
    seen = set()
    for t in (TimeBound.poly(0, 0), TimeBound.poly(1, 1), TimeBound.poly(3, 1),
              TimeBound.poly(4, 2)):
        for stage in (0, 5, 30, 10 ** 4):
            for c in (0, 3):
                report = solovay_probe(t, 40, c, stage, cap)
                want = per_code_solovay(t, 40, c, stage, cap)
                assert (report["tight"], report["violations"], report["undecided"]) == want
                seen.add(tuple(map(len, want)))
    # the settings reach tight, violating and undecided codes
    assert len(seen) > 3 and all(any(row[i] for row in seen) for i in range(3))


def test_solovay_probe_rejects_a_negative_stage_when_it_reads_one():
    t = TimeBound.poly(1, 1)
    with pytest.raises(ValueError, match="stage must be nonnegative"):
        solovay_probe(t, 4, 8, -1, 12)
    with pytest.raises(ValueError, match="stage must be nonnegative"):
        solovay_probe(t, 0, 8, -1, 12)


def test_solovay_probe_no_structural_violations():
    t = TimeBound.poly(4, 2)
    report = solovay_probe(t, 128, 8, 10 ** 4, 16)
    assert report["violations"] == []


def test_solovay_probe_large_c_lists_every_decided_n():
    t = TimeBound.poly(4, 2)
    report = solovay_probe(t, 64, 1000, 10 ** 4, 16)
    assert len(report["tight"]) + len(report["undecided"]) == 64
    assert report["tight_density_over_decided"] == 1.0


# ------------------------------------------------------------------ argv fuzz

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    files = {
        "sched.json": '{"depth": 8, "stages": [{"s": 0, "forbid": ["11"]}]}',
        "late.json": '{"depth": 6, "stages": [{"s": 5000, "forbid": ["0"]}]}',
        "semi.tsv": "\t1/4\n0\t1/8\n",
        "zero-den.tsv": "0\t1/0\n",
        "heavy.tsv": "0\t1/1\n1\t1/2\n",
        "bits.txt": "0110\n",
        "t.txt": "1 2 4\n",
        "run.cfg": "cap=10\nstage=100\n",
        "junk.cfg": "verbose\n",
    }
    for name, text in files.items():
        (d / name).write_text(text)
    # faults the file reader reports: a non-ASCII byte, a directory, a second bit line
    (d / "nonascii.txt").write_bytes(b"01\xff\n")
    (d / "dir").mkdir()
    (d / "two.txt").write_text("01\n11\n")
    return d


def _mostly(valid, invalid):
    """A valid token about three times in four."""
    return st.sampled_from(list(valid) * (3 * len(invalid) // len(valid) + 1)
                           + list(invalid))


def _flag(name, values):
    """`name value`, left out about one time in four."""
    return st.tuples(_mostly([True], [False]), values).map(
        lambda kv: [name, str(kv[1])] if kv[0] else [])


def _argv(d):
    f = str(d)
    missing = f + "/missing"
    bad_files = [f + "/nonascii.txt", f + "/dir", f + "/two.txt"]
    sigma = _mostly(["", "0", "1", "01", "0110"], ["2", "x1"])
    bitsrc = _mostly(["bits:", "bits:0", "bits:0110", "bits:01100110", f + "/bits.txt"],
                     ["bits:12", missing, *bad_files])
    tb = _mostly(["poly:1,1", "poly:10,1", "poly:2,2", "poly:0,0", f"table:{f}/t.txt"],
                 ["poly:-1,1", "poly:x", "poly:1", "table:" + missing, "bogus",
                  *("table:" + b for b in bad_files)])
    oracle = _mostly(["none", "zero", "halting:0", "halting:50", "bits:0101", "bits:",
                      f"prefix:{f}/bits.txt"],
                     ["halting:-1", "halting:x", "prefix:" + missing, "bogus",
                      *("prefix:" + b for b in bad_files)])
    frac = _mostly(["2", "3/2", "5/4", "16"], ["1", "0", "-1", "1/0", "x"])
    cap = _mostly(range(2, 13), [-1, 0, 1, 41])
    stage = _mostly([0, 3, 100, 1000], [-1])
    small = st.integers(-1, 4)
    commands = {
        "k": [("--sigma", sigma), ("--t", tb), ("--stage", stage), ("--cap", cap),
              ("--oracle", oracle)],
        "m": [("--sigma", sigma), ("--t", tb), ("--stage", stage), ("--cap", cap),
              ("--oracle", oracle)],
        "convert-timebound": [
            ("--table", _mostly([f + "/semi.tsv"],
                                [f + "/zero-den.tsv", f + "/heavy.tsv", missing,
                                 *bad_files])),
            ("--c", frac), ("--n", st.integers(-1, 3)), ("--cap", cap),
            ("--ceiling", stage), ("--oracle", oracle)],
        "space-lemma": [("--delta", frac), ("--k", small),
                        ("--mode", _mostly(["sample"], ["exhaustive", "x"])),
                        ("--n", st.integers(-1, 20)), ("--seed", small),
                        ("--depth", st.integers(-1, 8))],
        "psi": [("--a-prefix", bitsrc), ("--t", tb), ("--tprime", tb), ("--c", frac),
                ("--len-cap", st.integers(-1, 2)), ("--stage", stage), ("--cap", cap)],
        "avg": [("--sigma", sigma), ("--t", tb), ("--cap", cap),
                ("--depth", st.integers(-1, 4)), ("--mc", st.integers(-1, 50)),
                ("--seed", small)],
        "measure-cheap": [("--x", bitsrc), ("--n", small), ("--k", frac), ("--t", tb),
                          ("--stage", stage), ("--depth", st.integers(-1, 4)),
                          ("--cap", cap)],
        "profile": [("--in", bitsrc), ("--t", tb), ("--stage", stage),
                    ("--oracle", oracle), ("--cap", cap)],
        "build-deep": [("--rounds", st.integers(-1, 3)),
                       ("--oracle", oracle), ("--T", tb), ("--cap", cap),
                       ("--mart-stage", stage)],
        "force": [("--class", _mostly([f + "/sched.json", f + "/late.json"],
                                      [missing, *bad_files])),
                  ("--f", _mostly(["halting-dnc", "bits:1011"], ["bits:1", "bits:2"])),
                  ("--steps", small), ("--budget", stage),
                  ("--query-schedule", _mostly(["5,6", "4,5,6"], ["", "5", "9,9", "-1", "x"])),
                  ("--functional-budget", _mostly([4096], [-1, 10]))],
        "join-check": [("--F", bitsrc), ("--X", bitsrc), ("--Y", bitsrc), ("--k", small),
                       ("--stage", stage), ("--cap", cap)],
        "solovay": [("--t", tb), ("--range", st.integers(-1, 16)), ("--c", small),
                    ("--stage", stage), ("--cap", cap)],
    }

    def command(name):
        flags = st.tuples(*(_flag(flag, values) for flag, values in commands[name]))
        return flags.map(lambda parts: [name] + [tok for part in parts for tok in part])

    config = _mostly([[]], [["--config", f + "/run.cfg"], ["--config", f + "/junk.cfg"],
                            ["--config", missing], ["--config"],
                            *(["--config", b] for b in bad_files)])
    junk = _mostly([[]], [["--no-such-flag"], ["extra"]])
    body = st.sampled_from(sorted(commands)).flatmap(command)
    return st.tuples(config, body, junk).map(lambda t: t[0] + t[1] + t[2])


@pytest.mark.filterwarnings("ignore:stage .* is below the largest time budget")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_0_2_or_3(fuzz_dir, data):
    argv = data.draw(_argv(fuzz_dir), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = dispatch(argv)
        except SystemExit as exc:   # argparse's own usage errors and --help
            code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INCONCLUSIVE), (argv, code)
