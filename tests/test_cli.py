import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depthlab import cli
from depthlab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    dispatch,
    solovay_probe,
)
from depthlab.complexity import ReductionDiverged, TimeBound
from depthlab.constructions import BuilderError
from depthlab.toyvm import FixedPointError, MachineError


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


def test_build_deep_subcommand(tmp_path):
    code, text = run_cli(tmp_path, "build-deep", "--rounds", "2",
                         "--oracle", "halting:1000", "--T", "poly:2,2",
                         "--cap", "16", "--mart-stage", "1000")
    doc = json.loads(text)
    assert code == EXIT_OK
    assert doc["checks"] == {"claim2": True, "claim3": True}
    assert len(doc["rounds"]) == 2


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
    ["psi", "--a-prefix", "bits:00", "--t", "poly:5,1", "--tprime", "poly:5,1",
     "--c", "1/0", "--cap", "10"],
    ["convert-timebound", "--table", "{tmp}/zero-den.tsv", "--c", "2", "--n", "1",
     "--cap", "10"],
    ["force", "--class", "{tmp}/sched.json", "--f", "halting-dnc", "--steps", "2",
     "--budget", "100", "--query-schedule", "5"],
    ["--config", "{tmp}/missing.cfg", "k", "--sigma", "0"],
    ["--config", "{tmp}", "k", "--sigma", "0"],
    ["--config"],
])
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, argv):
    (tmp_path / "t.txt").write_text("1 2 3\n")
    (tmp_path / "zero-den.tsv").write_text("0\t1/0\n")
    (tmp_path / "sched.json").write_text('{"depth": 8, "stages": []}')
    code = dispatch([a.format(tmp=tmp_path) for a in argv])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("exc", [MachineError("m"), FixedPointError("f"),
                                 BuilderError("b"), ReductionDiverged("r")])
def test_machine_and_builder_failures_exit_2(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "k_stage", fail)
    assert dispatch(["k", "--sigma", "0", "--cap", "10"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap=14\nstage=100\n")
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


def test_selftest_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert dispatch(["selftest", "--seed", "7", "--out", str(a)]) == EXIT_OK
    assert dispatch(["selftest", "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ solovay probe

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
    sigma = _mostly(["", "0", "1", "01", "0110"], ["2", "x1"])
    bitsrc = _mostly(["bits:", "bits:0", "bits:0110", "bits:01100110", f + "/bits.txt"],
                     ["bits:12", missing])
    tb = _mostly(["poly:1,1", "poly:10,1", "poly:2,2", "poly:0,0", f"table:{f}/t.txt"],
                 ["poly:-1,1", "poly:x", "poly:1", "table:" + missing, "bogus"])
    oracle = _mostly(["none", "zero", "halting:0", "halting:50", "bits:0101", "bits:",
                      f"prefix:{f}/bits.txt"],
                     ["halting:-1", "halting:x", "prefix:" + missing, "bogus"])
    frac = _mostly(["2", "3/2", "5/4", "16"], ["1", "0", "-1", "1/0", "x"])
    cap = _mostly(range(2, 13), [-1, 0, 1])
    stage = _mostly([0, 3, 100, 1000], [-1])
    small = st.integers(-1, 4)
    commands = {
        "k": [("--sigma", sigma), ("--t", tb), ("--stage", stage), ("--cap", cap),
              ("--oracle", oracle)],
        "m": [("--sigma", sigma), ("--t", tb), ("--stage", stage), ("--cap", cap),
              ("--oracle", oracle)],
        "convert-timebound": [
            ("--table", _mostly([f + "/semi.tsv"],
                                [f + "/zero-den.tsv", f + "/heavy.tsv", missing])),
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
                       ("--mart", _mostly(["mixture"], ["x"])),
                       ("--oracle", oracle), ("--T", tb), ("--cap", cap),
                       ("--mart-stage", stage)],
        "force": [("--class", _mostly([f + "/sched.json", f + "/late.json"], [missing])),
                  ("--f", _mostly(["halting-dnc", "bits:1011"], ["bits:1", "bits:2"])),
                  ("--steps", small), ("--budget", stage),
                  ("--query-schedule", _mostly(["", "5,6", "4,5,6"], ["5", "9,9", "-1", "x"])),
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
                            ["--config", missing], ["--config"]])
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
