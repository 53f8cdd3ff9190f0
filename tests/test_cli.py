import json

import pytest

from depthlab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_VALIDATION,
    dispatch,
    solovay_probe,
)
from depthlab.complexity import TimeBound


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
