"""Every emitted artifact schema is pinned by a golden file: regenerating
with the same flags must reproduce the checked-in bytes exactly."""

import pathlib

import pytest

from depthlab.cli import dispatch

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("k.csv", ["k", "--sigma", "0", "--t", "poly:10,1", "--cap", "12"]),
    ("m.json", ["m", "--sigma", "", "--stage", "100", "--cap", "14"]),
    ("space-lemma.json", ["space-lemma", "--delta", "2", "--k", "2",
                          "--mode", "sample", "--n", "200", "--seed", "7"]),
    ("space-lemma-depth9.json", ["space-lemma", "--delta", "2", "--k", "2",
                                 "--mode", "sample", "--n", "300", "--seed", "11",
                                 "--depth", "9"]),
    ("space-lemma-exhaustive.json", ["space-lemma", "--delta", "3", "--k", "1",
                                     "--mode", "exhaustive"]),
    ("psi.json", ["psi", "--a-prefix", "bits:0000", "--t", "poly:5,1",
                  "--tprime", "poly:5,1", "--c", "1", "--len-cap", "2",
                  "--stage", "100", "--cap", "12"]),
    ("avg.json", ["avg", "--sigma", "1", "--t", "poly:10,1", "--cap", "15",
                  "--depth", "3", "--mc", "500", "--seed", "3"]),
    ("profile.csv", ["profile", "--in", "bits:0000", "--t", "poly:50,1",
                     "--stage", "250", "--cap", "19"]),
    ("build-deep.json", ["build-deep", "--rounds", "3", "--oracle", "halting:1000",
                         "--T", "poly:2,2", "--cap", "16", "--mart-stage", "1000"]),
    ("solovay.json", ["solovay", "--t", "poly:4,2", "--range", "64", "--c", "8",
                      "--stage", "20000", "--cap", "16"]),
    ("force.json", ["force", "--class", str(GOLDEN / "sched.json"),
                    "--f", "halting-dnc", "--steps", "2", "--budget", "4096",
                    "--query-schedule", "5,6"]),
    ("selftest.json", ["selftest", "--seed", "7"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_artifact(tmp_path, name, argv):
    out = tmp_path / name
    assert dispatch(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
