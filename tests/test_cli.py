import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quiverflow.fixtures import (
    framed_a1,
    framed_a1_rep,
    framed_a1w2_critical,
    hs2,
    hs2_rep,
    jordan_rep,
)
from quiverflow.rep import Representation
from quiverflow.serde import quiver_to_json, rep_to_json


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("QUIVERFLOW_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "quiverflow.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def write_rep(path, x):
    return write_json(path, rep_to_json(x))


@pytest.fixture
def f1_files(tmp_path):
    q = framed_a1()
    small = Representation(q, {"1": 0, "inf": 1},
                           [np.zeros((0, 1), dtype=complex),
                            np.zeros((1, 0), dtype=complex)])
    return {
        "quiver": write_json(tmp_path / "q.json", quiver_to_json(q)),
        "rep": write_rep(tmp_path / "rep.json", framed_a1_rep(0.0, 3.0)),
        "crit": write_rep(tmp_path / "crit.json", framed_a1_rep(0.0, np.sqrt(2))),
        "small": write_rep(tmp_path / "small.json", small),
        "member": write_rep(tmp_path / "member.json", framed_a1_rep(0.0, 1.3)),
        "nonmember": write_rep(tmp_path / "nonmember.json", framed_a1_rep(1.0, 1.3)),
        "zero": write_rep(tmp_path / "zero.json", framed_a1_rep(0.0, 0.0)),
        "dir": tmp_path,
    }


def test_validate_ok(f1_files):
    code, out, _ = run_cli("validate", f1_files["quiver"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ok"] is True
    assert doc["result"]["problems"] == []


def test_validate_bad_quiver(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"vertices": ["1"], "edges": [["1", "ghost"]]})
    code, out, err = run_cli("validate", bad)
    assert code == 2


def test_missing_file_is_input_error(tmp_path):
    code, _, err = run_cli("flow", str(tmp_path / "nope.json"), "canonical")
    assert code == 2
    assert "cannot read" in err


def test_flow_converges_and_writes_outputs(f1_files):
    out = f1_files["dir"] / "flow.json"
    csv = f1_files["dir"] / "traj.csv"
    code, stdout, _ = run_cli("flow", f1_files["rep"], "canonical",
                              "--dt-init", "0.5", "--csv", str(csv),
                              "--out", str(out))
    assert code == 0
    assert stdout == ""
    doc = json.loads(out.read_text())
    assert doc["result"]["status"] == "converged"
    assert doc["result"]["final_energy"] < 1e-12
    assert doc["config"]["dt_init"] == 0.5
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,energy,grad_norm,constraint_norm"
    assert len(lines) > 2


def test_flow_budget_exit_code(f1_files):
    code, out, _ = run_cli("flow", f1_files["rep"], "canonical",
                           "--max-steps", "2")
    assert code == 3
    assert json.loads(out)["result"]["status"] == "max_steps"


def test_flow_rejects_bad_options(f1_files):
    # a zero initial step used to run its whole step budget, about 20 minutes
    for flags in (["--dt-init", "0"], ["--max-steps", "-5"]):
        code, _, err = run_cli("flow", f1_files["rep"], "canonical", *flags, timeout=60)
        assert code == 2
        assert "must" in err


def test_flow_rejects_bad_weights(f1_files, tmp_path):
    weights = write_json(tmp_path / "w.json", {"weights": {"1": "nope"}})
    code, _, err = run_cli("flow", f1_files["rep"], weights)
    assert code == 2
    assert "bad weights" in err


def test_classify_reports_blocks(f1_files):
    code, out, _ = run_cli("classify", f1_files["crit"], "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["critical_type"] == [{"1": 1, "inf": 1}]


def test_classify_noncritical_is_input_error(f1_files):
    code, _, err = run_cli("classify", f1_files["rep"], "canonical")
    assert code == 2
    assert "not critical" in err


def test_negslice_dim(tmp_path):
    x = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    rep = write_rep(tmp_path / "w2.json", x)
    code, out, _ = run_cli("negslice", rep, "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dim"] == 2
    assert len(doc["result"]["basis"]) == 2


def test_hn_thin_oracle(f1_files):
    code, out, _ = run_cli("hn", f1_files["rep"], "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["filtration"] == [
        {"dims": {"1": 1, "inf": 1}, "slope": "0/1"},
    ]
    code, out, _ = run_cli("hn", f1_files["zero"], "canonical")
    assert code == 0
    assert json.loads(out)["result"]["filtration"] == [
        {"dims": {"1": 1, "inf": 0}, "slope": "1/1"},
        {"dims": {"1": 0, "inf": 1}, "slope": "-1/1"},
    ]
    code, _, err = run_cli("hn", f1_files["rep"], "canonical",
                           "--oracle", "dense")
    assert code == 2
    code, _, err = run_cli("hn", f1_files["rep"], "canonical", "--threshold", "-1")
    assert code == 2
    assert "threshold" in err


def test_hecke_membership_exit_codes(f1_files):
    code, out, _ = run_cli("hecke", f1_files["small"], f1_files["member"], "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is True
    assert doc["result"]["intertwiner"]["residual"] == 0.0

    code, out, _ = run_cli("hecke", f1_files["small"], f1_files["nonmember"], "1")
    assert code == 0
    assert json.loads(out)["result"]["member"] is False

    code, _, _ = run_cli("hecke", f1_files["small"], f1_files["member"], "inf")
    assert code == 2


def test_hecke_construct(f1_files):
    code, out, _ = run_cli("hecke-construct", f1_files["small"],
                           f1_files["member"], "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is True
    assert doc["result"]["action_residual"] == 0.0
    # delta carries the b entry on the added line
    assert doc["result"]["delta"][1][0][0] == [1.3, 0.0]

    code, out, _ = run_cli("hecke-construct", f1_files["small"],
                           f1_files["nonmember"], "1")
    assert code == 3
    assert json.loads(out)["result"]["member"] is False


def test_project_snaps_to_zero(tmp_path):
    rep = write_rep(tmp_path / "a2.json", jordan_rep([[0.5, 1.0], [0.0, 0.5]]))
    code, out, _ = run_cli("project", rep, "--snap", "auto")
    assert code == 0
    doc = json.loads(out)
    m = doc["result"]["limit"]["mats"]["0"]
    assert m[0][0] == [0.5, 0.0]
    assert m[0][1] == [0.0, 0.0]
    assert m[1][0] == [0.0, 0.0]


def test_project_flow_flags_apply_on_affine_defaults(tmp_path):
    rep = write_rep(tmp_path / "j.json", jordan_rep([[1.0, 1.0], [0.0, 2.0]]))

    def steps(*flags):
        code, out, _ = run_cli("project", rep, "--snap", "auto", *flags)
        assert code == 0
        return json.loads(out)["result"]["steps"]

    base = steps()
    # restating a default leaves the zero-weight defaults in force
    assert steps("--max-steps", "1000000") == base
    # and a looser step tolerance reaches the flow
    assert steps("--step-tol", "1e-6") < base


@pytest.mark.parametrize("args, expected", [
    (["project", "{jordan}", "--constraint", "handsaw"], "handsaw"),
    (["project", "{jordan}", "--snap", "abc"], "abc"),
    (["classify", "{crit}", "canonical", "--cluster-tol", "nan"], "cluster_tol"),
    (["classify", "{crit}", "canonical", "--grad-tol", "inf"], "grad_tol"),
    (["negslice", "{crit}", "canonical", "--rank-tol", "-1"], "rank_tol"),
    (["flow", "{huge}", "canonical"], "non-finite"),
    (["classify", "{huge}", "canonical"], "not critical"),
    (["hn", "{rep}", "{partial}"], "weight keys"),
    (["hecke", "{small}", "{member}", "1", "--tol", "nan"], "tol"),
    (["project", "{jordan}", "--snap", "-1"], "snap_tol"),
    (["lagrangian", "{jordan}", "{jordan}", "--iso-tol", "-1"], "iso_tol"),
    (["flow", "{rep}", "canonical", "--out", "{dir}/missing/out.json"], "No such file"),
])
def test_bad_input_exits_2(f1_files, tmp_path, args, expected):
    files = dict(f1_files,
                 jordan=write_rep(tmp_path / "j.json", jordan_rep([[1.0, 1.0], [0.0, 2.0]])),
                 huge=write_rep(tmp_path / "huge.json", framed_a1_rep(0.0, 1e200)),
                 partial=write_json(tmp_path / "partial.json", {"weights": {"1": 1}}))
    code, out, err = run_cli(*[a.format(**files) for a in args])
    assert code == 2
    assert out == ""
    assert expected in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_stratum_codim(f1_files):
    code, out, _ = run_cli("stratum", f1_files["crit"], "1")
    assert code == 0
    assert json.loads(out)["result"]["codim"] == 1


def test_lagrangian_unrelated(tmp_path):
    r1 = write_rep(tmp_path / "d12.json", jordan_rep(np.diag([1.0, 2.0])))
    r2 = write_rep(tmp_path / "d13.json", jordan_rep(np.diag([1.0, 3.0])))
    code, out, _ = run_cli("lagrangian", r1, r2)
    assert code == 0
    assert json.loads(out)["result"]["related"] is False


def test_handsaw_commands(tmp_path):
    code, out, _ = run_cli("handsaw", "to-quiver", "2", "1", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dims"] == {"V1": 1, "inf": 1}
    labels = [e["label"] for e in doc["result"]["quiver"]["edges"]]
    assert labels == ["B2_1", "a_1^1", "b_2^1"]

    xs = hs2_rep(0.6, 0.9, 0.0)
    rep = write_rep(tmp_path / "hs.json", xs)
    out_path = tmp_path / "adj.json"
    code, _, _ = run_cli("handsaw", "adjoint", rep, "--out", str(out_path))
    assert code == 0
    adj = json.loads(out_path.read_text())
    # b-role edge is negated and transposed by the transform
    assert adj["result"]["mats"]["2"] == [[[-0.0, -0.0]]]

    q, _ = hs2()
    big = Representation(q, {"V1": 2, "inf": 1},
                         [np.diag([0.6, -0.4]).astype(complex),
                          np.array([[0.9], [0.5]], dtype=complex),
                          np.zeros((1, 2), dtype=complex)])
    bigrep = write_rep(tmp_path / "hsbig.json", big)
    code, out, _ = run_cli("handsaw", "hecke", rep, bigrep, "V1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is True
    assert doc["result"]["intertwiner"]["surjective"] is True


def test_selfcheck_deterministic(tmp_path):
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    code1, _, _ = run_cli("selfcheck", "--seed", "7", "--out", str(p1))
    code2, _, _ = run_cli("selfcheck", "--seed", "7", "--out", str(p2))
    assert code1 == 0 and code2 == 0
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if "timestamp" not in ln]
    assert strip(p1) == strip(p2)
    doc = json.loads(p1.read_text())
    assert doc["result"]["ok"] is True
    assert doc["result"]["seed"] == 7
    assert sum("timestamp" in ln for ln in p1.read_text().splitlines()) == 1


def test_seed_sources(f1_files):
    # explicit flag wins, then the environment variable, then zero
    code, out, _ = run_cli("hecke", f1_files["small"], f1_files["member"], "1",
                           "--seed", "5")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5
    code, out, _ = run_cli("hecke", f1_files["small"], f1_files["member"], "1",
                           env_extra={"QUIVERFLOW_SEED": "9"})
    assert json.loads(out)["config"]["seed"] == 9
    code, out, _ = run_cli("hecke", f1_files["small"], f1_files["member"], "1")
    assert json.loads(out)["config"]["seed"] == 0


def test_cli_import_does_not_load_scipy():
    code = ("import sys, quiverflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
