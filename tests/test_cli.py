"""Command line front end: dispatch, formats, exit codes, disk cache."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from pbwdeg import cli as cli_module
from pbwdeg.cli import cache_key, load_module, main, save_module
from pbwdeg.rootsys import build_root_system, splitting_weight
from pbwdeg.weylmod import build_weyl_module_p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- basic queries ----------------------------------------------------------


def test_root_system_json(capsys):
    data = json_out(capsys, "root-system", "--cartan", "A2",
                    "--format", "json")
    assert data["cartan"] == "A2"
    assert data["rank"] == 2
    assert data["cartan_matrix"] == [[2, -1], [-1, 2]]
    coords = [r["root_coords"] for r in data["positive_roots"]]
    assert sorted(coords) == [[0, 1], [1, 0], [1, 1]]
    heights = [r["height"] for r in data["positive_roots"]]
    assert sorted(heights) == [1, 1, 2]
    assert data["num_positive_roots"] == 3
    assert "tool_version" in data


def test_root_system_csv_and_table(capsys):
    code, out, _ = run_cli(capsys, "root-system", "--cartan", "G2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,root_coords,fund_coords,height"
    assert len(lines) == 7  # header + 6 positive roots
    code, out, _ = run_cli(capsys, "root-system", "--cartan", "G2")
    assert code == 0
    assert "rank: 2" in out


def test_weyl_dim_single_and_multi(capsys):
    data = json_out(capsys, "weyl-dim", "--cartan", "A2",
                    "--weight", "1,1", "--format", "json")
    assert data["dims"] == [{"weight": [1, 1], "dim": 8}]
    data = json_out(capsys, "weyl-dim", "--cartan", "C3",
                    "--weight", "0,0,1", "--weight", "1,0,0",
                    "--format", "json")
    assert data["dims"] == [{"weight": [0, 0, 1], "dim": 14},
                            {"weight": [1, 0, 0], "dim": 6}]


def test_weyl_dim_csv(capsys):
    code, out, _ = run_cli(capsys, "weyl-dim", "--cartan", "G2",
                           "--weight", "1,0", "--format", "csv")
    assert code == 0
    assert out == "weight,dim\n1 0,7\n"


# -- module construction and filtration reports -----------------------------


def test_build_module_json(capsys):
    data = json_out(capsys, "build-module", "--cartan", "A2",
                    "--weight", "1,1", "--p", "2", "--format", "json")
    assert data["dim"] == 8
    assert data["num_weights"] == 7
    mults = {tuple(w): m for w, m in data["multiplicities"]}
    assert mults[(0, 0)] == 2
    assert mults[(1, 1)] == 1
    assert data["multiplicities"][0][0] == [1, 1]  # highest weight first


def test_pbw_dims_json_and_csv(capsys):
    data = json_out(capsys, "pbw-dims", "--cartan", "A2",
                    "--weight", "1,1", "--p", "2", "--format", "json")
    assert data["graded_dims"] == [1, 3, 4]
    assert data["cumulative_dims"] == [1, 4, 8]
    assert data["n_top"] == 2
    code, out, _ = run_cli(capsys, "pbw-dims", "--cartan", "A2",
                           "--weight", "1,1", "--p", "2", "--format", "csv")
    assert code == 0
    assert out == ("n,graded_dim,cumulative_dim\n"
                   "0,1,1\n1,3,4\n2,4,8\n")


# -- the splitting criterion ------------------------------------------------


def test_check_f0_json(capsys):
    data = json_out(capsys, "check-f0", "--cartan", "A1", "--p", "3",
                    "--format", "json")
    assert data["nonzero"] is True
    assert data["weight"] == [4]
    assert data["degree"] == 2
    assert data["graded_dims"] == [1, 1, 1, 1, 1]
    assert data["tool_version"]


def test_check_f0_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "check-f0", "--cartan", "A1", "--p", "3",
                           "--format", "csv")
    assert code == 0
    assert out == ("field,value\n"
                   "cartan,A1\n"
                   "p,3\n"
                   "weight,4\n"
                   "degree,2\n"
                   "nonzero,true\n"
                   "graded_dims,1 1 1 1 1\n"
                   "tool_version,0.1.0\n")


def test_check_f0_table(capsys):
    code, out, _ = run_cli(capsys, "check-f0", "--cartan", "A2", "--p", "2")
    assert code == 0
    assert "nonzero: true" in out


def test_check_f0_ceiling_refusal(capsys):
    code, out, err = run_cli(capsys, "check-f0", "--cartan", "A2",
                             "--p", "2", "--size-ceiling", "10")
    assert code == 2
    assert out == ""
    assert "27" in err and "10" in err


def test_check_f0_sweep_serial_and_parallel(capsys):
    for jobs in ("1", "2"):
        data = json_out(capsys, "check-f0-sweep", "--cartans", "A1,A2",
                        "--primes", "2,3", "--jobs", jobs,
                        "--format", "json")
        tasks = data["tasks"]
        assert [(t["cartan"], t["p"]) for t in tasks] == \
            [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3)]
        assert all(t["nonzero"] is True for t in tasks)


def test_check_f0_sweep_ceiling_skips(capsys):
    data = json_out(capsys, "check-f0-sweep", "--cartans", "A1,A2",
                    "--primes", "2,3", "--size-ceiling", "30",
                    "--format", "json")
    tasks = data["tasks"]
    assert tasks[2]["cartan"] == "A2" and tasks[2]["p"] == 2
    assert tasks[2]["nonzero"] is True
    skipped = tasks[3]
    assert skipped["cartan"] == "A2" and skipped["p"] == 3
    assert "skipped" in skipped and "125" in skipped["skipped"]


def test_check_f0_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "check-f0-sweep", "--cartans", "A1",
                           "--primes", "2,3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cartan,p,degree,nonzero,skipped"
    assert lines[1] == "A1,2,1,true,"
    assert lines[2] == "A1,3,2,true,"


# -- multiplication, generation, Hilbert ------------------------------------


def test_check_mult_csv_matches_frozen_table(capsys):
    code, out, _ = run_cli(capsys, "check-mult", "--cartan", "B2",
                           "--lambda", "1,0", "--mu", "0,1", "--p", "2",
                           "--format", "csv")
    assert code == 0
    assert out == ("n,phi_dim,meet_dim\n"
                   "0,1,1\n1,5,5\n2,13,13\n3,16,16\n")


def test_check_mult_json_and_table(capsys):
    data = json_out(capsys, "check-mult", "--cartan", "A2",
                    "--lambda", "1,0", "--mu", "0,1", "--p", "2",
                    "--format", "json")
    assert data["verdict_mult_surjective"] is True
    assert data["table"] == [[0, 1, 1], [1, 4, 4], [2, 8, 8]]
    assert data["lambda"] == [1, 0] and data["mu"] == [0, 1]
    code, out, _ = run_cli(capsys, "check-mult", "--cartan", "A2",
                           "--lambda", "1,0", "--mu", "0,1", "--p", "2")
    assert code == 0
    assert "verdict_mult_surjective: true" in out


def test_check_gen_json(capsys):
    data = json_out(capsys, "check-gen", "--cartan", "A2",
                    "--lambda", "1,1", "--p", "2", "--n-max", "3",
                    "--format", "json")
    assert data["generated"] is True
    assert data["per_n"] == [[2, True], [3, True]]


def test_hilbert_csv(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--cartan", "A1",
                           "--lambda", "1", "--p", "2", "--n-max", "4",
                           "--format", "csv")
    assert code == 0
    assert out == ("n,h,weyl_dim\n"
                   "0,1,1\n1,2,2\n2,3,3\n3,4,4\n4,5,5\n")


# -- the validate command ---------------------------------------------------


def test_validate_clean_module(capsys):
    data = json_out(capsys, "validate", "--cartan", "A2",
                    "--weight", "1,1", "--p", "2", "--format", "json")
    assert data["valid"] is True
    assert data["z_witnesses"] == []
    assert data["p_witnesses"] == []
    assert data["f0_order_invariant"] is None  # not the splitting weight


def test_validate_splitting_weight_runs_f0_trials(capsys):
    data = json_out(capsys, "validate", "--cartan", "A1",
                    "--weight", "2", "--p", "2", "--trials", "3",
                    "--format", "json")
    assert data["valid"] is True
    assert data["f0_order_invariant"] is True


# -- exit codes for user errors ---------------------------------------------


@pytest.mark.parametrize("argv", [
    ("weyl-dim", "--cartan", "Z9", "--weight", "1"),
    ("weyl-dim", "--cartan", "A2", "--weight", "1"),
    ("weyl-dim", "--cartan", "A2", "--weight", "1,x"),
    ("build-module", "--cartan", "A2", "--weight", "1,-1", "--p", "2"),
    ("build-module", "--cartan", "A2", "--weight", "1,1", "--p", "4"),
    ("check-gen", "--cartan", "A2", "--lambda", "1,1", "--p", "2",
     "--n-max", "1"),
    ("no-such-command",),
    ("check-f0", "--cartan", "A1"),
])
def test_user_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err != ""


@pytest.mark.parametrize("argv", [
    ("weyl-dim", "--cartan", "B2", "--weight", "1,0"),
    ("build-module", "--cartan", "B2", "--weight", "1,0", "--p", "2"),
])
def test_integrity_failure_exits_3(capsys, monkeypatch, argv):
    """Corrupted Gram data trips an exact-arithmetic check: exit 3."""
    real = cli_module.build_root_system

    def corrupted(name):
        rs = real(name)
        gram = [list(row) for row in rs.gram]
        gram[0][0] += 1
        return dataclasses.replace(rs, gram=tuple(tuple(r) for r in gram))

    monkeypatch.setattr(cli_module, "build_root_system", corrupted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "internal defect" in err


def test_bad_format_rejected(capsys):
    code, _, _ = run_cli(capsys, "weyl-dim", "--cartan", "A1",
                         "--weight", "2", "--format", "xml")
    assert code == 1


# -- disk cache -------------------------------------------------------------


def test_cache_cold_then_warm_identical(tmp_path, capsys):
    args = ("build-module", "--cartan", "A2", "--weight", "1,1",
            "--p", "2", "--format", "json", "--cache-dir", str(tmp_path))
    code1, out1, err1 = run_cli(capsys, *args)
    assert code1 == 0
    key = cache_key("A2", (1, 1), 2)
    entry_dir = tmp_path / key
    assert (entry_dir / "entry.json").is_file()
    assert (entry_dir / "weights.txt").is_file()
    assert (entry_dir / "dims.json").is_file()
    assert any(f.name.startswith("op_") for f in entry_dir.iterdir())
    code2, out2, err2 = run_cli(capsys, *args)
    assert code2 == 0
    assert out2 == out1
    assert "cache" in err2


def test_cache_round_trip_operator_identity(tmp_path):
    rs = build_root_system("A2")
    fresh = build_weyl_module_p(rs, 2, (1, 1))
    save_module(fresh, tmp_path)
    loaded = load_module(rs, (1, 1), 2, tmp_path)
    assert loaded is not None
    assert loaded.dim == fresh.dim
    assert tuple(loaded.weights) == tuple(fresh.weights)
    assert loaded.hw_index == fresh.hw_index
    for kind in ("E", "F"):
        for beta in rs.positive_roots:
            for k in (1, 2, 3):
                a = fresh.op(kind, beta, k).toarray() % 2
                b = loaded.op(kind, beta, k).toarray() % 2
                assert np.array_equal(a, b), (kind, beta, k)


def test_cache_version_mismatch_forces_recompute(tmp_path, capsys):
    args = ("pbw-dims", "--cartan", "A1", "--weight", "4", "--p", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    key = cache_key("A1", (4,), 2)
    meta_path = tmp_path / key / "entry.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 999
    meta_path.write_text(json.dumps(meta))
    rs = build_root_system("A1")
    assert load_module(rs, (4,), 2, tmp_path) is None
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out1


def test_cached_module_drives_check_f0(tmp_path, capsys):
    args = ("check-f0", "--cartan", "A1", "--p", "3", "--format", "csv",
            "--cache-dir", str(tmp_path))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    rs = build_root_system("A1")
    lam = splitting_weight(rs, 3)
    assert (tmp_path / cache_key("A1", lam, 3)).is_dir()
    code, out2, err = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out1


# -- determinism ------------------------------------------------------------


def test_repeated_runs_byte_identical_modulo_elapsed(capsys):
    outs = []
    for _ in range(2):
        data = json_out(capsys, "check-mult", "--cartan", "A2",
                        "--lambda", "1,0", "--mu", "1,0", "--p", "3",
                        "--format", "json")
        data["elapsed_ms"] = 0
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_csv_outputs_byte_identical(capsys):
    runs = [run_cli(capsys, "check-mult", "--cartan", "A2", "--lambda",
                    "0,1", "--mu", "0,1", "--p", "2", "--format", "csv")
            for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    assert runs[0][0] == runs[1][0] == 0


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdeg.cli", "weyl-dim", "--cartan", "A1",
         "--weight", "3", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [{"weight": [3], "dim": 4}]
