"""Command line front end: dispatch, formats, exit codes, disk cache."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from pbwdeg import cli as cli_module, weylmod
from pbwdeg.cli import _stored_ops, cache_key, load_module, main, save_module
from pbwdeg.rootsys import build_root_system, splitting_weight
from pbwdeg.weylmod import WeylModuleP, build_weyl_module_p


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


@pytest.mark.parametrize("command", ["pbw-dims", "validate"])
def test_prime_beyond_int64_bound_exits_1(command):
    """p near 2^32 overflows int64 residue products: a one-line usage
    error, not an assertion traceback from inside the build."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdeg.cli", command, "--cartan", "A2",
         "--weight", "2,1", "--p", "4294967311"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "largest safe p" in lines[0]


def test_check_mult_prime_beyond_int64_bound_exits_1():
    """The first prime above the A1 (1) x (1) limit 2^31 is refused."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdeg.cli", "check-mult", "--cartan", "A1",
         "--lambda", "1", "--mu", "1", "--p", "2147483659"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "largest safe p" in lines[0]


def test_module_not_closed_under_operators_exits_3(capsys, monkeypatch):
    """A module whose weight-0 block no longer spans the operator images is
    an internal defect: exit 3 and one line, not an assertion traceback."""
    def corrupted(rs, p, lam, **_):
        mod = build_weyl_module_p(rs, p, lam, use_cache=False)
        blk = mod._by_weight[(0, 0)]
        blk.rows = np.roll(blk.rows, 1, axis=1)
        return mod

    monkeypatch.setattr(cli_module, "build_weyl_module_p", corrupted)
    code, out, err = run_cli(capsys, "pbw-dims", "--cartan", "A2",
                             "--weight", "1,1", "--p", "2")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("internal defect: module not closed under")


def test_cache_dir_rejected_where_unused(tmp_path, capsys):
    target = tmp_path / "cache"
    code, out, err = run_cli(capsys, "check-mult", "--cartan", "A2",
                             "--lambda", "1,0", "--mu", "1,0", "--p", "2",
                             "--cache-dir", str(target))
    assert code == 1
    assert out == ""
    assert "--cache-dir" in err
    assert not target.exists()


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
    assert not (entry_dir / "dims.json").exists()
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
    for beta in rs.positive_roots:
        for k in (1, 2, 3):
            a = fresh.op("F", beta, k).toarray() % 2
            b = loaded.op("F", beta, k).toarray() % 2
            assert np.array_equal(a, b), (beta, k)
    # raising operators are not cached; they must not read as zero
    with pytest.raises(ValueError):
        loaded.op("E", rs.positive_roots[0], 1)


def test_cache_version_mismatch_forces_recompute(tmp_path, capsys):
    """A future format and the previous one (2, which also stored the
    raising operators and dims.json) are both stale misses."""
    args = ("pbw-dims", "--cartan", "A1", "--weight", "4", "--p", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    key = cache_key("A1", (4,), 2)
    meta_path = tmp_path / key / "entry.json"
    rs = build_root_system("A1")
    for version in (999, 2):
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = version
        meta_path.write_text(json.dumps(meta))
        assert load_module(rs, (4,), 2, tmp_path) is None
        code, out2, err = run_cli(capsys, *args)
        assert code == 0 and err.startswith("cache miss"), err
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


def _flip_last_digit(path):
    data = bytearray(path.read_bytes())
    i = max(j for j, b in enumerate(data) if chr(b).isdigit())
    data[i] ^= 1  # '1' <-> '0', '2' <-> '3', ...
    path.write_bytes(bytes(data))


def _drop_line_2(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + lines[2:]))


def _drop_op_f_r2_k1(path):
    """entry.json has no checksum of its own: drop one operator from its
    sha256 map and delete the file, which a trusting reader would take as
    a zero operator."""
    meta = json.loads(path.read_text())
    del meta["sha256"]["op_F_r2_k1.txt"]
    path.write_text(json.dumps(meta))
    (path.parent / "op_F_r2_k1.txt").unlink()


@pytest.mark.parametrize("corrupt,fname", [
    (_flip_last_digit, "weights.txt"),
    (_flip_last_digit, "op_F_r0_k1.txt"),
    (_drop_line_2, "op_F_r2_k1.txt"),
    (_drop_op_f_r2_k1, "entry.json"),
])
def test_corrupted_payload_is_a_miss_and_replaced(tmp_path, capsys, corrupt,
                                                  fname):
    """A payload that parses but fails its sha256 is a cache miss: the
    stdout is the fresh one, and the rebuilt entry serves the next run."""
    args = ("check-f0", "--cartan", "A2", "--p", "2", "--format", "csv",
            "--cache-dir", str(tmp_path))
    code, fresh, err = run_cli(capsys, *args)
    assert code == 0 and err.startswith("cache miss")
    entry = tmp_path / cache_key("A2", (2, 2), 2)
    corrupt(entry / fname)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (0, fresh)
    assert err.startswith("cache miss"), err
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (0, fresh)
    assert err.startswith("cache hit"), err


def test_every_entry_file_is_load_bearing(tmp_path, capsys):
    """Whatever file of an entry is corrupted, the entry is a miss: the
    fresh stdout is printed and the rebuilt entry serves the next run."""
    args = ("check-f0", "--cartan", "A2", "--p", "2", "--format", "csv",
            "--cache-dir", str(tmp_path))
    code, fresh, err = run_cli(capsys, *args)
    assert code == 0 and err.startswith("cache miss")
    entry = tmp_path / cache_key("A2", (2, 2), 2)
    names = sorted(f.name for f in entry.iterdir())
    assert "entry.json" in names and "weights.txt" in names
    for name in names:
        _flip_last_digit(entry / name)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (0, fresh)
        assert err.startswith("cache miss"), (name, err)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (0, fresh)
        assert err.startswith("cache hit"), (name, err)


def test_cold_check_f0_stores_only_lowering_operators(tmp_path, capsys,
                                                      monkeypatch):
    """No raising operator is assembled on a cold cached check-f0, and the
    entry holds exactly the manifest, the weights and the F operators."""
    kinds = []
    real = WeylModuleP._ppower

    def recording(self, kind, beta, k):
        kinds.append(kind)
        return real(self, kind, beta, k)

    monkeypatch.setattr(WeylModuleP, "_ppower", recording)
    monkeypatch.setattr(weylmod, "_MODP_CACHE", {})  # no module built earlier
    code, _, err = run_cli(capsys, "check-f0", "--cartan", "A2", "--p", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and err.startswith("cache miss")
    assert kinds and set(kinds) == {"F"}
    rs = build_root_system("A2")
    mod = load_module(rs, (2, 2), 2, tmp_path)
    assert mod is not None
    entry = tmp_path / cache_key("A2", (2, 2), 2)
    assert {f.name for f in entry.iterdir()} == \
        {"entry.json", "weights.txt"} | {f for _, _, f in _stored_ops(mod)}


def test_entry_without_highest_weight_line_is_a_miss(tmp_path, capsys):
    """weights.txt rewritten with its checksum so that the highest weight
    appears twice: the entry passes the checksum but not the module check,
    so it is a miss and is replaced."""
    args = ("check-f0", "--cartan", "A2", "--p", "2", "--format", "csv",
            "--cache-dir", str(tmp_path))
    code, fresh, _ = run_cli(capsys, *args)
    entry = tmp_path / cache_key("A2", (2, 2), 2)
    weights = (entry / "weights.txt").read_text().splitlines(keepends=True)
    weights[1] = "2 2\n"
    (entry / "weights.txt").write_text("".join(weights))
    meta = json.loads((entry / "entry.json").read_text())
    meta["sha256"]["weights.txt"] = hashlib.sha256(
        "".join(weights).encode()).hexdigest()
    (entry / "entry.json").write_text(json.dumps(meta))
    rs = build_root_system("A2")
    assert load_module(rs, (2, 2), 2, tmp_path) is None
    assert not entry.exists()
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (0, fresh)
    assert err.startswith("cache miss"), err
    assert load_module(rs, (2, 2), 2, tmp_path) is not None


def test_cached_module_check_survives_python_O():
    code = "\n".join([
        "from pbwdeg.cli import CachedModule",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "rs = build_root_system('A1')",
        "for weights in ([(2,), (2,), (0,)], [(0,), (-2,)]):",
        "    try:",
        "        CachedModule(rs, 2, (2,), weights, {})",
        "    except IntegrityError:",
        "        print('raised')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


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
