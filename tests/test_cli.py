"""Command line front end: dispatch, formats, exit codes, disk cache."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from pbwdeg import cli as cli_module
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
    ("validate", "--cartan", "A1", "--weight", "2", "--p", "2",
     "--trials", "-3"),
    ("check-f0-sweep", "--cartans", "A1", "--primes", "2", "--jobs", "0"),
    ("check-f0-sweep", "--cartans", "A1", "--primes", "2", "--jobs", "-4"),
    ("check-f0-sweep", "--cartans", "A1", "--primes", ""),
    ("check-f0-sweep", "--cartans", " , ", "--primes", "2"),
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


def test_module_not_closed_under_operators_exits_3(capsys, monkeypatch,
                                                   fresh_modules):
    """A module whose weight-0 block no longer spans the operator images is
    an internal defect: exit 3 and one line, not an assertion traceback."""
    def corrupted(rs, p, lam, **_):
        mod = build_weyl_module_p(rs, p, lam)
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


# sha256 of every file of a cold cache entry, as cache format 3 writes it
CACHE_ENTRY_SHA256 = {
    ("G2", 2): {
        "entry.json":
            "79828a3cea5ab4fe39ec2f94c71d07468e31505aceab631929aecb05d464a81c",
        "op_F_r0_k1.txt":
            "c462c7927f43fb6a309f0712b42f4c3067c3c02922b24abd4b5cacb0ffd64ace",
        "op_F_r0_k2.txt":
            "fb687f428891e2548554aac077db00941dcf1ba818590fd54994c6ab94981cf5",
        "op_F_r0_k4.txt":
            "00bad9c6616d4b47d170dd41fdf05c801137020d71bd33c17bdfea9320eafa35",
        "op_F_r1_k1.txt":
            "bde0684c55730132ad3b3a0da9b0e4494777337dd062ad094b25a951abe5b544",
        "op_F_r1_k2.txt":
            "aea258082496cd5e53856a90aff76d2a173272039038e8b826442e740f3099f2",
        "op_F_r1_k4.txt":
            "391cfdcb82e5a122ba75b9402b9f8237e2005adc00cef24838f57d000bb34057",
        "op_F_r1_k8.txt":
            "72a3ad06a07c00cd1863431e838b476dfcd1ac78f76a6e94e7037a809c7e4c7f",
        "op_F_r2_k1.txt":
            "d5ec18f26d0f4ef9e1f653a48eb1b23fd6ffc3829f15f74e3056a03fce1af794",
        "op_F_r2_k2.txt":
            "66881a375fa84053ae21c05fdbba73f708a73d1b1eccedfc29ba9d22c1820e7a",
        "op_F_r2_k4.txt":
            "7b614c08892414c53717fd2d3df8c0e509f01714abc11f6993fcbe94b29939a9",
        "op_F_r2_k8.txt":
            "36820b045e4918b809008d746ac2063d9db590f82fbaa928fbd529ffcd82d453",
        "op_F_r3_k1.txt":
            "c0c5e7749132cd2d8ce0e21fbe4ccadd326519b5d47ba7bd888edc9c10cf4cdc",
        "op_F_r3_k2.txt":
            "dbf72b66503b7dea491c93f5e4a386b70567ed41af3ffa3a4748804b4a899c7b",
        "op_F_r3_k4.txt":
            "7be18efdfee926625476c550980022f317c2afadba81e66e11aebecfd0117d0c",
        "op_F_r3_k8.txt":
            "eabde107c088664833a866b00b109aa2dd7e04896b8994ebb6232a94a2aec75d",
        "op_F_r4_k1.txt":
            "cbbebd606646b012b1d206d1e14653c1ac04d74d9890d9117ef8ed80944f8692",
        "op_F_r4_k2.txt":
            "ff0c8e192e27557c3aaaa13c44ee1717b442627b6ee6d83953d200fb6e6a2b4a",
        "op_F_r4_k4.txt":
            "ca9db61947e56901341df658b7f4c3e2609ae4589c770de074632a33a8db0fed",
        "op_F_r5_k1.txt":
            "48a3f163e5d033d8650c3debe301697a44d191b9c659a0a47ee56de47521a833",
        "op_F_r5_k2.txt":
            "c6ad7caca14a1506606182ad0ce511eebbfa8cea8f6be461e4e9ef2cb5ecbffb",
        "op_F_r5_k4.txt":
            "8731138263150476967cfaa38b991166e0adf8894b3626183685a9a3ad357560",
        "weights.txt":
            "df85a914a628249465613b1d60300f0ff7c3e860845d1305ec3990efa0650502",
    },
    ("A2", 3): {
        "entry.json":
            "a9d569274959552c051d4a5723a66f259791e6e15bfa6f7c74273a42e0b36cd5",
        "op_F_r0_k1.txt":
            "45c5f9f79336859e420209e236c66e6e9930d9b34a5984929f6de85e3d8cc608",
        "op_F_r0_k3.txt":
            "376a733e497723b7b8df6d6beee674d3601d7dd6b286a3718dbe7a82f4543862",
        "op_F_r1_k1.txt":
            "f8bbe767441470f2667dbc0b685537b10786a9e9909f6b044c0bf65860016713",
        "op_F_r1_k3.txt":
            "356f47b7d0896c731c6f267f5dace3ed41d0b644e5d50247de2fb1feb7bbde8c",
        "op_F_r2_k1.txt":
            "cba2336c42514f470d4f17fbf486df1e954e93f4672721651aa6604cbe42d581",
        "op_F_r2_k3.txt":
            "8b4eb74e65c28c25be0c8bd785607fbd9d6c12c15e6c215a4e63575b5ba3ca33",
        "weights.txt":
            "711edb72c8c2e567918f444d079ef25e14022007f661bf7a3790005bf81e9645",
    },
}

@pytest.mark.parametrize("name,p", sorted(CACHE_ENTRY_SHA256))
def test_cache_entry_bytes_pinned(tmp_path, name, p):
    """A cold entry of the splitting weight module holds the same bytes,
    file by file, as format 3 has always written, and reads back as a
    module with the same operators."""
    rs = build_root_system(name)
    lam = splitting_weight(rs, p)
    fresh = build_weyl_module_p(rs, p, lam)
    entry = tmp_path / save_module(fresh, tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(entry.iterdir())}
    assert got == CACHE_ENTRY_SHA256[name, p]
    loaded = load_module(rs, lam, p, tmp_path)
    for idx, pe, _ in _stored_ops(fresh):
        beta = rs.positive_roots[idx]
        assert loaded.op("F", beta, pe) == fresh.op("F", beta, pe)


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
                                                      monkeypatch,
                                                      fresh_modules):
    """No raising operator is assembled on a cold cached check-f0, and the
    entry holds exactly the manifest, the weights and the F operators."""
    kinds = []
    real = WeylModuleP._ppower

    def recording(self, kind, beta, k):
        kinds.append(kind)
        return real(self, kind, beta, k)

    monkeypatch.setattr(WeylModuleP, "_ppower", recording)
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


def test_repeated_runs_byte_identical(capsys, fresh_modules):
    for fmt in ("table", "json", "csv"):
        outs = []
        for _ in range(2):
            fresh_modules()
            code, out, err = run_cli(capsys, "check-mult", "--cartan", "A2",
                                     "--lambda", "1,0", "--mu", "1,0",
                                     "--p", "3", "--format", fmt)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] != "", fmt


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
