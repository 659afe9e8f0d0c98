"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Sets up (imports, root systems, structure constants and fundamental
representations of every Cartan type in the workload), then runs every
instance once and prints one JSON object: set-up seconds, per-instance
answers and seconds, the times of the calibration loop (run after set-up,
between instances at most every CAL_EVERY_S seconds, and at the end), peak
resident memory and, with TRACE 1, the layer trace. Answers are checked by the caller, outside the timed region.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

CLI_TIMEOUT_S = 150
CAL_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python computation.

    Other tenants of a shared machine slow this process by tens of percent,
    switching between a fast and a slow speed within seconds, and the mix
    drifts over minutes. The same slowdown shows in this loop, whose work
    never changes, so the caller divides by its mean time over the pass.
    """
    from fractions import Fraction
    t = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 5000):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 31, i % 17)
        seen[key] = seen.get(key, 0) + i
    return time.perf_counter() - t


def run_cli(args: dict, cache_dir: Path, trace_file: Path | None) -> dict:
    """One `pbwdeg check-f0` invocation in its own process, as users run it."""
    argv = ["check-f0", "--cartan", args["cartan"], "--p", str(args["p"]),
            "--cache-dir", str(cache_dir), "--format", "csv"]
    if trace_file is None:
        cmd = [sys.executable, "-m", "pbwdeg.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "clitrace.py"), str(trace_file),
               *argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    hits = proc.stderr.count("cache hit")
    misses = proc.stderr.count("cache miss")
    status = {(1, 0): "hit", (0, 1): "miss"}.get((hits, misses), "other")
    return {"csv": proc.stdout, "cache": status}


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    traced, workdir = sys.argv[3] == "1", Path(sys.argv[4])
    # One CPU for the pass and the CLI processes it starts, so that the
    # calibration loop runs where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    insts = workloads.instances(workload, seed)

    # all modules, cli too, so that set-up times every import a pass can need
    from pbwdeg import chevrep, cli, degenring, pbwgrade, rootsys, weylmod  # noqa: F401
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ctx = {}
    for name in sorted({i["args"]["cartan"] for i in insts}):
        rs = rootsys.build_root_system(name)
        sc = chevrep.chevalley_constants(rs)
        for i in range(1, rs.rank + 1):
            chevrep.fundamental_rep(rs, i)
        ctx[name] = (rs, sc)
    setup_s = time.perf_counter() - T0

    cache_dir = workdir / "cache"

    def run(idx: int, kind: str, args: dict):
        rs, sc = ctx[args["cartan"]]
        if kind == "f0":
            r = pbwgrade.check_f0(rs, sc, args["p"])
            return {"nonzero": r.nonzero, "degree": r.degree,
                    "graded_dims": list(r.graded_dims)}
        if kind == "lattice":
            return {"dim": weylmod.build_weyl_lattice(rs, tuple(args["lam"])).dim}
        if kind == "mult":
            r = degenring.check_mult_surjective(
                rs, sc, tuple(args["lam"]), tuple(args["mu"]), args["p"])
            return {"table": [list(row) for row in r.table],
                    "injective": r.injective_ungraded, "strict": r.strict}
        if kind == "hilbert":
            r = degenring.hilbert_function(rs, sc, tuple(args["lam"]),
                                           args["p"], args["n_max"])
            return {"values": [list(row) for row in r.values]}
        if kind in ("cli-cold", "cli-warm"):
            trace_file = workdir / f"cli-trace-{idx}.json" if traced else None
            out = run_cli(args, cache_dir, trace_file)
            if traced:
                tracer.merge(json.loads(trace_file.read_text()), idx)
                tracer.count("cli.cache_hits", out["cache"] == "hit")
                tracer.count("cli.cache_misses", out["cache"] == "miss")
            return out
        raise ValueError(f"unknown instance kind {kind}")

    cal_s = [calibrate() for _ in range(5)]
    last_cal = time.perf_counter()
    results = []
    for idx, inst in enumerate(insts):
        if time.perf_counter() - last_cal > CAL_EVERY_S:
            cal_s.append(calibrate())
            last_cal = time.perf_counter()
        if tracer is not None:
            tracer.instance = idx
        t = time.perf_counter()
        try:
            res = {"answer": run(idx, inst["kind"], inst["args"])}
        except Exception as exc:  # a failed instance is counted, not fatal
            res = {"error": f"{type(exc).__name__}: {exc}"}
        res["seconds"] = time.perf_counter() - t
        results.append(res)
    cal_s += [calibrate() for _ in range(5)]
    if tracer is not None and cache_dir.is_dir():
        tracer.count("cli.cache_bytes", sum(
            f.stat().st_size for f in cache_dir.rglob("*") if f.is_file()))

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"setup_s": setup_s, "cal_s": cal_s, "results": results,
           "peak_rss_mb": rss_kb / 1024,
           "trace": tracer.dump() if tracer is not None else None}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
