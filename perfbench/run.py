"""pbwdeg benchmark: one workload, timed or traced, with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Every pass runs in a fresh interpreter (perfbench/worker.py), so pbwdeg's
in-process caches never carry over. With --trace 0, passes repeat while
another one fits in S seconds, and the end-to-end metrics are medians over
passes. With --trace 1, untraced and traced passes alternate, two of each:
the last traced pass gives the per-layer metrics and the spans, written to
.perfbench_runs/, and the mean difference gives the tracing overhead. Every answer is compared with perfbench/frozen.json.
The last line of stdout is the JSON result; the line before it records the
seed and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
# Time of the worker's calibration loop at the reference speed. End-to-end
# times are reported at that speed: wall seconds * CAL_REF_S / the mean
# calibration time of the same pass (see worker.calibrate).
CAL_REF_S = 0.02


def machine_info(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"workload": workload, "seed": seed,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "commit": commit}


def run_pass(workload: str, seed: int, traced: bool, workdir: Path,
             deadline: float) -> dict:
    """One worker process; returns its report plus its wall time."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    # its own session, so a timeout also ends the CLI processes it started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if traced else "0", str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err}")
    report = json.loads(out.strip().splitlines()[-1])
    report["wall_s"] = time.monotonic() - t0
    return report


def check(insts: list[dict], results: list[dict]) -> int:
    """Failures: instances that raised or disagree with the frozen answer."""
    assert len(insts) == len(results)
    return sum("error" in r or r["answer"] != i["answer"]
               for i, r in zip(insts, results))


def perturbed(value):
    """The same answer with its first number or flag changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return [perturbed(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: perturbed(value[key])}
    raise TypeError(type(value))


def self_check(insts: list[dict]) -> bool:
    """The checker must count a deliberately wrong answer as a failure."""
    good = [{"answer": i["answer"]} for i in insts]
    bad = [{"answer": perturbed(insts[0]["answer"])}] + good[1:]
    return check(insts, good) == 0 and check(insts, bad) == 1


def at_ref_speed(seconds: float, report: dict) -> float:
    """Wall seconds of a pass scaled to the reference speed."""
    return seconds * CAL_REF_S / statistics.mean(report["cal_s"])


def solve_s(insts: list[dict], report: dict, kinds=None) -> float:
    """Seconds spent in the instances (of the given kinds) of one pass, at
    the reference speed."""
    return at_ref_speed(sum(r["seconds"] for i, r in zip(insts, report["results"])
                            if kinds is None or i["kind"] in kinds), report)


def layer_metrics(trace: dict) -> dict:
    """Flatten the tracer totals to `<layer>.<field>` metric names."""
    out = dict(trace["counts"])
    for name, st in trace["stats"].items():
        for key, v in st.items():
            out[f"{name}.{key}"] = v
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not __debug__:
        sys.exit("run.py: asserts are off (python -O); the checks need them")
    if not (ROOT / "src" / "pbwdeg" / "__init__.py").is_file():
        sys.exit(f"run.py: no pbwdeg sources under {ROOT / 'src'}")
    if args.workload not in workloads.workload_names():
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.workload_names())}")
    deadline = time.monotonic() + DEADLINE_S
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    insts = workloads.instances(args.workload, args.seed)
    info = machine_info(args.workload, args.seed)
    print(json.dumps({"info": info}), flush=True)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    reports = []
    try:
        if args.trace:
            # alternate, so that a drift in machine speed hits both sides
            for traced in (False, True, False, True):
                reports.append(run_pass(args.workload, args.seed, traced,
                                        workdir, deadline))
        else:
            start = time.monotonic()
            while True:
                reports.append(run_pass(args.workload, args.seed, False,
                                        workdir, deadline))
                typical = statistics.median(r["wall_s"] for r in reports)
                if time.monotonic() - start + typical > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    for rep in reports:
        attempted += len(insts)
        failed += check(insts, rep["results"])
    correct = failed == 0 and self_check(insts)

    if args.trace:
        plain, traced = reports[0::2], reports[1::2]

        def mean_solve(reps, kinds=None):
            return statistics.mean(solve_s(insts, r, kinds) for r in reps)

        values = layer_metrics(traced[-1]["trace"])
        values["cli.cold_s"] = mean_solve(plain, {"cli-cold"})
        values["cli.warm_s"] = mean_solve(plain, {"cli-warm"})
        values["trace.calibration_s"] = statistics.mean(
            c for r in plain for c in r["cal_s"])
        values["trace.untraced_solve_s"] = mean_solve(plain)
        values["trace.traced_solve_s"] = mean_solve(traced)
        values["trace.overhead_s"] = (values["trace.traced_solve_s"]
                                      - values["trace.untraced_solve_s"])
        wanted = specs["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"info": info, "metrics": values,
                        "spans": traced[-1]["trace"]["spans"]}))
    else:
        values = {
            "setup_s": statistics.median(at_ref_speed(r["setup_s"], r)
                                         for r in reports),
            "solve_s": statistics.median(solve_s(insts, r) for r in reports),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        wanted = specs["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
