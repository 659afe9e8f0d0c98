"""Print every metric of every workload by name, with its unit.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace]

Runs perfbench/run.py once per workload (and, with --trace, once more
traced) from the root of a source checkout. Besides the metrics it prints
each workload's fail_ratio (failed over attempted instances) and the
useful-work ratios of the traced run, each with its base.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RATIOS = [("exactla.hnf_add.accepted", "exactla.hnf_add.calls"),
          ("exactla.echelon_add_row.accepted", "exactla.echelon_add_row.calls")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", action="store_true",
                    help="also run traced and print the per-layer metrics")
    args = ap.parse_args()
    all_correct = True
    for w in workloads.workload_names():
        for trace in (0, 1) if args.trace else (0,):
            res = run(w, args.seed, args.seconds, trace)
            all_correct &= res["correct"]
            tag = f"{w} (trace {trace})"
            print(f"{tag:24} {'fail_ratio':40} "
                  f"{res['failed'] / res['attempted']:.4g} "
                  f"({res['failed']} of {res['attempted']}), "
                  f"correct={res['correct']}")
            metrics = res["metrics"]
            for name, m in metrics.items():
                print(f"{tag:24} {name:40} {m['value']:.6g} {m['unit']}")
            for num, base in RATIOS if trace else ():
                n, d = metrics[num]["value"], metrics[base]["value"]
                ratio = f"{n / d:.4g}" if d else "n/a"
                print(f"{tag:24} {num + '/calls':40} {ratio} (of {d:g} calls)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
