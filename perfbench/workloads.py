"""Workload instances and their frozen answers, shared by runner and worker.

`frozen.json` holds, per workload, a list of cases; a case is a list of
instances that run back to back (a cli-cache case is its cold invocation
followed by its warm one). Each instance is `{"kind", "args", "answer"}`.
The seed only permutes the cases, so every seed does the same work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen.json"


def load_frozen() -> dict:
    return json.loads(FROZEN.read_text())


def workload_names() -> list[str]:
    return list(load_frozen()["workloads"])


def instances(workload: str, seed: int) -> list[dict]:
    """The workload's instances, cases in the order the seed gives."""
    cases = list(load_frozen()["workloads"][workload])
    random.Random(seed).shuffle(cases)
    return [inst for case in cases for inst in case]
