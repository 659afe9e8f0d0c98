"""Run the pbwdeg command line under the layer tracer.

    python3 perfbench/clitrace.py TRACE_FILE <pbwdeg arguments...>

Behaves like `python3 -m pbwdeg.cli <arguments>` and writes the trace of the
invocation to TRACE_FILE when it ends.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from pbwdeg import cli
    try:
        return cli.main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
