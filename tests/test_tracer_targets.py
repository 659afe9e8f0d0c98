"""The benchmark's layer tracer must find every function it wraps.

perfbench/tracer.py patches each entry of its TARGETS list by name, so a
refactor that renames or moves one of them would otherwise only surface
when the benchmark runs traced.  This resolves every entry the way
Tracer.install() does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"pbwdeg.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = getattr(owner, cls_name, None)
            found = found.__dict__.get(meth) if found is not None else None
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
