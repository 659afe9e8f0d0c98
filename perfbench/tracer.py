"""Layer tracer for the benchmark: wraps public pbwdeg functions from outside.

`Tracer.install()` replaces each function or method named in `TARGETS` by a
wrapper, in its defining module and in every pbwdeg module that imported the
name. Each wrapped call adds to per-name totals:

- `calls`
- `s`: inclusive seconds, counting only the outermost call of a name, so a
  recursive call is not counted twice
- `self_s`: duration minus the time spent in wrapped callees
- counters taken from the call's result (rows accepted, nnz, ...), kept
  under their full metric names in `counts`

Non-leaf calls also append a span `(instance, name, start, end, parent)` to
an in-memory list, where `parent` is the index of the enclosing span (or -1)
and all spans of one workload instance share `instance`. Leaf helpers are
called hundreds of thousands of times, so they only add to the totals.
Nothing is written until `dump()` is called at the end of the process.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _nnz(tracer, name, out):
    tracer.count(f"{name}.nnz", int(out.nnz))


def _accepted(tracer, name, out):
    tracer.count(f"{name}.accepted", int(bool(out)))


def _t_rows(tracer, name, out):
    tracer.count(f"{name}.rows", sum(int(a.shape[0]) for a in out.values()))


def _fallback(tracer, name, out):
    """The silent lattice-reduction fallback: distinct LatticeModuleP results."""
    if type(out).__name__ == "LatticeModuleP" and \
            all(out is not seen for seen in tracer.fallbacks):
        tracer.fallbacks.append(out)
        tracer.count("weylmod.lattice_fallbacks")


# (module, attribute or Class.method, metric name, leaf, counter from result)
TARGETS = [
    ("rootsys", "RootSystemData.to_root_coords", "rootsys.to_root_coords",
     True, None),
    ("rootsys", "RootSystemData.inner", "rootsys.inner", True, None),
    ("chevrep", "chevalley_constants", "chevrep.chevalley_constants",
     False, None),
    ("chevrep", "fundamental_rep", "chevrep.fundamental_rep", False, None),
    ("weylmod", "freudenthal_multiplicities",
     "weylmod.freudenthal_multiplicities", False, None),
    ("weylmod", "build_weyl_module_p", "weylmod.build_weyl_module_p",
     False, _fallback),
    ("weylmod", "build_weyl_lattice", "weylmod.build_weyl_lattice",
     False, None),
    ("weylmod", "TensorAmbient.block_op_matrix", "weylmod.block_op_matrix",
     False, _nnz),
    ("weylmod", "TensorAmbient.apply_vec", "weylmod.apply_vec", True, None),
    ("weylmod", "WeylModuleP.op", "weylmod.op", False, _nnz),
    ("weylmod", "LatticeModuleP.op", "weylmod.op", False, _nnz),
    ("cli", "CachedModule.op", "weylmod.op", False, _nnz),
    ("exactla", "IncrementalHNF.add", "exactla.hnf_add", True, _accepted),
    ("exactla", "IncrementalHNF.finalize", "exactla.hnf_finalize",
     False, None),
    ("exactla", "DenseEchelonModP.add_row", "exactla.echelon_add_row",
     True, _accepted),
    ("exactla", "subspace_intersection_mod_p", "exactla.subspace_intersection",
     False, None),
    ("pbwgrade", "filter_from_seed", "pbwgrade.filter_from_seed", False, None),
    ("pbwgrade", "pbw_filtration", "pbwgrade.pbw_filtration", False, None),
    ("pbwgrade", "check_f0", "pbwgrade.check_f0", False, None),
    ("degenring", "CartanComponentMap.__init__", "degenring.component_map",
     False, None),
    ("degenring", "CartanComponentMap.t_rows_by_weight",
     "degenring.t_rows_by_weight", False, _t_rows),
    ("degenring", "CartanComponentMap.meet_dim", "degenring.meet_dim",
     False, None),
    ("degenring", "check_mult_surjective", "degenring.check_mult_surjective",
     False, None),
    ("degenring", "hilbert_function", "degenring.hilbert_function",
     False, None),
    ("cli", "save_module", "cli.save_module", False, None),
    ("cli", "load_module", "cli.load_module", False, None),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []
        self.instance = "setup"
        self._stack: list[list] = []  # [span index or -1, child seconds]
        self._active: dict[str, int] = {}
        self.fallbacks: list = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, leaf: bool = False, counter=None):
        st = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack, spans, active = self._stack, self.spans, self._active
        active.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if leaf:
                idx = parent
            else:
                idx = len(spans)
                spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                st["calls"] += 1
                st["self_s"] += dur - frame[1]
                if not active[name]:
                    st["s"] += dur
                if stack:
                    stack[-1][1] += dur
                if not leaf:
                    spans[idx] = [self.instance, name, t0, t1, parent]
            if counter is not None:
                counter(self, name, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every target; call once, after pbwdeg is importable."""
        mods = {m: importlib.import_module(f"pbwdeg.{m}")
                for m in ("rootsys", "chevrep", "exactla", "weylmod",
                          "pbwgrade", "degenring", "cli")}
        for mod_name, attr, name, leaf, counter in TARGETS:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth,
                        self.wrap(name, cls.__dict__[meth], leaf, counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, leaf, counter)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key.startswith("pbwdeg") and \
                        getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "spans": self.spans}

    def merge(self, other: dict, instance) -> None:
        """Add the dump of a traced child process as one instance."""
        for name, st in other["stats"].items():
            mine = self.stats.setdefault(name, {"calls": 0, "s": 0.0,
                                                "self_s": 0.0})
            for key, v in st.items():
                mine[key] = mine.get(key, 0) + v
        for name, n in other["counts"].items():
            self.count(name, n)
        base = len(self.spans)
        for _, name, t0, t1, parent in other["spans"]:
            self.spans.append([instance, name, t0, t1,
                               parent + base if parent >= 0 else -1])
