"""Command line front end and the content-addressed module cache.

Machine output goes to stdout in one of three formats (table, json, csv);
diagnostics go to stderr.  Exit codes: 0 success, 1 user error, 2 refusal
because a requested object exceeds the size ceiling, 3 internal defect
(non-integral divided power, rank mismatch, a failed exact-arithmetic
invariant, or a failed validation).

Cached modules live under <cache-dir>/<key>/ where the key hashes the
tool version, Cartan type, weight and prime; payload files are the
per-index weights and one triplet text file per lowering operator
F_beta^(p^e), and the sha256 map in entry.json is the manifest of them.
Writes are atomic (temp directory, then rename) so concurrent sweep jobs
can share a cache directory safely; an entry whose manifest or checksums
do not match is a miss and is replaced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .chevrep import NonIntegralDividedPower, chevalley_constants
from .degenring import (check_degree_one_generation, check_mult_surjective,
                        hilbert_function)
from .exactla import read_triplet_text, write_triplet_text
from .pbwgrade import (DEFAULT_SIZE_CEILING, SizeCeilingExceeded,
                       _require_prime, check_f0, check_F0_order_invariance,
                       pbw_filtration)
from .rootsys import (IntegrityError, RootSystemData, UnsupportedType,
                      build_root_system, splitting_weight)
from .weylmod import (ModuleP, RankMismatch, build_weyl_lattice,
                      build_weyl_module_p, validate_lattice_relations,
                      validate_relations, weyl_dim)

CACHE_FORMAT_VERSION = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise CliUsageError(message)


@dataclass
class RunConfig:
    """Validated invocation: one subcommand plus its knobs.

    Defaults: size ceiling DEFAULT_SIZE_CEILING, order trials 5, n_max 3,
    format table, one job, no cache directory.
    """

    command: str
    cartan: str
    weights: tuple
    p: int | None
    n_max: int
    trials: int
    size_ceiling: int
    fmt: str
    cache_dir: Path | None
    jobs: int


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} is not a comma-separated "
                         "list of integers")
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, "
                         f"the rank is {rank}")
    if any(c < 0 for c in coords):
        raise ValueError(f"weight {text!r} is not dominant")
    return coords


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_weight(w) -> str:
    return " ".join(str(x) for x in w)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# disk cache


def cache_key(cartan: str, weight, p: int) -> str:
    raw = f"{__version__}|{cartan}|{','.join(map(str, weight))}|{p}"
    return hashlib.sha256(raw.encode()).hexdigest()


class CachedModule(ModuleP):
    """Module reloaded from disk with the same lowering operators.

    Stored matrices are the p-power divided powers F_beta^(p^e) up to the
    largest nonzero one per root; anything beyond is zero on the module.
    No raising operator is stored, and asking for one is an error.
    """

    def __init__(self, rs: RootSystemData, p: int, lam, weights,
                 ppowers: dict):
        super().__init__(rs, p, lam, weights)
        self._pp = ppowers

    # the tracer wraps op per class by name (ROADMAP item 3)
    op = ModuleP.op

    def _ppower(self, kind: str, beta, pe: int) -> dict:
        if kind != "F":
            raise ValueError("a cached module holds no raising operator")
        return self._pp.get((self.rs.root_index(beta), pe), {})


def _stored_ops(mod: ModuleP) -> list[tuple[int, int, str]]:
    """(root index, p^e, file name) of every operator a cache entry holds:
    F_beta^(p^e) of each root up to its max_power."""
    out = []
    for idx, beta in enumerate(mod.rs.positive_roots):
        pe, top = 1, mod.max_power(beta)
        while pe <= top:
            out.append((idx, pe, f"op_F_r{idx}_k{pe}.txt"))
            pe *= mod.p
    return out


def save_module(mod, cache_dir) -> str:
    """Write a module to the cache; returns the entry key."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = cache_key(mod.rs.name, mod.lam, mod.p)
    final = cache_dir / key
    if final.exists():
        return key
    tmp = cache_dir / f".tmp-{key}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    for idx, pe, fname in _stored_ops(mod):
        write_triplet_text(tmp / fname, (mod.dim, mod.dim), mod.p,
                           *mod.op("F", mod.rs.positive_roots[idx], pe).coo())
    (tmp / "weights.txt").write_text(
        "".join(_fmt_weight(w) + "\n" for w in mod.weights))
    sha256 = {f.name: _sha256(f) for f in sorted(tmp.iterdir())}
    (tmp / "entry.json").write_text(json.dumps({
        "format_version": CACHE_FORMAT_VERSION,
        "key": key,
        "tool_version": __version__,
        "cartan": mod.rs.name,
        "weight": list(mod.lam),
        "p": mod.p,
        "sha256": sha256,
    }))
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # a concurrent writer won
    return key


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checked(path: Path, sha256: dict) -> Path:
    if _sha256(path) != sha256[path.name]:
        raise ValueError(f"{path.name} fails its checksum")
    return path


def load_module(rs: RootSystemData, lam, p: int, cache_dir):
    """Reload a module from the cache, or None on a miss.

    An entry that exists but is stale, unreadable or fails a checksum is
    deleted, so that the module stored after the miss replaces it.
    """
    key = cache_key(rs.name, lam, p)
    path = Path(cache_dir) / key
    try:
        return _read_entry(rs, lam, p, key, path)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            IntegrityError):
        shutil.rmtree(path, ignore_errors=True)
        return None


def _read_entry(rs: RootSystemData, lam, p: int, key: str,
                path: Path) -> CachedModule:
    meta = json.loads((path / "entry.json").read_text())
    if (meta["format_version"], meta["key"], meta["cartan"],
            tuple(meta["weight"]), meta["p"]) != \
            (CACHE_FORMAT_VERSION, key, rs.name, tuple(lam), p):
        raise ValueError("stale cache entry")
    sums = meta["sha256"]
    weights = [tuple(int(x) for x in line.split()) for line in
               _checked(path / "weights.txt", sums).read_text().splitlines()]
    mod = CachedModule(rs, p, lam, weights, {})
    ops = _stored_ops(mod)
    # a missing operator would read as zero, so the manifest must be exact
    if set(sums) != {"weights.txt"} | {fname for _, _, fname in ops}:
        raise ValueError("the manifest does not list the operators the "
                         "weights call for")
    dim = mod.dim
    for idx, pe, fname in ops:
        shape, mp, rows, cols, vals = read_triplet_text(
            _checked(path / fname, sums))
        if (mp, shape) != (p, (dim, dim)):
            raise ValueError(f"{fname} is not a {dim} x {dim} matrix mod {p}")
        vals = vals % p
        keep = vals != 0
        mod._pp[(idx, pe)] = mod.layout.group(rows[keep], cols[keep],
                                              vals[keep])
    return mod


def _get_module(rs: RootSystemData, lam, p: int, size_ceiling: int,
                cache_dir, quiet: bool = False):
    required = int(weyl_dim(rs, lam))
    if required > size_ceiling:
        raise SizeCeilingExceeded(required, size_ceiling)
    if cache_dir is not None:
        mod = load_module(rs, lam, p, cache_dir)
        if mod is not None:
            if not quiet:
                _diag(f"cache hit {cache_key(rs.name, lam, p)}")
            return mod
        fresh = build_weyl_module_p(rs, p, lam)
        key = save_module(fresh, cache_dir)
        if not quiet:
            _diag(f"cache miss, stored {key}")
        return fresh
    return build_weyl_module_p(rs, p, lam)


# ---------------------------------------------------------------------------
# output rendering


def _kv_table(pairs, sep: str = ": ", head=()) -> str:
    lines = [*head, *(f"{k}{sep}{_fmt_bool(v) if isinstance(v, bool) else v}"
                      for k, v in pairs)]
    return "\n".join(lines) + "\n"


def _field_csv(pairs) -> str:
    return _kv_table(pairs, ",", ["field,value"])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_root_system(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    roots = [{"root_coords": list(b), "fund_coords": list(rs.root_fund(b)),
              "height": rs.heights[i]}
             for i, b in enumerate(rs.positive_roots)]
    if cfg.fmt == "json":
        _emit(json.dumps({
            "cartan": rs.name,
            "rank": rs.rank,
            "cartan_matrix": [list(row) for row in rs.cartan_matrix],
            "positive_roots": roots,
            "num_positive_roots": rs.n_positive,
            "tool_version": __version__,
        }))
    elif cfg.fmt == "csv":
        lines = ["index,root_coords,fund_coords,height"]
        for i, r in enumerate(roots):
            lines.append(f"{i},{_fmt_weight(r['root_coords'])},"
                         f"{_fmt_weight(r['fund_coords'])},{r['height']}")
        _emit("\n".join(lines) + "\n")
    else:
        pairs = [("cartan", rs.name), ("rank", rs.rank),
                 ("positive roots", rs.n_positive)]
        body = _kv_table(pairs)
        for r in roots:
            body += (f"  root {_fmt_weight(r['root_coords'])}  "
                     f"fund {_fmt_weight(r['fund_coords'])}  "
                     f"height {r['height']}\n")
        _emit(body)
    return 0


def _cmd_weyl_dim(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    dims = [(w, int(weyl_dim(rs, w))) for w in cfg.weights]
    if cfg.fmt == "json":
        _emit(json.dumps({
            "cartan": rs.name,
            "dims": [{"weight": list(w), "dim": d} for w, d in dims],
            "tool_version": __version__,
        }))
    elif cfg.fmt == "csv":
        lines = ["weight,dim"] + [f"{_fmt_weight(w)},{d}" for w, d in dims]
        _emit("\n".join(lines) + "\n")
    else:
        _emit(_kv_table([("cartan", rs.name)] +
                        [(f"weight {_fmt_weight(w)}", d) for w, d in dims]))
    return 0


def _height_drop_key(rs: RootSystemData, lam):
    def key(item):
        w = item[0]
        diff = tuple(a - b for a, b in zip(lam, w))
        # the drop scaled by cartan_det > 0 sorts like the drop itself
        drop = sum(rs.root_coords_scaled(diff))
        return (drop, tuple(-x for x in w))
    return key


def _cmd_build_module(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    lam = cfg.weights[0]
    mod = _get_module(rs, lam, cfg.p, cfg.size_ceiling, cfg.cache_dir)
    mults = sorted(mod.weight_multiplicities().items(),
                   key=_height_drop_key(rs, lam))
    if cfg.fmt == "json":
        _emit(json.dumps({
            "cartan": rs.name,
            "weight": list(lam),
            "p": cfg.p,
            "dim": mod.dim,
            "num_weights": len(mults),
            "multiplicities": [[list(w), m] for w, m in mults],
            "tool_version": __version__,
        }))
    elif cfg.fmt == "csv":
        lines = ["weight,multiplicity"]
        lines += [f"{_fmt_weight(w)},{m}" for w, m in mults]
        _emit("\n".join(lines) + "\n")
    else:
        pairs = [("cartan", rs.name), ("weight", _fmt_weight(lam)),
                 ("p", cfg.p), ("dim", mod.dim),
                 ("weights", len(mults))]
        body = _kv_table(pairs)
        for w, m in mults:
            body += f"  weight {_fmt_weight(w)}: {m}\n"
        _emit(body)
    return 0


def _cmd_pbw_dims(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    lam = cfg.weights[0]
    mod = _get_module(rs, lam, cfg.p, cfg.size_ceiling, cfg.cache_dir)
    graded = pbw_filtration(mod)
    cum = graded.cumulative_dims()
    if cfg.fmt == "json":
        _emit(json.dumps({
            "cartan": rs.name,
            "weight": list(lam),
            "p": cfg.p,
            "dim": mod.dim,
            "n_top": graded.n_top,
            "graded_dims": list(graded.graded_dims),
            "cumulative_dims": list(cum),
            "tool_version": __version__,
        }))
    elif cfg.fmt == "csv":
        lines = ["n,graded_dim,cumulative_dim"]
        lines += [f"{n},{g},{c}" for n, (g, c)
                  in enumerate(zip(graded.graded_dims, cum))]
        _emit("\n".join(lines) + "\n")
    else:
        _emit(_kv_table([
            ("cartan", rs.name), ("weight", _fmt_weight(lam)),
            ("p", cfg.p), ("dim", mod.dim), ("n_top", graded.n_top),
            ("graded_dims", _fmt_weight(graded.graded_dims)),
            ("cumulative_dims", _fmt_weight(cum))]))
    return 0


def _f0_pairs(rep):
    return [("cartan", rep.cartan), ("p", rep.p),
            ("weight", _fmt_weight(rep.lam)), ("degree", rep.degree),
            ("nonzero", rep.nonzero),
            ("graded_dims", _fmt_weight(rep.graded_dims)),
            ("tool_version", rep.tool_version)]


def _cmd_check_f0(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    sc = chevalley_constants(rs)
    module = None
    if cfg.cache_dir is not None:
        lam = splitting_weight(rs, cfg.p)
        module = _get_module(rs, lam, cfg.p, cfg.size_ceiling, cfg.cache_dir)
    rep = check_f0(rs, sc, cfg.p, size_ceiling=cfg.size_ceiling,
                   module=module)
    if cfg.fmt == "json":
        _emit(rep.to_json())
    elif cfg.fmt == "csv":
        _emit(_field_csv(_f0_pairs(rep)))
    else:
        _emit(_kv_table(_f0_pairs(rep)))
    return 0


def _sweep_task(task):
    name, p, ceiling, cache_dir = task
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    try:
        module = None
        if cache_dir is not None:
            module = _get_module(rs, splitting_weight(rs, p), p, ceiling,
                                 cache_dir, quiet=True)
        rep = check_f0(rs, sc, p, size_ceiling=ceiling, module=module)
        return json.loads(rep.to_json())
    except SizeCeilingExceeded as exc:
        return {"cartan": name, "p": p, "skipped": str(exc)}


def _cmd_check_f0_sweep(cfg: RunConfig, cartans, primes) -> int:
    for name in cartans:
        build_root_system(name)  # unsupported types are user errors
    for p in primes:
        _require_prime(p)
    cache = str(cfg.cache_dir) if cfg.cache_dir is not None else None
    tasks = [(name, p, cfg.size_ceiling, cache)
             for name in cartans for p in primes]
    if cfg.jobs > 1:
        # only this path starts worker processes, so only it pays the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    if cfg.fmt == "json":
        _emit(json.dumps({"tasks": results, "tool_version": __version__}))
    elif cfg.fmt == "csv":
        lines = ["cartan,p,degree,nonzero,skipped"]
        for r in results:
            if "skipped" in r:
                lines.append(f"{r['cartan']},{r['p']},,,{r['skipped']}")
            else:
                lines.append(f"{r['cartan']},{r['p']},{r['degree']},"
                             f"{_fmt_bool(r['nonzero'])},")
        _emit("\n".join(lines) + "\n")
    else:
        body = ""
        for r in results:
            if "skipped" in r:
                body += (f"{r['cartan']} p={r['p']}: "
                         f"skipped ({r['skipped']})\n")
            else:
                body += (f"{r['cartan']} p={r['p']}: nonzero="
                         f"{_fmt_bool(r['nonzero'])} "
                         f"degree={r['degree']}\n")
        _emit(body)
    return 0


def _cmd_check_mult(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    sc = chevalley_constants(rs)
    lam, mu = cfg.weights
    rep = check_mult_surjective(rs, sc, lam, mu, cfg.p,
                               size_ceiling=cfg.size_ceiling)
    if cfg.fmt == "json":
        _emit(rep.to_json())
    elif cfg.fmt == "csv":
        _emit(rep.to_csv())
    else:
        body = _kv_table([
            ("cartan", rep.cartan), ("lambda", _fmt_weight(rep.lam)),
            ("mu", _fmt_weight(rep.mu)), ("p", rep.p)])
        body += "n  phi_dim  meet_dim\n"
        for n, a, b in rep.table:
            body += f"{n}  {a}  {b}\n"
        body += _kv_table([
            ("injective_ungraded", rep.injective_ungraded),
            ("strict", rep.strict),
            ("gr_injective", rep.gr_injective),
            ("verdict_mult_surjective", rep.verdict_mult_surjective)])
        _emit(body)
    return 0


def _cmd_check_gen(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    sc = chevalley_constants(rs)
    rep = check_degree_one_generation(rs, sc, cfg.weights[0], cfg.p,
                                      cfg.n_max,
                                      size_ceiling=cfg.size_ceiling)
    if cfg.fmt == "json":
        _emit(rep.to_json())
    elif cfg.fmt == "csv":
        _emit(rep.to_csv())
    else:
        body = _kv_table([
            ("cartan", rep.cartan), ("lambda", _fmt_weight(rep.lam)),
            ("p", rep.p), ("n_max", rep.n_max)])
        for n, v in rep.per_n:
            body += f"  n={n}: gr_injective={_fmt_bool(v)}\n"
        body += _kv_table([("generated", rep.generated)])
        _emit(body)
    return 0


def _cmd_hilbert(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    sc = chevalley_constants(rs)
    rep = hilbert_function(rs, sc, cfg.weights[0], cfg.p, cfg.n_max,
                           size_ceiling=cfg.size_ceiling)
    if cfg.fmt == "json":
        _emit(rep.to_json())
    elif cfg.fmt == "csv":
        _emit(rep.to_csv())
    else:
        body = _kv_table([
            ("cartan", rep.cartan), ("lambda", _fmt_weight(rep.lam)),
            ("p", rep.p)])
        body += "n  h  weyl_dim\n"
        for n, h, w in rep.values:
            body += f"{n}  {h}  {w}\n"
        _emit(body)
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.cartan)
    lam = cfg.weights[0]
    mod = _get_module(rs, lam, cfg.p, cfg.size_ceiling, None)
    p_wit = validate_relations(mod)
    lat = build_weyl_lattice(rs, lam)
    z_wit = validate_lattice_relations(lat)
    f0_inv = None
    if lam == splitting_weight(rs, cfg.p):
        f0_inv = check_F0_order_invariance(mod, trials=cfg.trials)
    valid = not z_wit and not p_wit and f0_inv is not False
    payload = {
        "cartan": rs.name,
        "weight": list(lam),
        "p": cfg.p,
        "z_witnesses": [asdict(w) for w in z_wit],
        "p_witnesses": [asdict(w) for w in p_wit],
        "f0_order_invariant": f0_inv,
        "valid": valid,
        "tool_version": __version__,
    }
    if cfg.fmt == "json":
        _emit(json.dumps(payload))
    elif cfg.fmt == "csv":
        _emit(_field_csv([
            ("cartan", rs.name), ("weight", _fmt_weight(lam)),
            ("p", cfg.p), ("z_witnesses", len(z_wit)),
            ("p_witnesses", len(p_wit)),
            ("f0_order_invariant",
             "" if f0_inv is None else _fmt_bool(f0_inv)),
            ("valid", valid)]))
    else:
        pairs = [("cartan", rs.name), ("weight", _fmt_weight(lam)),
                 ("p", cfg.p)]
        body = _kv_table(pairs)
        for w in z_wit + p_wit:
            body += f"  witness {w.relation} at {w.basis_index}: {w.detail}\n"
        if f0_inv is not None:
            body += _kv_table([("f0_order_invariant", f0_inv)])
        body += _kv_table([("valid", valid)])
        _emit(body)
    if not valid:
        _diag("validation found defects")
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="pbwdeg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp_, p_flag=True, weight=None, lam_mu=False, n_max=False,
               trials=False, jobs=False, sweep=False, cache=False):
        if weight == "one":
            sp_.add_argument("--weight", required=True)
        elif weight == "many":
            sp_.add_argument("--weight", action="append", required=True)
        if lam_mu:
            sp_.add_argument("--lambda", dest="lam", required=True)
        if lam_mu == "pair":
            sp_.add_argument("--mu", required=True)
        if p_flag:
            sp_.add_argument("--p", type=int, required=True)
        if n_max:
            sp_.add_argument("--n-max", type=int, default=3)
        if trials:
            sp_.add_argument("--trials", type=int, default=5)
        if jobs:
            sp_.add_argument("--jobs", type=int, default=1)
        if sweep:
            sp_.add_argument("--cartans", required=True)
            sp_.add_argument("--primes", required=True)
        else:
            sp_.add_argument("--cartan", required=True)
        sp_.add_argument("--size-ceiling", type=int,
                         default=DEFAULT_SIZE_CEILING)
        sp_.add_argument("--format", choices=("table", "json", "csv"),
                         default="table")
        if cache:
            sp_.add_argument("--cache-dir", default=None)

    common(sub.add_parser("root-system"), p_flag=False)
    common(sub.add_parser("weyl-dim"), p_flag=False, weight="many")
    common(sub.add_parser("build-module"), weight="one", cache=True)
    common(sub.add_parser("pbw-dims"), weight="one", cache=True)
    common(sub.add_parser("check-f0"), cache=True)
    common(sub.add_parser("check-f0-sweep"), p_flag=False, jobs=True,
           sweep=True, cache=True)
    common(sub.add_parser("check-mult"), lam_mu="pair")
    common(sub.add_parser("check-gen"), lam_mu=True, n_max=True)
    common(sub.add_parser("hilbert"), lam_mu=True, n_max=True)
    common(sub.add_parser("validate"), weight="one", trials=True)
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        cartan=getattr(args, "cartan", ""),
        weights=(),
        p=getattr(args, "p", None),
        n_max=getattr(args, "n_max", 3),
        trials=getattr(args, "trials", 5),
        size_ceiling=args.size_ceiling,
        fmt=args.format,
        cache_dir=Path(args.cache_dir) if getattr(args, "cache_dir", None)
        else None,
        jobs=getattr(args, "jobs", 1),
    )


def _resolve_weights(cfg: RunConfig, args) -> RunConfig:
    """Parse weight flags against the rank of the requested system."""
    if cfg.command == "check-f0-sweep":
        return cfg
    rs = build_root_system(cfg.cartan)
    texts = []
    if hasattr(args, "lam"):
        texts.append(args.lam)
        if hasattr(args, "mu"):
            texts.append(args.mu)
    elif getattr(args, "weight", None) is not None:
        w = args.weight
        texts = list(w) if isinstance(w, list) else [w]
    cfg.weights = tuple(_parse_weight(t, rs.rank) for t in texts)
    if cfg.p is not None:
        _require_prime(cfg.p)
    if cfg.command in ("check-gen", "hilbert") and cfg.n_max < 1:
        raise ValueError("n_max must be positive")
    return cfg


_HANDLERS = {
    "root-system": _cmd_root_system,
    "weyl-dim": _cmd_weyl_dim,
    "build-module": _cmd_build_module,
    "pbw-dims": _cmd_pbw_dims,
    "check-f0": _cmd_check_f0,
    "check-mult": _cmd_check_mult,
    "check-gen": _cmd_check_gen,
    "hilbert": _cmd_hilbert,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = _resolve_weights(_config_from(args), args)
        if cfg.command == "check-f0-sweep":
            cartans = [c.strip() for c in args.cartans.split(",") if c.strip()]
            primes = [int(x) for x in args.primes.split(",") if x.strip()]
            return _cmd_check_f0_sweep(cfg, cartans, primes)
        return _HANDLERS[cfg.command](cfg)
    except SizeCeilingExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (NonIntegralDividedPower, RankMismatch, IntegrityError) as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedType, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
