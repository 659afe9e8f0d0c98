"""Command line front end and the content-addressed module cache.

Machine output goes to stdout in one of three formats (table, json, csv);
diagnostics go to stderr.  Exit codes: 0 success, 1 user error or a
cache write that fails, 2 refusal because a requested object exceeds the
size ceiling, 3 internal defect (non-integral divided power, rank mismatch,
a failed exact-arithmetic invariant, or a failed validation).

Cached modules live under <cache-dir>/<key>/ where the key hashes the
tool version, Cartan type, weight and prime; payload files are the
per-index weights and one triplet text file per lowering operator
F_beta^(p^e), and the sha256 map in entry.json is the manifest of them.
Key and manifest are SHA-256 from the interpreter's built-in module, not
hashlib, which maps OpenSSL.  Writes are atomic (temp directory, then
rename) so concurrent sweep jobs can share a cache directory safely; an
entry whose manifest or checksums do not match is a miss and is replaced.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .chevrep import NonIntegralDividedPower, chevalley_constants
from .exactla import _require_prime, read_triplet_text, write_triplet_text
from .pbwgrade import (DEFAULT_SIZE_CEILING, SizeCeilingExceeded, check_f0,
                       check_F0_order_invariance, pbw_filtration)
from .rootsys import (IntegrityError, RootSystemData, UnsupportedType,
                      build_root_system, splitting_weight)
from .weylmod import (ModuleP, RankMismatch, build_weyl_lattice,
                      build_weyl_module_p, validate_lattice_relations,
                      validate_relations, weyl_dim)

if TYPE_CHECKING:
    import argparse

CACHE_FORMAT_VERSION = 3


class CliUsageError(Exception):
    pass


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


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# disk cache


def _sha256(data: bytes) -> str:
    """Hex SHA-256 of data from the built-in module; hashlib maps OpenSSL
    (3.6 MB resident), so it serves only an interpreter built without one."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


def cache_key(cartan: str, weight, p: int) -> str:
    raw = f"{__version__}|{cartan}|{','.join(map(str, weight))}|{p}"
    return _sha256(raw.encode())


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
    # a fresh directory, so no file left by a crashed writer is hashed in
    tmp = Path(tempfile.mkdtemp(dir=cache_dir, prefix=f".tmp-{key}-"))
    try:
        for idx, pe, fname in _stored_ops(mod):
            write_triplet_text(
                tmp / fname, (mod.dim, mod.dim), mod.p,
                *mod.op("F", mod.rs.positive_roots[idx], pe).coo())
        (tmp / "weights.txt").write_text(_lines(mod.weights, " "))
        sha256 = {f.name: _sha256(f.read_bytes())
                  for f in sorted(tmp.iterdir())}
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
            pass  # a concurrent writer won
    finally:
        # gone after a rename; after a failed write, no half entry is left
        shutil.rmtree(tmp, ignore_errors=True)
    return key


def _checked(path: Path, sha256: dict) -> str:
    """The file's text, decoded from the bytes whose checksum matched."""
    data = path.read_bytes()
    if _sha256(data) != sha256[path.name]:
        raise ValueError(f"{path.name} fails its checksum")
    return data.decode()


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
               _checked(path / "weights.txt", sums).splitlines()]
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
    if cache_dir:
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


def _cell(v) -> str:
    """One table or CSV cell: true/false, a sequence space-separated, None
    empty."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return " ".join(map(str, v))
    return str(v)


def _lines(rows, sep: str = ",") -> str:
    """One line per row, its cells joined by sep: CSV rows, aligned table
    rows, or key-value pairs with sep ": "."""
    return "".join(sep.join(map(_cell, row)) + "\n" for row in rows)


def _show(fmt: str, payload: dict, csv: str, table: str) -> None:
    """Write one command's output in the requested format."""
    if fmt == "json":
        sys.stdout.write(json.dumps({**payload,
                                     "tool_version": __version__}) + "\n")
    else:
        sys.stdout.write(csv if fmt == "csv" else table)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_root_system(args) -> int:
    rs = build_root_system(args.cartan)
    roots = [(b, rs.root_fund(b), rs.heights[i])
             for i, b in enumerate(rs.positive_roots)]
    payload = {
        "cartan": rs.name,
        "rank": rs.rank,
        "cartan_matrix": rs.cartan_matrix,
        "positive_roots": [{"root_coords": b, "fund_coords": f, "height": h}
                           for b, f, h in roots],
        "num_positive_roots": rs.n_positive,
    }
    csv = _lines([("index", "root_coords", "fund_coords", "height"),
                  *((i, *r) for i, r in enumerate(roots))])
    table = _lines([("cartan", rs.name), ("rank", rs.rank),
                    ("positive roots", rs.n_positive)], ": ")
    table += "".join(f"  root {_cell(b)}  fund {_cell(f)}  height {h}\n"
                     for b, f, h in roots)
    _show(args.format, payload, csv, table)
    return 0


def _cmd_weyl_dim(args) -> int:
    rs = build_root_system(args.cartan)
    dims = [(w, int(weyl_dim(rs, w))) for w in args.weights]
    payload = {"cartan": rs.name,
               "dims": [{"weight": w, "dim": d} for w, d in dims]}
    csv = _lines([("weight", "dim"), *dims])
    table = _lines([("cartan", rs.name),
                    *((f"weight {_cell(w)}", d) for w, d in dims)], ": ")
    _show(args.format, payload, csv, table)
    return 0


def _cmd_build_module(args) -> int:
    rs = build_root_system(args.cartan)
    lam = args.weights[0]
    mod = _get_module(rs, lam, args.p, args.size_ceiling, args.cache_dir)
    mults = list(mod.weight_multiplicities().items())
    payload = {"cartan": rs.name, "weight": lam, "p": args.p, "dim": mod.dim,
               "num_weights": len(mults), "multiplicities": mults}
    csv = _lines([("weight", "multiplicity"), *mults])
    table = _lines([("cartan", rs.name), ("weight", lam), ("p", args.p),
                    ("dim", mod.dim), ("weights", len(mults))], ": ")
    table += "".join(f"  weight {_cell(w)}: {m}\n" for w, m in mults)
    _show(args.format, payload, csv, table)
    return 0


def _cmd_pbw_dims(args) -> int:
    rs = build_root_system(args.cartan)
    lam = args.weights[0]
    mod = _get_module(rs, lam, args.p, args.size_ceiling, args.cache_dir)
    graded = pbw_filtration(mod)
    cum = graded.cumulative_dims()
    payload = {"cartan": rs.name, "weight": lam, "p": args.p, "dim": mod.dim,
               "n_top": graded.n_top, "graded_dims": graded.graded_dims,
               "cumulative_dims": cum}
    csv = _lines([("n", "graded_dim", "cumulative_dim"),
                  *((n, g, c) for n, (g, c)
                    in enumerate(zip(graded.graded_dims, cum)))])
    _show(args.format, payload, csv, _lines(payload.items(), ": "))
    return 0


def _f0_payload(rep) -> dict:
    return {"cartan": rep.cartan, "p": rep.p, "weight": rep.lam,
            "degree": rep.degree, "nonzero": rep.nonzero,
            "graded_dims": rep.graded_dims}


def _cmd_check_f0(args) -> int:
    rs = build_root_system(args.cartan)
    sc = chevalley_constants(rs)
    module = None
    if args.cache_dir:
        lam = splitting_weight(rs, args.p)
        module = _get_module(rs, lam, args.p, args.size_ceiling,
                             args.cache_dir)
    rep = check_f0(rs, sc, args.p, size_ceiling=args.size_ceiling,
                   module=module)
    payload = _f0_payload(rep)
    pairs = [*payload.items(), ("tool_version", __version__)]
    _show(args.format, payload, _lines([("field", "value"), *pairs]),
          _lines(pairs, ": "))
    return 0


def _sweep_task(task):
    """The F0Report of one (type, prime), or the reason it was skipped."""
    name, p, ceiling, cache_dir = task
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    try:
        module = None
        if cache_dir:
            module = _get_module(rs, splitting_weight(rs, p), p, ceiling,
                                 cache_dir, quiet=True)
        return check_f0(rs, sc, p, size_ceiling=ceiling, module=module)
    except SizeCeilingExceeded as exc:
        return str(exc)


def _cmd_check_f0_sweep(args) -> int:
    cartans = [c.strip() for c in args.cartans.split(",") if c.strip()]
    primes = [int(x) for x in args.primes.split(",") if x.strip()]
    if not cartans or not primes:
        raise ValueError("a sweep needs at least one Cartan type and one "
                         "prime")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    for name in cartans:
        build_root_system(name)  # unsupported types are user errors
    for p in primes:
        _require_prime(p)
    # each distinct (type, prime) once, in the order first listed
    tasks = list(dict.fromkeys((name, p, args.size_ceiling, args.cache_dir)
                               for name in cartans for p in primes))
    if args.jobs > 1:
        # only this path starts worker processes, so only it pays the import
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its workers at once: no more than tasks
        with ProcessPoolExecutor(max_workers=min(args.jobs,
                                                 len(tasks))) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    payload, table = [], ""
    rows = [("cartan", "p", "degree", "nonzero", "skipped")]
    for (name, p, *_), r in zip(tasks, results):
        if isinstance(r, str):
            payload.append({"cartan": name, "p": p, "skipped": r})
            rows.append((name, p, None, None, r))
            table += f"{name} p={p}: skipped ({r})\n"
        else:
            payload.append({**_f0_payload(r), "tool_version": __version__})
            rows.append((name, p, r.degree, r.nonzero, None))
            table += (f"{name} p={p}: nonzero={_cell(r.nonzero)} "
                      f"degree={r.degree}\n")
    _show(args.format, {"tasks": payload}, _lines(rows), table)
    return 0


def _cmd_check_mult(args) -> int:
    # degenring loads only for check-mult, check-gen and hilbert
    from .degenring import check_mult_surjective
    rs = build_root_system(args.cartan)
    sc = chevalley_constants(rs)
    lam, mu = args.weights
    rep = check_mult_surjective(rs, sc, lam, mu, args.p,
                                size_ceiling=args.size_ceiling)
    flags = [("injective_ungraded", rep.injective_ungraded),
             ("strict", rep.strict), ("gr_injective", rep.gr_injective),
             ("verdict_mult_surjective", rep.verdict_mult_surjective)]
    payload = {"cartan": rep.cartan, "p": rep.p, "lambda": rep.lam,
               "mu": rep.mu, **dict(flags), "table": rep.table,
               "note": rep.note}
    head = ("n", "phi_dim", "meet_dim")
    table = (_lines([("cartan", rep.cartan), ("lambda", rep.lam),
                     ("mu", rep.mu), ("p", rep.p)], ": ")
             + _lines([head, *rep.table], "  ") + _lines(flags, ": "))
    _show(args.format, payload, _lines([head, *rep.table]), table)
    return 0


def _cmd_check_gen(args) -> int:
    from .degenring import check_degree_one_generation
    rs = build_root_system(args.cartan)
    sc = chevalley_constants(rs)
    rep = check_degree_one_generation(rs, sc, args.weights[0], args.p,
                                      args.n_max,
                                      size_ceiling=args.size_ceiling)
    payload = {"cartan": rep.cartan, "p": rep.p, "lambda": rep.lam,
               "n_max": rep.n_max, "per_n": rep.per_n,
               "generated": rep.generated}
    table = (_lines([("cartan", rep.cartan), ("lambda", rep.lam),
                     ("p", rep.p), ("n_max", rep.n_max)], ": ")
             + "".join(f"  n={n}: gr_injective={_cell(v)}\n"
                       for n, v in rep.per_n)
             + _lines([("generated", rep.generated)], ": "))
    _show(args.format, payload, _lines([("n", "gr_injective"), *rep.per_n]),
          table)
    return 0


def _cmd_hilbert(args) -> int:
    from .degenring import hilbert_function
    rs = build_root_system(args.cartan)
    sc = chevalley_constants(rs)
    rep = hilbert_function(rs, sc, args.weights[0], args.p, args.n_max,
                           size_ceiling=args.size_ceiling)
    payload = {"cartan": rep.cartan, "p": rep.p, "lambda": rep.lam,
               "n_max": rep.n_max, "values": rep.values,
               "profiles": rep.profiles}
    head = ("n", "h", "weyl_dim")
    table = (_lines([("cartan", rep.cartan), ("lambda", rep.lam),
                     ("p", rep.p)], ": ")
             + _lines([head, *rep.values], "  "))
    _show(args.format, payload, _lines([head, *rep.values]), table)
    return 0


def _cmd_validate(args) -> int:
    rs = build_root_system(args.cartan)
    lam = args.weights[0]
    mod = _get_module(rs, lam, args.p, args.size_ceiling, None)
    p_wit = validate_relations(mod)
    lat = build_weyl_lattice(rs, lam)
    z_wit = validate_lattice_relations(lat)
    f0_inv = None
    if lam == splitting_weight(rs, args.p):
        f0_inv = check_F0_order_invariance(mod, trials=args.trials)
    valid = not z_wit and not p_wit and f0_inv is not False
    payload = {
        "cartan": rs.name,
        "weight": lam,
        "p": args.p,
        "z_witnesses": [asdict(w) for w in z_wit],
        "p_witnesses": [asdict(w) for w in p_wit],
        "f0_order_invariant": f0_inv,
        "valid": valid,
    }
    csv = _lines([("field", "value"), ("cartan", rs.name), ("weight", lam),
                  ("p", args.p), ("z_witnesses", len(z_wit)),
                  ("p_witnesses", len(p_wit)),
                  ("f0_order_invariant", f0_inv), ("valid", valid)])
    table = _lines([("cartan", rs.name), ("weight", lam), ("p", args.p)],
                   ": ")
    for w in z_wit + p_wit:
        table += f"  witness {w.relation} at {w.basis_index}: {w.detail}\n"
    if f0_inv is not None:
        table += _lines([("f0_order_invariant", f0_inv)], ": ")
    table += _lines([("valid", valid)], ": ")
    _show(args.format, payload, csv, table)
    if not valid:
        _diag("validation found defects")
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argparse that reports usage problems as exceptions, not exits."""

        def error(self, message):
            raise CliUsageError(message)

    parser = _Parser(prog="pbwdeg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, p_flag=True, weight=None, lam_mu=False,
                n_max=False, trials=False, jobs=False, sweep=False,
                cache=False):
        sp_ = sub.add_parser(name)
        sp_.set_defaults(run=run)
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

    command("root-system", _cmd_root_system, p_flag=False)
    command("weyl-dim", _cmd_weyl_dim, p_flag=False, weight="many")
    command("build-module", _cmd_build_module, weight="one", cache=True)
    command("pbw-dims", _cmd_pbw_dims, weight="one", cache=True)
    command("check-f0", _cmd_check_f0, cache=True)
    command("check-f0-sweep", _cmd_check_f0_sweep, p_flag=False, jobs=True,
            sweep=True, cache=True)
    command("check-mult", _cmd_check_mult, lam_mu="pair")
    command("check-gen", _cmd_check_gen, lam_mu=True, n_max=True)
    command("hilbert", _cmd_hilbert, lam_mu=True, n_max=True)
    command("validate", _cmd_validate, weight="one", trials=True)
    return parser


def _join_option_values(argv: list[str]) -> list[str]:
    """Write `--weight -1,1` as `--weight=-1,1`.

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number, so a comma list such as -1,1 would never reach
    _parse_weight.  Every option takes a value and no option starts with a
    digit, so a token of "-" and a digit after an option is its value.
    """
    out: list[str] = []
    for tok in argv:
        opt = out[-1] if out else ""
        if (opt[:2] == "--" and len(opt) > 2 and "=" not in opt
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _resolve_weights(args) -> None:
    """Parse the weight flags against the rank of the requested system into
    args.weights, and refuse a composite p, a count that means nothing or a
    cache directory that cannot be made."""
    if args.size_ceiling < 1:
        raise ValueError("--size-ceiling must be at least 1, not "
                         f"{args.size_ceiling}")
    if hasattr(args, "cartan"):  # a sweep names its types in --cartans
        rank = build_root_system(args.cartan).rank
        texts = [getattr(args, k) for k in ("lam", "mu") if hasattr(args, k)]
        w = getattr(args, "weight", [])
        texts += w if isinstance(w, list) else [w]
        args.weights = tuple(_parse_weight(t, rank) for t in texts)
    if getattr(args, "p", None) is not None:
        _require_prime(args.p)
    if getattr(args, "n_max", 1) < 1:
        raise ValueError("n_max must be positive")
    if getattr(args, "trials", 0) < 0:
        raise ValueError(f"--trials must be at least 0, not {args.trials}")
    if getattr(args, "cache_dir", None):
        # refused here, before a build, not in save_module after one
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--cache-dir {args.cache_dir!r} cannot be "
                             f"made a directory ({exc.strerror})") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_option_values(
            sys.argv[1:] if argv is None else list(argv)))
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _resolve_weights(args)
        return args.run(args)
    except SizeCeilingExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"refused: out of memory{': ' if str(exc) else ''}{exc}",
              file=sys.stderr)
        return 2
    except (NonIntegralDividedPower, RankMismatch, IntegrityError) as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedType, ValueError, OSError) as exc:
        # OSError: the cache directory could not take a module
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
