"""Batch front end: compute, sweep, and export plot-ready data.

One subcommand per analysis::

    pwl-rotor rho       --config job.json          # rotation number of one map
    pwl-rotor sweep     --config job.json -o out.csv --workers 8
    pwl-rotor conjugacy --config job.json          # verdict + h + density
    pwl-rotor scaling   --config job.json          # R1 report + residuals
    pwl-rotor modelock  --config job.json          # locked-interval edges
    pwl-rotor pinch     --config job.json -o wedge.csv

Job files are strict JSON: a ``family`` object in the families schema
plus the command's own options; unknown keys are rejected.  CSV output
is deterministic (same config, any worker count, byte-identical) and
carries a comment line with the backend and tolerances in force.

Exit codes: 0 success; 2 bad config or parameter out of domain; 3 size
limit exceeded (the piece cap of a composition, or an exact result too
large to print) or float precision loss; 4 conjugacy required but absent; 5
mode-locking bracket does not straddle the interval.  Set ``PWL_ROTOR_LOG=debug`` (or info,
warning, ...) for progress logging on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import errors
from .backend import to_json
from .conjugacy import Q_CAP, Conjugate, build_conjugacy, invariant_density, is_conjugate_to_rigid
from .families import FamilySpec, _decode_param, family_from_json, herman_offset_family
from .rotation import birkhoff_enclosure, birkhoff_enclosures, exact_rotation, mode_lock_interval
from .scaling import M_FIT, SAMPLES, WINDOW, pinch_boundaries, r1, scaling_residual

log = logging.getLogger("pwlrotor.cli")


class ConfigError(ValueError):
    """The job file is malformed: missing, unknown, or ill-typed keys."""


_SCHEMAS = {
    "rho": ({"family", "mu"}, {"m", "q_max", "x0"}),
    "sweep": ({"family", "mu_min", "mu_max"}, {"points", "m", "x0"}),
    "conjugacy": ({"family", "mu"}, {"q_cap"}),
    "scaling": ({"family", "mu_c"}, {"h_fit", "m_fit", "window", "samples", "residual", "q_cap"}),
    "modelock": ({"family", "p", "q", "bracket"}, {"tol"}),
    "pinch": ({"family", "p", "q", "d_grid", "mu_bracket"}, {"tol"}),
}

_CSV_COMMANDS = {"sweep", "pinch"}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _validate_keys(command: str, cfg: dict) -> None:
    required, optional = _SCHEMAS[command]
    missing = required - set(cfg)
    unknown = set(cfg) - required - optional
    if missing:
        raise ConfigError("%s config missing keys: %s" % (command, sorted(missing)))
    if unknown:
        raise ConfigError("%s config has unknown keys: %s" % (command, sorted(unknown)))


def _build_family(cfg: dict, backend: Optional[str]) -> FamilySpec:
    try:
        return family_from_json(cfg["family"], backend=backend)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _number(key, v):
    """``v``, a finite JSON number or an exact ``"p/q"`` string, as a scalar."""
    finite = not isinstance(v, float) or math.isfinite(v)
    if isinstance(v, (int, float, str)) and not isinstance(v, bool) and finite:
        try:
            return _decode_param(key, v)
        except ValueError:
            pass
    raise ConfigError("%s must be a number or a 'p/q' string, got %s" % (key, json.dumps(v)))


def _scalar(cfg, key, default=None):
    return _number(key, cfg[key]) if key in cfg else default


def _positive(cfg, key, coerce, default=None):
    """``cfg[key]`` (or ``default``) as ``coerce`` makes it for the computation
    that reads it, where it must be positive: one that rounds to 0.0 is not."""
    v = _scalar(cfg, key, default)
    v = None if v is None else coerce(v)
    if v is not None and not v > 0:
        raise ConfigError("%s must be positive, got %s" % (key, json.dumps(cfg[key])))
    return v


def _int_option(cfg, key, default, minimum=1):
    v = cfg.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError("%s must be an integer >= %d" % (key, minimum))
    return v


def _pair(cfg, key):
    v = cfg.get(key)
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError("%s must be a two-element array" % key)
    return _number(key, v[0]), _number(key, v[1])


def _csv_text(tool: str, meta: dict, header, rows) -> str:
    """CSV with a comment line of ``meta``: a ``None`` cell is empty, any
    other is ``repr(float(cell))``."""
    items = " ".join("%s=%s" % (k, v) for k, v in meta.items())
    lines = ["# pwl-rotor %s %s" % (tool, items), ",".join(header)]
    for row in rows:
        lines.append(",".join("" if cell is None else repr(float(cell)) for cell in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- rho

def cmd_rho(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    mu = family.backend.coerce(_scalar(cfg, "mu"))
    q_max = _int_option(cfg, "q_max", 10_000)
    m = _int_option(cfg, "m", 100_000)
    x0 = _scalar(cfg, "x0", 0)
    f = family.lift(mu)
    rr = exact_rotation(f, q_max=q_max)
    enc = birkhoff_enclosure(f, m, x0=x0)
    return _dump_json({"mu": mu, "rotation": rr, "birkhoff": enc})


def _dump_json(payload) -> str:
    return json.dumps(to_json(payload), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------- sweep

def _error_text(exc) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _sweep_chunk(payload):
    """``(lo, hi, error)`` for each mu of one contiguous chunk of the grid.

    The family is rebuilt once per chunk, and the orbits of all its lifts
    run as one :func:`birkhoff_enclosures` batch.  A mu whose lift raises
    gets an error in place of bounds.
    """
    fam_json, backend, mus, m, x0 = payload
    family = family_from_json(fam_json, backend=backend)
    rows = [None] * len(mus)
    lifts, lanes = [], []
    for i, mu in enumerate(mus):
        try:
            lifts.append(family.lift(mu))
            lanes.append(i)
        except errors.PwlError as exc:
            rows[i] = (None, None, _error_text(exc))
    for i, enc in zip(lanes, birkhoff_enclosures(lifts, m, x0=x0)):
        rows[i] = (float(enc.lo), float(enc.hi), None)
    return rows


def cmd_sweep(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    mu_min = family.backend.coerce(_scalar(cfg, "mu_min"))
    mu_max = family.backend.coerce(_scalar(cfg, "mu_max"))
    points = _int_option(cfg, "points", 1000)
    m = _int_option(cfg, "m", 100_000)
    x0 = family.backend.coerce(_scalar(cfg, "x0", 0))
    if mu_max < mu_min:
        raise ConfigError("mu_max must be >= mu_min")

    if points == 1:
        grid = [mu_min]
    else:
        step = (mu_max - mu_min) / (points - 1)
        grid = [mu_min + i * step for i in range(points)]

    fam_json = family.to_json()
    workers = min(workers, points)
    chunks = [(fam_json, family.backend.tag, grid[i * points // workers:(i + 1) * points // workers],
               m, x0) for i in range(workers)]
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_sweep_chunk, chunks, chunksize=1)
    else:
        parts = [_sweep_chunk(chunks[0])]
    results = [r for part in parts for r in part]

    rows = []
    for mu, (lo, hi, err) in zip(grid, results):
        if err is not None:
            log.warning("sweep point mu=%s failed: %s", mu, err)
        rows.append((mu, lo, hi))

    meta = family.backend.describe()
    meta.update(m=m, points=points, seed="none")
    if fmt == "json":
        return _dump_json(
            {
                "meta": {k: str(v) for k, v in meta.items()},
                "rows": [[float(mu), lo, hi] for mu, lo, hi in rows],
            }
        )
    return _csv_text("sweep", meta, ("mu", "rho_lo", "rho_hi"), rows)


# ----------------------------------------------------------- conjugacy

def cmd_conjugacy(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    mu = family.backend.coerce(_scalar(cfg, "mu"))
    q_cap = _int_option(cfg, "q_cap", Q_CAP)
    f = family.lift(mu)
    verdict = is_conjugate_to_rigid(f, q_cap=q_cap)
    payload = {"mu": mu, "verdict": verdict}
    if isinstance(verdict, Conjugate):
        payload["h"] = build_conjugacy(f, partition=verdict.partition)
        payload["invariant_density"] = invariant_density(f, partition=verdict.partition)
    return _dump_json(payload)


# ------------------------------------------------------------- scaling

def cmd_scaling(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    mu_c = _scalar(cfg, "mu_c")
    h_fit = _positive(cfg, "h_fit", float)
    m_fit = _int_option(cfg, "m_fit", M_FIT)
    q_cap = _int_option(cfg, "q_cap", Q_CAP)
    window = _positive(cfg, "window", float, WINDOW)
    samples = _int_option(cfg, "samples", SAMPLES)
    residual = cfg.get("residual", True)
    if not isinstance(residual, bool):
        raise ConfigError("residual must be true or false, got %s" % json.dumps(residual))
    rep = r1(family, mu_c, h_fit=h_fit, m_fit=m_fit, q_cap=q_cap)
    payload = {"scaling": rep}
    if residual:
        payload["residual"] = scaling_residual(family, rep, window, samples, m_fit)
    return _dump_json(payload)


# ------------------------------------------------------------ modelock

def cmd_modelock(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    p = _int_option(cfg, "p", None, minimum=-(10**9))
    q = _int_option(cfg, "q", None)
    bracket = _pair(cfg, "bracket")
    tol = _positive(cfg, "tol", lambda v: family.backend.coerce(Fraction(v)))
    mli = mode_lock_interval(family, p, q, bracket, tol=tol)
    return _dump_json(mli)


# --------------------------------------------------------------- pinch

def cmd_pinch(cfg: dict, family: FamilySpec, fmt: str, workers: int) -> str:
    if family.name != "herman_offset":
        raise ConfigError("pinch requires the herman_offset family")
    if family.params["d"] != 0:
        raise ConfigError("pinch sweeps d over d_grid; the family's d must be 0 (got %s)"
                          % (family.params["d"],))
    p = _int_option(cfg, "p", None, minimum=-(10**9))
    q = _int_option(cfg, "q", None)
    d_grid = cfg.get("d_grid")
    if not isinstance(d_grid, list) or not d_grid:
        raise ConfigError("d_grid must be a non-empty array")
    d_grid = [_number("d_grid", d) for d in d_grid]
    mu_bracket = _pair(cfg, "mu_bracket")
    tol = _positive(cfg, "tol", lambda v: family.backend.coerce(Fraction(v)))
    two = herman_offset_family(family.params["lam"], backend=family.backend)
    rep = pinch_boundaries(two, (p, q), d_grid, mu_bracket, tol=tol)
    if fmt == "json":
        return _dump_json(rep)
    meta = family.backend.describe()
    meta.update(p=p, q=q, tol=repr(float(rep.tol)), seed="none")
    rows = [(r.d, r.lo, r.hi) for r in rep.rows]
    return _csv_text("pinch", meta, ("d", "mu_lo", "mu_hi"), rows)


_HANDLERS = {
    "rho": cmd_rho,
    "sweep": cmd_sweep,
    "conjugacy": cmd_conjugacy,
    "scaling": cmd_scaling,
    "modelock": cmd_modelock,
    "pinch": cmd_pinch,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pwl-rotor",
        description="Rotation numbers, conjugacies, and scaling for PWL circle maps.",
    )
    ap.add_argument("command", choices=sorted(_HANDLERS))
    ap.add_argument("--config", required=True, help="job file (JSON)")
    ap.add_argument("-o", "--out", default=None, help="output path (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--backend", choices=("rational", "float"), default=None)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("PWL_ROTOR_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    args = _parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2

    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.command in _CSV_COMMANDS else "json"
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        print("error: %s has no CSV form" % args.command, file=sys.stderr)
        return 2

    try:
        cfg = _load_config(args.config)
        _validate_keys(args.command, cfg)
        family = _build_family(cfg, args.backend)
        out = _HANDLERS[args.command](cfg, family, fmt, args.workers)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except errors.OutOfDomain as exc:
        print("error: parameter out of domain: %s" % exc, file=sys.stderr)
        return 2
    except errors.Overflow as exc:
        print("error: size limit exceeded: %s" % exc, file=sys.stderr)
        return 3
    except errors.PrecisionLoss as exc:
        print("error: float precision lost: %s" % exc, file=sys.stderr)
        return 3
    except errors.NotConjugateError as exc:
        print("error: not conjugate: %s" % exc, file=sys.stderr)
        return 4
    except errors.NotBracketed as exc:
        print("error: bracket does not straddle: %s" % exc, file=sys.stderr)
        return 5
    except errors.PwlError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
