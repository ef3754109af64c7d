"""Command line interface.

Subcommands:

  run       evolve a configured problem; write ledger.csv + summary.json
            (+ snapshots.npz, + SVG plots on request)
  verify    run, then apply the bookkeeping checks (conservation,
            channel additivity, channel monotonicity, pointwise bounds,
            triangle residuals); exit 1 if any check fails
  sweep     repeat a run along one config axis, in parallel
  appendix  the slow-decay power-law example study (report + plots)
  fit       power-law or logarithmic-growth fit on ledger.csv columns

Config files are flat "dotted.key = value" lines; '#' starts a comment.
Values may be numbers (fractions like 1/256 work), booleans, bare
strings, comma-separated lists, and colon pairs for triangle probes
("t0:r0").  Each key's reader and default are in KEYS.  Every value is
checked when the config is read, at keys the run does not use too;
unknown keys are rejected, missing required keys reported by name.

Exit codes: 0 success, 1 a verify check failed, 2 config problem
(initial data or monitors that do not fit the grid included, all found
before the first step), 3 any other lab error (blowup, divergent
integral...).
"""

import argparse
import concurrent.futures  # ProcessPoolExecutor and multiprocessing load on first use
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .appendix import run_appendix_example
from .diagnostics import flux_inward, flux_outward, pointwise_bounds, triangle_residual
from .errors import ConfigError, InitialDataError, NlwError, OffGridError, ShortSpanError
from .model import (
    AppendixPowerLaw,
    DirectedPulse,
    GaussianBump,
    Tabulated,
    make_params,
)
from .numerics import MIN_FIT_POINTS, fit_log_growth, fit_power_law, grid_index, is_number
from .scattering import extract_g_plus
from .solver import GridSpec, Monitors, evolve, plan_run
from .svgplot import line_plot

SCHEMA_VERSION = "1"
_CSV_BLOCK = 256  # ledger rows formatted per write


def parse_scalar(text):
    """One config token: bool, int, float (fractions allowed), or string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            return s
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def load_config(path):
    """Read a flat key = value file into a raw-string dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    raw = {}
    for ln, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        raw[key] = value
    return raw


def _number(key, text):
    v = parse_scalar(text)
    if not is_number(v):
        raise ConfigError(f"{key} must be a number, got {text!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return float(v)


def _stride(key, text):
    v = _number(key, text)
    if abs(v - round(v)) > 1e-9:
        raise ConfigError(f"{key} must be an integer, got {text!r}")
    if v < 1:
        raise ConfigError(f"{key} must be at least 1, got {text!r}")
    return int(round(v))


def _string(key, text):
    return text


def _boolean(key, text):
    v = parse_scalar(text)
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be a boolean, got {text!r}")
    return v


def _scalars(key, text):
    return tuple(parse_scalar(x) for x in text.split(","))


def _numbers(key, text):
    out = []
    for v in _scalars(key, text):
        if not (is_number(v) and math.isfinite(v)):
            raise ConfigError(f"{key} must list finite numbers, got {v!r}")
        out.append(float(v))
    return tuple(out)


def _pairs(key, text):
    out = []
    for item in text.split(","):
        a, sep, b = item.strip().partition(":")
        va, vb = parse_scalar(a), parse_scalar(b)
        if not (sep and all(is_number(v) and math.isfinite(v) for v in (va, vb))):
            raise ConfigError(f"{key}: expected 't0:r0', got {item.strip()!r}")
        out.append((float(va), float(vb)))
    return tuple(out)


REQUIRED = object()  # the default of a key that has none

KEYS = {  # key -> (reader, default)
    "params.p": (_number, REQUIRED),
    "params.kappa": (_number, 0.5),
    "grid.h": (_number, REQUIRED),
    "grid.t_max": (_number, REQUIRED),
    "grid.r_max": (_number, None),  # None: GridSpec.padded
    "data.family": (_string, REQUIRED),
    "data.amplitude": (_number, REQUIRED),
    "data.center": (_number, REQUIRED),
    "data.width": (_number, REQUIRED),
    "data.direction": (_string, "inward"),
    "data.c": (_number, REQUIRED),
    "data.path": (_string, REQUIRED),
    "monitors.radii": (_scalars, ()),
    "monitors.flux_s": (_numbers, ()),
    "monitors.flux_tau": (_numbers, ()),
    "monitors.char_tau": (_numbers, ()),
    "monitors.triangles": (_pairs, ()),
    "monitors.triangles_out": (_pairs, ()),
    "monitors.snapshots": (_numbers, ()),
    "run.linear": (_boolean, False),
    "output.stride": (_stride, 1),
    "output.plots": (_boolean, False),
}


class Config:
    """A raw config dict whose every value its KEYS reader parses and
    checks when the Config is built, read or not; cfg[key] is the value,
    or the key's default."""

    def __init__(self, raw):
        unknown = sorted(set(raw) - set(KEYS))
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(unknown))
        self.raw = dict(raw)
        self.values = {key: KEYS[key][0](key, text) for key, text in self.raw.items()}

    def __getitem__(self, key):
        value = self.values.get(key, KEYS[key][1])
        if value is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return value


# -- problem construction ----------------------------------------------------


def build_family(cfg, params):
    kind = cfg["data.family"]
    if kind == "gaussian":
        return GaussianBump(cfg["data.amplitude"], cfg["data.center"], cfg["data.width"])
    if kind == "pulse":
        return DirectedPulse(cfg["data.amplitude"], cfg["data.center"], cfg["data.width"],
                             cfg["data.direction"])
    if kind == "power_law":
        return AppendixPowerLaw(cfg["data.c"], params)
    if kind == "file":
        path = cfg["data.path"]
        try:
            with np.load(path) as z:
                return Tabulated(z["w0"], z["w1"], float(z["h"]))
        except (OSError, KeyError) as err:
            raise ConfigError(f"cannot load data from {path}: {err}") from err
    raise ConfigError(f"unknown data.family {kind!r}")


def build_grid(cfg, family):
    """grid.r_max with an outgoing boundary, or by default GridSpec.padded
    past the data's support."""
    h, t_max, r_max = cfg["grid.h"], cfg["grid.t_max"], cfg["grid.r_max"]
    if r_max is not None:
        return GridSpec(h=h, r_max=r_max, t_max=t_max, boundary="outgoing")
    support = family.support_radius()
    if support is None:
        raise ConfigError("the data family has an unbounded tail; set grid.r_max")
    return GridSpec.padded(h, t_max, support)


def set_up(cfg):
    """The run a config asks for, checked whole before any data are
    sampled: (params, family, grid, monitors, linear).  Whatever building
    them or solver.plan_run raises is a ConfigError (exit 2)."""
    try:
        params = make_params(cfg["params.p"], cfg["params.kappa"])
        family = build_family(cfg, params)
        grid = build_grid(cfg, family)
        monitors = Monitors(
            radii=cfg["monitors.radii"],
            flux_s=cfg["monitors.flux_s"],
            flux_tau=cfg["monitors.flux_tau"],
            char_tau=cfg["monitors.char_tau"],
            triangles=cfg["monitors.triangles"],
            triangles_out=cfg["monitors.triangles_out"],
            snapshot_times=cfg["monitors.snapshots"],
        )
        linear = cfg["run.linear"]
        plan_run(grid, monitors, family.far_field() is not None, linear)
    except NlwError as err:
        raise ConfigError(str(err)) from err
    return params, family, grid, monitors, linear


def run_problem(cfg):
    """Set up, sample and evolve; returns (trajectory, elapsed_seconds, data_desc)."""
    params, family, grid, monitors, linear = set_up(cfg)
    pair = family.sample(grid)
    desc = {
        key.split(".", 1)[1]: parse_scalar(value)
        for key, value in cfg.raw.items()
        if key.startswith("data.")
    }
    start = time.perf_counter()
    traj = evolve(pair, params, grid, monitors, linear=linear)
    return traj, time.perf_counter() - start, desc


# -- output writers ----------------------------------------------------------


def _radius_tag(label):
    return "t4" if label == "t/4" else f"{float(label):g}"


def write_ledger_csv(path, traj, stride=1):
    """Every stride-th level and the last of the ledger as csv.writer writes
    the cells f"{x:.12g}", formatted _CSV_BLOCK rows at a time."""
    led = traj.ledger
    stride = max(1, int(stride))
    cols = ["t", "E_total", "E_minus", "E_plus", "xi", "bulk", "y2p", "exterior_l2p2"]
    series = [getattr(led, col.lower()) for col in cols]  # the ledger's names
    for label, (tot, mn, pl) in led.radii.items():
        tag = _radius_tag(label)
        cols += [f"E_total_r{tag}", f"E_minus_r{tag}", f"E_plus_r{tag}"]
        series += [tot, mn, pl]
    levels = np.arange(0, led.t.size, stride)
    if levels[-1] != led.t.size - 1:
        levels = np.append(levels, led.t.size - 1)
    row = ",".join(["%.12g"] * len(cols)) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(cols)
        for lo in range(0, levels.size, _CSV_BLOCK):
            block = np.stack([arr[levels[lo : lo + _CSV_BLOCK]] for arr in series], axis=1)
            fh.write("".join([row % tuple(cells) for cells in block.tolist()]))
    return levels.size


def write_snapshots_npz(path, traj):
    if not traj.snapshots:
        return
    np.savez_compressed(
        path,
        t=np.array([s.t for s in traj.snapshots]),
        w=np.stack([s.w_curr for s in traj.snapshots]),
        w_t=np.stack([s.w_t for s in traj.snapshots]),
        h=np.array(traj.grid.h),
    )


def _jsonable(obj):
    """Recursively convert to JSON-safe types; non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _g_plus(traj, tau):
    """A trace's g_+ and rate, or None where too few dyadic samples fit."""
    try:
        trace = extract_g_plus(traj, tau)
    except ShortSpanError:
        return None
    return {"g_plus": trace.g_plus, "rate": trace.rate_estimate}


def summarize(traj, data_desc=None, checks=None, elapsed=None, envelope=None):
    """The run summary, deterministic except the timing block; _jsonable
    makes it JSON-ready."""
    led = traj.ledger
    up, down = led.monotonicity_margins()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {"p": led.p, "kappa": led.kappa},
        "grid": {
            "h": traj.grid.h,
            "r_max": traj.grid.r_max,
            "t_max": traj.grid.t_max,
            "boundary": traj.grid.boundary,
        },
        "linear": bool(traj.linear),
        "energy": {
            "initial": float(led.e_total[0]),
            "final": float(led.e_total[-1]),
            "e_minus_final": float(led.e_minus[-1]),
            "e_plus_final": float(led.e_plus[-1]),
            "conservation_drift": led.conservation_drift(),
            "additivity_error": led.additivity_error(),
            "worst_e_minus_increase": up,
            "worst_e_plus_decrease": down,
        },
    }
    if data_desc:
        doc["data"] = dict(data_desc)
    if traj.triangle_records:
        reps = [
            triangle_residual(traj, rec.t0, rec.r0, kind=rec.kind)
            for rec in traj.triangle_records
        ]
        doc["triangles"] = [
            {**asdict(rep), "residual": rep.residual, "residual_frac": rep.residual_frac}
            for rep in reps
        ]
    lines = {
        name: {label: read(traj, label) for label in series}
        for name, series, read in (("flux_inward", traj.flux_in, flux_inward),
                                   ("flux_outward", traj.flux_out, flux_outward),
                                   ("g_plus", traj.char_traces, _g_plus))
        if series
    }
    if lines:
        doc["lines"] = lines
    if envelope is not None:
        doc["envelope"] = envelope.summary()
    if checks is not None:
        doc["checks"] = [
            {"name": name, "value": value, "threshold": threshold, "passed": ok}
            for name, value, threshold, ok in checks
        ]
    if elapsed is not None:
        doc["timing"] = {"seconds": elapsed}
    return doc


def write_json(path, doc):
    """Write a _jsonable document; a NaN or inf left in it raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_run_plots(out_dir, traj, envelope=None):
    led = traj.ledger
    line_plot(
        os.path.join(out_dir, "energy.svg"),
        [
            ("E_total", led.t, led.e_total),
            ("E_minus", led.t, led.e_minus),
            ("E_plus", led.t, led.e_plus),
        ],
        title="channel energies",
        xlabel="t",
        ylabel="energy",
    )
    if envelope is not None:
        line_plot(
            os.path.join(out_dir, "envelope.svg"),
            [
                ("sup ratio", envelope.t, envelope.max_ratio),
                ("profile floor", envelope.t, envelope.min_profile),
            ],
            title="envelope ratios",
            xlabel="t",
            ylabel="ratio",
        )


# -- verify checks -----------------------------------------------------------


def _worst(values):
    """Largest of the values, nan if any is nan (a nan check fails)."""
    return float(np.max(np.asarray(values, dtype=float)))


def run_checks(traj):
    """List of (name, value, threshold, passed); value <= threshold passes."""
    def read(reader):  # nan, a failed check, if it meets a level the ledger did not record
        try:
            return reader()
        except OffGridError:
            return math.nan

    led = traj.ledger
    e0 = max(abs(float(led.e_total[0])), 1e-300)
    values = {}
    if traj.grid.boundary == "pad":
        values["conservation"] = (read(led.conservation_drift), 1e-4)
    values["additivity"] = (read(led.additivity_error) / e0, 1e-12)
    values["monotonicity"] = (_worst(read(led.monotonicity_margins)) / e0, 1e-6)
    states = [traj.pair.w0] + [snap.w_curr for snap in traj.snapshots]
    reps = [pointwise_bounds(w, led.h, led.p) for w in states]
    worst = _worst([[rep.max_ratio1, rep.max_ratio2] for rep in reps])
    values["pointwise"] = (worst - 1.0, 1e-6)
    if traj.triangle_records:
        worst = _worst([
            abs(triangle_residual(traj, rec.t0, rec.r0, kind=rec.kind).residual_frac)
            for rec in traj.triangle_records
        ])
        values["triangle"] = (worst, 0.01)
    return [(name, val, tol, val <= tol) for name, (val, tol) in values.items()]


# -- subcommands -------------------------------------------------------------


def _run_case(cfg, out_dir, verify=False):
    """Run a case, check it if asked, and write its outputs to out_dir;
    returns the summary document it wrote."""
    traj, elapsed, desc = run_problem(cfg)
    checks = run_checks(traj) if verify else None
    os.makedirs(out_dir, exist_ok=True)
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), traj, cfg["output.stride"])
    write_snapshots_npz(os.path.join(out_dir, "snapshots.npz"), traj)
    far = traj.pair.far_field
    env = None if far is None else far.envelope(traj.ledger.t)
    doc = summarize(traj, data_desc=desc, checks=checks, elapsed=elapsed, envelope=env)
    write_json(os.path.join(out_dir, "summary.json"), _jsonable(doc))
    if cfg["output.plots"]:
        write_run_plots(out_dir, traj, env)
    return doc


def cmd_run(args):
    cfg = Config(load_config(args.config))
    doc = _run_case(cfg, args.out_dir)
    energy, grid = doc["energy"], doc["grid"]
    steps = grid_index(grid["t_max"], grid["h"])
    rows = len(range(0, steps, cfg["output.stride"])) + 1  # every stride-th level and the last
    print(f"wrote {args.out_dir}/ledger.csv ({rows} rows) and summary.json")
    print(
        f"E(0) = {energy['initial']:.6g}, E(t_max) = {energy['final']:.6g}, "
        f"E_minus(t_max) = {energy['e_minus_final']:.6g}, "
        f"E_plus(t_max) = {energy['e_plus_final']:.6g} "
        f"[{doc['timing']['seconds']:.2f}s, {steps} steps]"
    )
    return 0


def cmd_verify(args):
    doc = _run_case(Config(load_config(args.config)), args.out_dir, verify=True)
    failed = 0
    for check in doc["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{check['name']}] {mark} {check['value']:.6g} vs {check['threshold']:g}")
        failed += 0 if check["passed"] else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _parse_axis(spec):
    key, sep, rhs = spec.partition("=")
    key, rhs = key.strip(), rhs.strip()
    if not sep or key not in KEYS:
        raise ConfigError(f"sweep axis must be '<known key>=<values>', got {spec!r}")
    if "," in rhs:
        values = [v.strip() for v in rhs.split(",") if v.strip()]
    elif rhs.count(":") == 2:
        lo_s, hi_s, step_s = rhs.split(":")
        lo, hi, step = (parse_scalar(x) for x in (lo_s, hi_s, step_s))
        if not all(is_number(v) and math.isfinite(v) for v in (lo, hi, step)):
            raise ConfigError(f"sweep range {rhs!r} is not three finite numbers")
        if step <= 0 or hi < lo:
            raise ConfigError(f"sweep range {rhs!r} must be lo:hi:step, step > 0")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        values = [f"{lo + k * step:.12g}" for k in range(count)]
    else:
        values = [rhs]
    if not values:
        raise ConfigError(f"sweep axis {spec!r} produced no values")
    return key, values


def cmd_sweep(args):
    raw = load_config(args.config)
    key, values = _parse_axis(args.axis)
    jobs = []
    for value in values:  # every case is set up before any worker starts
        cfg = Config({**raw, key: value})
        set_up(cfg)
        jobs.append((cfg, os.path.join(args.out_dir, f"{key}={value.replace('/', '_')}")))
    os.makedirs(args.out_dir, exist_ok=True)
    workers = min(os.cpu_count() or 1, len(jobs))
    if workers == 1:
        docs = [_run_case(*job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            docs = list(pool.map(_run_case, *zip(*jobs)))
    table = os.path.join(args.out_dir, "sweep.csv")
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([key, "e_total_initial", "e_total_final", "e_minus_final",
                         "e_plus_final", "conservation_drift", "seconds", "out_dir"])
        for value, (_, sub), doc in zip(values, jobs, docs):
            e, seconds = doc["energy"], doc["timing"]["seconds"]
            cells = (e["initial"], e["final"], e["e_minus_final"], e["e_plus_final"],
                     e["conservation_drift"], seconds)
            writer.writerow([value, *(f"{x:.12g}" for x in cells), sub])
            print(f"{key}={value}: E(t_max)={e['final']:.6g} "
                  f"E_minus={e['e_minus_final']:.6g} [{seconds:.2f}s]")
    print(f"wrote {table}")
    return 0


def _fraction(text):
    v = parse_scalar(text)
    if not is_number(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return float(v)


def cmd_appendix(args):
    report, traj, env = run_appendix_example(p=args.p, kappa=args.kappa, c=args.c, h=args.h,
                                             t_max=args.t_max, r_max=args.r_max)
    os.makedirs(args.out_dir, exist_ok=True)
    at = sorted(traj.monitors.energy_levels)  # the levels both plots draw
    t = env.t[at]
    ray_series = [("sup ratio (3c envelope)", t, env.max_ratio[at])]
    for off, ratio in env.rays.items():
        ray_series.append((f"|w|/(c r^b) on r=1+t+{off:g}", t, ratio[at]))
    env_path = os.path.join(args.out_dir, "envelope_rays.svg")
    line_plot(
        env_path,
        ray_series,
        title="exterior envelope and ray profiles",
        xlabel="t",
        ylabel="ratio",
    )
    led = traj.ledger
    decay_path = os.path.join(args.out_dir, "energy_decay.svg")
    decay = [("E_minus (r<=1)", t, led.radii[1.0][1][at]),
             ("E_plus (r<=1)", t, led.radii[1.0][2][at]),
             ("E_minus (r<=t/4)", t, led.radii["t/4"][1][at]), ("y2p", t, led.y2p[at])]
    try:
        line_plot(decay_path, decay, title="localized channel decay", xlabel="t", ylabel="mass",
                  loglog=True)
    except ValueError:  # every series underflowed to 0, and log-log axes drop them all
        decay_path = None
    report["artifacts"] = {"envelope_rays": env_path, "energy_decay": decay_path}
    doc = _jsonable(report)
    write_json(os.path.join(args.out_dir, "report.json"), doc)

    envr = doc["envelope"]
    verdict = "holds" if envr["holds"] else "FAILS"
    print(
        f"envelope {verdict}: peak ratio {envr['peak_ratio']:.4g} "
        f"(c = {envr['c']:.6g})"
    )
    mass = doc["channel_mass"]
    if mass["divergent"]:
        print("weighted channel mass: divergent at this kappa (as expected "
              "above the admissible range)")
    else:
        print(f"weighted channel mass: K = {mass['k']:.6g}")
    rates = doc["scattering_rates"]
    lp = rates["lp_l2p"]
    if lp["exponent"] is None and len(lp["times"]) < MIN_FIT_POINTS:
        print("tail norm exponent: too few dyadic start times to fit "
              "(extend t-max)")
    elif lp["exponent"] is None:
        print("tail norm exponent: no fit, a tail total is not positive")
    else:
        qualifier = "" if lp["tails_converged"] else ", truncated (no tail)"
        print(
            f"tail norm exponent {lp['exponent']:+.4f} "
            f"(predicted floor {lp['predicted_exponent']:+.4f}, "
            f"r^2 = {lp['r_squared']:.4f}{qualifier})"
        )
    ext = rates["exterior_growth"]
    if ext["slope"] is None:
        print("exterior norm: too few dyadic sample times to fit (extend t-max)")
    else:
        print(
            f"exterior norm V(T) ~ {ext['offset']:.4g} + {ext['slope']:.4g} "
            f"log(1+T) (r^2 = {ext['r_squared']:.4f})"
        )
    print(f"wrote {args.out_dir}/report.json")
    return 0


def _csv_column(path, rows, col):
    """The numbers in one column of csv rows; ConfigError names a cell that
    is not a finite number."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[col])
        except (TypeError, ValueError):
            out[i] = math.nan
        if not math.isfinite(out[i]):
            raise ConfigError(
                f"{path}: column {col!r}, data row {i + 1}: "
                f"{row[col]!r} is not a finite number"
            )
    return out


def cmd_fit(args):
    try:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        raise ConfigError(f"cannot read {args.csv}: {err}") from err
    if not rows:
        raise ConfigError(f"{args.csv} has no data rows")
    for col in (args.x, args.y):
        if col not in rows[0]:
            raise ConfigError(
                f"column {col!r} not in {args.csv} "
                f"(have: {', '.join(rows[0].keys())})"
            )
    x = _csv_column(args.csv, rows, args.x)
    y = _csv_column(args.csv, rows, args.y)
    mask = np.ones(x.size, dtype=bool)
    if args.t_min is not None:
        mask &= x >= args.t_min
    if args.t_max is not None:
        mask &= x <= args.t_max
    if not args.log_growth:  # a power law cannot include the t = 0 row
        if dropped := int((mask & ~(x > 0)).sum()):
            print(f"ignoring {dropped} row(s) with {args.x} <= 0")
        mask &= x > 0
    if (kept := int(mask.sum())) < MIN_FIT_POINTS:
        lo, hi = (-math.inf if args.t_min is None else args.t_min,
                  math.inf if args.t_max is None else args.t_max)
        raise ConfigError(f"{args.csv}: the window {args.x} in [{lo:g}, {hi:g}] leaves {kept} "
                          f"row(s) to fit; a fit needs at least {MIN_FIT_POINTS}")
    x, y = x[mask], y[mask]
    fit = (fit_log_growth if args.log_growth else fit_power_law)(x, y)
    if math.isnan(fit.r_squared):  # the fit cannot be made
        need = f"{args.x!r} above -1" if args.log_growth else f"{args.y!r} positive"
        raise ConfigError(f"{args.csv}: the window cannot be fit; it needs every {need} "
                          f"and {args.x!r} values that differ")
    law = (f"{fit.offset:.6g} + {fit.slope:.6g} * log(1 + {args.x})" if args.log_growth
           else f"{fit.amplitude:.6g} * {args.x}^{fit.exponent:+.6g}")
    print(f"{args.y} ~ {law} (r^2 = {fit.r_squared:.6f}, {x.size} points)")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nlw",
        description="energy-channel laboratory for the radial defocusing "
        "semilinear wave equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a configured problem")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default="nlw-out")

    p_ver = sub.add_parser("verify", help="run plus bookkeeping checks")
    p_ver.add_argument("config")
    p_ver.add_argument("--out-dir", default="nlw-out")

    p_sw = sub.add_parser("sweep", help="repeat a run along one config axis")
    p_sw.add_argument("config")
    p_sw.add_argument(
        "axis", help="key=lo:hi:step or key=v1,v2,... (e.g. grid.h=1/64,1/128)"
    )
    p_sw.add_argument("--out-dir", default="nlw-sweep")

    p_ap = sub.add_parser("appendix", help="slow-decay power-law example study")
    p_ap.add_argument("--p", type=_fraction, required=True)
    p_ap.add_argument("--kappa", type=_fraction, required=True)
    p_ap.add_argument(
        "--c", type=_fraction, default=None,
        help="tail amplitude; default 2, half the envelope threshold 4, at "
        "which the exact exterior's envelope is checked",
    )
    p_ap.add_argument("--h", type=_fraction, default=1.0 / 128.0)
    p_ap.add_argument("--t-max", type=_fraction, default=64.0)
    p_ap.add_argument("--r-max", type=_fraction, default=None)
    p_ap.add_argument("--out-dir", default="nlw-appendix")

    p_fit = sub.add_parser("fit", help="fit a power law to ledger columns")
    p_fit.add_argument("csv")
    p_fit.add_argument("--x", default="t")
    p_fit.add_argument("--y", required=True)
    p_fit.add_argument("--t-min", type=_fraction, default=None)
    p_fit.add_argument("--t-max", type=_fraction, default=None)
    p_fit.add_argument(
        "--log-growth", action="store_true",
        help="fit a + b log(1+x) instead of a power law",
    )
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "appendix": cmd_appendix,
        "fit": cmd_fit,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InitialDataError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NlwError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
