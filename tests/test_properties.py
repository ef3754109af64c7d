"""Property tests of invariants the scheme guarantees by construction.

hypothesis draws the cases with derandomize=True, so every run of the
suite tries the same examples.
"""

import contextlib
import copy
import functools
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nlw.cli import KEYS, REQUIRED, Config, main, parse_scalar, run_checks, set_up
from nlw.diagnostics import TOTALS
from nlw.errors import ConfigError, OffGridError
from nlw.model import DirectedPulse, GaussianBump, RadialPair, make_params
from nlw.numerics import grid_index
from nlw.solver import GridSpec, Monitors, duhamel_solve, evolve, leapfrog

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@PROPERTY
@given(
    p=st.sampled_from([3.0, 3.5, 4.0, 4.5]),
    amplitude=st.floats(0.0, 0.8),
    center=st.floats(1.0, 3.0),
    width=st.floats(0.2, 0.8),
    inv_h=st.sampled_from([16, 32]),
    linear=st.booleans(),
)
def test_channel_energies_add_up_bitwise(p, amplitude, center, width, inv_h, linear):
    """E = E_- + E_+ at every level, exactly as floats, for the totals and
    for every radius triple."""
    params = make_params(p, 0.5)
    family = GaussianBump(amplitude, center, width)
    grid = GridSpec.padded(1.0 / inv_h, 3.0, family.support_radius())
    mon = Monitors(radii=(1.0, 2.5, "t/4"))
    led = evolve(family.sample(grid), params, grid, mon, linear=linear).ledger
    assert np.array_equal(led.e_total, led.e_minus + led.e_plus)
    for total, minus, plus in led.radii.values():
        assert np.array_equal(total, minus + plus)


ALL_KINDS = dict(
    radii=(1.0, "t/4"),
    flux_s=(2.0,),
    flux_tau=(0.5,),
    char_tau=(0.5,),
    triangles=((0.5, 1.0),),
    triangles_out=((2.0, 1.0),),
    snapshot_times=(1.0, 3.0),
)


def _recorded(traj):
    """Every value a run recorded, as bytes by name."""
    led = traj.ledger
    out = {name: getattr(led, name).tobytes()
           for name in TOTALS + ("s_bulk",) if name in vars(led)}
    for label, arrays in led.radii.items():
        out[f"radius {label}"] = np.stack(arrays).tobytes()
    for kind in ("flux_in", "flux_out", "char_traces"):
        for label, arr in getattr(traj, kind).items():
            out[f"{kind} {label}"] = arr.tobytes()
    for rec in traj.triangle_records:
        out[f"triangle {rec.kind} {rec.t0}"] = np.array([rec.bulk, rec.flux, rec.energy]).tobytes()
    for snap in traj.snapshots:
        out[f"snapshot {snap.t}"] = np.stack([snap.w_prev, snap.w_curr, snap.w_next]).tobytes()
    return out


@PROPERTY
@given(
    p=st.sampled_from([3.0, 3.5, 4.0, 4.5]),
    amplitude=st.floats(0.0, 0.8),
    center=st.floats(1.0, 3.0),
    width=st.floats(0.2, 0.8),
    inv_h=st.sampled_from([16, 32]),
    linear=st.booleans(),
    bins=st.booleans(),
)
def test_switching_bins_moves_nothing_else(p, amplitude, center, width, inv_h, linear, bins):
    """A run with the bins switched off or on records, bitwise, what the
    run with them on records, apart from the bins if it left them out."""
    params = make_params(p, 0.5)
    family = GaussianBump(amplitude, center, width)
    grid = GridSpec.padded(1.0 / inv_h, 3.0, family.support_radius())
    pair = family.sample(grid)
    full = _recorded(evolve(pair, params, grid, Monitors(**ALL_KINDS, bins=True), linear=linear))
    got = _recorded(evolve(pair, params, grid, Monitors(**ALL_KINDS, bins=bins), linear=linear))
    assert set(got) == set(full) - set(() if bins else ("s_bulk",))
    for name, value in got.items():
        assert value == full[name], name


@PROPERTY
@given(
    h=st.sampled_from([1.0 / 16.0, 1.0 / 128.0, 0.1, 0.3, 0.25]),
    i=st.integers(0, 100_000),
    off=st.floats(0.01, 0.99),
)
def test_grid_index_round_trip(h, i, off):
    """Node i's coordinate i*h maps back to i; a point strictly between
    two nodes is refused."""
    assert grid_index(i * h, h) == i
    with pytest.raises(OffGridError):
        grid_index((i + off) * h, h)


@functools.lru_cache(maxsize=1)
def checked_run():
    """A padded p = 3.5 run with two triangle probes and two snapshots,
    on which every verify check passes."""
    params = make_params(3.5, 0.5)
    family = GaussianBump(0.4, 1.5, 0.5)
    grid = GridSpec.padded(1.0 / 64.0, 3.0, family.support_radius())
    mon = Monitors(triangles=((0.5, 1.0),), triangles_out=((2.0, 1.0),),
                   snapshot_times=(1.0, 2.0))
    traj = evolve(family.sample(grid), params, grid, mon)
    assert all(ok for *_, ok in run_checks(traj))
    return traj


# what a NaN is put into, and the verify checks that read it
NAN_TARGETS = {
    "e_total": ("additivity", "conservation"),
    "e_minus": ("additivity", "monotonicity"),
    "e_plus": ("additivity", "monotonicity"),
    "xi": ("triangle",),
    "w0": ("pointwise",),
    "snapshot": ("pointwise",),
    "triangle bulk": ("triangle",),
    "triangle flux": ("triangle",),
    "triangle energy": ("triangle",),
}


@PROPERTY
@given(target=st.sampled_from(sorted(NAN_TARGETS)), where=st.integers(0, 10**6))
def test_no_verify_check_passes_on_a_nan(target, where):
    """A NaN in any value a verify check reads makes that check fail."""
    traj = copy.deepcopy(checked_run())
    led = traj.ledger
    rec = traj.triangle_records[where % len(traj.triangle_records)]
    if target in ("e_total", "e_minus", "e_plus"):
        series = getattr(led, target)
        series[where % series.size] = math.nan
    elif target == "xi":  # inside the probe's window
        led.xi[rec.m_lo + where % (rec.m_hi - rec.m_lo + 1)] = math.nan
    elif target == "w0":
        traj.pair.w0[where % traj.pair.w0.size] = math.nan
    elif target == "snapshot":
        w = traj.snapshots[where % len(traj.snapshots)].w_curr
        w[where % w.size] = math.nan
    else:
        setattr(rec, target.split()[1], math.nan)
    checks = {name: ok for name, _, _, ok in run_checks(traj)}
    for name in NAN_TARGETS[target]:
        assert not checks[name], name


VALUES = st.lists(st.floats(-1.0, 1.0), max_size=24)


@PROPERTY
@given(
    inv_h=st.sampled_from([16, 32, 64]),
    w0_at=st.integers(1, 24),
    w0_values=VALUES,
    w1_at=st.integers(1, 24),
    w1_values=VALUES,
    steps=st.integers(1, 40),
    boundary=st.sampled_from(["pad", "outgoing"]),
)
def test_linear_levels_are_discrete_dalembert(
    inv_h, w0_at, w0_values, w1_at, w1_values, steps, boundary
):
    """On compactly supported data with arbitrary node values (w0 and w1
    on their own supports), every level of a linear run equals the
    discrete d'Alembert solution wherever the outer boundary cannot have
    been felt (exact up to rounding)."""
    h = 1.0 / inv_h
    n = max(w0_at + len(w0_values), w1_at + len(w1_values)) + steps + 1
    grid = GridSpec(h=h, r_max=n * h, t_max=steps * h, boundary=boundary)
    w0, w1 = np.zeros(n + 1), np.zeros(n + 1)
    w0[w0_at : w0_at + len(w0_values)] = w0_values
    w1[w1_at : w1_at + len(w1_values)] = w1_values
    pair = RadialPair(w0=w0, w1=w1, h=h)
    for m, _, w, *_ in leapfrog(pair, make_params(3.0, 0.5), grid, linear=True):
        ref = oracles.dalembert_grid(w0, w1, h, m)
        assert np.abs(w[: ref.size] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), m


@PROPERTY
@given(
    p=st.floats(3.0, 5.0, exclude_max=True),
    amplitude=st.floats(0.05, 0.6),
    inv_h=st.sampled_from([8, 16]),
    m=st.integers(1, 16),
    pulse=st.booleans(),
    boundary=st.sampled_from(["pad", "outgoing"]),
    cut=st.booleans(),
)
def test_duhamel_march_matches_direct_triangle_sums(p, amplitude, inv_h, m, pulse,
                                                    boundary, cut):
    """duhamel_solve's level march lands within m eps sup|w| of summing
    every light triangle directly, on padded grids and on grids whose
    r_max cuts the data (the zero extension past it)."""
    h = 1.0 / inv_h
    family = (DirectedPulse(amplitude, 2.0, 0.4, "inward") if pulse
              else GaussianBump(amplitude, 2.0, 0.5))
    r_max = 2.5 if cut else GridSpec.padded(h, m * h, family.support_radius()).r_max
    grid = GridSpec(h=h, r_max=r_max, t_max=m * h, boundary=boundary)
    pair = family.sample(grid)
    got = duhamel_solve(pair, make_params(p, 0.5), grid, m * h)
    ref = oracles.duhamel_loop(pair.w0, pair.w1, p, h, m)
    assert np.abs(got - ref).max() <= m * np.finfo(float).eps * np.abs(ref).max()


# config text: free text, and tokens near the edges of what parses
CONFIG_VALUE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "1/0", "0/0", "1e308/1e-308",
                     "1/3", "t/4", "true", "off", "1:2", "1:", ":", "1,2", ",", "1:2:3"]),
    st.lists(st.sampled_from(["1", "-2.5", "nan", "inf", "t/4", "x", "1:2", ""]),
             min_size=1, max_size=4).map(",".join),
)

# a run the drawn keys override
GAUSSIAN = {"params.p": "3", "grid.h": "1/16", "grid.t_max": "1", "data.family": "gaussian",
            "data.amplitude": "0.5", "data.center": "2", "data.width": "0.5"}


@PROPERTY
@given(raw=st.dictionaries(st.sampled_from(sorted(KEYS)), CONFIG_VALUE, max_size=8))
def test_config_lets_only_config_errors_escape(raw):
    """parse_scalar takes any token; building a Config (each key's reader
    on its value), reading every key of it, and the set-up of a run
    (parameters, data family, grid and monitors, checked against the grid
    by plan_run) either succeed or raise ConfigError.  The values that
    pass their readers alone build a Config together, which refuses a read
    only for a required key it lacks.  The set-up samples no data, so a
    tiny grid.h allocates nothing."""
    valid = {}
    for key, text in raw.items():
        parse_scalar(text)
        with contextlib.suppress(ConfigError):
            Config({key: text})
            valid[key] = text
    with contextlib.suppress(ConfigError):
        Config(raw)
    cfg = Config(valid)
    for key, (_, default) in KEYS.items():
        if key in valid or default is not REQUIRED:
            cfg[key]
        else:
            with pytest.raises(ConfigError, match="missing required config key"):
                cfg[key]
    for c in (cfg, Config({**GAUSSIAN, **valid})):
        with contextlib.suppress(ConfigError):
            set_up(c)


def _null_paths(doc, path=""):
    """The dotted path of each null in a JSON document; [] for a list index."""
    if isinstance(doc, dict):
        return [n for k, v in doc.items() for n in _null_paths(v, f"{path}.{k}".lstrip("."))]
    if isinstance(doc, list):
        return [n for v in doc for n in _null_paths(v, path + "[]")]
    return [path] if doc is None else []


# the report.json keys that README's "Nulls in report.json" list names
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
NULLS_SECTION = README.split("### Nulls in `report.json`\n", 1)[1].split("\n#", 1)[0]
NULLABLE = {key for head in re.findall(r"^- ((?:`[^`]+`,?\s*)+):", NULLS_SECTION, flags=re.M)
            for key in re.findall(r"`([^`]+)`", head)}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    p=st.floats(3.0, 5.0, exclude_max=True),
    kappa=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    c=st.sampled_from([None, "1e-200", "2", "1e3"]),
    inv_h=st.sampled_from([16, 8]),
    t16=st.integers(64, 256),  # t_max in sixteenths
    r_max=st.sampled_from([None, "40"]),
)
def test_appendix_exits_with_a_code(tmp_path_factory, p, kappa, c, inv_h, t16, r_max):
    """nlw appendix on edge-heavy inputs and tiny grids (t_max a node of
    the grid in [4, 16]) exits 0, 2 or 3; no exception escapes it.  A
    report it writes has nulls only at the keys the README lists."""
    step = 16 // inv_h
    out = tmp_path_factory.getbasetemp() / "appendix_fuzz"
    argv = ["appendix", "--p", repr(p), "--kappa", repr(kappa), "--h", f"1/{inv_h}",
            "--t-max", repr(t16 // step * step / 16.0), "--out-dir", str(out)]
    argv += [] if c is None else ["--c", c]
    argv += [] if r_max is None else ["--r-max", r_max]
    code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(_null_paths(report)) <= NULLABLE


def test_appendix_at_tiny_amplitude_writes_nulls_at_listed_keys(tmp_path):
    """At c = 1e-200 and t_max = 32 every tail total underflows to 0, so
    three start times give no tail fit: the study exits 0 (it exited 3,
    "power-law fit needs positive samples"), and each null of its report
    sits at a key the README lists."""
    out = tmp_path / "ap"
    assert main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--t-max", "32",
                 "--c", "1e-200", "--out-dir", str(out)]) == 0
    nulls = set(_null_paths(json.loads((out / "report.json").read_text(encoding="utf-8"))))
    assert "scattering_rates.lp_l2p.exponent" in nulls and nulls <= NULLABLE


# finite cells at every scale, t <= -1 and y <= 0 among them; one text cell in some CSVs
FIT_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 1e300]))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(FIT_NUMBER, FIT_NUMBER), min_size=3, max_size=10),
    text=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(["x", ""])),
    t_min=st.sampled_from([None, "-1", "0", "1"]),
    t_max=st.sampled_from([None, None, "0", "8"]),
    log_growth=st.booleans(),
)
def test_fit_exits_with_a_code(tmp_path_factory, rows, text, t_min, t_max, log_growth):
    """nlw fit on generated CSVs exits 0 or 2, with no exception and no
    traceback: a cell that is not a number, a window of fewer than 3 rows
    and a window no fit can be made on are config errors.  Of the 100 CSVs,
    about a third are fit (exit 0) and a fifth have a window no fit can be
    made on."""
    cells = [[repr(t), repr(v)] for t, v in rows]
    if text is not None:
        cells[len(cells) // 2][1] = text
    path = tmp_path_factory.getbasetemp() / "fit_fuzz.csv"
    path.write_text("t,val\n" + "".join(f"{t},{v}\n" for t, v in cells), encoding="utf-8")
    argv = ["fit", str(path), "--y", "val"] + (["--log-growth"] if log_growth else [])
    argv += [] if t_min is None else ["--t-min", t_min]
    argv += [] if t_max is None else ["--t-max", t_max]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) in (0, 2)
    assert "Traceback" not in err.getvalue()
