import csv
import json
import math
import os

import numpy as np
import pytest

from nlw import DirectedPulse, GridSpec, extract_g_plus, flux_inward, flux_outward
from nlw.model import FarField
from nlw.cli import (Config, _jsonable, load_config, main, parse_scalar, run_checks,
                     run_problem, summarize, write_json)
from nlw.errors import ConfigError, OffGridError


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def test_parse_scalar_tokens():
    assert parse_scalar("true") is True
    assert parse_scalar(" ON ") is True
    assert parse_scalar("off") is False
    assert parse_scalar("1/256") == 1.0 / 256.0
    assert parse_scalar("3") == 3
    assert parse_scalar("-2.5e-1") == -0.25
    assert parse_scalar("gaussian") == "gaussian"
    assert parse_scalar("1/0") == "1/0"  # not a usable fraction
    assert parse_scalar("a/b") == "a/b"


def test_load_config_round_trip(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "# heading comment\n"
        "\n"
        "params.p = 3  # trailing comment\n"
        "grid.h= 1/32\n"
        "data.family =gaussian\n"
    )
    raw = load_config(str(cfg))
    assert raw == {"params.p": "3", "grid.h": "1/32", "data.family": "gaussian"}


def test_load_config_reports_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("params.p = 3\nno equals sign here\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(str(cfg))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_config_typed_access():
    cfg = Config(
        {
            "params.p": "3.5",
            "grid.h": "1/64",
            "run.linear": "yes",
            "monitors.radii": "1.0,t/4",
            "monitors.triangles": "1:2, 2:3",
            "output.stride": "4",
        }
    )
    assert cfg["params.p"] == 3.5
    assert cfg["grid.h"] == 1.0 / 64.0
    assert cfg["run.linear"] is True
    assert cfg["monitors.radii"] == (1.0, "t/4")
    assert cfg["monitors.triangles"] == ((1.0, 2.0), (2.0, 3.0))
    assert cfg["output.stride"] == 4
    # default fill-in
    assert cfg["params.kappa"] == 0.5 and cfg["grid.r_max"] is None
    assert cfg["monitors.snapshots"] == () and cfg["output.plots"] is False


def test_config_rejections():
    """Every value is checked when the Config is built, whether or not the
    run reads its key; an unknown key and a missing required one are
    config errors too."""
    with pytest.raises(ConfigError, match="params.q"):
        Config({"params.q": "3"})
    for key, text, message in [
        ("params.p", "hello", "params.p must be a number, got 'hello'"),
        ("params.p", "nan", "params.p must be finite"),
        ("output.stride", "0.5", "output.stride must be an integer"),
        ("output.stride", "0", "output.stride must be at least 1"),
        ("run.linear", "maybe", "run.linear must be a boolean"),
        ("monitors.snapshots", "1,x", "monitors.snapshots must list finite numbers"),
        ("monitors.triangles", "1-2", "t0:r0"),
    ]:
        with pytest.raises(ConfigError, match=message):
            Config({key: text})
    with pytest.raises(ConfigError, match="missing required config key 'grid.h'"):
        Config({})["grid.h"]


# --------------------------------------------------------------------------
# run / verify round trips
# --------------------------------------------------------------------------

RUN_CFG = """\
# small production-shaped problem
params.p = 3
params.kappa = 0.5
grid.h = 1/64
grid.t_max = 2
data.family = gaussian
data.amplitude = 0.4
data.center = 1.5
data.width = 0.5
monitors.radii = 1.0,t/4
monitors.snapshots = 1,2
output.stride = 4
output.plots = true
"""


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ledger.csv" in stdout and "E(0) =" in stdout

    with open(out / "ledger.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:8] == [
        "t", "E_total", "E_minus", "E_plus", "xi", "bulk", "y2p",
        "exterior_l2p2",
    ]
    assert "E_minus_r1" in header and "E_minus_rt4" in header
    # stride 4 over 128 steps, with the final level always present
    assert len(data) == 33
    assert float(data[0][0]) == 0.0 and float(data[-1][0]) == 2.0
    e0 = float(data[0][1])
    assert all(abs(float(r[1]) - e0) < 1e-3 * e0 for r in data)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == "1"
    assert summary["params"] == {"p": 3.0, "kappa": 0.5}
    assert summary["grid"]["boundary"] == "pad"
    assert summary["energy"]["conservation_drift"] < 1e-3
    assert summary["data"]["family"] == "gaussian"
    assert summary["linear"] is False
    assert "envelope" not in summary and "lines" not in summary  # no far field, no lines

    with np.load(out / "snapshots.npz") as z:
        assert list(z["t"]) == [1.0, 2.0]
        assert z["w"].shape == z["w_t"].shape
        assert z["w"].shape[0] == 2
        assert float(z["h"]) == 1.0 / 64.0
    assert (out / "energy.svg").exists()


def test_run_tabulated_family(tmp_path):
    h = 1.0 / 16.0
    r = h * np.arange(33)
    w0 = np.clip(1.0 - np.abs(r - 1.0) / 0.5, 0.0, None) * r
    data = tmp_path / "state.npz"
    np.savez(data, w0=w0, w1=np.zeros_like(w0), h=h)
    cfg = _write(
        tmp_path,
        "params.p = 3\n"
        "grid.h = 1/16\n"
        "grid.t_max = 1\n"
        "data.family = file\n"
        f"data.path = {data}\n",
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy"]["initial"] > 0.0
    assert not (out / "snapshots.npz").exists()


PULSE_CFG = """\
params.p = 3
grid.h = 1/32
grid.t_max = 1
data.family = pulse
data.amplitude = 0.3
data.center = 3
data.width = 0.5
data.direction = outward
"""


def test_run_pulse_on_a_padded_grid(tmp_path):
    """Without grid.r_max the grid is padded a margin of 1 past the data's
    support and the light cone, and its boundary is pinned ("pad")."""
    cfg = _write(tmp_path, PULSE_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    support = DirectedPulse(0.3, 3.0, 0.5).support_radius()
    r_max = math.ceil((support + 1.0 + 1.0) * 32.0) / 32.0
    assert GridSpec.padded(1.0 / 32.0, 1.0, support).r_max == r_max
    assert summary["grid"] == {"h": 1.0 / 32.0, "r_max": r_max, "t_max": 1.0,
                               "boundary": "pad"}
    assert summary["data"]["direction"] == "outward"
    assert summary["energy"]["initial"] > 0.0


POWER_LAW_CFG = """\
params.p = 4
params.kappa = 0.25
grid.h = 1/16
grid.t_max = 8
grid.r_max = 21
data.family = power_law
data.c = 0.5
output.plots = true
"""


def test_run_at_t_max_0_plots_one_level(tmp_path, capsys):
    """t_max = 0 records level 0 alone: one ledger row, and a plot whose x
    values are all equal."""
    cfg = _write(tmp_path, RUN_CFG.replace("grid.t_max = 2", "grid.t_max = 0")
                 .replace("monitors.snapshots = 1,2\n", ""))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    assert "(1 rows)" in capsys.readouterr().out
    assert (out / "energy.svg").read_text().startswith("<svg")


def test_run_power_law_with_an_envelope_monitor(tmp_path):
    """A far-field run reports its envelope at the data's own c."""
    cfg = _write(tmp_path, POWER_LAW_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid"] == {"h": 1.0 / 16.0, "r_max": 21.0, "t_max": 8.0,
                               "boundary": "outgoing"}
    assert summary["envelope"]["c"] == 0.5 and summary["envelope"]["holds"] is True
    env = FarField(0.5, 4.0).envelope(np.arange(129) / 16.0)
    assert summary["envelope"]["peak_ratio"] == env.peak_ratio
    assert (out / "energy.svg").exists() and (out / "envelope.svg").exists()


def test_linear_run_of_far_field_data_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    """Far-field data cannot run linearly: their exterior solves the
    nonlinear equation."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before the linear far-field run was refused")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, POWER_LAW_CFG + "run.linear = true\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "a linear run of far-field data closes nothing past r_max" in capsys.readouterr().err


def test_run_power_law_r_max_inside_the_far_field_edge_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch):
    """r_max = 17 <= 2 t_max + 1 + h puts the clean edge at t_max inside
    r = 1 + t: a config error, as in nlw appendix, found before stepping."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before r_max was checked")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, POWER_LAW_CFG.replace("grid.r_max = 21", "grid.r_max = 17"))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "r_max=17.0 must exceed 2 t_max + 1 + h" in err


@pytest.mark.parametrize("line, key, value", [
    ("monitors.flux_s = 24", "flux_inward", 0.011024),
    ("monitors.flux_tau = -12", "flux_outward", 0.015304),
])
def test_far_field_line_past_the_clean_edge_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, line, key, value):
    """A flux line of power-law data reads the same at r_max 41 and 61,
    where the grid carries all of it; at r_max 21 part of it lies past the
    clean edge, where nothing closes it, and the run is refused."""
    cfg = POWER_LAW_CFG.replace("output.plots = true", line)
    reads = []
    for r_max in (41, 61):
        out = tmp_path / f"out{r_max}"
        text = cfg.replace("grid.r_max = 21", f"grid.r_max = {r_max}")
        assert main(["run", _write(tmp_path, text), "--out-dir", str(out)]) == 0
        reads.append(json.loads((out / "summary.json").read_text())["lines"][key])
    assert reads[0] == reads[1]
    assert list(reads[0].values()) == [pytest.approx(value, rel=1e-4)]

    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before the line was checked")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    assert main(["run", _write(tmp_path, cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "runs past the clean edge of the far field" in capsys.readouterr().err


def test_data_cut_off_at_an_explicit_r_max_fail_the_leak_check_exit_2(tmp_path, capsys):
    """A bump cut off at r_max = 2 fails the boundary leak check, a config
    error (exit 2)."""
    text = RUN_CFG.replace("grid.t_max = 2", "grid.t_max = 1\ngrid.r_max = 2").replace(
        "monitors.snapshots = 1,2", "monitors.snapshots = 1")
    assert main(["run", _write(tmp_path, text), "--out-dir", str(tmp_path / "out")]) == 2
    assert "boundary weight fraction" in capsys.readouterr().err


def test_verify_passes(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG + "monitors.triangles = 0.5:1\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    for name in ("conservation", "additivity", "monotonicity", "pointwise",
                 "triangle"):
        assert f"[{name}] PASS" in stdout
    assert "all checks passed" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert all(chk["passed"] for chk in summary["checks"])
    assert {chk["name"] for chk in summary["checks"]} >= {
        "conservation", "pointwise", "triangle"
    }


def test_verify_reports_failure(tmp_path, capsys):
    """At h = 1/16 the energy drifts 2.5e-3, past the 1e-4 threshold."""
    cfg = _write(tmp_path, RUN_CFG.replace("grid.h = 1/64", "grid.h = 1/16"))
    assert main(["verify", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    stdout = capsys.readouterr().out
    assert "[conservation] FAIL" in stdout
    assert "1 check(s) failed" in stdout


LINES_CFG = RUN_CFG.replace("grid.t_max = 2", "grid.t_max = 10") + """\
monitors.flux_s = 2
monitors.flux_tau = 1,-1
monitors.char_tau = 1,9
"""


def test_summary_reports_every_monitored_line(tmp_path):
    """summary.json's lines block gives each monitored flux over the window
    the run recorded it on and each trace's g_+ with its rate, keyed by
    label; a trace with too few dyadic samples (tau = 9) reads null.  The
    outward line r = t + 1 (tau = -1) starts at t = 0, not at t = tau."""
    path = _write(tmp_path, LINES_CFG)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 0
    lines = json.loads((out / "summary.json").read_text())["lines"]
    traj, _, _ = run_problem(Config(load_config(path)))
    trace = extract_g_plus(traj, 1.0)
    assert lines == {
        "flux_inward": {"2.0": flux_inward(traj, 2.0)},
        "flux_outward": {"1.0": flux_outward(traj, 1.0), "-1.0": flux_outward(traj, -1.0)},
        "g_plus": {"1.0": {"g_plus": trace.g_plus, "rate": trace.rate_estimate}, "9.0": None},
    }
    e0 = traj.ledger.e_total[0]
    for q in (lines["flux_inward"]["2.0"], *lines["flux_outward"].values()):
        assert 0.0 < q < e0


# the lines' edge cases on LINES_CFG (t_max = 10, padded r_max = 15.34) without
# its own lines, the other monitors on RUN_CFG
BARE_LINES_CFG = LINES_CFG.replace("monitors.flux_s = 2\n", "").replace(
    "monitors.flux_tau = 1,-1\n", "").replace("monitors.char_tau = 1,9\n", "")


@pytest.mark.parametrize("base,line,message", [
    pytest.param(BARE_LINES_CFG, *case, id=case[0]) for case in [
        ("monitors.flux_s = 2,30", "the line of flux label s=30.0 never crosses the run"),
        ("monitors.flux_tau = -16", "the line of flux label tau=-16.0 never crosses the run"),
        ("monitors.char_tau = 10", "the line of trace label tau=10.0 never crosses the run"),
    ]] + [pytest.param(RUN_CFG, *case, id=case[0]) for case in [
        ("monitors.radii = 1.0,100", "radius 100 lies past r_max"),
        ("monitors.triangles = 1:100", "inward triangle (1.0,100.0) leaves the run or the grid"),
        ("monitors.triangles_out = 1:100", "outward triangle (1.0,100.0) leaves the run"),
        ("monitors.snapshots = 0.3", "snapshot time=0.3 is not a multiple of the grid spacing"),
        ("monitors.triangles = 1:-0.5", "inward triangle (1.0,-0.5) leaves the run"),
        ("monitors.snapshots = 5", "snapshot time 5.0 lies outside [0, t_max=2.0]"),
        ("monitors.snapshots = -1", "snapshot time -1.0 lies outside [0, t_max=2.0]"),
        ("grid.t_max = -1", "a run needs t_max >= 0 and r_max >= 2h, got t_max=-1.0"),
        ("grid.r_max = 1/64", "a run needs t_max >= 0 and r_max >= 2h"),
        ("monitors.snapshots=1,5", "snapshot time 5.0 lies outside [0, t_max=2.0]"),  # sweep axis
    ]])
def test_line_that_never_crosses_the_run_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                                base, line, message):
    """A monitor off the run is a config error, found before stepping: a
    flux or trace line that no level reaches (s = 30 past r_max + t_max,
    an outward line tau = -16 that left before t = 0, a trace starting at
    t_max, which reaches node 0 only at the last level), a radius past
    r_max, a triangle that leaves the run or has no height, a snapshot
    time off the grid or outside [0, t_max], and a run to a negative t_max
    or on fewer than 3 nodes.  A sweep sets up every case before its
    first worker; a line without " = " is its axis."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before the monitors were checked")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    out = tmp_path / "out"
    if " = " in line:  # a later line overrides the base's own
        argv = ["run", _write(tmp_path, base + line + "\n")]
    else:
        argv = ["sweep", _write(tmp_path, base), line]
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------------------------
# error paths and exit codes
# --------------------------------------------------------------------------

def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG + "params.q = 1\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "params.q" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "grid.boundary = outgoing", "grid.margin = 2", "data.blend = 0.5", "data.leak_tol = none",
    "monitors.envelope_c = 0.5", "output.snapshots = false", "checks.conservation = 0",
    "checks.additivity = 1", "checks.monotonicity = 1", "checks.pointwise = 1",
    "checks.triangle = 1",
])
def test_removed_key_exits_2_before_any_run(tmp_path, capsys, monkeypatch, line):
    """Settings the run now fixes or derives (boundary, margin, blend, leak
    check, envelope c, NPZ output, check thresholds) are unknown keys."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran with an unknown key")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, RUN_CFG + line + "\n")
    assert main(["verify", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown config keys: " + line.split(" = ")[0] in capsys.readouterr().err


def test_out_of_range_exponent_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, RUN_CFG.replace("params.p = 3", "params.p = 6"))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "grid.h = 1/32\ngrid.t_max = 1\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "params.p" in capsys.readouterr().err


def test_grid_spacing_off_unit_radius_exits_2(tmp_path, capsys):
    # r = 1 + t, where the exterior norm starts, must be a grid node
    cfg = _write(tmp_path, RUN_CFG.replace("grid.h = 1/64", "grid.h = 0.3")
                 .replace("grid.t_max = 2", "grid.t_max = 0.6")
                 .replace("monitors.radii = 1.0,t/4", "monitors.radii = t/4")
                 .replace("monitors.snapshots = 1,2", "monitors.snapshots = 0.6"))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "h=0.3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["grid.h = nan", "monitors.radii = inf",
                                  "data.amplitude = nan", "data.amplitude = inf",
                                  "monitors.snapshots = 1,nan", "monitors.triangles = 1:inf"])
def test_non_finite_grid_input_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    rows = [row for row in RUN_CFG.splitlines() if not row.startswith(key)]
    cfg = _write(tmp_path, "\n".join(rows + [line]) + "\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("stride", ["0", "-5"])
def test_stride_below_one_exits_2_before_any_run(tmp_path, capsys, monkeypatch, stride):
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before output.stride was checked")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, RUN_CFG.replace("output.stride = 4", f"output.stride = {stride}"))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "output.stride must be at least 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_bad_plots_value_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    """output.plots is checked when the config is read, before any step:
    no file and no case directory is written."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before output.plots was checked")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, RUN_CFG.replace("output.plots = true", "output.plots = maybe"))
    out = tmp_path / "out"
    argv = [command, cfg] + (["grid.h=1/32,1/16"] if command == "sweep" else [])
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: output.plots must be a boolean, got 'maybe'" in err
    assert not out.exists()


def test_bad_value_at_a_key_the_family_does_not_read_exits_2(tmp_path, capsys, monkeypatch):
    """A Gaussian run reads no data.c, but a malformed one is still refused."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran with a malformed data.c")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, RUN_CFG + "data.c = abc\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: data.c must be a number, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_power_law_run_without_r_max_exits_2(tmp_path, capsys):
    """Power-law data have no support radius to pad past."""
    cfg = _write(tmp_path, POWER_LAW_CFG.replace("grid.r_max = 21\n", ""))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: the data family has an unbounded tail; set grid.r_max" in err
    assert not (tmp_path / "out").exists()


def test_verify_all_zero_data(tmp_path, capsys):
    # E(0) = 0: the drift is absolute, and the light cone of the data is empty;
    # a channel that never moves reports the margin +0, not -0
    cfg = _write(tmp_path, RUN_CFG.replace("data.amplitude = 0.4", "data.amplitude = 0"))
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[conservation] PASS 0 " in stdout and "[monotonicity] PASS 0 " in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy"]["conservation_drift"] == 0.0
    assert summary["energy"]["initial"] == 0.0
    margins = [summary["energy"][k] for k in ("worst_e_minus_increase", "worst_e_plus_decrease")]
    assert [math.copysign(1.0, x) for x in margins] == [1.0, 1.0]


def test_verify_all_zero_data_with_triangle_probe(tmp_path, capsys):
    # E_-(t0; 0, r0) = 0 as well: the residual fraction is the absolute 0
    cfg = _write(tmp_path, RUN_CFG.replace("data.amplitude = 0.4", "data.amplitude = 0")
                 + "monitors.triangles = 0.5:1\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out-dir", str(out)]) == 0
    assert "[triangle] PASS 0 " in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["triangles"][0]["residual_frac"] == 0.0


def test_checks_fail_on_nan(tmp_path):
    """The checks read the summary's numbers: a nan residual fails its
    check, and a nan energy level stops summarize, naming the level."""
    cfg = Config(load_config(_write(tmp_path, RUN_CFG + "monitors.triangles = 0.5:1\n")))
    traj, _, _ = run_problem(cfg)
    assert all(check["passed"] for check in run_checks(traj, summarize(traj)))
    traj.triangle_records[0].energy = math.nan
    checks = {check["name"]: check for check in run_checks(traj, summarize(traj))}
    assert math.isnan(checks["triangle"]["value"]) and not checks["triangle"]["passed"]
    traj.ledger.e_plus[3] = math.nan
    with pytest.raises(OffGridError, match=r"level 3 \(t=0\.046875\) was not recorded"):
        summarize(traj)


def test_tabulated_spacing_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    """A table of another spacing, or one with a nan or inf value, is
    refused before any step (a nan used to exit 3 once |w| reached nan)."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran on data that were refused")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    data = tmp_path / "state.npz"
    nan, inf = np.zeros(33), np.zeros(33)
    nan[5], inf[5] = math.nan, math.inf
    for w0, w1, h, message in [(np.zeros(33), np.zeros(33), 1.0 / 16.0, "spacing"),
                               (nan, np.zeros(33), 1.0 / 32.0, "must be finite"),
                               (np.zeros(33), inf, 1.0 / 32.0, "must be finite")]:
        np.savez(data, w0=w0, w1=w1, h=h)
        cfg = _write(tmp_path, f"params.p = 3\ngrid.h = 1/32\ngrid.t_max = 1\n"
                               f"data.family = file\ndata.path = {data}\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert "Traceback" not in err


def _save_table(path, **arrays):
    np.savez(path, **{"w0": np.zeros(17), "w1": np.zeros(17), "h": 1.0 / 16.0, **arrays})


@pytest.mark.parametrize("write", [
    lambda path: path.write_text("w0 = 0, 0, 0\n"),
    lambda path: path.write_bytes(b""),
    lambda path: _save_table(path, h=np.array([1.0 / 16.0, 1.0 / 16.0])),
    lambda path: _save_table(path, w0=np.array(["0"] * 16 + ["x"])),
    lambda path: _save_table(path, w0=np.array([None] * 17, dtype=object)),
    lambda path: _save_table(path, w0=np.zeros((4, 4)), w1=np.zeros((4, 4))),
], ids=["text", "empty", "h-array", "w0-strings", "w0-objects", "4x4-table"])
def test_malformed_table_exits_2(tmp_path, capsys, write):
    """A data.path np.load cannot read, or a table that is not 1-D numbers
    with a scalar h, is a config error that names the path; it used to end
    in a traceback (a 4 x 4 table ran as 16 nodes)."""
    data = tmp_path / "state.npz"
    write(data)
    cfg = _write(tmp_path, f"params.p = 3\ngrid.h = 1/16\ngrid.t_max = 1\n"
                           f"data.family = file\ndata.path = {data}\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot load data from {data}" in err and "Traceback" not in err


def test_runtime_lab_error_exits_3(tmp_path, capsys):
    """A failure of the run itself: power-law data at c = 3.5 overflow
    near the origin at h = 1/32."""
    cfg = _write(tmp_path, POWER_LAW_CFG.replace("data.c = 0.5", "data.c = 3.5").replace(
        "grid.h = 1/16", "grid.h = 1/32").replace("grid.t_max = 8", "grid.t_max = 16").replace(
        "grid.r_max = 21", "grid.r_max = 36"))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "error: |w| reached" in err and "config error" not in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "data.width=0.5"]])
def test_overflowing_energy_exits_3_by_name(tmp_path, capsys, monkeypatch, command):
    """Legal data whose energy overflows (a linear Gaussian of amplitude
    1e200) exit 3 naming the overflow, from run and sweep alike, before
    any step and without a numpy warning; they read as "level 0 (t=0) was
    not recorded"."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran on data whose energy overflows")

    monkeypatch.setattr("nlw.cli.evolve", no_run)
    cfg = _write(tmp_path, "params.p = 3\ngrid.h = 1/16\ngrid.t_max = 1\n"
                           "data.family = gaussian\ndata.amplitude = 1e200\n"
                           "data.center = 1.5\ndata.width = 0.5\nrun.linear = true\n")
    assert main([command[0], cfg, *command[1:], "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "error: the data's energy overflows: int r^2 (u_r^2 + u_t^2) dr = nan" in err
    assert "not recorded" not in err and "Traceback" not in err


@pytest.mark.parametrize("amplitude, linear", [("1e100", "false"), ("1e150", "true")])
def test_overflowing_source_exits_3_by_name(tmp_path, capsys, monkeypatch, amplitude, linear):
    """Data whose kinetic energy is finite but whose level-0 source
    integrals overflow exit 3 naming the overflow, before any step and
    without a numpy warning: the nonlinear Gaussian of amplitude 1e100 used
    to warn in the potential's dot, the linear one of 1e150 to warn and
    exit 0 with nan and inf in y2p and the exterior norm."""
    def no_step(*args, **kwargs):
        raise AssertionError("leapfrog stepped data whose source overflows")

    monkeypatch.setattr("nlw.solver.leapfrog", no_step)
    cfg = _write(tmp_path, "params.p = 3\ngrid.h = 1/16\ngrid.t_max = 1\n"
                           f"data.family = gaussian\ndata.amplitude = {amplitude}\n"
                           f"data.center = 1.5\ndata.width = 0.5\nrun.linear = {linear}\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "error: the data's source overflows: int F(w0) w0 dr = " in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_write_json_refuses_a_nan(tmp_path):
    """write_json takes documents _jsonable has made; a NaN that bypasses
    it raises instead of writing the invalid JSON literal NaN."""
    path = tmp_path / "doc.json"
    write_json(path, _jsonable({"x": math.nan, "y": [1.0, math.inf]}))
    assert json.loads(path.read_text()) == {"x": None, "y": [1.0, None]}
    with pytest.raises(ValueError):
        write_json(path, {"x": math.nan})


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

SWEEP_CFG = (
    RUN_CFG.replace("grid.t_max = 2", "grid.t_max = 1")
    .replace("monitors.snapshots = 1,2", "monitors.snapshots = 0.5,1")
    .replace("output.plots = true", "output.plots = false")
)


def test_sweep_list_axis_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    # one worker stays in-process
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    cfg = _write(tmp_path, SWEEP_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "grid.h=1/32,1/16", "--out-dir", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "grid.h"
    assert [r[0] for r in rows[1:]] == ["1/32", "1/16"]
    assert (out / "grid.h=1_32" / "ledger.csv").exists()
    assert (out / "grid.h=1_16" / "summary.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_sweep_range_axis_parallel(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _write(tmp_path, SWEEP_CFG)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", cfg, "data.amplitude=0.1:0.3:0.1", "--out-dir", str(out)]
    )
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0.1", "0.2", "0.3"]
    # energies scale with amplitude^2 up the axis
    finals = [float(r[2]) for r in rows[1:]]
    assert finals == sorted(finals)


def test_sweep_refuses_a_long_range_before_building_it(tmp_path, capsys, monkeypatch):
    """A range of more than MAX_SWEEP_VALUES values exits 2 with its count,
    before any value string is made (0:1:1e-9 would make 10^9)."""
    def no_values(*args):
        raise AssertionError("range values were built")

    monkeypatch.setattr("nlw.cli.range", no_values, raising=False)
    cfg = _write(tmp_path, SWEEP_CFG)
    for rhs, count in (("0:1:1e-9", "1000000000"), ("-1e308:1e308:1", "inf")):
        assert main(["sweep", cfg, f"grid.h={rhs}", "--out-dir", str(tmp_path / "s")]) == 2
        assert (f"sweep range '{rhs}' has {count} values, over 10000"
                in capsys.readouterr().err)


def test_sweep_axis_validation(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CFG)
    assert main(["sweep", cfg, "nonsense", "--out-dir", str(tmp_path / "s")]) == 2
    assert main(
        ["sweep", cfg, "foo.bar=1,2", "--out-dir", str(tmp_path / "s")]
    ) == 2
    assert main(
        ["sweep", cfg, "grid.h=1:0:1", "--out-dir", str(tmp_path / "s")]
    ) == 2
    capsys.readouterr()
    for rhs in ("0:inf:1", "0:1:nan", "nan:1:0.5"):  # no overflow or ValueError traceback
        assert main(["sweep", cfg, f"data.amplitude={rhs}", "--out-dir", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert f"sweep range '{rhs}' is not three finite numbers" in err
        assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


# --------------------------------------------------------------------------
# appendix subcommand
# --------------------------------------------------------------------------

def test_appendix_subcommand(tmp_path, capsys):
    out = tmp_path / "ap"
    code = main(
        [
            "appendix", "--p", "3", "--kappa", "0.8", "--c", "0.02",
            "--h", "1/16", "--t-max", "32", "--out-dir", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "envelope holds" in stdout
    assert "weighted channel mass" in stdout
    assert "tail norm exponent" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 3.0 and report["kappa"] == 0.8
    assert report["envelope"]["holds"] is True
    assert report["channel_mass"]["divergent"] is False
    # p = 3 makes the closed-form triangle bound vacuous
    assert all(row["ratio"] == 0.0 for row in report["triangle_bound"])
    assert report["scattering_rates"]["lp_l2p"]["exponent"] < 0.0
    assert (out / "envelope_rays.svg").exists()
    assert (out / "energy_decay.svg").exists()


def test_appendix_at_tiny_amplitude_skips_only_the_decay_plot(tmp_path, capsys):
    """At c = 1e-200 every decay series underflows to 0, which log-log axes
    drop: the study still exits 0 and writes its report and envelope plot,
    with a null decay artifact, where it used to leak line_plot's
    ValueError."""
    out = tmp_path / "ap"
    code = main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--t-max", "16",
                 "--c", "1e-200", "--out-dir", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["artifacts"] == {"envelope_rays": str(out / "envelope_rays.svg"),
                                   "energy_decay": None}
    assert (out / "envelope_rays.svg").exists() and not (out / "energy_decay.svg").exists()


def test_appendix_at_tiny_amplitude_reports_finite_triangle_ratios(tmp_path):
    """At c = 1e-200 the triangle integrals and bounds underflow to 0, and
    the ratio, taken from |w / c|^p, stays finite: it was 0/0, written
    as null."""
    out = tmp_path / "ap"
    assert main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--t-max", "16",
                 "--c", "1e-200", "--out-dir", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["triangle_bound"]
    assert len(rows) == 3
    assert all(isinstance(row["ratio"], float) and 0.0 < row["ratio"] < 1.0 for row in rows)


def test_appendix_at_tiny_amplitude_writes_null_shares(tmp_path):
    """At c = 1e-200 K, E_- and every closed integral underflow to 0 with
    their closures: the shares and scaled_by_t_kappa are null, where they
    were 0/0 (a RuntimeWarning, then NaN); the free-wave closure stays 0.
    At c = 2 none of them is null."""
    out = tmp_path / "ap"
    assert main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--t-max", "16",
                 "--c", "1e-200", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy_decay"]["scaled_by_t_kappa"] is None
    shares = report["far_field"]["closure_share"]
    assert shares.pop("free_wave_defect") == [0.0]
    assert shares == {"e_minus": [None] * 3, "e_plus": [None] * 3, "y2p": [None] * 3,
                      "exterior": [None] * 3, "k": None}
    assert main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--t-max", "16",
                 "--c", "2", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(isinstance(x, float) for x in report["energy_decay"]["scaled_by_t_kappa"])
    shares = report["far_field"]["closure_share"]
    assert isinstance(shares.pop("k"), float)
    assert all(isinstance(x, float) for v in shares.values() for x in v)


@pytest.mark.parametrize("t_max", ["2", "3.5"])
def test_appendix_short_horizon_exits_2_before_any_run(tmp_path, capsys, monkeypatch, t_max):
    """t_max below the first dyadic time 4 is refused up front: it used to
    leak numerics.dyadic_times' ValueError after the threshold search."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before t_max was checked")

    monkeypatch.setattr("nlw.appendix.evolve", no_run)
    code = main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16",
                 "--t-max", t_max, "--out-dir", str(tmp_path / "ap")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and f"t_max={float(t_max)}" in err
    assert not (tmp_path / "ap").exists()


@pytest.mark.parametrize(
    "flag",
    [["--h", "nan"], ["--h", "0.3"], ["--r-max", "inf"], ["--p", "6"], ["--kappa", "1.5"],
     ["--c", "-1"], ["--c", "nan"], ["--c", "inf"]],
    ids=["h=nan", "h=0.3", "r_max=inf", "p=6", "kappa=1.5", "c=-1", "c=nan", "c=inf"])
def test_appendix_bad_grid_exits_2_before_any_run(tmp_path, capsys, monkeypatch, flag):
    """A grid that cannot be built, or p, kappa or c out of range, is
    refused before the threshold search."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before the grid was checked")

    monkeypatch.setattr("nlw.appendix.evolve", no_run)
    code = main(["appendix", "--p", "4", "--kappa", "0.25", "--t-max", "8", *flag,
                 "--out-dir", str(tmp_path / "ap")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "ap").exists()


def test_appendix_r_max_inside_the_far_field_edge_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch):
    """r_max = 32 <= 2 t_max + 1 + h would put the clean edge at t_max
    inside r = 1 + t, where the far field does not hold: refused before the
    threshold search."""
    def no_run(*args, **kwargs):
        raise AssertionError("evolve ran before r_max was checked")

    monkeypatch.setattr("nlw.appendix.evolve", no_run)
    code = main(["appendix", "--p", "4", "--kappa", "0.25", "--t-max", "16", "--r-max", "32",
                 "--out-dir", str(tmp_path / "ap")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "r_max=32.0 must exceed 2 t_max + 1 + h" in err
    assert not (tmp_path / "ap").exists()


@pytest.mark.parametrize("t_max", ["4", "7.5"])
def test_appendix_below_t_max_8_reports_null_tail_fit(tmp_path, capsys, t_max):
    """4 <= t_max < 8 leaves no tail-norm start time t0 <= t_max / 2: the
    study still completes and reports an empty, unfitted tail section."""
    out = tmp_path / "ap"
    code = main(["appendix", "--p", "4", "--kappa", "0.25", "--c", "0.5", "--h", "1/16",
                 "--t-max", t_max, "--out-dir", str(out)])
    assert code == 0
    assert "too few dyadic start times" in capsys.readouterr().out
    lp = json.loads((out / "report.json").read_text())["scattering_rates"]["lp_l2p"]
    assert lp["times"] == [] and lp["totals"] == []
    assert lp["exponent"] is None and lp["r_squared"] is None


def test_appendix_refuses_a_word_for_a_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["appendix", "--p", "four", "--kappa", "0.25"])
    assert exc.value.code == 2 and "'four' is not a number" in capsys.readouterr().err


def test_appendix_fits_a_null_where_the_totals_underflow(tmp_path, capsys):
    """At c = 1e-200 and the default t_max = 64 every tail total underflows
    to 0: the four start times give a null tail fit, not an exit 3 ("power-
    law fit needs positive samples"), and stdout does not blame the times.
    The exterior values are all 0, so their fit is null too (it read as the
    perfect fit 0 + 0 log(1+T), r^2 = 1)."""
    out = tmp_path / "ap"
    assert main(["appendix", "--p", "4", "--kappa", "0.25", "--h", "1/16", "--c", "1e-200",
                 "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "tail norm exponent: no fit, a tail total is not positive" in stdout
    assert "exterior norm: no fit, the values do not vary" in stdout
    assert "too few" not in stdout and "r^2 = 1" not in stdout
    rates = json.loads((out / "report.json").read_text())["scattering_rates"]
    lp, ext = rates["lp_l2p"], rates["exterior_growth"]
    assert lp["times"] == [4.0, 8.0, 16.0, 32.0] and lp["totals"] == [0.0] * 4
    assert lp["exponent"] is None and lp["r_squared"] is None
    assert ext["values"] == [0.0] * 5
    assert ext["slope"] is None and ext["offset"] is None and ext["r_squared"] is None


# --------------------------------------------------------------------------
# fit subcommand
# --------------------------------------------------------------------------

def test_fit_power_law_column(tmp_path, capsys):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "val"])
        for t in (1.0, 2.0, 4.0, 8.0, 16.0):
            writer.writerow([t, 2.0 * t**-1.5])
    assert main(["fit", str(path), "--y", "val"]) == 0
    stdout = capsys.readouterr().out
    assert "val ~ 2" in stdout and "t^-1.5" in stdout
    assert "r^2 = 1.0" in stdout


def test_fit_power_law_skips_time_zero_row(tmp_path, capsys):
    # ledgers start at t = 0; the power-law fit must window that row out
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "val"])
        for t in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            writer.writerow([t, 2.0 * t**-1.5 if t > 0 else 5.0])
    assert main(["fit", str(path), "--y", "val"]) == 0
    stdout = capsys.readouterr().out
    assert "ignoring 1 row(s) with t <= 0" in stdout
    assert "val ~ 2" in stdout and "t^-1.5" in stdout


def test_fit_log_growth_column(tmp_path, capsys):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "v"])
        for t in (1.0, 3.0, 7.0, 15.0):
            writer.writerow([t, 1.0 + 2.0 * math.log1p(t)])
    assert main(["fit", str(path), "--y", "v", "--log-growth"]) == 0
    assert "log(1 + t)" in capsys.readouterr().out


def test_fit_window_and_errors(tmp_path, capsys):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "val"])
        writer.writerow([0.0, 0.0])  # would poison a power-law fit
        for t in (1.0, 2.0, 4.0, 8.0):
            writer.writerow([t, 3.0 * t**-2.0])
    assert main(["fit", str(path), "--y", "val", "--t-min", "1"]) == 0
    assert "t^-2" in capsys.readouterr().out
    for window in (["--t-min", "5"], ["--t-max", "1"]):  # 1 row left; 0 once t = 0 goes
        assert main(["fit", str(path), "--y", "val", *window]) == 2
        assert "a fit needs at least 3" in capsys.readouterr().err
    assert main(["fit", str(path), "--y", "nope"]) == 2
    assert "nope" in capsys.readouterr().err
    assert main(["fit", str(tmp_path / "absent.csv"), "--y", "val"]) == 2
    header_only = tmp_path / "empty.csv"
    header_only.write_text("t,val\n")
    assert main(["fit", str(header_only), "--y", "val"]) == 2
    capsys.readouterr()


def test_fit_non_numeric_cell_exits_2(tmp_path, capsys):
    """A cell that is not a finite number is refused by name: a nan y cell
    used to fit as "nan * t^+nan", a nan t cell was dropped as t <= 0, and
    with --log-growth it leaked numpy's LinAlgError."""
    path = tmp_path / "series.csv"
    for text, col, cell, flags in [
        ("t,val\n1,2\n2,oops\n4,0.5\n", "val", "oops", []),
        ("t,val\n1,2\n2,nan\n4,0.5\n8,0.25\n", "val", "nan", []),
        ("t,val\n1,2\n2,nan\n4,0.5\n8,0.25\n", "val", "nan", ["--log-growth"]),
        ("t,val\n1,2\nnan,1\n4,0.5\n8,0.25\n", "t", "nan", []),
        ("t,val\n1,2\nnan,1\n4,0.5\n8,0.25\n", "t", "nan", ["--log-growth"]),
        ("t,val\n1,2\n2,-inf\n4,0.5\n8,0.25\n", "val", "-inf", []),
    ]:
        path.write_text(text)
        assert main(["fit", str(path), "--y", "val", *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"column '{col}', data row 2: '{cell}'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("text, flags, col, need", [
    ("t,val\n1,2\n2,0\n4,0.5\n", [], "val", "positive"),
    ("t,val\n-1,1\n0,2\n1,3\n2,4\n", ["--log-growth"], "t", "above -1"),
    ("t,val\n1,2\n2,2\n4,2\n", [], "val", "positive"),
    ("t,val\n0,0\n1,0\n2,0\n", ["--log-growth"], "t", "above -1"),
])
def test_fit_window_it_cannot_fit_exits_2(tmp_path, capsys, text, flags, col, need):
    """A window the fit cannot be made on exits 2 naming the column: a y <= 0
    of a power law used to exit 3, an x <= -1 of --log-growth exit 1 with
    a traceback, and a y without spread read as the perfect fit r^2 = 1."""
    path = tmp_path / "series.csv"
    path.write_text(text)
    assert main(["fit", str(path), "--y", "val", *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"cannot be fit; it needs every '{col}' {need}" in err
    assert "and 't' values and 'val' values that differ" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# ledger.csv bytes
# --------------------------------------------------------------------------

def _filled_ledger(levels, radii, seed=0):
    """A ledger of `levels` levels whose every series holds random values
    over many decades, with nan, +-inf, -0.0 and subnormals mixed in."""
    from types import SimpleNamespace

    from nlw.diagnostics import EnergyLedger
    from nlw.solver import Monitors

    params = SimpleNamespace(p=3.0, kappa=0.5)
    led = EnergyLedger.allocate(levels - 1, 1.0 / 128.0, params, Monitors(radii=radii), 4)
    rng = np.random.default_rng(seed)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16,
               123456789012.5, -1.0 / 3.0]
    series = [getattr(led, name) for name in
              ("e_total", "e_minus", "e_plus", "xi", "bulk", "y2p", "exterior_l2p2")]
    series += [arr for trio in led.radii.values() for arr in trio]
    for arr in series:
        arr[:] = rng.standard_normal(levels) * 10.0 ** rng.integers(-30, 30, levels)
        at = rng.permutation(levels)[: len(special)]
        arr[at] = special[: at.size]
    return SimpleNamespace(ledger=led)


def _reference_ledger_csv(path, led, stride):
    """ledger.csv as csv.writer writes it, one formatted cell at a time."""
    names = ["t", "E_total", "E_minus", "E_plus", "xi", "bulk", "y2p", "exterior_l2p2"]
    cols, series = list(names), [getattr(led, c.lower()) for c in names]
    for label, trio in led.radii.items():
        tag = "t4" if label == "t/4" else f"{float(label):g}"
        cols += [f"E_total_r{tag}", f"E_minus_r{tag}", f"E_plus_r{tag}"]
        series += list(trio)
    levels = list(range(0, led.t.size, stride))
    if levels[-1] != led.t.size - 1:
        levels.append(led.t.size - 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for m in levels:
            writer.writerow([f"{arr[m]:.12g}" for arr in series])
    return len(levels)


@pytest.mark.parametrize("levels,radii,stride", [
    (6401, (1.0, 2.0, "t/4"), 1),
    (6401, (1.0, 2.0, "t/4"), 7),  # 6400 = 7 * 914 + 2: the last level is added
    (5, (), 1),
    (5, (0.5,), 3),
    (1, ("t/4",), 4),
], ids=["6401x17-stride1", "6401x17-stride7", "5x8", "5x11-stride3", "1x11"])
def test_ledger_csv_bytes_match_csv_writer(tmp_path, levels, radii, stride):
    from nlw.cli import write_ledger_csv

    traj = _filled_ledger(levels, radii)
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    rows = _reference_ledger_csv(ref, traj.ledger, stride)
    assert write_ledger_csv(out, traj, stride) == rows
    assert out.read_bytes() == ref.read_bytes()
    if stride == 1 and levels > 10:
        cells = set(out.read_bytes().decode().replace("\r\n", ",").split(","))
        assert {"nan", "inf", "-inf", "-0", "4.94065645841e-324"} <= cells


def test_ledger_csv_writer_peak_allocation(tmp_path):
    """Writing a 6,401 x 17 ledger never holds the formatted file in memory."""
    import tracemalloc

    from nlw.cli import write_ledger_csv

    traj = _filled_ledger(6401, (1.0, 2.0, "t/4"))
    tracemalloc.start()
    try:
        write_ledger_csv(tmp_path / "ledger.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("p, c", [("4", "1000"), ("4.8", "64")])
def test_appendix_exits_3_when_the_far_field_overflows(tmp_path, capsys, p, c):
    """At large c the far-field profile's RK4 table overflows: the study
    exits 3 with one error line naming c, p and t/r, not a traceback."""
    code = main(["appendix", "--p", p, "--kappa", "0.25", "--h", "1/16", "--t-max", "4",
                 "--c", c, "--out-dir", str(tmp_path / "ap")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 1
    assert f"c={c}, p={p}" in err and "t/r = " in err


def test_run_exits_3_when_the_far_field_overflows(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("params.p = 4\ngrid.h = 1/16\ngrid.t_max = 4\ngrid.r_max = 16\n"
                   "data.family = power_law\ndata.c = 1000\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 1 and "c=1000, p=4" in err
