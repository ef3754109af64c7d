"""Frozen ledgers of the shared session runs.

tests/data/frozen_ledger.json holds, for the compact, triangle,
linear-pulse and quick appendix fixtures as computed by nlw 0.1.0, the
SHA-256 of every snapshot level and the ledger, flux, trace and triangle
records.  Under the key "reports" it also holds the numbers that
are computed after the run: the quick appendix report (K, tail norms,
exterior values, free-wave defects, triangle source integrals), a
cylinder integral, and the time-zero functionals K1 and E of the triangle
fixtures' data.  The quick appendix run records no characteristic bins,
so its s_bulk and its weighted bound come from a rerun of its main
``evolve`` with ``bins=True``.  It records its channel energies (E, E_-,
E_+ and the radii) only on its plots' levels, so those series and the
cylinder integral come from a rerun that records them on every level
(``energy_levels=None``), on the same window.  Under the key "duhamel" it holds the
SHA-256 of ``duhamel_solve`` outputs on five small cases (p = 3, 3.5 and 4, a
one-step horizon, an outgoing grid).  Snapshot levels and Duhamel
outputs must stay bit-identical.  Recorded
values may move only by the rounding of a reordered sum or product, so
they are compared at rtol 1e-13 (atol 1e-300 absorbs subnormals).  Each
series is stored as evenly strided samples, its last entry included, plus
the sum of its absolute values over every entry, which a change at any
single level would move.

To regenerate after an intended change of the numbers, dump
``ledger_record`` of the four fixtures (and the two appendix reruns), with
``report_record`` under "reports" and ``duhamel_record`` under
"duhamel", to the JSON file from a throwaway test and say why in the
change log.  The snapshot digests of the compact and linear-pulse
fixtures, the Duhamel digests and the ledgers were last regenerated when
sampled data began to end at their support radius (their Gaussian tails
had run on to r_max) and the exponents 2.5, 3.5 and 4.5 began to take one
square root instead of np.power.  The Duhamel digests had changed before
when the oracle began taking each level's source from its new row
(Gauss-Seidel sweeps), which solves the discrete system exactly instead
of to an update of 1e-10; ``tests/test_solver.py`` bounds it against the
direct sums of ``oracles.duhamel_loop`` at its fixed point.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nlw import (
    DirectedPulse,
    GaussianBump,
    GridSpec,
    duhamel_solve,
    make_params,
    weighted_morawetz,
)

FROZEN = Path(__file__).parent / "data" / "frozen_ledger.json"
SAMPLES = 64
RTOL = 1e-13
ATOL = 1e-300


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _series(a):
    a = np.asarray(a, dtype=float)
    stride = max(1, math.ceil(a.size / SAMPLES))
    idx = list(range(0, a.size, stride))
    if idx[-1] != a.size - 1:
        idx.append(a.size - 1)
    return {
        "size": int(a.size),
        "index": idx,
        "values": [float(a[i]) for i in idx],
        "abs_sum": float(np.nansum(np.abs(a))),
    }


def _run_record(traj, binned=None, every_level=None):
    """Record of traj; s_bulk comes from binned, a rerun of traj with the
    characteristic bins, when traj did not record them, and the channel
    energies from every_level, a rerun that records them on every level,
    when given."""
    led, energies = traj.ledger, (every_level or traj).ledger
    series = {name: _series(getattr(energies, name)) for name in ("e_total", "e_minus", "e_plus")}
    series.update((name, _series(getattr(led, name)))
                  for name in ("xi", "bulk", "y2p", "exterior_l2p2"))
    series["s_bulk"] = _series((binned or traj).ledger.s_bulk)
    for label, arrays in energies.radii.items():
        for part, arr in zip(("total", "minus", "plus"), arrays):
            series[f"radius {label} {part}"] = _series(arr)
    for kind, traces in (("flux_in", traj.flux_in), ("flux_out", traj.flux_out),
                         ("char", traj.char_traces)):
        for label, arr in traces.items():
            series[f"{kind} {label}"] = _series(arr)
    rec = {
        "snapshots": [
            {"t": snap.t, "levels": [_digest(snap.w_prev), _digest(snap.w_curr),
                                     _digest(snap.w_next)]}
            for snap in traj.snapshots
        ],
        "triangles": [
            {"kind": t.kind, "t0": t.t0, "r0": t.r0, "m_lo": t.m_lo, "m_hi": t.m_hi,
             "bulk": t.bulk, "flux": t.flux, "energy": t.energy}
            for t in traj.triangle_records
        ],
    }
    rec["series"] = series
    return rec


def ledger_record(compact_run, triangle_runs, linear_pulse_run, appendix_quick,
                  appendix_binned, appendix_every_level):
    """JSON-ready record of the four shared fixtures."""
    out = {"compact": _run_record(compact_run["traj"]),
           "linear_pulse": _run_record(linear_pulse_run),
           "appendix_quick": _run_record(appendix_quick["traj"], appendix_binned,
                                         appendix_every_level)}
    for h, traj in triangle_runs.items():
        out[f"triangle h=1/{round(1 / h)}"] = _run_record(traj)
    return out


def report_record(triangle_runs, appendix_quick, appendix_binned, appendix_every_level):
    """JSON-ready numbers derived from the runs and their initial data."""
    rep = appendix_quick["report"]
    rates = rep["scattering_rates"]
    ext = rates["exterior_growth"]
    led = appendix_every_level.ledger
    cyl = led.tail_integral(led.radii[1.0][2], 4.0)  # int_4^inf E_+(t; 0, 1)
    out = {
        "appendix k1": rep["channel_mass"]["k1"],
        "appendix k": rep["channel_mass"]["k"],
        "appendix lp_l2p totals": rates["lp_l2p"]["totals"],
        "appendix lp_l2p exponent": rates["lp_l2p"]["exponent"],
        "appendix exterior values": ext["values"],
        "appendix exterior fit": [ext["slope"], ext["offset"], ext["r_squared"]],
        "appendix free_wave_defect": rates["free_wave_defect"]["values"],
        "appendix triangle integrals": [row["integral"] for row in rep["triangle_bound"]],
        "appendix cylinder": [cyl.value, cyl.tail, cyl.exponent],
        "appendix morawetz k1": weighted_morawetz(appendix_binned).k1,
    }
    for h, run in triangle_runs.items():
        out[f"triangle h=1/{round(1 / h)} morawetz k1"] = weighted_morawetz(run).k1
        out[f"triangle h=1/{round(1 / h)} energy_total"] = float(run.ledger.e_total[0])
    return out


def _duhamel_cases():
    """(name, pair, params, grid, t_target) of the frozen oracle solves."""
    refinement = GaussianBump(0.5, 2.0, 0.5)
    c02 = GaussianBump(0.1, 2.0, 0.5)
    bootstrap = GaussianBump(0.8, 2.0, 0.4)
    pulse = DirectedPulse(0.5, 3.0, 0.5, direction="inward")
    cases = [
        ("p=4 refinement bump h=1/32 t=1", refinement, make_params(4.0, 0.25),
         GridSpec.padded(1.0 / 32.0, 1.0, refinement.support_radius()), 1.0),
        ("p=3 C02 bump h=1/64 t=1", c02, make_params(3.0, 0.5),
         GridSpec.padded(1.0 / 64.0, 1.0, c02.support_radius()), 1.0),
        ("p=3.5 refinement bump h=1/32 t=1", refinement, make_params(3.5, 0.25),
         GridSpec.padded(1.0 / 32.0, 1.0, refinement.support_radius()), 1.0),
        ("p=4 bootstrap bump h=1/32 t=h", bootstrap, make_params(4.0, 0.25),
         GridSpec.padded(1.0 / 32.0, 1.0, bootstrap.support_radius()), 1.0 / 32.0),
        # data reach r_max, so the zero extension past it is exercised too
        ("p=3 inward pulse outgoing h=1/32 t=1", pulse, make_params(3.0, 0.5),
         GridSpec(h=1.0 / 32.0, r_max=6.0, t_max=1.0, boundary="outgoing"), 1.0),
    ]
    return [(name, fam.sample(grid), params, grid, t) for name, fam, params, grid, t in cases]


def duhamel_record():
    """JSON-ready size and SHA-256 of each frozen ``duhamel_solve`` output."""
    out = {}
    for name, pair, params, grid, t in _duhamel_cases():
        w = duhamel_solve(pair, params, grid, t)
        out[name] = {"size": int(w.size), "sha256": _digest(w)}
    return out


@pytest.fixture(scope="module")
def frozen():
    with FROZEN.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def records(frozen, compact_run, triangle_runs, linear_pulse_run, appendix_quick,
            appendix_binned, appendix_every_level):
    frozen = {name: rec for name, rec in frozen.items()
              if name not in ("reports", "duhamel")}
    now = ledger_record(compact_run, triangle_runs, linear_pulse_run, appendix_quick,
                        appendix_binned, appendix_every_level)
    assert set(now) == set(frozen)
    return frozen, now


def _close(got, want, what):
    np.testing.assert_allclose(
        np.asarray(got, dtype=float), np.asarray(want, dtype=float),
        rtol=RTOL, atol=ATOL, err_msg=what,
    )


def test_snapshot_levels_bit_identical(records):
    frozen, now = records
    for name in frozen:
        want, got = frozen[name]["snapshots"], now[name]["snapshots"]
        assert [s["t"] for s in got] == [s["t"] for s in want], name
        for s_got, s_want in zip(got, want):
            assert s_got["levels"] == s_want["levels"], f"{name} t={s_want['t']}"


def test_ledger_series_match_frozen(records):
    frozen, now = records
    for name in frozen:
        want, got = frozen[name]["series"], now[name]["series"]
        assert set(got) == set(want), name
        for key, ref in want.items():
            cur = got[key]
            assert cur["size"] == ref["size"] and cur["index"] == ref["index"], key
            _close(cur["values"], ref["values"], f"{name}: {key}")
            _close(cur["abs_sum"], ref["abs_sum"], f"{name}: {key} abs sum")


def test_triangle_records_match_frozen(records):
    frozen, now = records
    for name in frozen:
        want, got = frozen[name], now[name]
        assert len(got["triangles"]) == len(want["triangles"]), name
        for t_got, t_want in zip(got["triangles"], want["triangles"]):
            for key in ("kind", "t0", "r0", "m_lo", "m_hi"):
                assert t_got[key] == t_want[key], f"{name}: triangle {key}"
            for key in ("bulk", "flux", "energy"):
                _close(t_got[key], t_want[key], f"{name}: triangle {key}")


def test_report_numbers_match_frozen(frozen, triangle_runs, appendix_quick,
                                     appendix_binned, appendix_every_level):
    want = frozen["reports"]
    got = report_record(triangle_runs, appendix_quick, appendix_binned, appendix_every_level)
    assert set(got) == set(want)
    for key, ref in want.items():
        _close(got[key], ref, key)


def test_duhamel_outputs_bit_identical(frozen):
    assert duhamel_record() == frozen["duhamel"]
