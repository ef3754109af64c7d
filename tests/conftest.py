"""Shared fixtures.

The expensive trajectories are session-scoped and shared between the
module tests and the acceptance suite, so the whole run stays within the
acceptance runtime budgets.  Everything here is deterministic: fixed
grids, fixed data, fixed seeds.
"""

import dataclasses
import time

import numpy as np
import pytest

from nlw import (
    DirectedPulse,
    GaussianBump,
    GridSpec,
    Monitors,
    RadialPair,
    evolve,
    make_params,
    run_appendix_example,
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def compact_run():
    """Long compactly-supported p=3 run on a causally padded grid.

    Drives the conservation/channel criteria and the flux-tail criterion;
    the snapshots also feed the pointwise-bound sweep.
    """
    params = make_params(3.0, 0.5)
    family = GaussianBump(0.5, 2.0, 0.5)
    grid = GridSpec.padded(1.0 / 256.0, 50.0, family.support_radius())
    mon = Monitors(
        radii=(1.0, "t/4"),
        flux_s=(6.0, 8.0, 12.0, 16.0, 20.0, 25.0),
        snapshot_times=(4.0, 8.0, 16.0, 32.0, 50.0),
        bins=True,
    )
    traj, elapsed = _timed(evolve, family.sample(grid), params, grid, mon)
    return {"traj": traj, "elapsed": elapsed, "support": family.support_radius()}


@pytest.fixture(scope="session")
def triangle_runs():
    """The same p=4 bump at h=1/128 and h=1/256 with the (t0, r0) = (1, 2)
    inward triangle probe, for the closure/refinement criterion."""
    params = make_params(4.0, 0.25)
    family = GaussianBump(1.0, 1.0, 0.25)
    out = {}
    for h in (1.0 / 128.0, 1.0 / 256.0):
        grid = GridSpec.padded(h, 4.0, family.support_radius())
        out[h] = evolve(
            family.sample(grid), params, grid,
            Monitors(triangles=((1.0, 2.0),), bins=True),
        )
    return out


@pytest.fixture(scope="session")
def linear_pulse_run():
    """Inward Gaussian pulse evolved linearly, long enough to reflect
    through the origin completely."""
    params = make_params(3.0, 0.5)
    family = DirectedPulse(0.8, 4.0, 0.5, direction="inward")
    grid = GridSpec.padded(1.0 / 256.0, 12.0, family.support_radius())
    mon = Monitors(radii=(1.0,), char_tau=(3.5,), snapshot_times=(4.0, 8.0), bins=True)
    traj = evolve(family.sample(grid), params, grid, mon, linear=True)
    return traj


@pytest.fixture(scope="session")
def morawetz_runs():
    """Small-amplitude bumps at p=3 and p=4 for the weighted-bound sweep,
    with the characteristic bins it reads (the weight accumulators are
    kappa-independent, so one run per p serves every kappa)."""
    runs = {}
    for p in (3.0, 4.0):
        params = make_params(p, 0.5)
        family = GaussianBump(0.1, 2.0, 0.5)
        grid = GridSpec.padded(1.0 / 64.0, 32.0, family.support_radius())
        runs[p] = evolve(family.sample(grid), params, grid, Monitors(bins=True))
    return runs


@pytest.fixture(scope="session")
def flagship():
    """The full slow-decay study at production resolution: p=4,
    kappa=0.25, h=1/128, t_max=64, at the default amplitude c = 2, half
    the envelope threshold 4 (ENVELOPE_CAP), where the far field's
    envelope is checked."""
    (report, traj, _), elapsed = _timed(run_appendix_example, 4.0, 0.25)
    return {"report": report, "traj": traj, "elapsed": elapsed}


@pytest.fixture(scope="session")
def flagship_coarse(flagship):
    """One grid refinement below the flagship (same amplitude, h=1/64)."""
    c = flagship["report"]["envelope"]["c"]
    report, _, _ = run_appendix_example(4.0, 0.25, c=c, h=1.0 / 64.0, t_max=64.0)
    return report


@pytest.fixture(scope="session")
def appendix_quick():
    """Cheap slow-decay run (coarse grid, short horizon) for diagnostics
    that need the persistent power-law tail but not production accuracy.
    Its amplitude is given, so the frozen report numbers do not move with
    the study's default c."""
    report, traj, _ = run_appendix_example(4.0, 0.25, c=3.36376953125 / 2.0, h=1.0 / 32.0,
                                        t_max=32.0)
    return {"report": report, "traj": traj}


@pytest.fixture(scope="session")
def appendix_binned(appendix_quick):
    """The quick appendix fixture's main run again, with the bins recorded."""
    traj = appendix_quick["traj"]
    mon = dataclasses.replace(traj.monitors, bins=True)
    return evolve(traj.pair, traj.params, traj.grid, mon)


@pytest.fixture(scope="session")
def appendix_every_level(appendix_quick):
    """The quick appendix fixture's main run again, on the same window, with
    its channel energies (E, E_-, E_+ and the radii) recorded on every
    level: the study records them only on the levels its plots draw and
    its report reads (Monitors.energy_levels), NaN elsewhere."""
    traj = appendix_quick["traj"]
    mon = dataclasses.replace(traj.monitors, energy_levels=None)
    return evolve(traj.pair, traj.params, traj.grid, mon)


@pytest.fixture(scope="session")
def ledger_level0():
    """(E_-, E_+, E) of a state (w, w_t) by the ledger's rule, the one every
    output reads: level 0 of a one-step run on a pad grid of the state's
    own nodes."""
    def energies(w, w_t, h, p):
        pair = RadialPair(w0=w, w1=w_t, h=h)
        grid = GridSpec(h=h, r_max=h * (pair.w0.size - 1), t_max=h, boundary="pad")
        led = evolve(pair, make_params(p, 0.5), grid).ledger
        return led.e_minus[0], led.e_plus[0], led.e_total[0]

    return energies


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
