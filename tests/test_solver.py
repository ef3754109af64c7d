import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
import nlw.solver
from test_frozen_ledger import _duhamel_cases
from nlw.errors import (
    BlowupError,
    ConfigError,
    InitialDataError,
    NoContractionError,
    OffGridError,
)
from nlw.model import (
    AppendixPowerLaw,
    DirectedPulse,
    GaussianBump,
    RadialPair,
    make_params,
)
from nlw.numerics import derivative, grid_index, node_at_or_past, trapz
from nlw.solver import (
    CleanEdge,
    GridSpec,
    Monitors,
    bootstrap,
    duhamel_solve,
    evolve,
    leapfrog,
    plan_run,
)


def _bump_23(r):
    """C^2 bump supported exactly on [2, 3]."""
    x = 2.0 * (np.asarray(r, dtype=float) - 2.5)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    out[inside] = (1.0 - x[inside] ** 2) ** 3
    return out


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(OffGridError):
        GridSpec(h=0.0, r_max=1.0, t_max=1.0)
    with pytest.raises(OffGridError):
        GridSpec(h=0.1, r_max=1.0, t_max=1.0, boundary="absorbing")
    with pytest.raises(OffGridError, match="exterior base radius"):
        GridSpec(h=0.3, r_max=3.0, t_max=0.6)  # r = 1 + t is off the grid
    for bad in (math.nan, math.inf):
        with pytest.raises(OffGridError):
            GridSpec(h=bad, r_max=1.0, t_max=1.0)
        with pytest.raises(OffGridError):
            GridSpec(h=0.25, r_max=bad, t_max=1.0)
        with pytest.raises(OffGridError):
            GridSpec.padded(bad, 1.0, 1.0)
        with pytest.raises(OffGridError):
            GridSpec.padded(0.25, bad, 1.0)
        with pytest.raises(OffGridError):
            grid_index(bad, 0.25)
    g = GridSpec.padded(1.0 / 32.0, 10.0, 3.0)
    assert g.boundary == "pad"
    assert g.r_max >= 13.0
    assert g.r[1] - g.r[0] == pytest.approx(g.h)


def test_grid_sizes_are_computed_once_and_replace_recomputes_them():
    g = GridSpec(h=1.0 / 32.0, r_max=8.0, t_max=2.0)
    assert (g.n, g.steps) == (256, 64)
    assert {"n", "steps"} <= vars(g).keys()
    small = dataclasses.replace(g, r_max=4.0, t_max=1.0)
    assert (small.n, small.steps) == (128, 32)
    assert (g.n, g.steps) == (256, 64)


# --------------------------------------------------------------------------
# linear propagation is grid-exact
# --------------------------------------------------------------------------

def test_linear_at_rest_matches_continuum_formula():
    """w1 = 0: the scheme reproduces the odd-extension half-sum at the
    nodes in exact arithmetic, including reflection through the origin."""
    h = 1.0 / 64.0
    grid = GridSpec(h=h, r_max=16.0, t_max=5.0, boundary="pad")
    r = grid.r
    pair = RadialPair(w0=_bump_23(r), w1=np.zeros_like(r), h=h)
    params = make_params(3.0, 0.5)
    traj = evolve(pair, params, grid, Monitors(snapshot_times=(5.0,)), linear=True)
    snap = traj.snapshot_at(5.0)
    # t = 5: the left edge of the support has passed through the origin
    ref = oracles.dalembert_point(_bump_23, lambda x: 0.0, r, 5.0)
    m = int(round(5.0 / h))
    valid = r.size - m  # nodes the outer boundary cannot have influenced
    err = np.max(np.abs(snap.w_curr[:valid] - ref[:valid]))
    assert err < 1e-12, f"linear evolution should be node-exact, err={err}"
    # and the reflected profile is genuinely nontrivial
    assert np.max(np.abs(ref[:valid])) > 0.1


def test_linear_moving_data_matches_discrete_formula(rng):
    """Arbitrary (w0, w1): compare against the closed-form discrete
    solution (half-sum plus alternating-parity velocity sum)."""
    h = 1.0 / 96.0
    grid = GridSpec(h=h, r_max=12.0, t_max=2.0, boundary="pad")
    r = grid.r
    w0, w1 = oracles.random_smooth_state(rng, h, 12.0, n_bumps=3, moving=True)
    pair = RadialPair(w0=w0, w1=w1, h=h)
    params = make_params(4.0, 0.25)
    traj = evolve(pair, params, grid, Monitors(snapshot_times=(1.0, 2.0)), linear=True)
    for t in (1.0, 2.0):
        m = int(round(t / h))
        ref = oracles.dalembert_grid(w0, w1, h, m)
        got = traj.snapshot_at(t).w_curr[: ref.size]
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale


@pytest.mark.parametrize("m", [1, 2, 37, 256])
def test_free_levels_are_the_linear_leapfrog_levels(m, rng, appendix_quick):
    """free_levels gives leapfrog(linear=True)'s levels m - 1, m and m + 1
    and oracles.dalembert_grid's, within C01's 1e-12 relative sup, on
    compact data on a pad grid and on a far-field snapshot (the window's
    nodes, then r^beta Phi out to r_max), where the nodes that the pad
    boundary or the zeros past r_max reach are left out."""
    snap = appendix_quick["traj"].snapshot_at(8.0)
    cases = [(*oracles.random_smooth_state(rng, 1.0 / 96.0, 12.0, n_bumps=3), 1.0 / 96.0),
             (snap.w_curr, snap.w_t, snap.h)]
    for w0, w1, h in cases:
        n = w0.size - 1
        grid = GridSpec(h=h, r_max=n * h, t_max=m * h, boundary="pad")
        for _, w_prev, w, w_next, *_ in leapfrog(RadialPair(w0, w1, h), make_params(4.0, 0.25),
                                                  grid, linear=True):
            pass  # the last step's levels stay bound
        got = nlw.solver.free_levels(w0, w1, h, m)
        assert got.shape == (3, n + 1) and not got[:, 0].any()  # the origin is pinned
        for row, march, level in zip(got, (w_prev, w, w_next), (m - 1, m, m + 1)):
            ref = oracles.dalembert_grid(w0, w1, h, level)
            scale = float(np.abs(ref).max())
            assert scale > 1e-2
            assert np.abs(row[: ref.size] - ref).max() <= 1e-12 * scale
            clean = n - m - 1  # nodes the march's pad boundary has not reached
            assert np.abs(row[:clean] - march[:clean]).max() <= 1e-12 * scale


def test_linear_exactness_at_multiple_resolutions():
    params = make_params(3.0, 0.5)
    for h in (1.0 / 32.0, 1.0 / 128.0):
        grid = GridSpec(h=h, r_max=8.0, t_max=100.0 * h, boundary="pad")
        r = grid.r
        pair = RadialPair(w0=_bump_23(r), w1=np.zeros_like(r), h=h)
        traj = evolve(pair, params, grid, Monitors(snapshot_times=(100.0 * h,)), linear=True)
        ref = oracles.dalembert_grid(pair.w0, pair.w1, h, 100)
        got = traj.snapshot_at(100.0 * h).w_curr[: ref.size]
        assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("family", [GaussianBump(0.5, 2.0, 0.5),
                                    DirectedPulse(0.5, 3.0, 0.5, direction="outward")])
def test_padded_data_end_at_their_support_radius(family):
    """A Gaussian's sample is exactly 0 past support_radius() and the
    profile on and before it, so the field never reaches the padded grid's
    edge: run on to t_max + 1 with an outgoing boundary (which does not
    pin r_max), w at r_max stays 0 on every level.  The tail used to run
    on past r_max = support + t_max + 1 and sit there from t = 0."""
    h, t_max = 1.0 / 32.0, 8.0
    padded = GridSpec.padded(h, t_max, family.support_radius())
    pair = family.sample(padded)
    r = padded.r
    past = r > family.support_radius()
    assert past.any() and not pair.w0[past].any() and not pair.w1[past].any()
    inside = ~past & (r > 0.0)
    assert np.array_equal(pair.w0[inside], family.w0(r[inside]))
    assert np.array_equal(pair.w1[inside], family.w1(r[inside]))
    grid = GridSpec(h=h, r_max=padded.r_max, t_max=t_max + 1.0, boundary="outgoing")
    for m, w_prev, w, *_ in leapfrog(pair, make_params(3.5, 0.5), grid):
        assert w[-1] == 0.0, f"w at r_max is {w[-1]} at t={m * h}"


# --------------------------------------------------------------------------
# nonlinear marching vs the integral-equation solver
# --------------------------------------------------------------------------

def test_leapfrog_agrees_with_duhamel():
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.1, 2.0, 0.5)
    h = 1.0 / 128.0
    grid = GridSpec.padded(h, 1.0, fam.support_radius())
    pair = fam.sample(grid)
    traj = evolve(pair, params, grid, Monitors(snapshot_times=(1.0,)))
    w_march = traj.snapshot_at(1.0).w_curr
    w_duh = duhamel_solve(pair, params, grid, 1.0)
    # independent quadrature routes agree to O(h^2); measured 1.5e-8 here
    assert np.max(np.abs(w_march - w_duh)) < 1e-6


def test_bootstrap_first_level_is_third_order_local():
    """Both Taylor levels are O(h^3) locally: w(h) against the Duhamel
    solve at t = h, and w(-h) against that of the time-reversed data
    (w0, -w1), for a bump at rest and a moving pulse."""
    params = make_params(4.0, 0.25)
    for fam in (GaussianBump(0.8, 2.0, 0.4), DirectedPulse(0.8, 2.0, 0.4)):
        errs = []
        for h in (1.0 / 32.0, 1.0 / 64.0):
            grid = GridSpec.padded(h, 1.0, fam.support_radius())
            pair = fam.sample(grid)
            backward, forward = bootstrap(pair, params, grid)
            reversed_pair = RadialPair(pair.w0, -pair.w1, h)
            errs.append([np.max(np.abs(level - duhamel_solve(data, params, grid, h)))
                         for level, data in ((forward, pair), (backward, reversed_pair))])
        for coarse, fine in zip(*errs):
            order = math.log2(coarse / fine)
            assert order > 2.5, f"one-step Taylor bootstrap should be ~O(h^3), got {order}"


def test_duhamel_solves_the_amplitude_four_bump():
    """Forward substitution has no contraction condition: the amplitude-4
    bump, where the Jacobi-ordered Picard iteration diverged from t = 0.5
    on, solves to t = 8, and at t = 1 it still agrees with the leapfrog at
    second order (measured: 0.0391 and 0.00965, order 2.02)."""
    params = make_params(4.0, 0.25)
    fam = GaussianBump(4.0, 2.0, 0.5)
    grid = GridSpec.padded(1.0 / 32.0, 8.0, fam.support_radius())
    assert np.all(np.isfinite(duhamel_solve(fam.sample(grid), params, grid, 8.0)))
    diffs = []
    for h in (1.0 / 32.0, 1.0 / 64.0):
        grid = GridSpec.padded(h, 1.0, fam.support_radius())
        pair = fam.sample(grid)
        traj = evolve(pair, params, grid, Monitors(snapshot_times=(1.0,)))
        w_duh = duhamel_solve(pair, params, grid, 1.0)
        diffs.append(np.max(np.abs(traj.snapshot_at(1.0).w_curr - w_duh)))
    assert math.log2(diffs[0] / diffs[1]) >= 1.9, diffs


def _small_duhamel_case():
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.5, 2.0, 0.5)
    grid = GridSpec.padded(1.0 / 16.0, 1.0, fam.support_radius())
    return fam.sample(grid), params, grid


def test_duhamel_rejects_negative_time():
    pair, params, grid = _small_duhamel_case()
    with pytest.raises(OffGridError):
        duhamel_solve(pair, params, grid, -1.0)
    assert np.array_equal(duhamel_solve(pair, params, grid, 0.0), pair.w0)


def test_duhamel_rejects_a_time_past_t_max():
    pair, params, grid = _small_duhamel_case()
    with pytest.raises(OffGridError, match="exceeds t_max"):
        duhamel_solve(pair, params, grid, grid.t_max + grid.h)


def _direct_cases():
    """(name, pair, params, grid, t_target) of the direct-sum comparisons:
    four of their own, then the frozen oracle solves."""
    own = [
        ("p=3 inward pulse h=1/16 t=2", 3.0, DirectedPulse(0.6, 2.0, 0.4, "inward"),
         GridSpec(h=1.0 / 16.0, r_max=3.0, t_max=2.0), 2.0),
        ("p=3.5 outward pulse h=1/10 t=1", 3.5, DirectedPulse(0.4, 1.5, 0.3, "outward"),
         GridSpec(h=0.1, r_max=4.0, t_max=1.0), 1.0),
        ("p=4 bump h=1/16 t=h", 4.0, GaussianBump(0.5, 2.0, 0.5),
         GridSpec.padded(1.0 / 16.0, 1.0, 4.0), 1.0 / 16.0),
        # t_target past r_max: the odd extension holds all n nodes, not m
        ("p=3 bump h=1/16 r_max=1 t=2", 3.0, GaussianBump(0.5, 0.5, 0.15),
         GridSpec(h=1.0 / 16.0, r_max=1.0, t_max=2.0, boundary="outgoing"), 2.0),
    ]
    cases = [(name, fam.sample(grid), make_params(p, 0.01), grid, t)
             for name, p, fam, grid, t in own] + _duhamel_cases()
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("pair, params, grid, t", _direct_cases())
def test_duhamel_matches_direct_triangle_sums(pair, params, grid, t):
    """The level march only reorders the direct triangle sums: each level
    adds a few ulp, which the exact d'Alembert stencil carries without
    growth, so the two agree to m eps sup|w| on m levels (measured: at
    most 0.09 of it)."""
    m = grid_index(t, grid.h)
    got = duhamel_solve(pair, params, grid, t)
    ref = oracles.duhamel_loop(pair.w0, pair.w1, params.p, grid.h, m)
    assert np.max(np.abs(got - ref)) <= m * np.finfo(float).eps * np.max(np.abs(ref))


def _sweeps(monkeypatch, pair, params, grid, t):
    """The number of sweeps of one solve: the smallest cap it converges under."""
    cap = nlw.solver.PICARD_MAX_SWEEPS

    def converges(sweeps):
        monkeypatch.setattr(nlw.solver, "PICARD_MAX_SWEEPS", sweeps)
        try:
            duhamel_solve(pair, params, grid, t)
        except NoContractionError:
            return False
        return True

    try:
        return next(s for s in range(1, cap + 1) if converges(s))
    finally:
        monkeypatch.setattr(nlw.solver, "PICARD_MAX_SWEEPS", cap)


@pytest.mark.parametrize("pair, params, grid, t", [
    pytest.param(*case[1:], id=case[0]) for case in _duhamel_cases()])
def test_duhamel_solves_in_two_sweeps(monkeypatch, pair, params, grid, t):
    """The first Gauss-Seidel sweep solves the lower-triangular system; the
    second confirms it with an update of exactly 0."""
    assert _sweeps(monkeypatch, pair, params, grid, t) == 2


def test_duhamel_takes_one_source_power_per_level_per_sweep(monkeypatch):
    pair, params, grid = _small_duhamel_case()
    sweeps = _sweeps(monkeypatch, pair, params, grid, 1.0)
    assert sweeps == 2
    calls = []
    real = nlw.solver.odd_power
    monkeypatch.setattr(nlw.solver, "odd_power", lambda *a: calls.append(1) or real(*a))
    duhamel_solve(pair, params, grid, 1.0)
    assert len(calls) == (grid.steps + 1) * sweeps


def test_duhamel_holds_two_tables():
    """A sweep updates the iterate in place, so one solve holds two
    (m + 1) x (n + m + 1) tables, the iterate and the linear part, and
    single rows besides."""
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.5, 2.0, 0.5)
    grid = GridSpec.padded(1.0 / 128.0, 1.0, fam.support_radius())
    pair = fam.sample(grid)
    m = grid.steps
    tracemalloc.start()
    try:
        duhamel_solve(pair, params, grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (m + 1) * (grid.n + m + 1) * 8


# --------------------------------------------------------------------------
# boundaries
# --------------------------------------------------------------------------

def test_outgoing_boundary_lets_a_pulse_leave():
    params = make_params(3.0, 0.5)
    fam = DirectedPulse(0.5, 3.0, 0.4, direction="outward")
    h = 1.0 / 128.0
    grid = GridSpec(h=h, r_max=8.0, t_max=7.0, boundary="outgoing")
    pair = fam.sample(grid)
    traj = evolve(pair, params, grid, linear=True)
    led = traj.ledger
    e0 = led.e_total[0]
    e_end = led.e_total[led.level(7.0)]
    # by t = 7 the pulse (support ~ [1.4, 4.6]) has fully crossed r_max = 8;
    # the leftover measures the discrete left-mover residue plus boundary
    # imperfection, both tiny
    assert e_end < 1e-6 * e0, f"energy left behind: {e_end / e0:.3e} of E0"


def test_pad_boundary_reflects_nothing_before_contact():
    # identical interior evolution on padded vs oversized grids
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.5, 2.0, 0.4)
    h = 1.0 / 64.0
    g1 = GridSpec(h=h, r_max=8.0, t_max=3.0, boundary="pad")
    g2 = GridSpec(h=h, r_max=16.0, t_max=3.0, boundary="pad")
    s1 = evolve(fam.sample(g1), params, g1, Monitors(snapshot_times=(3.0,)))
    s2 = evolve(fam.sample(g2), params, g2, Monitors(snapshot_times=(3.0,)))
    n = int(round(4.9 / h))  # causally untouched by either boundary
    w1 = s1.snapshot_at(3.0).w_curr[:n]
    w2 = s2.snapshot_at(3.0).w_curr[:n]
    np.testing.assert_array_equal(w1, w2)


# --------------------------------------------------------------------------
# light-cone window
# --------------------------------------------------------------------------

WINDOW_MONITORS = Monitors(
    radii=(1.0, "t/4"),
    flux_s=(2.0, 3.0),
    flux_tau=(0.5,),
    char_tau=(0.5,),
    triangles=((0.5, 1.0),),
    triangles_out=((2.0, 1.0),),
    snapshot_times=(1.0, 2.0, 3.0),
    bins=True,
)


def _assert_window_exact(family, boundary):
    """Evolve the data on a grid with margin 1 past its light cone, where
    every level runs on the light-cone window, and on a grid with margin
    2 t_max + 2 seeded with 1e-300 next to its edge, where every level
    runs on the whole grid.  The seed's light cone never reaches the
    shared nodes, and its squares underflow out of every integral.  The
    fields must match bitwise on the shared nodes and vanish past the
    light cone of the data; the ledgers must match up to summation order."""
    params = make_params(3.5, 0.5)
    h, t_max = 1.0 / 256.0, 3.0
    grids = [
        GridSpec(h=h, r_max=node_at_or_past(family.support_radius() + t_max + margin, h),
                 t_max=t_max, boundary=boundary)
        for margin in (1.0, 2.0 * t_max + 2.0)
    ]
    pair = family.sample(grids[0])
    supp = int(np.flatnonzero((pair.w0 != 0.0) | (pair.w1 != 0.0))[-1])
    n, steps = grids[0].n, grids[0].steps
    assert supp + steps + 2 < n  # the small grid's edge stays dark
    seeded = family.sample(grids[1])
    seeded.w1[-2] = 1e-300
    assert grids[1].n - steps - 2 > n
    small = evolve(pair, params, grids[0], WINDOW_MONITORS)
    large = evolve(seeded, params, grids[1], WINDOW_MONITORS)

    assert len(small.snapshots) == len(large.snapshots) == 3
    for s_a, s_b in zip(small.snapshots, large.snapshots):
        m = round(s_a.t / h)
        levels = zip((s_a.w_prev, s_a.w_curr, s_a.w_next),
                     (s_b.w_prev, s_b.w_curr, s_b.w_next))
        for k, (w_a, w_b) in enumerate(levels):
            assert np.array_equal(w_a, w_b[: n + 1])
            assert not w_a[supp + m + k :].any()  # level m - 1 + k

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)

    la, lb = small.ledger, large.ledger
    for name in ("e_total", "e_minus", "e_plus", "xi", "bulk", "y2p", "exterior_l2p2"):
        close(getattr(la, name), getattr(lb, name))
    assert la.e_total[0] > 0.0 and la.bulk.max() > 0.0
    for label in la.radii:
        for a, b in zip(la.radii[label], lb.radii[label]):
            close(a, b)
    close(la.s_bulk, lb.s_bulk[: la.s_bulk.size])
    assert not lb.s_bulk[la.s_bulk.size :].any()
    for name in ("flux_in", "flux_out", "char_traces"):
        series_a, series_b = getattr(small, name), getattr(large, name)
        for key in series_a:
            close(series_a[key], series_b[key])
    for rec_a, rec_b in zip(small.triangle_records, large.triangle_records):
        close([rec_a.bulk, rec_a.flux, rec_a.energy], [rec_b.bulk, rec_b.flux, rec_b.energy])


def test_light_cone_window_padded_gaussian():
    _assert_window_exact(GaussianBump(0.5, 1.5, 0.04), "pad")


def test_light_cone_window_outgoing_pulse():
    _assert_window_exact(DirectedPulse(0.5, 1.5, 0.04, direction="inward"), "outgoing")


# --------------------------------------------------------------------------
# runaway growth guard
# --------------------------------------------------------------------------

def test_blowup_guard_trips_on_stiff_amplitude():
    # far above the explicit-scheme stability ceiling at this h
    params = make_params(4.0, 0.25)
    h = 1.0 / 16.0
    grid = GridSpec(h=h, r_max=8.0, t_max=4.0, boundary="pad")
    r = grid.r
    w0 = 40.0 * r * np.exp(-((r - 2.0) ** 2) / 0.25)
    pair = RadialPair(w0=w0, w1=np.zeros_like(w0), h=h)
    with pytest.raises(BlowupError):
        evolve(pair, params, grid)


# --------------------------------------------------------------------------
# recorded series
# --------------------------------------------------------------------------

def test_ledger_radius_trios_are_consistent(compact_run):
    traj = compact_run["traj"]
    led = traj.ledger
    np.testing.assert_allclose(
        led.e_minus + led.e_plus, led.e_total, rtol=0.0, atol=1e-12 * led.e_total[0]
    )
    assert led.t.size == led.e_total.size
    assert led.t[0] == 0.0 and led.t[-1] == pytest.approx(traj.grid.t_max)


def test_snapshot_energy_matches_ledger(compact_run, ledger_level0):
    traj = compact_run["traj"]
    led = traj.ledger
    snap = traj.snapshot_at(16.0)
    w, w_t = snap.w_curr.copy(), snap.w_t.copy()
    w[0] = w_t[0] = 0.0
    e_snap = ledger_level0(w, w_t, traj.grid.h, traj.params.p)[2]
    e_led = led.e_total[led.level(16.0)]
    assert abs(e_snap - e_led) < 1e-9 * e_led


def test_snapshot_lookup_raises_off_times(compact_run):
    with pytest.raises(KeyError):
        compact_run["traj"].snapshot_at(17.3)


def test_evolve_is_deterministic():
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.6, 2.0, 0.5)
    h = 1.0 / 64.0
    grid = GridSpec.padded(h, 4.0, fam.support_radius())
    a = evolve(fam.sample(grid), params, grid)
    b = evolve(fam.sample(grid), params, grid)
    np.testing.assert_array_equal(a.ledger.e_minus, b.ledger.e_minus)
    np.testing.assert_array_equal(a.ledger.xi, b.ledger.xi)


def test_xi_converges_at_second_order():
    """xi = w(h)/h on a linear run at rest equals the exact d'Alembert slope
    w_r(0, t) = w0'(t) to second order: w is odd in r, so the one-sided
    quotient's error is h^2 w_rrr(0)/6.  Sup errors 7.8e-3, 2.0e-3, 4.9e-4."""
    a, center, width = 0.5, 3.0, 0.5
    fam = GaussianBump(a, center, width)
    errors = []
    for inv_h in (32, 64, 128):
        grid = GridSpec.padded(1.0 / inv_h, 6.0, fam.support_radius())
        led = evolve(fam.sample(grid), make_params(3.0, 0.5), grid, linear=True).ledger
        x = (led.t - center) / width
        slope = a * np.exp(-x * x) * (1.0 - 2.0 * led.t * x / width)
        errors.append(np.max(np.abs(led.xi - slope)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert errors[0] < 1e-2 and np.all(orders >= 1.9), (errors, orders)


@pytest.mark.parametrize("kwargs", [
    {"radii": ("abc",)},
    {"radii": (1.0, "t/2")},
    {"radii": (math.inf,)},
    {"radii": (math.nan,)},
    {"radii": (0.0,)},
    {"radii": (True,)},
], ids=["r=abc", "r=t/2", "r=inf", "r=nan", "r=0", "r=True"])
def test_monitors_reject_bad_labels_at_construction(kwargs):
    with pytest.raises(OffGridError):
        Monitors(**kwargs)


def _channels(m, w_prev, w, w_next, w1, h):
    """2h (w_r + w_t), 2h (w_r - w_t) of a level, as evolve() forms them."""
    d_r = np.empty_like(w)
    d_r[1:-1] = w[2:] - w[:-2]
    d_r[0] = -3.0 * w[0] + 4.0 * w[1] - w[2]
    d_r[-1] = 3.0 * w[-1] - 4.0 * w[-2] + w[-3]
    d_t = 2.0 * h * w1 if m == 0 else w_next - w_prev
    return np.stack([d_r + d_t, d_r - d_t])


def test_far_field_clean_edge():
    """Runs of power-law data with r_max = 2T + 4 and 4T + 4 step the same
    light-cone window, so their channels are bitwise equal on every node
    <= W(m) = one + 8/h + m of level m; the closed totals take their grid
    part on those nodes and close the rest from W(m)'s radius on, and a
    radius past the window matches the whole grid's reading of it (a run
    with the bins, which steps the whole grid)."""
    params, h, t_max = make_params(4.0, 0.25), 1.0 / 16.0, 8.0
    fam = AppendixPowerLaw(1.5, params)
    radius = 2.0 * t_max + 2.0  # past the window's edge 1 + t + 8 from t = 1 on
    runs = []
    for r_max in (2.0 * t_max + 4.0, 4.0 * t_max + 4.0):
        grid = GridSpec(h=h, r_max=r_max, t_max=t_max)
        pair = fam.sample(grid)
        levels = [(_channels(m, wp, w, wn, pair.w1, h), f * w)
                  for m, wp, w, wn, e, q, f in leapfrog(pair, params, grid)]
        traj = evolve(pair, params, grid, Monitors(radii=(radius,)))
        assert traj.edge == CleanEdge(16 + 128, 1)
        runs.append((levels, traj))
    (small, traj), (large, _) = runs
    led, edge = traj.ledger, traj.edge
    for m, ((chan, fw), (chan_big, _)) in enumerate(zip(small, large)):
        assert np.array_equal(chan[:, : edge(m) + 1], chan_big[:, : edge(m) + 1]), m
        pot = 0.4 * trapz(fw[: edge(m) + 1], h)
        for name, tail in traj.far_tails.items():  # closed from the edge's radius on
            assert tail[m] == pytest.approx(traj.pair.far_field.tail(name, edge(m) * h, m * h),
                                            rel=1e-14), (m, name)
        for k, name in enumerate(("e_minus", "e_plus")):
            grid_part = math.pi * (trapz(chan[k, : edge(m) + 1] ** 2, h) / (4 * h * h) + pot)
            assert getattr(led, name)[m] - traj.far_tails[name][m] == pytest.approx(
                grid_part, rel=1e-12), (m, name)
    # E(t; 0, R): closed past the window, on the whole grid with the bins
    whole = evolve(traj.pair, params, traj.grid, Monitors(radii=(radius,), bins=True))
    assert whole.edge == CleanEdge(traj.grid.n - 1, -1)
    np.testing.assert_allclose(led.radii[radius][0], whole.ledger.radii[radius][0], rtol=2e-4)
    assert led.conservation_drift() < 4e-3  # 1.9e-3: O(h^2), no loss past r_max


def test_far_field_snapshots_hold_whole_levels():
    """A window run's snapshot holds each of its three levels as the run
    stepped it up to that level's edge, and r^beta Phi(t/r) at the level's
    own time past it, so its exterior w_t is Phi's to second order."""
    params, h = make_params(4.0, 0.25), 1.0 / 16.0
    grid = GridSpec(h=h, r_max=20.0, t_max=8.0)
    pair = AppendixPowerLaw(1.5, params).sample(grid)
    traj = evolve(pair, params, grid, Monitors(snapshot_times=(4.0,)))
    snap, edge, far, m = traj.snapshots[0], traj.edge, pair.far_field, 64
    assert edge.slope == 1
    run = next((wp.copy(), w.copy(), wn.copy())
               for k, wp, w, wn, *_ in leapfrog(pair, params, grid) if k == m)
    for j, got, stepped in zip((m - 1, m, m + 1), (snap.w_prev, snap.w_curr, snap.w_next), run):
        i = edge(j) + 1
        assert np.array_equal(got[:i], stepped[:i]), j
        assert np.array_equal(got[i:], far.field(grid.r[i:], j * h)), j
    r = grid.r[edge(m) + 1 :]
    exact = r ** (params.beta - 1.0) * far.profile(4.0 / r)[1]  # w_t = r^(beta-1) Phi'
    # 4.7e-6 of |w_t| <= 0.26: the centered difference's O(h^2) error
    np.testing.assert_allclose(snap.w_t[edge(m) + 1 :], exact, rtol=0, atol=2e-5)


def test_far_field_run_steps_its_light_cone():
    """The study's main run (p = 4, c = 2, t_max = 64, r_max = 132) at
    h = 1/32 steps its light-cone window: the ends e of leapfrog's levels
    add up to 31 % of the whole grid's node-levels (n + 1)(steps + 1)."""
    params = make_params(4.0, 0.25)
    grid = GridSpec(h=1.0 / 32.0, r_max=132.0, t_max=64.0)
    pair = AppendixPowerLaw(2.0, params).sample(grid)
    work = sum(e for _, _, _, _, e, _, _ in leapfrog(pair, params, grid))
    assert work == sum(32 + 256 + m + 2 for m in range(grid.steps + 1))
    assert work <= (grid.n + 1) * (grid.steps + 1) / 3


def test_far_field_window_is_widened_or_falls_back_to_the_whole_grid():
    """plan_run widens the window's pad of 8 to hold every flux line and
    inward triangle slice, and steps the whole grid when the window would
    pass r_max before t_max + h (r_max = 10 at t_max = 4, the grid of the
    triangle cross-check's full_slab), when the bins are recorded (they
    read every node), and for data with no far field."""
    grid = GridSpec(h=1.0 / 32.0, r_max=132.0, t_max=64.0)
    n = grid.n
    cases = [
        (grid, Monitors(), True, CleanEdge(32 + 256, 1)),
        (grid, Monitors(flux_s=(40.0,)), True, CleanEdge(40 * 32, 1)),  # node 1280 at t = 0
        (grid, Monitors(triangles=((2.0, 20.0),)), True, CleanEdge(20 * 32 - 2 * 32, 1)),
        (grid, Monitors(bins=True), True, CleanEdge(n - 1, -1)),
        (grid, Monitors(), False, CleanEdge(n - 1, -1)),
        (GridSpec(h=1.0 / 32.0, r_max=10.0, t_max=4.0), Monitors(), True, CleanEdge(319, -1)),
    ]
    for case_grid, mon, far_field, want in cases:
        assert plan_run(case_grid, mon, far_field)[-1] == want, mon


def test_far_field_needs_the_clean_edge_past_1_plus_t():
    params = make_params(4.0, 0.25)
    grid = GridSpec(h=1.0 / 16.0, r_max=17.0, t_max=8.0)
    pair = AppendixPowerLaw(1.0, params).sample(grid)
    with pytest.raises(OffGridError, match="must exceed 2 t_max"):
        evolve(pair, params, grid)


def test_far_field_refuses_lines_past_the_clean_edge():
    """With a far field, a flux or trace line that some level samples past
    the clean edge n - m - 1 is refused before any step: an inward line
    needs s <= r_max - h, an outward one t_max - tau <= r_max - t_max - h.
    Compact data sample the same lines.  A triangle that fits the run lies
    inside the edge, so even the widest reads the same at two r_max."""
    h, t_max = 1.0 / 16.0, 8.0
    grid = GridSpec(h=h, r_max=21.0, t_max=t_max)
    for mon in (Monitors(flux_s=(21.0,)), Monitors(flux_tau=(-5.0,)),
                Monitors(char_tau=(-5.0,))):
        with pytest.raises(OffGridError, match="runs past the clean edge"):
            plan_run(grid, mon, far_field=True)
        plan_run(grid, mon)
    plan_run(grid, Monitors(flux_s=(21.0 - h,), flux_tau=(-5.0 + h,), char_tau=(-5.0 + h,)),
             far_field=True)
    params = make_params(4.0, 0.25)
    mon = Monitors(triangles=((0.0, t_max),), triangles_out=((t_max, t_max),))
    records = []
    for r_max in (21.0, 41.0):
        grid = GridSpec(h=h, r_max=r_max, t_max=t_max)
        traj = evolve(AppendixPowerLaw(0.5, params).sample(grid), params, grid, mon)
        records.append([(rec.bulk, rec.flux, rec.energy) for rec in traj.triangle_records])
    assert records[0] == records[1]


def test_linear_run_of_far_field_data_is_refused_before_any_level(monkeypatch):
    """The exact exterior r^beta Phi(t/r) solves the nonlinear equation, so
    a linear run of power-law data would close nothing past r_max."""
    def no_levels(*args, **kwargs):
        raise AssertionError("leapfrog ran before the linear far-field run was refused")

    monkeypatch.setattr(nlw.solver, "leapfrog", no_levels)
    params = make_params(4.0, 0.25)
    grid = GridSpec(h=1.0 / 16.0, r_max=21.0, t_max=8.0)
    pair = AppendixPowerLaw(0.5, params).sample(grid)
    with pytest.raises(ConfigError, match="closes nothing past r_max"):
        evolve(pair, params, grid, linear=True)


def test_radius_past_r_max_is_rejected():
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 2.0, fam.support_radius())
    with pytest.raises(OffGridError, match=rf"radius 100.0 lies past r_max={grid.r_max}"):
        evolve(fam.sample(grid), params, grid, Monitors(radii=(1.0, 100.0)))
    traj = evolve(fam.sample(grid), params, grid, Monitors(radii=(grid.r_max,)))
    assert traj.ledger.radii[grid.r_max][0].max() > 0.0


def _assert_same_run_but_energies(every, some, levels):
    """`some` records its channel energies (E, E_-, E_+ and each radius) on
    `levels` only, `every` on every level: there they agree bit for bit,
    elsewhere `some` holds NaN; every other series, line, triangle record
    and snapshot is identical."""
    la, lb = every.ledger, some.ledger
    off = np.ones(la.t.size, dtype=bool)
    off[list(levels)] = False
    assert off.any() and set(la.radii) == set(lb.radii)
    pairs = [(getattr(la, name), getattr(lb, name)) for name in ("e_total", "e_minus", "e_plus")]
    for label, trio in la.radii.items():
        pairs += zip(trio, lb.radii[label])
    for full, part in pairs:
        assert full[~off].tobytes() == part[~off].tobytes()
        assert np.isnan(part[off]).all() and not np.isnan(full).any()
    names = ("xi", "bulk", "y2p", "exterior_l2p2")
    for name in names + (("s_bulk",) if some.monitors.bins else ()):
        assert getattr(la, name).tobytes() == getattr(lb, name).tobytes(), name
    for name in ("flux_in", "flux_out", "char_traces"):
        lines_a, lines_b = getattr(every, name), getattr(some, name)
        assert set(lines_a) == set(lines_b)
        for key in lines_a:
            assert lines_a[key].tobytes() == lines_b[key].tobytes(), (name, key)
    assert [dataclasses.astuple(rec) for rec in every.triangle_records] == \
        [dataclasses.astuple(rec) for rec in some.triangle_records]
    assert len(every.snapshots) == len(some.snapshots)
    for s_a, s_b in zip(every.snapshots, some.snapshots):
        assert s_a.t == s_b.t
        for w_a, w_b in zip((s_a.w_prev, s_a.w_curr, s_a.w_next),
                            (s_b.w_prev, s_b.w_curr, s_b.w_next)):
            assert w_a.tobytes() == w_b.tobytes()


@pytest.mark.parametrize("linear", [False, True])
def test_scheduled_radii_equal_every_level_radii(linear):
    params = make_params(3.5, 0.5)
    fam = GaussianBump(0.5, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 4.0, fam.support_radius())
    pair = fam.sample(grid)
    mon = dataclasses.replace(WINDOW_MONITORS, radii=(0.5, 1.0, "t/4"))
    levels = (grid.steps, 0, 3, 7, 8, 64, 3)  # any order; a repeat counts once
    every = evolve(pair, params, grid, mon, linear=linear)
    some = evolve(pair, params, grid, dataclasses.replace(mon, energy_levels=levels),
                  linear=linear)
    _assert_same_run_but_energies(every, some, levels)


def test_study_radii_equal_every_level_radii(appendix_quick, appendix_every_level):
    """The quick study records its channel energies on its plots' levels: 0,
    the last, the dyadic snapshot levels and log-spaced levels, at most 512."""
    traj = appendix_quick["traj"]
    levels = traj.monitors.energy_levels
    assert len(levels) <= 512
    assert {0, traj.grid.steps} | {round(s.t / traj.grid.h) for s in traj.snapshots} <= set(levels)
    _assert_same_run_but_energies(appendix_every_level, traj, levels)


@pytest.mark.parametrize("levels", [(0, 129), (-1, 5), (2.5,), (math.nan,), ("last",)],
                         ids=["past-steps", "negative", "fraction", "nan", "string"])
def test_radii_levels_off_the_run_are_refused_before_any_level(monkeypatch, levels):
    def no_levels(*args, **kwargs):
        raise AssertionError("leapfrog ran before the energy levels were checked")

    monkeypatch.setattr(nlw.solver, "leapfrog", no_levels)
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 4.0, fam.support_radius())
    mon = Monitors(radii=(1.0,), energy_levels=levels)
    with pytest.raises(OffGridError, match=r"energy level .* lies outside the levels \[0, 128\]"):
        plan_run(grid, mon)
    with pytest.raises(OffGridError, match="energy level"):
        evolve(fam.sample(grid), params, grid, mon)


def test_long_numpy_radii_schedule_is_planned():
    """A schedule of 3,201 np.int64 levels, every other level of 6,400
    steps, resolves to those levels; a level past the run is refused."""
    grid = GridSpec(h=1.0 / 64.0, r_max=4.0, t_max=100.0)
    levels = np.arange(0, grid.steps + 1, 2)
    assert levels.dtype == np.int64 and levels.size == 3201
    energy_at = plan_run(grid, Monitors(radii=(1.0,), energy_levels=levels))[1]
    assert energy_at == set(range(0, 6401, 2))
    refused = r"energy level .*6401.* lies outside the levels \[0, 6400\]"
    with pytest.raises(OffGridError, match=refused):
        plan_run(grid, Monitors(radii=(1.0,), energy_levels=np.append(levels, 6401)))



@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("kind", ["triangles", "triangles_out"])
def test_triangle_past_r_max_is_rejected(kind, linear):
    """A corner radius r0 past r_max, on an outgoing grid long enough for
    the probe, is rejected before any step: nothing indexes past the grid
    and no corner energy is clipped to the grid's."""
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec(h=1.0 / 16.0, r_max=6.0, t_max=8.0, boundary="outgoing")
    probe = (1.0, 6.5) if kind == "triangles" else (7.0, 6.5)
    with pytest.raises(OffGridError, match=r"triangle \(.*\) leaves the run or the grid"):
        evolve(fam.sample(grid), params, grid, Monitors(**{kind: (probe,)}), linear=linear)

@pytest.mark.parametrize("linear", [False, True])
def test_radius_r_max_records_the_totals_bitwise(linear):
    """One channel-energy rule: the ball r <= r_max is the whole window."""
    params = make_params(3.5, 0.5)
    fam = GaussianBump(0.5, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 4.0, fam.support_radius())
    led = evolve(fam.sample(grid), params, grid, Monitors(radii=(grid.r_max,)),
                 linear=linear).ledger
    total, minus, plus = led.radii[grid.r_max]
    assert total.tobytes() == led.e_total.tobytes()
    assert minus.tobytes() == led.e_minus.tobytes()
    assert plus.tobytes() == led.e_plus.tobytes()


@pytest.mark.parametrize("linear", [False, True])
def test_trapz_dot_calls_per_level(monkeypatch, linear):
    """The per-level prefix integrals are trapz_dot calls, counted exactly:
    E_- and E_+ take two, plus one for the potential if nonlinear; evolve's
    overflow check of the data takes two more, once."""
    calls = []
    real = nlw.solver.trapz_dot
    monkeypatch.setattr(nlw.solver, "trapz_dot", lambda *a: calls.append(1) or real(*a))
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.4, 2.0, 0.4)
    h = 1.0 / 32.0
    grid = GridSpec.padded(h, 4.0, fam.support_radius())
    # probes of r0 = 1 and 2, live on r0/h + 1 = 33 and 65 levels
    mon = Monitors(radii=(0.5, 1.0, "t/4"), triangles=((0.5, 1.0),), triangles_out=((3.0, 2.0),))
    evolve(fam.sample(grid), params, grid, mon, linear=linear)
    energies = 2 if linear else 3
    # totals: the energies, y2p, the exterior norm and, if nonlinear, bulk
    totals = energies + (2 if linear else 3)
    per_level = totals + 3 * energies
    bulk_slices = 0 if linear else 33 + 65
    assert len(calls) == (grid.steps + 1) * per_level + bulk_slices + 2 * energies + 2


def _leapfrog_levels(pair, params, grid, linear, times):
    """Copies of the (w_prev, w, w_next) leapfrog yields at the given times."""
    out = {}
    for m, w_prev, w, w_next, e, q, f in leapfrog(pair, params, grid, linear):
        if m * grid.h in times:
            out[m * grid.h] = (w_prev.copy(), w.copy(), w_next.copy())
    return out


@pytest.mark.parametrize("linear", [False, True])
def test_leapfrog_levels_are_evolve_snapshots(linear):
    params = make_params(3.5, 0.5)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 64.0, 2.0, fam.support_radius())
    pair = fam.sample(grid)
    times = (0.0, 0.5, 2.0)
    traj = evolve(pair, params, grid, Monitors(snapshot_times=times), linear=linear)
    levels = _leapfrog_levels(pair, params, grid, linear, times)
    for snap in traj.snapshots:
        for a, b in zip(levels[snap.t], (snap.w_prev, snap.w_curr, snap.w_next)):
            assert np.array_equal(a, b)


def test_leapfrog_yields_window_power_and_source():
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 2.0, fam.support_radius())
    pair = fam.sample(grid)
    r = grid.r
    ends = []
    for m, w_prev, w, w_next, e, q, f in leapfrog(pair, params, grid):
        ends.append(e)
        assert not w[e:].any() and not w_next[e:].any()
        np.testing.assert_allclose(q, np.abs(w[:e]) ** 3, rtol=1e-14)
        np.testing.assert_allclose(f[1:e], q[1:] * w[1:e] / r[1:e] ** 3, rtol=1e-14)
    assert len(ends) == grid.steps + 1
    assert ends == sorted(ends) and ends[-1] <= grid.n + 1


def test_leapfrog_linear_levels_yield_their_power_and_source():
    """A linear level carries the power and source of its own field, as a
    nonlinear one does; only the step leaves the source out (the levels
    are the d'Alembert ones)."""
    params = make_params(3.5, 0.5)
    fam = DirectedPulse(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 2.0, fam.support_radius())
    pair = fam.sample(grid)
    r = grid.r
    for m, w_prev, w, w_next, e, q, f in leapfrog(pair, params, grid, linear=True):
        assert q.shape == (e,) and f.shape == (grid.n + 1,) and not f[e:].any()
        np.testing.assert_allclose(q, np.abs(w[:e]) ** 2.5, rtol=1e-14)
        np.testing.assert_allclose(f[1:e], q[1:] * w[1:e] / r[1:e] ** 2.5, rtol=1e-14)
        assert f[0] == 0.0 and np.abs(f).max() > 0.0
        ref = oracles.dalembert_grid(pair.w0, pair.w1, grid.h, m)
        assert np.abs(w[: ref.size] - ref).max() <= 1e-12


def test_leapfrog_rejects_data_off_the_grid():
    params = make_params(3.0, 0.5)
    grid = GridSpec(h=0.25, r_max=4.0, t_max=1.0, boundary="pad")
    pair = RadialPair(np.zeros(12), np.zeros(12), h=0.25)
    with pytest.raises(InitialDataError):
        next(leapfrog(pair, params, grid))
    with pytest.raises(InitialDataError):
        evolve(pair, params, grid)


def _ledger_loop(pair, params, grid, radii, linear, tails=None):
    """evolve()'s per-level totals and radius energies recomputed from the
    leapfrog levels with full-grid densities and numerics.trapz, the way
    evolve() formed them before it took its totals as dot products.  With
    tails (a far-field run's per-level closures) the totals stop at the
    clean edge, node n - m - 1, and add them."""
    h, n, p = grid.h, grid.n, params.p
    r = grid.r
    inv_rp1 = np.concatenate([[0.0], 1.0 / r[1:] ** (p - 1.0)])
    inv_r = np.concatenate([[0.0], 1.0 / r[1:]])
    one = grid_index(1.0, h)
    out = {name: np.zeros(grid.steps + 1)
           for name in ("e_minus", "e_plus", "bulk", "y2p", "exterior_l2p2")}
    for label in radii:
        out[f"radius {label}"] = np.zeros((2, grid.steps + 1))
    for m, w_prev, w, w_next, e, q, f in leapfrog(pair, params, grid, linear):
        if linear:
            q = np.abs(w) ** (p - 1.0)
            f = q * w * inv_rp1
        else:
            q = np.concatenate([q, np.zeros(n + 1 - e)])  # yielded on [0, e)
        wr = derivative(w, h)
        wt = pair.w1 if m == 0 else (w_next - w_prev) / (2.0 * h)
        pot = 0.0 if linear else (2.0 / (p + 1.0)) * (f * w)
        ea = (wr + wt) ** 2 + pot
        eb = (wr - wt) ** 2 + pot
        end, tail = n + 1, dict.fromkeys(("e_minus", "e_plus", "bulk", "y2p", "exterior"), 0.0)
        if tails is not None:
            end, tail = n - m, {k: v[m] for k, v in tails.items()}
        out["e_minus"][m] = math.pi * trapz(ea[:end], h) + tail["e_minus"]
        out["e_plus"][m] = math.pi * trapz(eb[:end], h) + tail["e_plus"]
        out["bulk"][m] = 0.0 if linear else trapz((f * w * inv_r)[:end], h) + tail["bulk"]
        out["y2p"][m] = math.sqrt(4.0 * math.pi * trapz((f * f)[:end], h) + tail["y2p"])
        j0 = m + one
        ext = (q[j0:end] * inv_rp1[j0:end]) ** 2 * r[j0:end] ** 2
        out["exterior_l2p2"][m] = 4.0 * math.pi * trapz(ext, h) + tail["exterior"]
        for label in radii:
            if label == "t/4":
                idx = max(1, min(n, int(round(m / 4.0))))
            else:
                idx = grid_index(label, h)
            out[f"radius {label}"][:, m] = (
                math.pi * trapz(ea[: idx + 1], h),
                math.pi * trapz(eb[: idx + 1], h),
            )
    return out


LEDGER_CASES = {
    "p=3.5 padded bump": (
        3.5, GaussianBump(0.5, 2.0, 0.5), lambda fam: GridSpec.padded(1.0 / 64.0, 4.0, fam.support_radius()), False),
    "p=3 linear inward pulse": (
        3.0, DirectedPulse(0.8, 3.0, 0.4, direction="inward"),
        lambda fam: GridSpec.padded(1.0 / 64.0, 5.0, fam.support_radius()), True),
    "p=4 power law, outgoing": (
        4.0, AppendixPowerLaw(1.0, make_params(4.0, 0.25)),
        lambda fam: GridSpec(h=1.0 / 32.0, r_max=12.0, t_max=4.0, boundary="outgoing"), False),
}


@pytest.mark.parametrize("case", list(LEDGER_CASES))
def test_ledger_matches_level_by_level_reference(case):
    p, fam, make_grid, linear = LEDGER_CASES[case]
    params = make_params(p, 0.25)
    grid = make_grid(fam)
    pair = fam.sample(grid)
    radii = (1.0, 2.0, "t/4")
    traj = evolve(pair, params, grid, Monitors(radii=radii), linear=linear)
    led = traj.ledger
    assert bool(traj.far_tails) == (pair.far_field is not None)
    ref = _ledger_loop(pair, params, grid, radii, linear, traj.far_tails or None)
    for name in ("e_minus", "e_plus", "bulk", "y2p", "exterior_l2p2"):
        np.testing.assert_allclose(getattr(led, name), ref[name], rtol=1e-13, atol=1e-300,
                                   err_msg=name)
    for label in radii:
        _, e_minus, e_plus = led.radii[label]
        np.testing.assert_allclose(np.stack([e_minus, e_plus]), ref[f"radius {label}"],
                                   rtol=1e-13, atol=1e-300, err_msg=f"radius {label}")
    assert led.exterior_l2p2.max() > 0.0 and led.y2p.min() > 0.0
    if linear:
        assert not led.bulk.any()
    else:
        assert led.bulk.min() > 0.0
