import math

import numpy as np
import pytest

import oracles
from nlw.diagnostics import (
    TriangleReport,
    flux_inward,
    flux_outward,
    pointwise_bounds,
    triangle_residual,
    weighted_morawetz,
)
from nlw.diagnostics import TAIL_EXPONENT_CUT
from nlw.errors import OffGridError, OutOfRangeError
from nlw.model import GaussianBump, k_functional, make_params
from nlw.solver import GridSpec, Monitors, evolve


# --------------------------------------------------------------------------
# channel split
# --------------------------------------------------------------------------

def test_channel_split_against_quadrature(ledger_level0):
    amp, center, width = 0.4, 2.0, 0.5
    u0f, u0rf, w0f, w0rf = oracles.gaussian_u_callables(amp, center, width)
    p = 4.0
    h = 1.0 / 512.0
    n = int(8.0 / h) + 1
    r = h * np.arange(n)
    fam = GaussianBump(amp, center, width)
    e_minus, e_plus, _ = ledger_level0(fam.w0(r), np.zeros(n), h, p)
    ref_minus = oracles.channel_quad(w0f, w0rf, lambda s: 0.0, p, 8.0, +1.0)
    ref_plus = oracles.channel_quad(w0f, w0rf, lambda s: 0.0, p, 8.0, -1.0)
    assert abs(e_minus - ref_minus) < 3e-5 * ref_minus
    assert abs(e_plus - ref_plus) < 3e-5 * ref_plus


def test_at_rest_data_splits_evenly(rng, ledger_level0):
    h = 1.0 / 128.0
    w0, _ = oracles.random_smooth_state(rng, h, 10.0, moving=False)
    e_minus, e_plus, _ = ledger_level0(w0, np.zeros_like(w0), h, 3.0)
    assert e_minus == pytest.approx(e_plus, rel=1e-12)


# --------------------------------------------------------------------------
# conservation, monotonicity, additivity on a real run
# --------------------------------------------------------------------------

def test_ledger_conservation_and_channels(compact_run):
    led = compact_run["traj"].ledger
    assert led.conservation_drift() <= 1e-4
    assert led.additivity_error() <= 1e-12
    worst_minus, worst_plus = led.monotonicity_margins()
    e0 = led.e_total[0]
    # E_- may only decrease, E_+ may only increase (up to rounding)
    assert worst_minus >= -1e-6 * e0
    assert worst_plus >= -1e-6 * e0


def test_radius_series_additivity(compact_run):
    led = compact_run["traj"].ledger
    e, em, ep = led.radii[1.0]
    assert np.max(np.abs(em + ep - e)) < 1e-12 * max(1.0, led.e_total[0])
    # the ball energy never exceeds the global one
    assert np.all(e <= led.e_total * (1.0 + 1e-12))


# --------------------------------------------------------------------------
# origin trace
# --------------------------------------------------------------------------

def test_xi_balance_for_linear_reflection(linear_pulse_run):
    """Everything an inward pulse carries must come out through the origin
    term: pi int xi^2 dt = E_-(0) in linear mode."""
    traj = linear_pulse_run
    led = traj.ledger
    converted = led.xi_energy(0.0, traj.grid.t_max)
    e_minus0 = led.e_minus[0]
    assert abs(converted - e_minus0) < 1e-3 * e_minus0


# --------------------------------------------------------------------------
# characteristic flux
# --------------------------------------------------------------------------

def test_flux_decays_beyond_support(compact_run):
    traj = compact_run["traj"]
    e0 = traj.ledger.e_total[0]
    qs = [flux_inward(traj, s) for s in (6.0, 8.0, 12.0, 16.0, 20.0, 25.0)]
    assert all(q >= 0.0 for q in qs)
    for a, b in zip(qs, qs[1:]):
        assert b <= a * (1.0 + 1e-12), f"flux not decreasing: {qs}"
    assert qs[-1] < 1e-3 * e0


def test_flux_window_validation(compact_run):
    traj = compact_run["traj"]
    with pytest.raises(OffGridError):
        flux_inward(traj, 7.0)  # label never monitored


def test_outward_flux_crossing_pulse():
    # an outgoing pulse must deposit positive flux on r = t - tau
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.5, 2.0, 0.4)
    h = 1.0 / 64.0
    grid = GridSpec.padded(h, 8.0, fam.support_radius())
    traj = evolve(fam.sample(grid), params, grid, Monitors(flux_tau=(2.0,)))
    q = flux_outward(traj, 2.0)
    assert q > 0.0
    e0 = traj.ledger.e_total[0]
    assert q < e0  # cannot exceed the total budget


# --------------------------------------------------------------------------
# triangle laws
# --------------------------------------------------------------------------

def test_triangle_report_budget_arithmetic(triangle_runs):
    for traj in triangle_runs.values():
        rep = triangle_residual(traj, 1.0, 2.0)
        recon = rep.xi_term + rep.flux_term + rep.bulk_term + rep.residual
        assert recon == pytest.approx(rep.energy, rel=1e-12)
        assert rep.residual_frac == pytest.approx(
            abs(rep.residual) / rep.energy, rel=1e-12
        )
        # every term in the budget is a nonnegative energy quantity
        assert min(rep.energy, rep.xi_term, rep.flux_term, rep.bulk_term) >= 0.0


def test_triangle_closure_small_and_refining(triangle_runs):
    h1, h2 = 1.0 / 128.0, 1.0 / 256.0
    r1 = abs(triangle_residual(triangle_runs[h1], 1.0, 2.0).residual_frac)
    r2 = abs(triangle_residual(triangle_runs[h2], 1.0, 2.0).residual_frac)
    assert r2 < 0.01
    assert r2 <= 0.65 * r1


def test_outward_triangle_closure():
    params = make_params(4.0, 0.25)
    fam = GaussianBump(1.0, 1.0, 0.25)
    h = 1.0 / 128.0
    grid = GridSpec.padded(h, 4.0, fam.support_radius())
    traj = evolve(
        fam.sample(grid), params, grid, Monitors(triangles_out=((3.0, 2.0),))
    )
    rep = triangle_residual(traj, 3.0, 2.0, kind="outward")
    assert abs(rep.residual_frac) < 0.01


def test_infinite_triangle_closure():
    """Data hugging the origin: all the conversion happens well before
    t_max/10, so the truncated infinite law must close on the run's xi and
    bulk series (oracles.infinite_triangle_law)."""
    params = make_params(3.0, 0.5)
    fam = GaussianBump(0.5, 1.0, 0.2)
    h = 1.0 / 128.0
    grid = GridSpec.padded(h, 30.0, fam.support_radius())
    led = evolve(fam.sample(grid), params, grid).ledger
    energy, xi_term, bulk_term, decade_share = oracles.infinite_triangle_law(
        led.t, led.xi, led.bulk, led.e_minus, params.p, 1.0)
    assert decade_share < 0.1
    assert abs(energy - (xi_term + bulk_term)) < 0.01 * energy


def test_residual_fraction_is_absolute_at_zero_energy():
    rep = TriangleReport("inward", 1.0, 2.0, energy=0.0, xi_term=0.0,
                         flux_term=0.0, bulk_term=1e-3)
    assert rep.residual_frac == pytest.approx(1e-3)
    assert TriangleReport("inward", 1.0, math.inf, 0.0, 0.0, 0.0, 0.0).residual_frac == 0.0
    rep = TriangleReport("outward", 1.0, 1.0, energy=-2.0, xi_term=-1.0,
                         flux_term=0.0, bulk_term=0.0)
    assert rep.residual_frac == pytest.approx(0.5)


# --------------------------------------------------------------------------
# weighted space-time bound
# --------------------------------------------------------------------------

def test_morawetz_bound_holds(morawetz_runs):
    for p, traj in morawetz_runs.items():
        rep = weighted_morawetz(traj, kappa=0.6)
        assert rep.bound_ratio <= 1.0, f"p={p}: ratio {rep.bound_ratio}"
        assert rep.lhs == pytest.approx(rep.xi_term + rep.bulk_term)
        assert rep.k1 > 0.0


def test_unrecorded_series_raise():
    """The bins are recorded only on request; reading them from a run that
    did not ask raises OffGridError, and the totals are there all the same."""
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 2.0, fam.support_radius())
    plain = evolve(fam.sample(grid), params, grid, Monitors(triangles=((0.5, 1.0),)))
    assert plain.ledger.e_total[0] > 0.0
    with pytest.raises(OffGridError, match="bins=False"):
        plain.ledger.bulk_weighted(lambda s: s)
    with pytest.raises(OffGridError, match="bins=False"):
        weighted_morawetz(plain)


def test_readers_refuse_what_the_run_does_not_hold():
    """A level past t_max, a triangle that was not monitored and the
    weighted bound of a run shorter than t = 1 raise OffGridError."""
    params = make_params(4.0, 0.25)
    fam = GaussianBump(0.4, 2.0, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 0.5, fam.support_radius())
    traj = evolve(fam.sample(grid), params, grid, Monitors())
    with pytest.raises(OffGridError, match="outside the recorded range"):
        traj.ledger.level(0.5 + 1.0 / 32.0)
    with pytest.raises(OffGridError, match="was not monitored"):
        triangle_residual(traj, 0.25, 0.25)
    with pytest.raises(OffGridError, match="t_max >= 1"):
        weighted_morawetz(traj)


def test_morawetz_bound_holds_at_kappa_one_quarter(morawetz_runs):
    """s^0.25 at p = 3, below the run's own kappa: with gamma = kappa the
    bulk coefficient is the largest any weight of that growth admits, and
    the bound still holds (measured ratio 0.9985)."""
    rep = weighted_morawetz(morawetz_runs[3.0], kappa=0.25)
    assert rep.bound_ratio <= 1.0
    assert rep.gamma == 0.25


def test_morawetz_rejects_kappa_outside_unit_interval(morawetz_runs):
    for kappa in (1.0, 0.0, -0.5):
        with pytest.raises(OutOfRangeError):
            weighted_morawetz(morawetz_runs[3.0], kappa=kappa)


def test_morawetz_k1_is_closed_past_r_max_on_far_field_data(appendix_binned):
    """On power-law data the bound's K1 is k_functional's, far-field tail
    included (233.48 at the quick study's c, against 82.37 on its grid of
    r_max 68)."""
    traj = appendix_binned
    assert weighted_morawetz(traj).k1 == k_functional(traj.pair, traj.params).k1


# --------------------------------------------------------------------------
# cylinder integrals and the local outward bound
# --------------------------------------------------------------------------

def test_cylinder_integrable_tail(appendix_every_level):
    """int_4^inf E_+(t; 0, 1) dt: the radius series, recorded on every
    level, through EnergyLedger.tail_integral."""
    led = appendix_every_level.ledger
    rep = led.tail_integral(led.radii[1.0][2], 4.0)
    assert rep.value > 0.0 and rep.tail > 0.0
    assert rep.exponent < TAIL_EXPONENT_CUT
    assert rep.total == pytest.approx(rep.value + rep.tail)


def test_cylinder_non_integrable_tail_is_dropped(appendix_every_level):
    """E_+(t; 0, t/4) decays too slowly to integrate: the tail is 0 and the
    fitted exponent says why."""
    led = appendix_every_level.ledger
    rep = led.tail_integral(led.radii["t/4"][2], 4.0)
    assert rep.exponent > TAIL_EXPONENT_CUT
    assert rep.tail == 0.0 and rep.total == rep.value > 0.0


def test_tail_integral_refuses_unrecorded_levels(appendix_quick):
    """The study records its radii on its plots' levels only.  Integrating
    such a series raises OffGridError naming its first NaN level, here
    one of the decade that the tail is fitted on, t = 3.1875 (h = 1/32)."""
    led = appendix_quick["traj"].ledger
    for label in (1.0, "t/4"):
        with pytest.raises(OffGridError, match=r"level 102 \(t=3.1875\) was not recorded"):
            led.tail_integral(led.radii[label][2], 4.0)
    first_gap = int(np.flatnonzero(np.isnan(led.radii[1.0][2]))[0])
    with pytest.raises(OffGridError, match=f"level {first_gap} "):
        led.tail_integral(led.radii[1.0][2], 0.0)
    led.tail_integral(led.y2p, 4.0)  # a total is recorded on every level


def test_bookkeeping_readers_refuse_unrecorded_levels(appendix_quick, appendix_every_level):
    """The study records E, E_- and E_+ on its plots' levels only, where the
    drift, additivity and monotonicity readers would read NaN: each raises
    OffGridError naming the first level it did not record.  The same run
    on every level reads."""
    led = appendix_quick["traj"].ledger
    gap = int(np.flatnonzero(np.isnan(led.e_total))[0])
    assert gap > 0 and np.isnan(led.e_minus[gap]) and np.isnan(led.e_plus[gap])
    unrecorded = rf"level {gap} \(t={led.t[gap]:g}\) was not recorded"
    for reader in (led.conservation_drift, led.additivity_error, led.monotonicity_margins):
        with pytest.raises(OffGridError, match=unrecorded):
            reader()
    every = appendix_every_level.ledger
    assert math.isfinite(every.conservation_drift()) and every.additivity_error() == 0.0
    assert all(math.isfinite(x) for x in every.monotonicity_margins())


def test_cylinder_rounding_noise_tail(linear_pulse_run):
    # linear pulse leaves exact zeros behind at unit CFL, so the late
    # series sits on the rounding floor and no tail fit is attempted
    led = linear_pulse_run.ledger
    rep = led.tail_integral(led.radii[1.0][1], 10.0)
    assert rep.tail == 0.0
    assert rep.exponent == -math.inf


def test_local_outward_bound_stable(appendix_quick):
    """E_+(t; 0, 1) against K t^{1-kappa} / (t - 1).  The comparison
    constant is not universal (the sharp one depends on p and kappa), so
    the ratio must stay stable across t rather than below a value."""
    traj = appendix_quick["traj"]
    led, kappa = traj.ledger, traj.params.kappa
    k = k_functional(traj.pair, traj.params).k
    ratios = [led.radii[1.0][2][led.level(t)] * (t - 1.0) / (k * t ** (1.0 - kappa))
              for t in (8.0, 16.0, 32.0)]
    assert all(r > 0.0 for r in ratios)
    assert max(ratios) < 10.0 * min(ratios)


# --------------------------------------------------------------------------
# pointwise bounds
# --------------------------------------------------------------------------

def test_pointwise_first_cell_identity(rng):
    """ratio1 equals 1 exactly at the first node: |w_1| over
    sqrt(r_1 * h (w_1/h)^2) telescopes to 1."""
    h = 1.0 / 64.0
    w0, _ = oracles.random_smooth_state(rng, h, 8.0)
    rep = pointwise_bounds(w0, h, 4.0)
    assert rep.max_ratio1 == pytest.approx(1.0, abs=1e-9)


def test_pointwise_bounds_hold_on_random_states(rng):
    h = 1.0 / 64.0
    for _ in range(25):
        w0, _ = oracles.random_smooth_state(rng, h, 8.0)
        rep = pointwise_bounds(w0, h, 3.5)
        assert rep.max_ratio1 <= 1.0 + 1e-6
        assert rep.max_ratio2 <= 1.0 + 1e-6


def test_pointwise_matches_naive_recomputation(rng):
    h = 1.0 / 32.0
    w0, _ = oracles.random_smooth_state(rng, h, 6.0)
    rep = pointwise_bounds(w0, h, 4.0)
    naive1, naive2 = oracles.naive_pointwise_ratios(list(w0), h, 4.0, stride=1)
    assert rep.max_ratio1 == pytest.approx(naive1, rel=1e-10)
    assert rep.max_ratio2 == pytest.approx(naive2, rel=1e-10)
