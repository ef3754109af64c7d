import dataclasses
import math

import numpy as np
import pytest

import nlw.scattering
import nlw.solver
from nlw.diagnostics import EnergyLedger
from nlw.errors import DegenerateFitError, OffGridError, ShortSpanError
from nlw.model import DirectedPulse, RadialPair, make_params
from nlw.numerics import derivative, trapz
from nlw.scattering import (
    char_settle_rate,
    exterior_growth_fit,
    extract_g_plus,
    fit_log_growth,
    fit_power_law,
    free_wave_defect,
    lp_l2p_tail,
    predicted_tail_exponent,
)
from nlw.solver import GridSpec, Monitors, Trajectory, evolve, leapfrog


def _synthetic_traj(y2p=None, exterior=None, t_max=64.0, h=1.0 / 16.0):
    """Trajectory whose ledger series are prescribed closed forms, so the
    tail logic can be checked against exact integrals."""
    params = make_params(4.0, 0.25)
    steps = int(round(t_max / h))
    grid = GridSpec(h=h, r_max=4.0, t_max=t_max, boundary="outgoing")
    mon = Monitors()
    led = EnergyLedger.allocate(steps, h, params, mon, grid.n)
    if y2p is not None:
        led.y2p[:] = y2p(led.t)
    if exterior is not None:
        led.exterior_l2p2[:] = exterior(led.t)
    return Trajectory(grid=grid, params=params, monitors=mon, ledger=led)


def _flat_then_power(a, q):
    # constant below t = 1 so the series stays finite at t = 0, exact
    # power law everywhere the tail fit looks
    return lambda t: np.where(t < 1.0, a, a * np.maximum(t, 1.0) ** q)


# --------------------------------------------------------------------------
# rate formulas
# --------------------------------------------------------------------------

def test_predicted_tail_exponent_values():
    assert predicted_tail_exponent(make_params(4.0, 0.25)) == pytest.approx(
        -1.0 / 28.0
    )
    assert predicted_tail_exponent(make_params(3.0, 0.8)) == pytest.approx(-0.2)
    # at kappa = kappa0 the predicted rate degenerates to zero
    assert predicted_tail_exponent(make_params(4.0, 0.2)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_char_settle_rate_values():
    assert char_settle_rate(3.0) == pytest.approx(0.25)
    assert char_settle_rate(4.0) == pytest.approx(0.4)


# --------------------------------------------------------------------------
# fitting helpers
# --------------------------------------------------------------------------

def test_fit_power_law_recovers_exact_data():
    t = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    y = 2.5 * t ** -1.25
    fit = fit_power_law(t, y)
    assert fit.exponent == pytest.approx(-1.25, abs=1e-12)
    assert fit.amplitude == pytest.approx(2.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (4.0, 64.0)
    assert fit.n_points == 5


def test_fit_power_law_guards():
    with pytest.raises(DegenerateFitError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateFitError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DegenerateFitError):
        fit_power_law([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_fit_log_growth_recovers_exact_data():
    t = np.array([1.0, 3.0, 7.0, 15.0, 31.0])
    v = 0.7 + 1.9 * np.log1p(t)
    fit = fit_log_growth(t, v)
    assert fit.offset == pytest.approx(0.7, abs=1e-10)
    assert fit.slope == pytest.approx(1.9, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateFitError):
        fit_log_growth([1.0, 2.0], [1.0, 2.0])


# --------------------------------------------------------------------------
# tail norms against closed forms
# --------------------------------------------------------------------------

def test_lp_l2p_tail_integrable_series():
    a, q = 3.0, -1.5
    traj = _synthetic_traj(y2p=_flat_then_power(a, q))
    rep = lp_l2p_tail(traj, 8.0)
    exact = a * 8.0 ** (q + 1.0) / (-q - 1.0)  # int_8^inf of a t^q
    assert rep.exponent == pytest.approx(q, abs=1e-8)
    assert rep.tail == pytest.approx(a * 64.0 ** (q + 1.0) / (-q - 1.0), rel=1e-6)
    assert rep.total == pytest.approx(exact, rel=1e-4)
    assert rep.value < exact  # the truncated part alone must undershoot
    assert rep.t0 == 8.0


def test_lp_l2p_tail_non_integrable_series():
    """A last decade that decays too slowly to integrate, or that holds a
    non-positive sample (no fit, exponent nan), gives tail 0; the
    truncated integral still counts."""
    power = _flat_then_power(3.0, -1.5)
    for y2p, check in (
        (_flat_then_power(2.0, -0.9), lambda s: s == pytest.approx(-0.9, abs=1e-8)),
        (lambda t: np.where(t == 32.0, 0.0, power(t)), math.isnan),
    ):
        rep = lp_l2p_tail(_synthetic_traj(y2p=y2p), 8.0)
        assert rep.tail == 0.0
        assert check(rep.exponent)
        assert rep.value > 0.0
        assert rep.total == rep.value


def test_lp_l2p_tail_rounding_floor():
    traj = _synthetic_traj(y2p=lambda t: np.where(t < 8.0, 1.0, 0.0))
    rep = lp_l2p_tail(traj, 4.0)
    assert rep.tail == 0.0
    assert rep.exponent == -math.inf
    assert rep.value > 0.0


def test_lp_l2p_tail_window_validation():
    traj = _synthetic_traj(y2p=_flat_then_power(1.0, -2.0))
    with pytest.raises(OffGridError):
        lp_l2p_tail(traj, 64.0)


def test_exterior_growth_fit_recovers_log_coefficient():
    c = 0.37
    traj = _synthetic_traj(exterior=lambda t: c / (1.0 + t))
    fit, values = exterior_growth_fit(traj, [4.0, 8.0, 16.0, 32.0, 64.0])
    # cumulative integral of c/(1+t) is exactly c log(1+T)
    assert fit.slope == pytest.approx(c, rel=1e-3)
    assert abs(fit.offset) < 1e-3
    assert fit.r_squared > 0.999999
    assert list(values) == sorted(values)


# --------------------------------------------------------------------------
# outgoing characteristic traces
# --------------------------------------------------------------------------

def test_extract_g_plus_matches_closed_form(linear_pulse_run):
    """For an inward free pulse the combination (w_r - w_t) along the
    outgoing line r = t - tau equals 2 w0'(tau) identically: the incoming
    half of the d'Alembert solution cancels out of it.  The extraction
    must recover that constant to discretization accuracy."""
    trace = extract_g_plus(linear_pulse_run, 3.5)
    amp, center, width = 0.8, 4.0, 0.5
    x = (3.5 - center) / width
    w0p = amp * math.exp(-x * x) * (-2.0 * x / width)
    assert trace.g_plus == pytest.approx(2.0 * w0p, rel=1e-3)
    assert trace.values.size >= 8
    # the continuum trace is constant, so all samples sit within
    # stencil-error distance of the limit
    assert np.ptp(trace.values) < 1e-2 * abs(trace.g_plus)
    assert trace.tau == 3.5


def test_extract_g_plus_needs_enough_span():
    params = make_params(3.0, 0.5)
    fam = DirectedPulse(0.8, 4.0, 0.5, direction="inward")
    grid = GridSpec.padded(1.0 / 64.0, 6.0, fam.support_radius())
    traj = evolve(
        fam.sample(grid), params, grid, Monitors(char_tau=(3.5,)), linear=True
    )
    with pytest.raises(ShortSpanError):
        extract_g_plus(traj, 3.5)  # only ~6 dyadic samples fit by t_max=6
    with pytest.raises(OffGridError):
        extract_g_plus(traj, 2.0)  # never monitored


def test_extract_g_plus_skips_levels_before_t0_on_a_negative_tau():
    """On r = t + 1/8 (tau = -1/8) the first dyadic distance 4h = 1/16 falls
    before t = 0: the samples start at distance 8h, the line's start."""
    params = make_params(3.0, 0.5)
    fam = DirectedPulse(0.8, 4.0, 0.5, direction="inward")
    grid = GridSpec.padded(1.0 / 64.0, 16.0, fam.support_radius())
    traj = evolve(fam.sample(grid), params, grid, Monitors(char_tau=(-0.125,)), linear=True)
    trace = extract_g_plus(traj, -0.125)
    assert list(trace.distances) == [0.125 * 2**j for j in range(8)]


# --------------------------------------------------------------------------
# free-wave defect
# --------------------------------------------------------------------------

def test_defect_vanishes_on_linear_run(linear_pulse_run):
    """A free wave stays free: re-evolving its snapshot without a source
    reproduces the original trajectory to rounding."""
    led = linear_pulse_run.ledger
    rep = free_wave_defect(linear_pulse_run, 4.0, 8.0)
    assert rep.defect < 1e-8 * math.sqrt(led.e_total[0])
    assert rep.defect / math.sqrt(led.e_total[led.level(4.0)]) < 1e-8


def test_defect_positive_and_bounded_on_nonlinear_run(compact_run):
    traj = compact_run["traj"]
    rep = free_wave_defect(traj, 8.0, 16.0)
    assert rep.defect > 0.0
    # the gap norm is controlled by the two kinetic energies, so the
    # defect relative to sqrt(E(t1)) cannot exceed ~2
    assert rep.defect / math.sqrt(traj.ledger.e_total[traj.ledger.level(8.0)]) < 2.5
    assert rep.t1 == 8.0 and rep.t2 == 16.0


def test_defect_requires_snapshots(compact_run):
    traj = compact_run["traj"]
    with pytest.raises(KeyError):
        free_wave_defect(traj, 8.0, 24.0)  # 24 was never snapshot
    with pytest.raises(OffGridError):
        free_wave_defect(traj, 8.0, 8.0)


def _marched_defect(traj, t1, t2):
    """The defect with a stepped free wave: leapfrog(linear=True) from the t1
    snapshot on the nodes [0, end], end = edge + steps + 2 (r_max at most),
    to t2, then the same gap norm and far-field closure."""
    snap1, snap2 = traj.snapshot_at(t1), traj.snapshot_at(t2)
    h, n = traj.grid.h, traj.grid.n
    steps = round((t2 - t1) / h)
    far = traj.pair.far_field
    edge = n if far is None else traj.edge(round(t2 / h))
    end = min(n, edge + steps + 2)
    if far is not None:
        edge = min(edge, end - steps - 1)
    pair = RadialPair(w0=snap1.w_curr[: end + 1], w1=snap1.w_t[: end + 1], h=h)
    span = dataclasses.replace(traj.grid, r_max=end * h, t_max=steps * h)
    for _, w_prev, w, w_next, *_ in leapfrog(pair, traj.params, span, linear=True):
        pass  # the last step's levels stay bound
    dr = derivative(snap2.w_curr[: end + 1] - w, h)
    dt = snap2.w_t[: end + 1] - (w_next - w_prev) / (2.0 * h)
    tail = 0.0 if far is None else far.defect_tail(edge * h, t1, t2)
    return math.sqrt(2.0 * math.pi * (trapz((dr * dr + dt * dt)[: edge + 1], h) + tail))


@pytest.mark.parametrize("name", ["appendix_quick", "flagship"])
def test_defect_matches_a_marched_free_wave(name, request):
    """The closed-form free wave gives the stepped one's defects on the
    study's far-field runs within 1e-11 relative, at h = 1/32 and h = 1/128
    (the marches round to 3.8e-13 and 4.9e-12)."""
    fixture = request.getfixturevalue(name)
    traj = fixture["traj"]
    for t1, t2 in fixture["report"]["scattering_rates"]["free_wave_defect"]["pairs"]:
        want = _marched_defect(traj, t1, t2)
        assert free_wave_defect(traj, t1, t2).defect == pytest.approx(want, rel=1e-11, abs=0.0)


def test_compact_defect_matches_a_marched_free_wave(compact_run):
    """On compact data the defects are small next to the states they
    difference, so the gap to the stepped free wave is measured against
    sqrt(E(t1)), the scale of the states: at most 2.5e-14 of it over
    1024 to 4096 steps, where it is up to 1.6e-11 of the defect itself."""
    traj = compact_run["traj"]
    for t1, t2 in [(4.0, 8.0), (8.0, 16.0), (16.0, 32.0)]:
        scale = math.sqrt(traj.ledger.e_total[traj.ledger.level(t1)])
        got, want = free_wave_defect(traj, t1, t2).defect, _marched_defect(traj, t1, t2)
        assert abs(got - want) <= 1e-11 * scale


def test_defects_step_no_level(appendix_quick, monkeypatch):
    """The study's defects come from the closed form: no leapfrog level runs."""
    def no_steps(*args, **kwargs):
        raise AssertionError("a free-wave defect stepped a level")

    monkeypatch.setattr(nlw.solver, "leapfrog", no_steps)
    assert not hasattr(nlw.scattering, "leapfrog")
    traj, rates = appendix_quick["traj"], appendix_quick["report"]["scattering_rates"]
    got = [free_wave_defect(traj, t1, t2).defect
           for t1, t2 in rates["free_wave_defect"]["pairs"]]
    assert got == rates["free_wave_defect"]["values"]
