"""Scattering-side observables: outgoing profiles, free-wave defects,
space-time tail norms, and their rates (from numerics' power-law and
log-growth fits).

Rate conventions.  Along an outward line r = t - tau the outgoing
derivative (w_r - w_t)(t-tau, t) settles to a limit g_+(tau) at the rate
r^{-(p-2)/(p+1)}; the radiated profile obeys pi*int g_+^2 <= E.  The
space-time tail norm

    N(t0) = int_{t0}^inf ( int |u|^{2p} dx )^{1/2} dt
          = || u ||_{L^p L^{2p} ([t0,inf) x R^3)}^p

decays like t0^{-(p+1)/(p+3) * (kappa - kappa0)} when the weighted channel
mass with exponent kappa is finite, and the defect of the evolution from a
free wave over [t, 2t] decays at the same rate in the kinetic energy norm.
All reported rate fits are least squares on log-log values at dyadic
sample times.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import recorded_line
from .errors import OffGridError, ShortSpanError
from .numerics import (
    derivative,
    fit_log_growth,
    fit_power_law,
    grid_index,
    trapz,
)
from .solver import free_levels

MIN_DYADIC_SAMPLES = 8


def predicted_tail_exponent(params):
    """Theoretical decay exponent -(p+1)/(p+3) * (kappa - kappa0)."""
    return -(params.p + 1.0) / (params.p + 3.0) * (params.kappa - params.kappa0)


def char_settle_rate(p):
    """Exponent (p-2)/(p+1) at which outgoing derivatives settle."""
    return (p - 2.0) / (p + 1.0)


@dataclass
class CharTrace:
    """Dyadic samples of (w_r - w_t) along r = t - tau with the
    extrapolated limit g_plus and the observed settling rate."""

    tau: float
    distances: np.ndarray  # r = t - tau at the sample times
    values: np.ndarray
    g_plus: float
    rate_estimate: float


def extract_g_plus(traj, tau):
    """Estimate g_+(tau) from a monitored outgoing trace.

    Samples the recorded (w_r - w_t) series at distances 4h * 2^j from
    the vertex, at the levels the run recorded the line on
    (diagnostics.recorded_line), Richardson-extrapolates the last two
    samples with the known settling exponent q = (p-2)/(p+1):

        g = (y_J - 2^{-q} y_{J-1}) / (1 - 2^{-q}),

    and reports the observed rate from a log-log fit of the positive
    |y_j - g| (nan if fewer than 3 are positive).  Raises ShortSpanError
    when fewer than 8 dyadic samples fit on the recorded line.
    """
    first, series = recorded_line(traj.char_traces, tau, "trace label tau")
    h = traj.grid.h
    k = grid_index(tau, h, "tau") - first  # the vertex, in samples
    # every distance 4 * 2^j short of the last sample, then those on the line
    d_idx = 4 * 2 ** np.arange((series.size - k).bit_length())
    d_idx = d_idx[(k + d_idx >= 0) & (k + d_idx < series.size)]
    if d_idx.size < MIN_DYADIC_SAMPLES:
        raise ShortSpanError(
            f"only {d_idx.size} dyadic samples fit along tau={tau}; "
            f"need {MIN_DYADIC_SAMPLES} (extend t_max)"
        )
    y, dists = series[k + d_idx], h * d_idx
    q = char_settle_rate(traj.params.p)
    damp = 2.0 ** (-q)
    g = (y[-1] - damp * y[-2]) / (1.0 - damp)
    resid = np.abs(y - g)
    good = resid > 0.0
    return CharTrace(
        tau=tau,
        distances=dists,
        values=y,
        g_plus=float(g),
        rate_estimate=fit_power_law(dists[good], resid[good]).exponent,
    )


@dataclass
class DefectReport:
    t1: float
    t2: float
    defect: float  # kinetic energy norm of (nonlinear - free) at t2
    closure: float = 0.0  # share of defect^2 from past the clean edge


def free_wave_defect(traj, t1, t2):
    """Carry the t1 snapshot freely (no source) to t2 and measure the
    kinetic energy-norm gap against the nonlinear state:

        defect = ( 2*pi int (d_r^2 + d_t^2) dr )^{1/2},  d = w - w_free.

    Both snapshots must have been recorded during the run.  The free wave
    comes in closed form from solver.free_levels (no level is stepped), the
    data zero past r_max; with a far field, FarField.defect_tail closes the
    norm past the clean edge at t2, or past node n - steps - 1 if smaller.
    """
    snap1 = traj.snapshot_at(t1)
    snap2 = traj.snapshot_at(t2)
    h, n = traj.grid.h, traj.grid.n
    steps = grid_index(t2 - t1, h, "t2 - t1")
    if steps < 1:
        raise OffGridError(f"need t2 > t1, got ({t1}, {t2})")
    far = traj.pair.far_field
    edge = n if far is None else min(traj.edge(grid_index(t2, h, "t2")), n - steps - 1)
    w_free_prev, w_free, w_free_next = free_levels(snap1.w_curr, snap1.w_t, h, steps)
    wt_free = (w_free_next - w_free_prev) / (2.0 * h)

    d = snap2.w_curr - w_free
    dt = snap2.w_t - wt_free
    dr = derivative(d, h)
    grid_part = trapz((dr * dr + dt * dt)[: edge + 1], h)
    tail = 0.0 if far is None else far.defect_tail(edge * h, t1, t2)
    defect = math.sqrt(2.0 * math.pi * (grid_part + tail))
    return DefectReport(
        t1=t1, t2=t2, defect=defect, closure=tail / (grid_part + tail) if tail else 0.0,
    )


def lp_l2p_tail(traj, t0):
    """N(t0) = int_{t0}^{t_max} (int |u|^{2p} dx)^{1/2} dt plus a power-law
    tail extrapolation past t_max, as a diagnostics.TailIntegral
    (EnergyLedger.tail_integral).  A last-decade fit that is not
    integrable, or that meets a non-positive sample, gives tail 0 with its
    exponent (nan for the latter), so a short run still reports its
    truncated value.
    """
    led = traj.ledger
    return led.tail_integral(led.y2p, t0)


def exterior_growth_fit(traj, t_samples):
    """Fit the cumulative exterior mass V(T) = int_0^T [4pi int_{r>1+t}
    |u|^{2(p-1)} r^2 dr] dt at each sample time as offset + slope*log(1+T).

    Returns (fit, values).  The fit should show slope > 0 with high r^2
    for data whose exterior tail is exactly scale critical."""
    led = traj.ledger
    values = np.asarray([trapz(led.exterior_l2p2[: led.level(t) + 1], led.h) for t in t_samples])
    return fit_log_growth(t_samples, values), values
