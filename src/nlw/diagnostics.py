"""Channel energies, flux identities, triangle laws, and weighted bounds.

Conventions (w = r*u, all integrals over the half line unless said):

  E_-(t)   = pi * int |w_r + w_t|^2 + (2/(p+1)) |w|^{p+1}/r^{p-1} dr   inward
  E_+(t)   = same with w_r - w_t                                      outward
  E(t)     = E_-(t) + E_+(t)
  xi(t)    = slope of w at the origin; pi * int_{t1}^{t2} xi^2 dt is the
             energy handed from the inward to the outward channel at r=0
  Q_-^-(s; t1,t2) = (4pi/(p+1)) int_{t1}^{t2} |w(s-t,t)|^{p+1}/(s-t)^{p-1} dt
  Q_+^+(tau; t1,t2) analogously along r = t - tau

Triangle law (inward): for the triangle {r>0, t>t0, r+t < t0+r0},

  E_-(t0;0,r0) = pi*int_{t0}^{t0+r0} xi^2 dt + Q_-^-(t0+r0; t0, t0+r0)
                 + (2pi(p-1)/(p+1)) * iint |w|^{p+1}/r^p dr dt,

and the outward twin on {r>0, t<t0, t-r > t0-r0}.  The module recomputes
each term from quantities the solver accumulated and reports the residual,
which must vanish at the discretization order.

The combined weighted bound, checked for the weight a(s) = s^kappa
(0 < kappa < 1, so a(1) = 1 and a'(s) = kappa*a(s)/s):

  pi*int_1^inf t^kappa xi^2 dt
    + (2pi(p-1-2kappa)/(p+1)) * iint_{r+t>1} (r+t)^kappa |w|^{p+1}/r^p dr dt
    <= K1,

with K1 the weighted incoming channel mass of the data, weight
max(1, r^kappa) (model.k_functional).  Truncating the left side in time
only lowers it, so the check bound_ratio <= 1 is one-sided safe on a
finite run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OffGridError
from .model import k_functional, make_params, nonlinearity
# abs_power is not called here; the benchmark's tracer test reads it from this module
from .numerics import abs_power, cumtrapz, fit_power_law, grid_index, trapz


TOTALS = ("e_total", "e_minus", "e_plus", "xi", "bulk", "y2p", "exterior_l2p2")
TAIL_EXPONENT_CUT = -1.05  # a fitted decay t^s with s above this is taken as not integrable


@dataclass
class TailIntegral:
    """int_{t0}^inf of a per-level series: value over [t0, t_max], the
    remainder tail past t_max and the decay exponent it was fitted with
    (EnergyLedger.decade_tail)."""

    t0: float
    value: float
    tail: float
    exponent: float

    @property
    def total(self):
        return self.value + self.tail


@dataclass
class EnergyLedger:
    """Per-level scalar series recorded by evolve().

    allocate() adds the totals: E, E_- and E_+ (e_total, e_minus,
    e_plus), xi, bulk = int |w|^{p+1}/r^p dr, y2p = (4pi int |u|^{2p} r^2
    dr)^{1/2} and exterior_l2p2 = 4pi int_{r>1+t} |u|^{2(p-1)} r^2 dr.  It
    adds the characteristic bins s_bulk only if Monitors.bins asks for
    them: bin k holds the contribution of |w|^{p+1}/r^p from the strip of
    spacetime with r + t in [k*h, (k+1)*h) (midpoint-in-time,
    trapezoid-in-space), so weighted integrals over r+t > s_min reduce to
    a weighted bin sum.  Reading s_bulk off a run without them raises
    OffGridError, and so does reading a level of a series the run did not
    record: Monitors.energy_levels leaves E, E_-, E_+ and the radii NaN.
    """

    h: float
    p: float
    kappa: float
    t: np.ndarray
    radii: dict  # label -> (E, E_minus, E_plus) arrays, NaN at levels not recorded

    def __getattr__(self, name):
        # reached only for attributes that were never set
        if name == "s_bulk":
            raise OffGridError("s_bulk was not recorded: Monitors(bins=False)")
        raise AttributeError(name)

    @classmethod
    def allocate(cls, steps, h, params, monitors, n):
        nans = lambda: tuple(np.full((3, steps + 1), np.nan))
        led = cls(h=h, p=params.p, kappa=params.kappa, t=h * np.arange(steps + 1),
                  radii={label: nans() for label in monitors.radii})
        scheduled = monitors.energy_levels is not None
        for k, name in enumerate(TOTALS):  # E, E_- and E_+ first
            setattr(led, name, np.full(steps + 1, np.nan if scheduled and k < 3 else 0.0))
        if monitors.bins:
            led.s_bulk = np.zeros(steps + n + 1)
        return led

    @property
    def t_max(self):
        return float(self.t[-1])

    def level(self, t):
        idx = grid_index(t, self.h, "time")
        if not (0 <= idx < self.t.size):
            raise OffGridError(f"t={t} outside the recorded range")
        return idx

    def decade_level(self):
        """First level of the last decade [t_max/10, t_max], grid-aligned."""
        return self.level(self.h * int(round(self.t_max / 10.0 / self.h)))

    def decade_tail(self, series):
        """Tail int_{t_max}^inf a t^s dt of a per-level series, from a
        least-squares fit of log series against log t over the last
        decade; returns (tail, s).

        A series already decayed to rounding noise (last sample at most
        1e-12 of its peak) gives (0, -inf).  A fit that cannot be trusted,
        because the decade holds a non-positive sample (s = nan) or the
        decay is not integrable (s > TAIL_EXPONENT_CUT), gives (0, s).
        """
        if float(series[-1]) <= 1e-12 * max(float(series.max()), 1e-300):
            return 0.0, -math.inf
        l_dec = self.decade_level()
        fit = fit_power_law(self.t[l_dec:], series[l_dec:])
        slope = fit.exponent  # nan where the fit cannot be made, and nan <= cut is False
        if slope <= TAIL_EXPONENT_CUT:
            return fit.amplitude * self.t_max ** (slope + 1.0) / (-slope - 1.0), slope
        return 0.0, slope

    def tail_integral(self, series, t0):
        """int_{t0}^inf of a per-level series: the trapezoid over [t0,
        t_max] plus decade_tail's remainder, as a TailIntegral.  A level of
        either window the series did not record (NaN) raises OffGridError."""
        l0 = self.level(t0)
        if l0 >= series.size - 1:
            raise OffGridError(f"t0={t0} leaves no integration window")
        self._recorded(series, lo=min(l0, self.decade_level()))
        return TailIntegral(t0, float(trapz(series[l0:], self.h)), *self.decade_tail(series))

    def _recorded(self, *series, lo=0):
        """OffGridError naming the first level from lo on that a series did not record (NaN)."""
        if (gap := lo + np.flatnonzero(np.isnan(np.vstack(series)[:, lo:]).any(axis=0))).size:
            raise OffGridError(f"level {gap[0]} (t={self.t[gap[0]]:g}) was not recorded")

    # -- bookkeeping checks -------------------------------------------------

    def conservation_drift(self):
        """max_t |E(t) - E(0)| / E(0), or max_t |E(t) - E(0)| when E(0) = 0."""
        self._recorded(self.e_total)
        e0 = self.e_total[0]
        return relative(float(np.abs(self.e_total - e0).max()), e0)

    def additivity_error(self):
        """max_t |E(t) - (E_-(t) + E_+(t))|; zero by construction."""
        self._recorded(self.e_total, self.e_minus, self.e_plus)
        return float(np.abs(self.e_total - (self.e_minus + self.e_plus)).max())

    def monotonicity_margins(self):
        """(worst increase of E_-, worst decrease of E_+) between levels,
        as nonnegative numbers (+0.0, not -0.0, where there is none); both
        should be at the discretization-noise scale for a causally clean run."""
        self._recorded(self.e_minus, self.e_plus)
        up = float(np.diff(self.e_minus).max(initial=0.0))
        return up, float(0.0 - np.diff(self.e_plus).min(initial=0.0))

    # -- windowed integrals -------------------------------------------------

    def xi_energy(self, t1, t2, weight=None):
        """pi * int_{t1}^{t2} weight(t) xi(t)^2 dt (weight=None means 1)."""
        l1, l2 = self.level(t1), self.level(t2)
        sq = self.xi[l1 : l2 + 1] ** 2
        if weight is not None:
            sq = sq * weight(self.t[l1 : l2 + 1])
        return math.pi * trapz(sq, self.h)

    def bulk_weighted(self, weight):
        """iint over {r+t >= 1} of weight(r+t) |w|^{p+1}/r^p, from the
        characteristic bins, recorded only on request (no prefactor)."""
        s_mid = self.h * (np.arange(self.s_bulk.size) + 0.5)
        mask = s_mid >= 1.0
        return float(np.dot(weight(s_mid[mask]), self.s_bulk[mask]))


def recorded_line(lines, label, what):
    """(first level, samples) of a monitored flux or trace line, one of
    traj.flux_in, flux_out or char_traces, over the levels the run
    recorded it on: plan_run puts them in one span, and
    _Recorders.line_samples leaves NaN outside it.  OffGridError names
    `what` if the label was not monitored."""
    if label not in lines:
        raise OffGridError(f"{what}={label} was not monitored during the run")
    levels = np.flatnonzero(~np.isnan(lines[label]))
    return int(levels[0]), lines[label][levels]


def _line_flux(traj, lines, label, what):
    samples = recorded_line(lines, label, what)[1]
    return (4.0 * math.pi / (traj.params.p + 1.0)) * trapz(samples, traj.grid.h)


def flux_inward(traj, s):
    """Q_-^-(s) along the inward characteristic r + t = s, over the window
    the run recorded it on, t in [max(0, s - r_max), min(s, t_max)].  The
    label s must have been registered in Monitors.flux_s before the run."""
    return _line_flux(traj, traj.flux_in, s, "flux label s")


def flux_outward(traj, tau):
    """Q_+^+(tau) along the outward characteristic r = t - tau, over the
    window the run recorded it on, t in [max(0, tau), min(t_max, tau +
    r_max)]; the label is one of Monitors.flux_tau."""
    return _line_flux(traj, traj.flux_out, tau, "flux label tau")


def relative(residual, energy):
    """|residual| / |energy|, or |residual| when the energy is 0."""
    return abs(residual) / abs(energy) if energy != 0.0 else abs(residual)


@dataclass
class TriangleReport:
    kind: str
    t0: float
    r0: float
    energy: float
    xi_term: float
    flux_term: float
    bulk_term: float

    @property
    def residual(self):
        return self.energy - (self.xi_term + self.flux_term + self.bulk_term)

    @property
    def residual_frac(self):
        return relative(self.residual, self.energy)


def triangle_residual(traj, t0, r0, kind="inward"):
    """Evaluate one monitored triangle probe against the triangle law."""
    for rec in traj.triangle_records:
        if rec.kind == kind and rec.t0 == t0 and rec.r0 == r0:
            break
    else:
        raise OffGridError(
            f"{kind} triangle ({t0}, {r0}) was not monitored during the run"
        )
    led = traj.ledger
    p = traj.params.p
    if kind == "inward":
        xi_term = led.xi_energy(t0, t0 + r0)
    else:
        xi_term = led.xi_energy(t0 - r0, t0)
    flux_term = (4.0 * math.pi / (p + 1.0)) * rec.flux
    bulk_term = (2.0 * math.pi * (p - 1.0) / (p + 1.0)) * rec.bulk
    return TriangleReport(
        kind=kind,
        t0=t0,
        r0=r0,
        energy=rec.energy,
        xi_term=xi_term,
        flux_term=flux_term,
        bulk_term=bulk_term,
    )


@dataclass
class MorawetzReport:
    gamma: float
    xi_term: float
    bulk_term: float
    k1: float

    @property
    def lhs(self):
        return self.xi_term + self.bulk_term

    @property
    def bound_ratio(self):
        return self.lhs / self.k1


def weighted_morawetz(traj, kappa=None):
    """Combined weighted bound on a run; bound_ratio <= 1 is the check.

    The weight is the paper's a(s) = s^kappa, gamma = kappa, at the run's
    own kappa unless another is given (OutOfRangeError outside (0, 1)).
    The left side comes from kappa-independent accumulators, the xi series
    and the characteristic bins, which the run must have asked for with
    Monitors(bins=True) (OffGridError otherwise), so several kappa can be
    compared on one run.  K1 is model.k_functional's, closed past r_max on
    data with a far field (DivergentIntegralError unless kappa <
    (5-p)/(p-1)); the bins are not, so there the left side covers the
    grid's wedge only.
    """
    led = traj.ledger
    p = traj.params.p
    params = make_params(p, traj.params.kappa if kappa is None else kappa)
    kappa = params.kappa
    weight = lambda s: s**kappa

    if led.t_max < 1.0:
        raise OffGridError("weighted bound needs t_max >= 1")
    xi_term = led.xi_energy(1.0, led.t_max, weight=weight)
    coef = 2.0 * math.pi * (p - 1.0 - 2.0 * kappa) / (p + 1.0)
    bulk_term = coef * led.bulk_weighted(weight)

    k1 = k_functional(traj.pair, params).k1
    return MorawetzReport(gamma=kappa, xi_term=xi_term, bulk_term=bulk_term, k1=k1)


@dataclass
class PointwiseReport:
    max_ratio1: float
    max_ratio2: float


def pointwise_bounds(w, h, p):
    """Sharpest-constant pointwise bounds, evaluated at every node.

    ratio1: |w(R)| / (R^{1/2} E1(R)^{1/2})            with constant 1,
    ratio2: |w(R)| / (2 R^{(p-1)/(p+3)} (E1 E2)^{1/(p+3)})  with constant 2,

    where E1(R) = int_0^R w_r^2 dr and E2(R) = int_0^R |w|^{p+1}/r^{p-1} dr.
    E1 uses the cell-slope sum h * sum ((w_{i+1}-w_i)/h)^2, for which the
    discrete ratio1 <= 1 holds exactly (telescoping plus Cauchy-Schwarz at
    the nodes, sharp for linear w).  Nodes where a denominator vanishes
    are skipped; a NaN in w makes both ratios NaN.
    """
    w = np.asarray(w, dtype=float)
    r = h * np.arange(w.size)
    slopes = np.diff(w) / h
    e1 = np.zeros_like(w)
    np.cumsum(h * slopes * slopes, out=e1[1:])
    e2 = cumtrapz(nonlinearity(w, r, p) * w, h)

    ratio1 = np.zeros_like(w)
    mask1 = ~(e1 <= 0.0)  # keeps NaN, which max then returns
    ratio1[mask1] = np.abs(w[mask1]) / np.sqrt(r[mask1] * e1[mask1])

    ratio2 = np.zeros_like(w)
    prod = e1 * e2
    mask2 = ~(prod <= 0.0)
    expo = (p - 1.0) / (p + 3.0)
    ratio2[mask2] = np.abs(w[mask2]) / (
        2.0 * r[mask2] ** expo * prod[mask2] ** (1.0 / (p + 3.0))
    )
    return PointwiseReport(max_ratio1=float(ratio1.max()), max_ratio2=float(ratio2.max()))
