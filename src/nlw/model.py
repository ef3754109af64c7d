"""Model parameters, initial data families, and conserved functionals.

The lab studies the radial defocusing wave equation in three space
dimensions through its exact one-dimensional reduction: with u the radial
field and w(r,t) = r * u(r,t), the evolution is

    w_tt - w_rr = -|w|^{p-1} w / r^{p-1},     w(0,t) = 0,

for a power 3 <= p < 5.  Everything downstream (solver, diagnostics)
works on the half-line field w; this module owns the parameter bookkeeping,
the standard initial data families sampled as (w0, w1) pairs, and the
time-zero functionals (energy, weighted channel mass, conformal charge).

Two derived exponents appear throughout:

    kappa0 = (5 - p) / (p + 1)   admissible lower edge for decay weights,
    beta   = (p - 3) / (p - 1)   growth rate of the static power-law tail.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryLeakError,
    DivergentIntegralError,
    InitialDataError,
    OutOfRangeError,
)
from .numerics import abs_power, derivative, odd_power, trapz

P_MIN = 3.0
P_MAX = 5.0  # exclusive


@dataclass(frozen=True)
class ModelParams:
    """Power p of the nonlinearity and decay weight exponent kappa."""

    p: float
    kappa: float

    @property
    def kappa0(self):
        """Smallest admissible weight exponent, (5-p)/(p+1)."""
        return (5.0 - self.p) / (self.p + 1.0)

    @property
    def beta(self):
        """Tail growth exponent of the static envelope, (p-3)/(p-1)."""
        return (self.p - 3.0) / (self.p - 1.0)


def make_params(p, kappa):
    """Validated ModelParams constructor.

    p must lie in [3, 5) and kappa in (0, 1).  kappa < kappa0 is allowed
    (the weighted estimates then carry no content but stay well defined);
    values outside (0, 1) break the weight hypotheses and are rejected.
    """
    p = float(p)
    kappa = float(kappa)
    if not (P_MIN <= p < P_MAX):
        raise OutOfRangeError(f"p={p} outside [3, 5)")
    if not (0.0 < kappa < 1.0):
        raise OutOfRangeError(f"kappa={kappa} outside (0, 1)")
    return ModelParams(p=p, kappa=kappa)


def nonlinearity(w, r, p):
    """Defocusing source term F(w, r) = |w|^{p-1} w / r^{p-1}.

    The origin node takes the limit value 0 (w vanishes there like r, so
    the quotient behaves like r^2 * u^p).
    """
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(w)
    out[1:] = odd_power(w[1:], p) / abs_power(r[1:], p - 1.0)
    return out


def potential_density(w, r, p):
    """Potential part (2/(p+1)) |w|^{p+1} / r^{p-1} of the channel energy
    densities, with the origin node at its limit 0."""
    out = np.zeros_like(w)
    out[1:] = (2.0 / (p + 1.0)) * abs_power(w[1:], p + 1.0) / abs_power(
        r[1:], p - 1.0
    )
    return out


@dataclass
class RadialPair:
    """Sampled initial data (w0, w1) on a uniform radial grid.

    w0[0] and w1[0] must vanish exactly: the reduction pins w(0,t) = 0 for
    all times, so both the value and the velocity vanish at the origin.
    """

    w0: np.ndarray
    w1: np.ndarray
    h: float

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        self.w1 = np.asarray(self.w1, dtype=float)
        if self.w0.shape != self.w1.shape:
            raise InitialDataError("w0 and w1 must have the same shape")
        if self.w0[0] != 0.0 or self.w1[0] != 0.0:
            raise InitialDataError("initial data must vanish exactly at r = 0")

    @property
    def r(self):
        return self.h * np.arange(self.w0.size)


class InitialData:
    """Base class for initial data families.

    Subclasses implement w-side profiles w0(r) and, unless the data start
    at rest, w1(r) (vectorized), and report a support radius (None for
    unbounded tails).  sample() evaluates on a grid and runs the boundary
    leak check unless the family opts out.
    """

    check_leak = True

    def w0(self, r):
        raise NotImplementedError

    def w1(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def support_radius(self):
        return None

    def sample(self, grid, leak_tol=0.05):
        r = grid.r
        w0 = np.asarray(self.w0(r), dtype=float)
        w1 = np.asarray(self.w1(r), dtype=float)
        w0[0] = 0.0
        w1[0] = 0.0
        pair = RadialPair(w0=w0, w1=w1, h=grid.h)
        if self.check_leak and leak_tol is not None:
            check_boundary_leak(pair, leak_tol)
        return pair


class GaussianBump(InitialData):
    """Gaussian bump in the 3D field u, started at rest.

    u0(r) = amplitude * exp(-((r - center) / width)^2),  u1 = 0.
    """

    def __init__(self, amplitude, center, width):
        if width <= 0:
            raise OutOfRangeError(f"width={width} must be positive")
        self.amplitude = float(amplitude)
        self.center = float(center)
        self.width = float(width)

    def u0(self, r):
        x = (np.asarray(r, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-x * x)

    def w0(self, r):
        return np.asarray(r, dtype=float) * self.u0(r)

    def support_radius(self):
        # radius beyond which the profile is below 1e-14 of its peak
        return self.center + self.width * math.sqrt(math.log(1e14))


class DirectedPulse(InitialData):
    """Gaussian pulse of the reduced field w with directed initial velocity.

    w0(r) = amplitude * exp(-((r - center) / width)^2);
    w1 = +w0' makes the pulse ride the incoming characteristic
    (w ~ w0(r + t) until it reaches the origin), w1 = -w0' the outgoing one.
    The center should sit several widths away from r = 0 so the forced
    w(0) = 0 is consistent to rounding.
    """

    def __init__(self, amplitude, center, width, direction="inward"):
        if direction not in ("inward", "outward"):
            raise OutOfRangeError(f"direction={direction!r}")
        if width <= 0:
            raise OutOfRangeError(f"width={width} must be positive")
        self.amplitude = float(amplitude)
        self.center = float(center)
        self.width = float(width)
        self.direction = direction

    def w0(self, r):
        x = (np.asarray(r, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-x * x)

    def w1(self, r):
        r = np.asarray(r, dtype=float)
        x = (r - self.center) / self.width
        dw0 = self.w0(r) * (-2.0 * x / self.width)
        return dw0 if self.direction == "inward" else -dw0

    def support_radius(self):
        return self.center + self.width * math.sqrt(math.log(1e14))


class AppendixPowerLaw(InitialData):
    """Static power-law tail with a smooth interior cap, started at rest.

    Outside the unit ball the 3D field is exactly scale-critical:

        u0(r) = c * r^{-2/(p-1)}  for r >= 1,   u1 = 0,

    so the reduced field is w0 = c * r^beta there.  On [1 - blend, 1] the
    profile is glued by the quintic q(r) = a0 + a4 (r-x0)^4 + a5 (r-x0)^5
    (x0 = 1 - blend) whose value, slope and curvature match the power law
    at r = 1 and whose first three derivatives vanish at x0; below x0 the
    field is constant a0.  The glued profile is C^2 everywhere and smooth
    off the two seams.

    The tail is the whole point of this family, so the boundary leak check
    is skipped: on a truncated grid the exterior field necessarily carries
    weight at r_max, and the diagnostics that probe the tail restrict to
    the causal wedge r <= r_max - t where truncation is invisible.
    """

    check_leak = False

    def __init__(self, c, params, blend=0.5):
        if c <= 0:
            raise OutOfRangeError(f"c={c} must be positive")
        if not (0.0 < blend < 1.0):
            raise OutOfRangeError(f"blend={blend} outside (0, 1)")
        self.c = float(c)
        self.p = float(params.p)
        self.blend = float(blend)
        a = 2.0 / (self.p - 1.0)  # u0 ~ r^{-a}
        d = self.blend
        # match value/slope/curvature of c*r^{-a} at r=1 with the quintic
        c1 = -a * self.c
        c2 = a * (a + 1.0) * self.c
        m = np.array([[4.0 * d**3, 5.0 * d**4], [12.0 * d**2, 20.0 * d**3]])
        a4, a5 = np.linalg.solve(m, np.array([c1, c2]))
        self.a4 = float(a4)
        self.a5 = float(a5)
        self.a0 = float(self.c - a4 * d**4 - a5 * d**5)
        self.x0 = 1.0 - d

    def u0(self, r):
        r = np.asarray(r, dtype=float)
        a = 2.0 / (self.p - 1.0)
        out = np.full_like(r, self.a0)
        mid = (r > self.x0) & (r < 1.0)
        s = r[mid] - self.x0
        out[mid] = self.a0 + self.a4 * s**4 + self.a5 * s**5
        tail = r >= 1.0
        out[tail] = self.c * r[tail] ** (-a)
        return out

    def w0(self, r):
        r = np.asarray(r, dtype=float)
        beta = (self.p - 3.0) / (self.p - 1.0)
        out = r * self.u0(r)
        # keep the tail bit-exact: r * r^{-2/(p-1)} in one power call
        tail = r >= 1.0
        out[tail] = self.c * r[tail] ** beta
        return out

    def support_radius(self):
        return None


class Tabulated(InitialData):
    """Initial data given directly as sampled (w0, w1) arrays."""

    def __init__(self, w0, w1, h):
        self._w0 = np.asarray(w0, dtype=float)
        self._w1 = np.asarray(w1, dtype=float)
        self.h = float(h)
        if self._w0.shape != self._w1.shape:
            raise InitialDataError("w0 and w1 must have the same shape")

    def sample(self, grid, leak_tol=0.05):
        if abs(grid.h - self.h) > 1e-12 * self.h:
            raise InitialDataError(
                f"tabulated spacing h={self.h} does not match grid h={grid.h}"
            )
        n = grid.n
        if self._w0.size > n + 1:
            raise InitialDataError("tabulated data extends beyond the grid")
        w0 = np.zeros(n + 1)
        w1 = np.zeros(n + 1)
        w0[: self._w0.size] = self._w0
        w1[: self._w1.size] = self._w1
        w0[0] = 0.0
        w1[0] = 0.0
        pair = RadialPair(w0=w0, w1=w1, h=grid.h)
        if leak_tol is not None:
            check_boundary_leak(pair, leak_tol)
        return pair

    def support_radius(self):
        nz = np.nonzero((self._w0 != 0.0) | (self._w1 != 0.0))[0]
        if nz.size == 0:
            return 0.0
        return self.h * (nz[-1] + 1)


def check_boundary_leak(pair, tol=0.05):
    """Reject data whose outer boundary value is not negligible.

    The half-line and 3D energies differ by the boundary term
    2*pi*r_max*u(r_max)^2 of the integration by parts that relates them.
    This check compares that term against the kinetic bulk
    int r^2 (u_r^2 + u_t^2) dr and raises BoundaryLeakError when the
    fraction exceeds tol, which signals that the grid is too small for the
    data (or that the caller should opt out, as the power-law family does).
    """
    r = pair.r
    h = pair.h
    u = np.zeros_like(pair.w0)
    u[1:] = pair.w0[1:] / r[1:]
    u[0] = derivative(pair.w0, h)[0]
    ur = derivative(u, h)
    # r^2 u_t^2 equals w1^2 exactly, no derivative needed for the velocity
    bulk = trapz(r * r * ur * ur, h) + trapz(pair.w1**2, h)
    boundary = r[-1] * u[-1] ** 2
    frac = boundary / max(bulk, 1e-300)
    if frac > tol:
        raise BoundaryLeakError(
            f"boundary weight fraction {frac:.3g} exceeds tol={tol}; "
            f"enlarge r_max or pad the data"
        )
    return frac


def lift_initial_data(u0, u1, h, leak_tol=0.05):
    """Lift sampled 3D radial data (u0, u1) to the reduced pair (r*u0, r*u1)."""
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    r = h * np.arange(u0.size)
    pair = RadialPair(w0=r * u0, w1=r * u1, h=h)
    if leak_tol is not None:
        check_boundary_leak(pair, leak_tol)
    return pair


def energy_total(pair, params):
    """Conserved energy of the data, in the half-line normalization.

    E = 2*pi * int [ w_r^2 + w_t^2 + (2/(p+1)) |w|^{p+1}/r^{p-1} ] dr,
    which equals the full 3D energy of u up to the truncation boundary
    term (see check_boundary_leak).
    """
    h = pair.h
    wr = derivative(pair.w0, h)
    pot = potential_density(pair.w0, pair.r, params.p)
    return 2.0 * math.pi * trapz(wr * wr + pair.w1**2 + pot, h)


def u_side_energy(u0, u1, h, p):
    """3D energy from radial samples of (u0, u1), independent route.

    E = 4*pi * int r^2 [ u_r^2/2 + u_t^2/2 + |u|^{p+1}/(p+1) ] dr.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    r = h * np.arange(u0.size)
    ur = derivative(u0, h)
    dens = 0.5 * ur * ur + 0.5 * u1 * u1 + abs_power(u0, p + 1.0) / (p + 1.0)
    return 4.0 * math.pi * trapz(r * r * dens, h)


@dataclass
class KReport:
    """Weighted incoming-channel mass of the data.

    k1 is the half-line normalization
        K1 = pi * int max(1, r^kappa) [ |w0' + w1|^2
                                        + (2/(p+1)) |w0|^{p+1}/r^{p-1} ] dr
    and k = 4*K1 is the corresponding full-space value (each integrand
    maps to four times itself under the reduction, for the gradient
    channel and the potential alike).
    """

    k1: float
    k: float
    decades: tuple  # per-decade contributions over [1, r_max], diagnostics


def inward_density(pair, p):
    """|w0' + w1|^2 + (2/(p+1)) |w0|^{p+1}/r^{p-1}: pi times its integral
    is the inward channel energy E_-(0) of the data."""
    wr = derivative(pair.w0, pair.h)
    return (wr + pair.w1) ** 2 + potential_density(pair.w0, pair.r, p)


def k_functional(pair, params):
    """Compute the weighted channel mass, guarding against divergence.

    For slowly decaying tails the weighted integrand can fail to be
    integrable; a truncated grid then produces a number that only reflects
    r_max.  The guard splits [1, r_max] into complete decades and raises
    DivergentIntegralError if the last complete decade contributes at
    least as much as the one before it (ratio >= 0.999) while being
    non-negligible.  At least two complete decades are required for the
    comparison; smaller grids skip the guard.
    """
    h = pair.h
    p = params.p
    kappa = params.kappa
    r = pair.r
    weight = np.maximum(1.0, r**kappa)
    g = weight * inward_density(pair, p)
    k1 = math.pi * trapz(g, h)

    decades = []
    lo = 1.0
    while lo * 10.0 <= r[-1] * (1.0 + 1e-12):
        i0 = int(round(lo / h))
        i1 = min(int(round(lo * 10.0 / h)), r.size - 1)
        decades.append(math.pi * trapz(g[i0 : i1 + 1], h))
        lo *= 10.0
    if len(decades) >= 2:
        prev, last = decades[-2], decades[-1]
        if last > 1e-12 * max(k1, 1e-300) and last >= 0.999 * prev:
            raise DivergentIntegralError(
                f"weighted channel integrand does not settle: last two "
                f"decade contributions {prev:.6g} -> {last:.6g} "
                f"(kappa={kappa}, p={p})"
            )
    return KReport(k1=k1, k=4.0 * k1, decades=tuple(decades))


def conformal_charge_w(w, w_t, t, h, p):
    """Conformal charge of a half-line state (w, w_t) at time t.

    Q0 = 4*pi * int [ (r w_t + t (w_r - w/r))^2 + (t w_t + w + r w_r)^2 ] dr
    Q1 = (8*pi/(p+1)) * int (r^2 + t^2) |w|^{p+1} / r^{p-1} dr

    Q0 + Q1 is non-increasing for p >= 3 and constant at p = 3.
    """
    w = np.asarray(w, dtype=float)
    w_t = np.asarray(w_t, dtype=float)
    r = h * np.arange(w.size)
    wr = derivative(w, h)
    u = np.empty_like(w)
    u[1:] = w[1:] / r[1:]
    u[0] = wr[0]
    qa = (r * w_t + t * (wr - u)) ** 2
    qb = (t * w_t + w + r * wr) ** 2
    qa[0] = 0.0
    qb[0] = (t * w_t[0]) ** 2  # w(0)=0 and r*w_r -> 0; w_t(0) should be 0 too
    q0 = 4.0 * math.pi * trapz(qa + qb, h)
    q1 = 4.0 * math.pi * trapz((r * r + t * t) * potential_density(w, r, p), h)
    return q0, q1
