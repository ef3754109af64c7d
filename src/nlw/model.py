"""Model parameters, initial data families, and conserved functionals.

The lab studies the radial defocusing wave equation in three space
dimensions through its exact one-dimensional reduction: with u the radial
field and w(r,t) = r * u(r,t), the evolution is

    w_tt - w_rr = -|w|^{p-1} w / r^{p-1},     w(0,t) = 0,

for a power 3 <= p < 5.  Everything downstream (solver, diagnostics)
works on the half-line field w; this module owns the parameter bookkeeping,
the standard initial data families sampled as (w0, w1) pairs, and the
weighted channel mass K1 of the data (k_functional).  The channel energies
of a state come from the solver's ledger (its level 0 for the data).

Two derived exponents appear throughout:

    kappa0 = (5 - p) / (p + 1)   admissible lower edge for decay weights,
    beta   = (p - 3) / (p - 1)   growth rate of the static power-law tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowupError,
    BoundaryLeakError,
    DivergentIntegralError,
    InitialDataError,
    OffGridError,
    OutOfRangeError,
)
from .numerics import abs_power, derivative, differences, grid_index, odd_power, trapz

P_MIN = 3.0
P_MAX = 5.0  # exclusive
LEAK_TOL = 0.05  # largest boundary fraction check_boundary_leak accepts
# a rule per order, built on first use: numpy loads numpy.polynomial (0.75 MB) on first access
_leggauss = functools.cache(lambda n: np.polynomial.legendre.leggauss(n))


def tail_beta(p):
    """Tail growth exponent of the static envelope, (p-3)/(p-1)."""
    return (p - 3.0) / (p - 1.0)


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
        return tail_beta(self.p)


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


FAR_DS = 1.0 / 2048.0  # RK4 step and table spacing of the far-field profile
BLEND = 0.5  # width of AppendixPowerLaw's quintic seam inside the unit ball


@dataclass
class EnvelopeRecord:
    """The envelope verdict per level (FarField.envelope): ratios to c r^beta."""

    c: float
    t: np.ndarray
    max_ratio: np.ndarray  # sup |w| / (3 c r^beta) on r >= 1 + t
    min_profile: np.ndarray  # inf |w| / (c r^beta) on r >= max(1 + t, 4)
    rays: dict  # offset -> |w| / (c r^beta) on r = 1 + t + offset
    peak_ratio: float
    peak_s: float  # where the peak is, s = t/r, first reached at r = 1 + peak_t
    peak_t: float
    first_violation_t: float | None  # first level whose ratio reaches 1
    profile_zero_s: float | None  # first zero of Phi in the floor's range

    @property
    def holds(self):
        """The envelope verdict: |w| < 3 c r^beta at every level."""
        return self.peak_ratio < 1.0

    def summary(self):
        """JSON-ready verdict, peak, first violation and profile floor."""
        return {"c": self.c, "peak_ratio": self.peak_ratio, "peak_r": 1.0 + self.peak_t,
                "peak_t": self.peak_t, "holds": self.holds,
                "first_violation_t": self.first_violation_t,
                "min_profile": float(self.min_profile.min()),
                "profile_zero_s": self.profile_zero_s}


class FarField:
    """The exact exterior of power-law data c r^beta at rest on r >= 1.

    Equation and data are invariant under w -> lam^-beta w(lam r, lam t),
    so on r > 1 + t the solution is w = r^beta Phi(s), s = t/r, with

        (1 - s^2) Phi'' + 2(beta-1) s Phi' - beta(beta-1) Phi + |Phi|^{p-1} Phi = 0,

    Phi(0) = c, Phi'(0) = 0, regular for s < 1.  A lookup tabulates Phi, Phi'
    by RK4 up to the largest s asked for yet (read by cubic Hermite
    interpolation); BlowupError if the table stops being finite, as it
    does at large c.  Each closed ledger density is r^d psi(t/r), so its
    integral past R is R^{d+1} Psi(t/R), Psi(x) = x^{d+1} int_0^x s^{-d-2}
    psi ds, tabulated per kind: psi(0) exactly, the rest by the product
    trapezoid rule, as s^{-d-2} may be singular at 0.
    """

    def __init__(self, c, p):
        self.c, self.p, self.beta = float(c), float(p), tail_beta(p)
        self.s, self.tables = None, {}
        b, pi = self.beta, math.pi  # kind -> (degree d, ledger prefactor)
        self.kinds = dict(e_minus=(2 * b - 2, pi), e_plus=(2 * b - 2, pi), bulk=(2 * b - 3, 1.0),
                          y2p=(2 * b - 4, 4 * pi), exterior=(-2.0, 4 * pi))

    def _ensure(self, s_max):
        ds, steps = FAR_DS, math.ceil(s_max / FAR_DS)
        if not steps * ds < 1.0:
            raise OffGridError(f"far-field lookup at t/r = {s_max:.6g}: Phi is singular at 1")
        if self.s is not None and self.s[-1] >= s_max:
            return
        b1, b2, pm1 = self.beta * (self.beta - 1.0), 2.0 * self.beta - 2.0, self.p - 1.0

        def acc(s, y, v):
            return (b1 * y - abs(y) ** pm1 * y - b2 * s * v) / (1.0 - s * s)

        # a longer table continues the shorter one: the same steps, the same bits
        table = [(self.c, 0.0)] if self.s is None else list(zip(self.phi.tolist(),
                                                                 self.dphi.tolist()))
        y, v = table[-1]
        try:
            for k in range(len(table) - 1, steps):
                s = k * ds
                a1 = acc(s, y, v)
                a2 = acc(s + 0.5 * ds, y + 0.5 * ds * v, v + 0.5 * ds * a1)
                a3 = acc(s + 0.5 * ds, y + 0.5 * ds * (v + 0.5 * ds * a1), v + 0.5 * ds * a2)
                a4 = acc(s + ds, y + ds * (v + 0.5 * ds * a2), v + ds * a3)
                y += ds * (v + ds * (a1 + a2 + a3) / 6.0)
                v += ds * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
                table.append((y, v))
        except OverflowError:  # |y|^(p-1) past the largest float
            table.append((math.inf, math.inf))
        phi, dphi = np.array(table).T
        if not (finite := np.isfinite(phi) & np.isfinite(dphi)).all():
            raise BlowupError(f"the far-field profile of c={self.c:.6g}, p={self.p:.6g} stops "
                              f"being finite at s = t/r = {ds * np.argmin(finite):.6g}")
        self.s, self.phi, self.dphi = ds * np.arange(steps + 1), phi, dphi
        self.tables = {}

    def profile(self, s):
        """(Phi(s), Phi'(s))."""
        s = np.asarray(s, dtype=float)
        self._ensure(float(s.max(initial=0.0)))
        k = np.minimum((s / FAR_DS).astype(int), self.s.size - 2)
        x = s / FAR_DS - k
        y0, d0, d1 = self.phi[k], self.dphi[k], self.dphi[k + 1]
        dy = (self.phi[k + 1] - y0) / FAR_DS
        return (y0 + FAR_DS * (x * x * (3 - 2 * x) * dy + x * (1 - x) * ((1 - x) * d0 - x * d1)),
                6 * x * (1 - x) * dy + (1 - x) * (1 - 3 * x) * d0 + x * (3 * x - 2) * d1)

    def _crossings(self):
        """(zeros, critical points): each s between table nodes where the
        interpolated Phi, or Phi', changes sign, by bisection."""
        ks = [np.flatnonzero(y[:-1] * y[1:] < 0.0) for y in (self.phi, self.dphi)]
        k, which = np.concatenate(ks), np.repeat([0, 1], [ks[0].size, ks[1].size])
        lo, hi = self.s[k], self.s[k + 1]
        neg = np.choose(which, (self.phi[k], self.dphi[k])) < 0.0
        # s to 2^-41: a zero's |Phi| is then below 1e-12 and a critical
        # value moves with the square of the error
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            left = (np.choose(which, self.profile(mid)) < 0.0) == neg
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        return lo[: ks[0].size], lo[ks[0].size :]

    def envelope(self, t):
        """The envelope |w| < 3 c r^beta, at the data's own c, on r >= 1 + t
        at the ascending level times t, up to r = inf.  There w / r^beta =
        Phi(s), s = t/r in [0, t/(1+t)], so a level's sup ratio is the sup of
        |Phi|/(3c) over that range, its profile floor the inf of |Phi|/c on
        r >= max(1 + t, 4), and its rays |Phi|/c on r = 1 + t + off for
        off = 0, 2 and 4.  Sup and inf are exact for the interpolated Phi:
        they take the table nodes, the zeros and critical points between
        them and each level's end."""
        t, c = np.asarray(t, dtype=float), self.c
        s_env, s_floor = t / (1.0 + t), t / np.maximum(1.0 + t, 4.0)
        self._ensure(s_env[-1])
        zeros, crit = self._crossings()
        cand = np.concatenate([self.s, crit, zeros])
        order = np.argsort(cand, kind="stable")
        cand = cand[order]
        val = np.concatenate([np.abs(self.phi), np.abs(self.profile(crit)[0]),
                              np.zeros_like(zeros)])[order]

        def running(acc, s):  # acc of |Phi| over [0, s]
            i = np.searchsorted(cand, s, "right") - 1
            return acc(acc.accumulate(val)[i], np.abs(self.profile(s)[0]))

        sup = running(np.maximum, s_env) / (3.0 * c)
        j = int(np.argmax(val[: np.searchsorted(cand, s_env[-1], "right")]))
        peak_s = cand[j] if val[j] / (3.0 * c) >= sup[-1] else s_env[-1]
        bad, zeros = t[sup >= 1.0], zeros[zeros <= s_floor[-1]]
        return EnvelopeRecord(
            c=c, t=t, max_ratio=sup, min_profile=running(np.minimum, s_floor) / c,
            rays={off: np.abs(self.profile(t / (1.0 + t + off))[0]) / c
                  for off in (0.0, 2.0, 4.0)},
            peak_ratio=float(sup[-1]), peak_s=float(peak_s),
            peak_t=float(t[-1] if peak_s == s_env[-1] else peak_s / (1.0 - peak_s)),
            first_violation_t=float(bad[0]) if bad.size else None,
            profile_zero_s=float(zeros[0]) if zeros.size else None)

    def field(self, r, t):
        """w = r^beta Phi(t/r) at radii r >= 1 + t."""
        return r ** self.beta * self.profile(t / r)[0]

    def channels(self, r, t):
        """(w_r + w_t, w_r - w_t) at radii r > 1 + t."""
        s = t / r
        phi, dphi = self.profile(s)
        base, scale = self.beta * phi - s * dphi, r ** (self.beta - 1.0)
        return scale * (base + dphi), scale * (base - dphi)

    def tail(self, kind, r, t):
        """The ledger integral of `kind` past radius r at time t (r > 1 + t),
        prefactor included: E_-, E_+, bulk, y2p^2 or the exterior norm."""
        (d, pref), p = self.kinds[kind], self.p
        x = t / r
        self._ensure(float(np.max(x, initial=0.0)))
        if kind not in self.tables:  # on quarter steps of the Phi table
            ds, a = FAR_DS / 4.0, -d - 2.0
            s = ds * np.arange(4 * self.s.size - 3)
            absphi = np.abs(self.profile(s)[0])
            if kind in ("e_minus", "e_plus"):
                chan = self.channels(1.0, s)[kind == "e_plus"]  # r = 1, t = s
                u = chan * chan + (2.0 / (p + 1.0)) * absphi ** (p + 1.0)
            else:
                u = absphi ** {"bulk": p + 1.0, "y2p": 2.0 * p, "exterior": 2.0 * p - 2.0}[kind]
            psi0, u = u[0], u - u[0]
            m0, m1 = np.diff(s ** (a + 1.0)) / (a + 1.0), np.diff(s ** (a + 2.0)) / (a + 2.0)
            rest = np.cumsum(u[:-1] * m0 + np.diff(u) / ds * (m1 - s[:-1] * m0))
            self.tables[kind] = s, psi0 / (-d - 1.0) + np.append(0.0, s[1:] ** (d + 1.0) * rest)
        return pref * r ** (d + 1.0) * np.interp(x, *self.tables[kind])

    def defect_tail(self, r, t1, t2):
        """int_r^inf (D+^2 + D-^2)/2 dr' (Gauss-Legendre in r/r'): the free
        wave from the state at t1 carries w_r + w_t in from r' + tau and
        w_r - w_t out from r' - tau (tau = t2 - t1), so D+ = A+(r', t2) -
        A+(r' + tau, t1) and D- = A-(r', t2) - A-(r' - tau, t1)."""
        x, wts = _leggauss(64)
        x, tau = 0.5 * (x + 1.0), t2 - t1
        now_in, now_out = self.channels(r / x, t2)
        dp = now_in - self.channels(r / x + tau, t1)[0]
        dm = now_out - self.channels(r / x - tau, t1)[1]
        return float(np.dot(wts, (dp * dp + dm * dm) * r / (x * x))) / 4.0

    def triangle_source(self, t_apex):
        """iint |w / c|^p / r^{p-1} dr dt over the backward light triangle
        with apex (1 + t', t'), t' = t_apex, which lies in r >= 1 + t
        (Gauss-Legendre in s = t/r); in units of the amplitude, so no c
        underflows it.  There w = r^beta Phi(s), so it is int |Phi/c|^p B(s)
        ds over 0 <= s <= t'/(1+t'), B the integral of r^{beta-1} from
        1/(1-s) to (1+2t')/(1+s): (b^beta - a^beta)/beta, log(b/a) at beta = 0."""
        x, wts = _leggauss(64)
        half, b = 0.5 * t_apex / (1.0 + t_apex), self.beta
        s = half * (x + 1.0)
        gap = np.log((1.0 + 2.0 * t_apex) * (1.0 - s) / (1.0 + s))  # log(b/a)
        span = gap if b == 0.0 else (1.0 - s) ** -b * np.expm1(b * gap) / b
        return half * float(np.dot(wts, np.abs(self.profile(s)[0] / self.c) ** self.p * span))

    def k_tail(self, r, kappa):
        """K1's part past r >= 1, in closed form; DivergentIntegralError
        unless kappa < (5-p)/(p-1), where it is finite."""
        c, b, p = self.c, self.beta, self.p
        if not kappa < 1.0 - 2.0 * b:
            raise DivergentIntegralError(f"weighted channel mass diverges: kappa={kappa} >= "
                                         f"(5-p)/(p-1) = {1.0 - 2.0 * b:.6g} (p={p})")
        return (math.pi * c * c * (b * b + 2.0 * c ** (p - 1.0) / (p + 1.0))
                * r ** (2.0 * b - 1.0 + kappa) / (1.0 - 2.0 * b - kappa))


@dataclass
class RadialPair:
    """Sampled initial data (w0, w1) on a uniform radial grid.

    Both must be finite, and w0[0] and w1[0] must vanish exactly: the
    reduction pins w(0,t) = 0 for all times, so both the value and the
    velocity vanish at the origin (InitialDataError otherwise).
    far_field is the data's exact exterior (FarField), if they have one.
    """

    w0: np.ndarray
    w1: np.ndarray
    h: float
    far_field: FarField | None = None

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        self.w1 = np.asarray(self.w1, dtype=float)
        if self.w0.shape != self.w1.shape:
            raise InitialDataError("w0 and w1 must have the same shape")
        # a nan or inf entry makes the max of |w| nan or inf
        if not all(math.isfinite(np.abs(w).max(initial=0.0)) for w in (self.w0, self.w1)):
            raise InitialDataError("initial data must be finite")
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
    leak check at LEAK_TOL, except on data that carry their exact exterior (a
    FarField, from far_field()): their weight at r_max is no leak.
    """

    def w0(self, r):
        raise NotImplementedError

    def w1(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def support_radius(self):
        return None

    def far_field(self):
        """The data's exact exterior past any r_max (a FarField), or None."""
        return None

    def sample(self, grid):
        r = grid.r
        w0 = np.asarray(self.w0(r), dtype=float)
        w1 = np.asarray(self.w1(r), dtype=float)
        w0[0] = 0.0
        w1[0] = 0.0
        pair = RadialPair(w0=w0, w1=w1, h=grid.h, far_field=self.far_field())
        if pair.far_field is None:
            check_boundary_leak(pair)
        return pair


class _Gaussian(InitialData):
    """The Gaussian families' profile amplitude * exp(-((r - center) / width)^2)."""

    def __init__(self, amplitude, center, width):
        if width <= 0:
            raise OutOfRangeError(f"width={width} must be positive")
        self.amplitude = float(amplitude)
        self.center = float(center)
        self.width = float(width)

    def profile(self, r):
        x = (np.asarray(r, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-x * x)

    def support_radius(self):
        # radius beyond which the profile is below 1e-14 of its peak
        return self.center + self.width * math.sqrt(math.log(1e14))


class GaussianBump(_Gaussian):
    """Gaussian bump in the 3D field u, started at rest.

    u0(r) = amplitude * exp(-((r - center) / width)^2),  u1 = 0.
    """

    u0 = _Gaussian.profile

    def w0(self, r):
        return np.asarray(r, dtype=float) * self.u0(r)


class DirectedPulse(_Gaussian):
    """Gaussian pulse of the reduced field w with directed initial velocity.

    w0(r) = amplitude * exp(-((r - center) / width)^2);
    w1 = +w0' makes the pulse ride the incoming characteristic
    (w ~ w0(r + t) until it reaches the origin), w1 = -w0' the outgoing one.
    The center should sit several widths away from r = 0 so the forced
    w(0) = 0 is consistent to rounding.
    """

    w0 = _Gaussian.profile

    def __init__(self, amplitude, center, width, direction="inward"):
        if direction not in ("inward", "outward"):
            raise OutOfRangeError(f"direction={direction!r}")
        super().__init__(amplitude, center, width)
        self.direction = direction

    def w1(self, r):
        r = np.asarray(r, dtype=float)
        x = (r - self.center) / self.width
        dw0 = self.w0(r) * (-2.0 * x / self.width)
        return dw0 if self.direction == "inward" else -dw0


class AppendixPowerLaw(InitialData):
    """Static power-law tail with a smooth interior cap, started at rest.

    Outside the unit ball the 3D field is exactly scale-critical:

        u0(r) = c * r^{-2/(p-1)}  for r >= 1,   u1 = 0,

    so the reduced field is w0 = c * r^beta there.  On [1 - BLEND, 1] the
    profile is glued by the quintic q(r) = a0 + a4 (r-x0)^4 + a5 (r-x0)^5
    (x0 = 1 - BLEND) whose value, slope and curvature match the power law
    at r = 1 and whose first three derivatives vanish at x0; below x0 the
    field is constant a0.  The glued profile is C^2 everywhere and smooth
    off the two seams.

    The tail is the whole point of this family: on a truncated grid the
    exterior field necessarily carries weight at r_max.  Its far_field()
    is the exact exterior, which sample() attaches instead of running the
    boundary leak check, and which closes every integral of the run past
    the clean wedge.
    """

    def __init__(self, c, params):
        if not 0.0 < c < math.inf:
            raise OutOfRangeError(f"c={c} must be positive and finite")
        self.c = float(c)
        self.p = float(params.p)
        a = 2.0 / (self.p - 1.0)  # u0 ~ r^{-a}
        d = BLEND
        # match value/slope/curvature of c*r^{-a} at r=1 with the quintic
        c1 = -a * self.c
        c2 = a * (a + 1.0) * self.c
        m = np.array([[4.0 * d**3, 5.0 * d**4], [12.0 * d**2, 20.0 * d**3]])
        a4, a5 = np.linalg.solve(m, np.array([c1, c2]))
        self.a4 = float(a4)
        self.a5 = float(a5)
        self.a0 = float(self.c - a4 * d**4 - a5 * d**5)
        self.x0 = 1.0 - d

    def w0(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.a0)  # the cap of u0, then r times it
        mid = (r > self.x0) & (r < 1.0)
        s = r[mid] - self.x0
        out[mid] = self.a0 + self.a4 * s**4 + self.a5 * s**5
        out *= r
        # the tail c * r^beta in one power call, not r * c * r^{-2/(p-1)}
        tail = r >= 1.0
        out[tail] = self.c * r[tail] ** tail_beta(self.p)
        return out

    def far_field(self):
        return FarField(self.c, self.p)


class Tabulated(InitialData):
    """Initial data given directly as sampled (w0, w1) arrays."""

    def __init__(self, w0, w1, h):
        self._w0 = np.asarray(w0, dtype=float)
        self._w1 = np.asarray(w1, dtype=float)
        self.h = float(h)
        if self._w0.shape != self._w1.shape:
            raise InitialDataError("w0 and w1 must have the same shape")
        if self._w0.ndim != 1:
            raise InitialDataError(f"a table must be 1-D, got w0 of shape {self._w0.shape}")

    def w0(self, r):
        """The table, zero-padded to the nodes r (of the table's spacing)."""
        return np.append(self._w0, np.zeros(r.size - self._w0.size))

    def w1(self, r):
        return np.append(self._w1, np.zeros(r.size - self._w1.size))

    def sample(self, grid):
        if abs(grid.h - self.h) > 1e-12 * self.h:
            raise InitialDataError(
                f"tabulated spacing h={self.h} does not match grid h={grid.h}"
            )
        if self._w0.size > grid.n + 1:
            raise InitialDataError("tabulated data extends beyond the grid")
        return super().sample(grid)

    def support_radius(self):
        nz = np.nonzero((self._w0 != 0.0) | (self._w1 != 0.0))[0]
        if nz.size == 0:
            return 0.0
        return self.h * (nz[-1] + 1)


def check_boundary_leak(pair):
    """Reject data whose outer boundary value is not negligible.

    The half-line and 3D energies differ by the boundary term
    2*pi*r_max*u(r_max)^2 of the integration by parts that relates them.
    This check compares that term against the kinetic bulk
    int r^2 (u_r^2 + u_t^2) dr and raises BoundaryLeakError when the
    fraction exceeds LEAK_TOL, which signals that the grid is too small for
    the data.  Data with a far field are exempt: InitialData.sample skips
    the check for them.  A bulk that overflows a float raises BlowupError
    before any step.
    """
    r = pair.r
    h = pair.h
    u = np.zeros_like(pair.w0)
    u[1:] = pair.w0[1:] / r[1:]
    u[0] = derivative(pair.w0, h)[0]
    ur = derivative(u, h)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        # r^2 u_t^2 equals w1^2 exactly, no derivative needed for the velocity
        bulk = trapz(r * r * ur * ur, h) + trapz(pair.w1**2, h)
        boundary = r[-1] * u[-1] ** 2
    if not math.isfinite(bulk):
        raise BlowupError(f"the data's energy overflows: int r^2 (u_r^2 + u_t^2) dr = {bulk}")
    frac = boundary / max(bulk, 1e-300)
    if frac > LEAK_TOL:
        raise BoundaryLeakError(
            f"boundary weight fraction {frac:.3g} exceeds tol={LEAK_TOL}; "
            f"enlarge r_max or pad the data"
        )
    return frac


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
    tail: float = 0.0  # the part of k1 past r = 1 (data with a far field)


def k_functional(pair, params):
    """Compute the weighted channel mass (KReport), also the right side of
    diagnostics.weighted_morawetz.

    Data with a far field, exactly c r^beta on r >= 1, add the integral
    past r = 1 in closed form (FarField.k_tail), which raises
    DivergentIntegralError unless kappa < (5-p)/(p-1); other data are
    taken on the grid as they stand.
    """
    r, h, p = pair.r, pair.h, params.p
    end = r.size if pair.far_field is None else grid_index(1.0, h) + 1
    # the ledger's E_- density at level 0 (solver._Recorders.energies)
    chan = differences(pair.w0) + (2.0 * h) * pair.w1  # 2h (w_r + w_t)
    pot = (2.0 / (p + 1.0)) * nonlinearity(pair.w0, r, p) * pair.w0
    inward = chan * chan * (1.0 / (4.0 * h * h)) + pot
    k1 = math.pi * trapz((np.maximum(1.0, r**params.kappa) * inward)[:end], h)
    tail = 0.0 if pair.far_field is None else pair.far_field.k_tail(r[end - 1], params.kappa)
    return KReport(k1=k1 + tail, k=4.0 * (k1 + tail), tail=tail)
