"""Reference implementations used only by the tests.

Everything in this module is deliberately independent of the package
internals: closed forms where they exist, scipy quadrature otherwise, and
a couple of intentionally naive evaluators.  Tests compare the fast
implementations against these, so nothing here may call into the package.

Conventions mirrored from the library (half-line reduction w = r u):

    energy          E  = 2 pi int [w_r^2 + w_t^2 + (2/(p+1))|w|^{p+1}/r^{p-1}] dr
    channel split   E_-/+ = pi int [(w_r +/- w_t)^2 + (2/(p+1))|w|^{p+1}/r^{p-1}] dr
    weighted mass   K1 = pi int max(1, r^kappa) [(w_r + w_t)^2 + ...] dr
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar


# ---------------------------------------------------------------------------
# exact linear propagation
# ---------------------------------------------------------------------------

def odd_eval(f, x):
    """Evaluate the odd extension of f (defined on x >= 0) at any x."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * f(np.abs(x))


def dalembert_point(w0f, w1_anti, r, t):
    """Exact half-line solution of w_tt = w_rr with w(0, t) = 0.

    w0f is the initial profile on r >= 0 and w1_anti its velocity
    antiderivative V(x) = int_0^x w1 (so the formula needs no quadrature).
    The odd extension of w1 makes V even, hence the |.| below.
    """
    r = np.asarray(r, dtype=float)
    lead = 0.5 * (odd_eval(w0f, r + t) + odd_eval(w0f, r - t))
    vel = 0.5 * (w1_anti(np.abs(r + t)) - w1_anti(np.abs(r - t)))
    return lead + vel


def dalembert_grid(w0, w1, h, m):
    """Discrete exact solution after m unit-CFL steps, as an array over j.

    For the three-point scheme with the half-sum-plus-midpoint first level,

        W[m][j] = (W0e[j+m] + W0e[j-m]) / 2 + h * sum W1e[k],

    the sum running over k = j-m+1, j-m+3, ..., j+m-1 of the odd
    extensions.  This is exact in exact arithmetic for any grid data, so
    discrepancies against the marching solver are pure rounding.  Only
    valid where the stencil has not touched the outer boundary, i.e. for
    j + m <= n - 1; the returned array is restricted accordingly.
    """
    w0 = np.asarray(w0, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    n = w0.size
    ext = np.concatenate([-w0[:0:-1], w0])  # index k -> position k + n - 1
    ext1 = np.concatenate([-w1[:0:-1], w1])
    j_hi = n - m
    j = np.arange(j_hi)
    lead = 0.5 * (ext[j + m + n - 1] + ext[j - m + n - 1])
    vel = np.zeros(j_hi)
    for k in range(-m + 1, m, 2):
        vel += ext1[j + k + n - 1]
    return lead + h * vel


# ---------------------------------------------------------------------------
# quadrature references
# ---------------------------------------------------------------------------

def energy_u_quad(u0f, u0rf, u1f, p, r_max):
    """Full 3D energy 4 pi int (u_r^2/2 + u_t^2/2 + |u|^{p+1}/(p+1)) r^2 dr.

    Written on the u side on purpose: it exercises the integration by
    parts hidden in the half-line normalization instead of assuming it.
    """
    def dens(r):
        return (
            4.0 * math.pi * r * r * (
                0.5 * u0rf(r) ** 2
                + 0.5 * u1f(r) ** 2
                + abs(u0f(r)) ** (p + 1.0) / (p + 1.0)
            )
        )

    val, err = quad(dens, 0.0, r_max, limit=400)
    return val


def channel_quad(w0f, w0rf, w1f, p, r_max, sign):
    """pi int (w_r + sign*w_t)^2 + (2/(p+1)) |w|^{p+1}/r^{p-1} dr."""
    def dens(r):
        pot = 0.0
        if r > 0.0:
            pot = (2.0 / (p + 1.0)) * abs(w0f(r)) ** (p + 1.0) / r ** (p - 1.0)
        return (w0rf(r) + sign * w1f(r)) ** 2 + pot

    val, err = quad(dens, 0.0, r_max, limit=400)
    return math.pi * val


def k1_quad(w0f, w0rf, w1f, p, kappa, r_max):
    def dens(r):
        pot = 0.0
        if r > 0.0:
            pot = (2.0 / (p + 1.0)) * abs(w0f(r)) ** (p + 1.0) / r ** (p - 1.0)
        return max(1.0, r ** kappa) * ((w0rf(r) + w1f(r)) ** 2 + pot)

    val, err = quad(dens, 0.0, r_max, limit=400, points=[1.0])
    return math.pi * val


def gaussian_u_callables(amplitude, center, width):
    """(u0, u0_r, w0, w0_r) callables for the at-rest Gaussian data."""
    def u0(r):
        x = (r - center) / width
        return amplitude * np.exp(-x * x)

    def u0r(r):
        x = (r - center) / width
        return -2.0 * x / width * amplitude * np.exp(-x * x)

    def w0(r):
        return r * u0(r)

    def w0r(r):
        return u0(r) + r * u0r(r)

    return u0, u0r, w0, w0r


# ---------------------------------------------------------------------------
# backward light triangles
# ---------------------------------------------------------------------------

def duhamel_loop(w0, w1, p, h, m):
    """Fixed point of the trapezoid Duhamel form at level m, by Jacobi
    (Picard) sweeps that sum every (target, source) level pair's light
    triangle directly.

    The field lives on y = 0 .. n + m for data w0, w1 on n + 1 nodes:
    data odd through 0 and zero past node n, source |w|^{p-1} w / r^{p-1}
    the same.  Each sweep rebuilds every level from the previous iterate.
    Level j reads the sources of levels below j only, so sweep k fixes
    level k to its last bit and sweep m + 1 changes nothing: the loop
    stops at an update of exactly 0 and raises AssertionError if m + 2
    sweeps do not reach it.  The trapezoid sum of a source level over
    [y - d, y + d] comes from prefix sums minus half the two end values,
    and the time trapezoid halves source level 0.
    """
    n = len(w0) - 1
    off, ny = m, n + m
    w0e = np.zeros(ny + 2 * m + 1)
    w1e = np.zeros_like(w0e)
    w0e[off : off + n + 1] = w0
    w1e[off : off + n + 1] = w1
    k = min(n, m)  # odd through 0; nodes past n, and their images, are 0
    w0e[off - k : off] = -np.asarray(w0)[k:0:-1]
    w1e[off - k : off] = -np.asarray(w1)[k:0:-1]
    p1 = np.concatenate(([0.0], np.cumsum(w1e)))
    y = np.arange(ny + 1)
    lin = np.empty((m + 1, ny + 1))
    for j in range(m + 1):
        lo, hi = y - j + off, y + j + off
        lin[j] = 0.5 * (w0e[lo] + w0e[hi])
        if j > 0:
            lin[j] += 0.5 * h * (p1[hi + 1] - p1[lo] - 0.5 * (w1e[lo] + w1e[hi]))
    r_pow = np.zeros(ny + 1)
    r_pow[1:] = (h * y[1:]) ** (1.0 - p)
    u = lin
    for _ in range(m + 2):
        ge = np.zeros((m + 1, ny + 2 * m + 1))
        pg = np.zeros((m + 1, ny + 2 * m + 2))
        for j in range(m + 1):
            g = np.abs(u[j]) ** (p - 1.0) * u[j] * r_pow
            ge[j, off : off + ny + 1] = g
            ge[j, :off] = -g[m:0:-1]
            np.cumsum(ge[j], out=pg[j, 1:])
        new = lin.copy()
        for jt in range(1, m + 1):
            acc = np.zeros(ny + 1)
            for j in range(jt):
                lo, hi = y - (jt - j) + off, y + (jt - j) + off
                inner = h * (pg[j, hi + 1] - pg[j, lo] - 0.5 * (ge[j, lo] + ge[j, hi]))
                acc += inner if j > 0 else 0.5 * inner
            new[jt] -= 0.5 * h * acc
        diff = np.abs(new - u).max()
        u = new
        if diff == 0.0:
            return u[m, : n + 1]
    raise AssertionError("reference Picard iteration did not reach its fixed point")


def cp_closed(p):
    """2 / (beta (1 - beta)) with beta = (p-3)/(p-1); diverges at p = 3."""
    beta = (p - 3.0) / (p - 1.0)
    if beta <= 0.0:
        return math.inf
    return 2.0 / (beta * (1.0 - beta))


def triangle_power_closed(beta, r_apex, t_apex):
    """Closed form of the double integral of r^{beta-2} over the backward
    triangle with the given apex:

        (2 r'^beta - (r'+t')^beta - (r'-t')^beta) / (beta (1 - beta)).
    """
    return (
        2.0 * r_apex ** beta
        - (r_apex + t_apex) ** beta
        - (r_apex - t_apex) ** beta
    ) / (beta * (1.0 - beta))


def triangle_sum(slab, h, p, r_apex, t_apex):
    """Discrete iint |w|^p / r^{p-1} dr dt over the backward triangle with
    apex (r_apex, t_apex) from the levels slab[m, j] = w(j h, m h): the
    trapezoid rule in r on each level, then in t across levels (the apex
    level has zero width).  The apex must lie on a node and the triangle
    at r > 0."""
    i_apex, m_apex = round(r_apex / h), round(t_apex / h)
    total = 0.0
    for m in range(m_apex + 1):
        j = np.arange(i_apex - (m_apex - m), i_apex + (m_apex - m) + 1)
        g = np.abs(slab[m, j]) ** p / (h * j) ** (p - 1.0)
        weight = 0.5 if m in (0, m_apex) else 1.0
        total += weight * h * h * (g.sum() - 0.5 * (g[0] + g[-1]))
    return total


def triangle_source_quad(c, p, t_apex):
    """iint |w|^p / r^{p-1} dr dt over the backward triangle with apex
    (1 + t', t') of the power-law data's exterior w = r^beta Phi(t/r), by
    scipy quad over s = t/r of |Phi|^p times the closed radial integral of
    r^{beta-1} from 1/(1-s) to (1+2t')/(1+s), Phi from far_profile."""
    beta, s_end = (p - 3.0) / (p - 1.0), t_apex / (1.0 + t_apex)
    sol = far_profile(c, p, s_end)

    def dens(s):
        lo, hi = 1.0 / (1.0 - s), (1.0 + 2.0 * t_apex) / (1.0 + s)
        radial = math.log(hi / lo) if beta == 0.0 else (hi**beta - lo**beta) / beta
        return abs(sol(s)[0]) ** p * radial

    val, err = quad(dens, 0.0, s_end, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def infinite_triangle_law(t, xi, bulk, e_minus, p, t0):
    """The inward triangle law at r0 = inf, where the flux term vanishes,

        E_-(t0) = pi int_{t0}^inf xi^2 dt
                  + (2pi(p-1)/(p+1)) int_{t0}^inf int |w|^{p+1}/r^p dr dt,

    from a run's per-level series on the times t, truncated at the last
    one.  Returns (energy, xi_term, bulk_term, decade_share); the last is
    the larger share of the two truncated integrals that the last decade
    [t_max/10, t_max] carries, which must be small for the truncation not
    to matter."""
    t = np.asarray(t, dtype=float)

    def integral(y, start):
        keep = t >= start
        return np.trapezoid(np.asarray(y, dtype=float)[keep], t[keep])

    xi_sq = np.asarray(xi, dtype=float) ** 2
    t_dec = t[-1] / 10.0
    decade_share = max(integral(xi_sq, t_dec) / integral(xi_sq, t0),
                       integral(bulk, t_dec) / integral(bulk, t0))
    energy = float(np.asarray(e_minus)[np.argmin(np.abs(t - t0))])
    return (energy, math.pi * integral(xi_sq, t0),
            2.0 * math.pi * (p - 1.0) / (p + 1.0) * integral(bulk, t0), decade_share)


# ---------------------------------------------------------------------------
# random smooth states
# ---------------------------------------------------------------------------

def random_smooth_state(rng, h, r_max, n_bumps=4, amp=0.5, moving=True):
    """Sum of random Gaussian bumps on the u side, lifted to w = r u.

    Centers stay a few widths inside (0, r_max) so the state is compactly
    supported to rounding; w(0) = 0 holds by construction.
    """
    n = int(round(r_max / h)) + 1
    r = h * np.arange(n)
    w0 = np.zeros(n)
    w1 = np.zeros(n)
    for _ in range(n_bumps):
        a = amp * (2.0 * rng.random() - 1.0)
        width = 0.3 + 0.7 * rng.random()
        center = 4.0 * width + rng.random() * (r_max - 8.0 * width)
        x = (r - center) / width
        bump = a * np.exp(-x * x)
        w0 += r * bump
        if moving:
            # a right/left mover contributes w_t ~ -/+ w_r of its own bump
            sgn = 1.0 if rng.random() < 0.5 else -1.0
            w1 += sgn * (bump + r * (-2.0 * x / width) * bump)
    w1[0] = 0.0
    return w0, w1


def naive_pointwise_ratios(w, h, p, stride=7):
    """Per-node recomputation of the two pointwise-bound ratios with plain
    Python loops; subsampled for speed.  Returns the max over the sample."""
    n = len(w)
    pot = [0.0] * n
    for i in range(1, n):
        pot[i] = abs(w[i]) ** (p + 1.0) / (i * h) ** (p - 1.0)
    best1 = 0.0
    best2 = 0.0
    for j in range(1, n, stride):
        r = j * h
        e1 = 0.0
        for i in range(j):
            s = (w[i + 1] - w[i]) / h
            e1 += h * s * s
        e2 = 0.0
        for i in range(1, j + 1):
            e2 += 0.5 * h * (pot[i - 1] + pot[i])
        if e1 > 0.0:
            best1 = max(best1, abs(w[j]) / math.sqrt(r * e1))
        prod = e1 * e2
        if prod > 0.0:
            expo = (p - 1.0) / (p + 3.0)
            best2 = max(
                best2,
                abs(w[j]) / (2.0 * r ** expo * prod ** (1.0 / (p + 3.0))),
            )
    return best1, best2


# ---------------------------------------------------------------------------
# self-similar exterior of the power-law data
# ---------------------------------------------------------------------------

def far_profile(c, p, s_max):
    """Phi on [0, s_max] by scipy's DOP853, as a dense solution s -> (Phi,
    Phi'): the power-law data c r^beta at rest evolve as r^beta Phi(t/r) on
    r > 1 + t, with (1 - s^2) Phi'' + 2(beta-1) s Phi' - beta(beta-1) Phi
    + |Phi|^{p-1} Phi = 0, Phi(0) = c, Phi'(0) = 0."""
    beta = (p - 3.0) / (p - 1.0)

    def rhs(s, y):
        acc = beta * (beta - 1.0) * y[0] - abs(y[0]) ** (p - 1.0) * y[0]
        return [y[1], (acc - 2.0 * (beta - 1.0) * s * y[1]) / (1.0 - s * s)]

    return solve_ivp(rhs, (0.0, s_max), [c, 0.0], method="DOP853", rtol=1e-13,
                     atol=1e-13, dense_output=True).sol


def sup_abs(f, a, b, samples=20001):
    """(max |f| on [a, b], where): the largest of dense samples, refined by
    a bounded Brent search between its neighbours."""
    s = np.linspace(a, b, samples)
    v = np.abs(f(s))
    k = int(np.argmax(v))
    lo, hi = s[max(k - 1, 0)], s[min(k + 1, samples - 1)]
    res = minimize_scalar(lambda x: -abs(float(f(x))), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return max((float(v[k]), float(s[k])), (float(-res.fun), float(res.x)))


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------

def polyline_points(series, loglog, left=64, top=34, plot_w=560, plot_h=340):
    """The points attribute of each polyline that svgplot.line_plot draws
    for series (label, xs, ys), point by point: the finite points (and on
    log-log axes the positive ones) mapped onto its 560 x 340 plot box
    with math.log10 and formatted one f-string per coordinate."""
    kept = []
    for _, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)
               and not (loglog and (x <= 0.0 or y <= 0.0))]
        if pts:
            kept.append(pts)
    scale = math.log10 if loglog else float
    x0, x1 = (scale(f(x for pts in kept for x, _ in pts)) for f in (min, max))
    y0, y1 = (scale(f(y for pts in kept for _, y in pts)) for f in (min, max))
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    out = []
    for pts in kept:
        coords = []
        for x, y in pts:
            px = left + plot_w * (scale(x) - x0) / (x1 - x0)
            py = top + plot_h * (1.0 - (scale(y) - y0) / (y1 - y0))
            coords.append(f"{px:.2f},{py:.2f}")
        out.append(" ".join(coords))
    return out
