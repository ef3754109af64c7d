"""Shared quadrature, differencing and fitting kernels.

Every discrete integral and derivative in the package goes through this
module, every first derivative through differences, so that the
discretization order is uniform (second order) and a change here
propagates everywhere.  All routines assume a uniform grid spacing h.  The
least-squares fits that turn a series into a rate (power law, logarithmic
growth) live here too, for diagnostics, scattering, cli.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import OffGridError

_TINY = np.finfo(float).tiny
_LOG_HUGE = math.log(np.finfo(float).max)  # math.exp overflows past it
_DOT_CHUNK = 10_000
MIN_FIT_POINTS = 3  # the fewest samples fit_power_law and fit_log_growth take


def trapz(y, h):
    """Composite trapezoid integral of samples y on a uniform grid."""
    y = np.asarray(y)
    if y.shape[-1] < 2:
        return 0.0
    return h * (y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))


def trapz_dot(a, b, h):
    """Composite trapezoid integral of the product a*b of two 1-D samples on
    a uniform grid: a dot product with the two end terms corrected.

    Equal to trapz(a * b, h) up to the rounding of the summation order,
    without forming the product.  The dot runs in chunks of _DOT_CHUNK
    entries, which OpenBLAS keeps on one thread: past that size it splits
    a dot across threads, and on arrays this core has just written the
    other thread's fetch costs several times the dot itself.  An array of
    one chunk takes one np.dot call (the same bits: 0.0 + x is x).
    """
    size = len(a)
    if size < 2:
        return 0.0
    if size <= _DOT_CHUNK:
        total = float(np.dot(a, b))
    else:
        total = 0.0
        for i in range(0, size, _DOT_CHUNK):
            total += float(np.dot(a[i : i + _DOT_CHUNK], b[i : i + _DOT_CHUNK]))
    return h * (total - 0.5 * (float(a[0] * b[0]) + float(a[-1] * b[-1])))


def cumtrapz(y, h):
    """Cumulative trapezoid integral, same length as y, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def differences(f, out=None):
    """2h f' to second order of 1-D samples f, into out if given: f[i+1] -
    f[i-1] in the interior, the one-sided three-point stencils at the ends."""
    f = np.asarray(f, dtype=float)
    if f.size < 3:
        raise ValueError("need at least 3 samples for a second-order derivative")
    out = np.empty_like(f) if out is None else out
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
    out[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    return out


def derivative(f, h):
    """Second-order first derivative of 1-D samples on a uniform grid."""
    return differences(f) / (2.0 * h)


def abs_power(x, q, out=None):
    """|x|**q for q > 0, by the table of the exponents its callers pass.

    The callers pass p - 1, p and 1 with 3 <= p < 5, matched here by
    equality: q = 1, 2, 3 and 4 take |x| and products of x, several times
    faster than np.power and bit-exact reproducible across platforms; any
    other q goes to _positive_power, which takes 2.5, 3.5 and 4.5 by one
    square root and the rest, 5 to 8 and a float a rounding away from an
    integer included, by np.power.

    Off the integer products the results below the smallest normal float
    are exactly 0 and all others normal: the entries at or below the
    underflow floor of the path are zeroed before it runs, so no subnormal
    reaches a multiply and no power takes libm's path near underflow, some
    50 times slower than a normal power.

    out, a float array of x's shape, receives the result and is returned;
    its values are bitwise those of the allocating form.  The
    half-integers take one temporary (the root), the others none.
    """
    x = np.asarray(x)
    res = np.empty(x.shape) if out is None else out
    if q == 1.0:
        np.abs(x, out=res)
    elif q in (2.0, 3.0, 4.0):
        np.multiply(x, x, out=res)
        if q == 3.0:
            # |x| x^2 == |x x^2| bitwise: rounding is symmetric in sign
            res *= x
            np.abs(res, out=res)
        elif q == 4.0:
            res *= res
    else:
        a = np.abs(x, out=res)
        # a <= floor is False for NaN, so NaN stays NaN
        np.copyto(a, 0.0, where=a <= _underflow_floor(q))
        _positive_power(a, q)
    return res if out is not None else res[()]


def _positive_power(a, q):
    """a**q in place, for a float array a >= 0 and q > 0 off abs_power's
    integer products: a^k sqrt(a) for q = k + 1/2 = 2.5, 3.5 and 4.5
    exactly, within k ulp of np.power; np.power, bitwise, otherwise."""
    k = q - 0.5
    if k in (2.0, 3.0, 4.0):
        root = np.sqrt(a)
        if k == 3.0:
            root *= a  # a^(3/2): the odd factor rides with the root
        for _ in range(int(k) // 2):  # a^2 or a^4 by squaring
            a *= a
        a *= root
    else:
        np.power(a, q, out=a)
    return a


@functools.lru_cache(maxsize=64)
def _underflow_floor(q):
    """Largest float a >= 0 whose a**q, as _positive_power evaluates it, is
    below the smallest normal float, for q > 0 (the path is monotone in a)."""
    power = lambda a: _positive_power(np.array([a]), q)[0]
    a = np.float64(_TINY ** (1.0 / q))
    while a > 0 and power(a) >= _TINY:
        a = np.nextafter(a, 0.0)
    while power(np.nextafter(a, np.inf)) < _TINY:
        a = np.nextafter(a, np.inf)
    return a


def odd_power(x, q):
    """|x|^{q-1} * x, the odd extension of the power law; its callers pass
    q = p, so abs_power takes p - 1."""
    x = np.asarray(x)
    return abs_power(x, q - 1.0) * x


def dyadic_times(t_lo, t_hi):
    """Times t_lo * 2^j that fit inside [t_lo, t_hi], ascending."""
    if t_lo <= 0 or t_hi < t_lo:
        raise ValueError(f"bad dyadic window [{t_lo}, {t_hi}]")
    out = []
    t = float(t_lo)
    while t <= t_hi * (1.0 + 1e-12):
        out.append(t)
        t *= 2.0
    return out


def is_number(x):
    """True for a real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def grid_index(value, h, name="value"):
    """Node index of a grid-aligned coordinate, or raise OffGridError
    (also when the coordinate or the spacing is not finite)."""
    ratio = value / h
    if not (math.isfinite(ratio) and math.isfinite(h)):
        raise OffGridError(f"{name}={value} is not a finite multiple of h={h}")
    idx = int(round(ratio))
    if abs(idx * h - value) > 1e-9 * max(1.0, abs(value)):
        raise OffGridError(
            f"{name}={value} is not a multiple of the grid spacing h={h}"
        )
    return idx


def node_at_or_past(x, h, name="value"):
    """The first grid coordinate h * ceil(x / h) at or past x; raises
    OffGridError unless x is finite and h finite and positive."""
    if not (0.0 < h < math.inf and math.isfinite(x / h)):
        raise OffGridError(f"no node of spacing h={h} lies at or past {name}={x}")
    return h * math.ceil(x / h)


def _line(x, y):
    """Least-squares line y ~ slope * x + intercept of an ndarray x, by
    np.polyfit, as (slope, intercept, r_squared), all NaN where it cannot
    be made: fewer than MIN_FIT_POINTS points, or x or y without spread at
    working precision (y constant to rounding says nothing of a law).  y is
    fit divided by a power of 2 near its largest |y|: exact, so it moves no
    bit of a fit whose squares were finite, and keeps larger ones finite."""
    y = np.asarray(y, dtype=float)
    if x.size < MIN_FIT_POINTS or not 0.0 < np.ptp(x) < math.inf:
        return math.nan, math.nan, math.nan
    scale = math.ldexp(1.0, math.frexp(float(np.abs(y).max()))[1] - 1)
    y = y / scale
    dev = y - y.mean()
    ss_tot = float(np.dot(dev, dev))
    if ss_tot > 1e-30 * float(np.dot(y, y)):  # false for nan and inf too
        (slope, intercept), _, rank, *_ = np.polyfit(x, y, 1, full=True)
        if rank == 2:
            resid = y - (slope * x + intercept)
            r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot
            return float(slope) * scale, float(intercept) * scale, r2
    return math.nan, math.nan, math.nan


@dataclass
class FitResult:
    exponent: float
    amplitude: float
    r_squared: float


def fit_power_law(t, y):
    """Least-squares fit y ~ amplitude * t^exponent on log-log values
    (_line).  A sample with t <= 0 or y <= 0 (a sign the quantity has
    decayed into rounding noise or the window is wrong) makes the fit NaN
    too.  An amplitude past the largest float is inf.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(t > 0.0) and np.all(y > 0.0)):
        return FitResult(math.nan, math.nan, math.nan)
    slope, intercept, r2 = _line(np.log(t), np.log(y))
    return FitResult(slope, math.inf if intercept > _LOG_HUGE else math.exp(intercept), r2)


@dataclass
class LogGrowthFit:
    offset: float
    slope: float
    r_squared: float


def fit_log_growth(t, v):
    """Fit v ~ offset + slope * log(1 + t), for logarithmically growing
    exterior masses (_line).  A t <= -1 makes the fit NaN too."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > -1.0):
        return LogGrowthFit(math.nan, math.nan, math.nan)
    slope, intercept, r2 = _line(np.log1p(t), v)
    return LogGrowthFit(offset=intercept, slope=slope, r_squared=r2)
