"""Shared quadrature, differencing and fitting kernels.

Every discrete integral and derivative in the package goes through this
module so that the discretization order is uniform (second order) and a
change here propagates everywhere.  All routines assume a uniform grid
spacing h.  The least-squares fits that turn a series into a rate (power
law, logarithmic growth) live here too, for diagnostics, scattering, cli.
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


def derivative(f, h):
    """Second-order first derivative on a uniform grid.

    Centered differences in the interior, one-sided three-point stencils
    at both ends (also second order).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1] < 3:
        raise ValueError("need at least 3 samples for a second-order derivative")
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return out


def abs_power(x, q, out=None):
    """|x|**q with cheap exact paths for small integer exponents.

    The evolution loop evaluates |w|^{p-1} every step; for the integer
    exponents that dominate actual use (p = 3, 4) repeated multiplication
    is several times faster than np.power and bit-exact reproducible
    across platforms.

    Other exponents must be positive.  Their results below the smallest
    normal float are exactly 0 and all others equal np.abs(x)**q bitwise:
    np.power skips exact zeros and entries whose power would underflow,
    which libm otherwise evaluates on a path some 50 times slower than a
    normal power.

    out, a float array of x's shape, receives the result and is returned;
    its values are bitwise those of the allocating form.  Exponents 5 to 7
    still take one temporary (x^2), the others none.
    """
    x = np.asarray(x)
    res = np.empty(x.shape) if out is None else out
    qi = int(round(q))
    if abs(q - qi) < 1e-12 and 1 <= qi <= 8:
        if qi == 1:
            np.abs(x, out=res)
        elif qi in (2, 4, 8):
            np.multiply(x, x, out=res)
            for _ in range(qi // 4):
                res *= res
        elif qi == 3:
            # |x| x^2 == |x x^2| bitwise: rounding is symmetric in sign
            np.multiply(x, x, out=res)
            res *= x
            np.abs(res, out=res)
        else:
            x2 = x * x
            if qi == 6:
                np.multiply(x2, x2, out=res)
            else:
                np.multiply(x, x2, out=res)
                np.abs(res, out=res)
            for _ in range((qi - 3) // 2):
                res *= x2
    else:
        a = np.abs(x, out=res)
        # a <= floor is False for NaN, so NaN stays NaN
        under = a <= _underflow_floor(q)
        np.power(a, q, out=a, where=~under)
        a[under] = 0.0
    return res if out is not None else res[()]


@functools.lru_cache(maxsize=64)
def _underflow_floor(q):
    """Largest float a >= 0 whose a**q (as np.power rounds it) is below the
    smallest normal float, for q > 0."""
    a = np.float64(_TINY ** (1.0 / q))
    while a > 0 and np.power(a, q) >= _TINY:
        a = np.nextafter(a, 0.0)
    while np.power(np.nextafter(a, np.inf), q) < _TINY:
        a = np.nextafter(a, np.inf)
    return a


def odd_power(x, q):
    """|x|^{q-1} * x, the odd extension of the power law (q >= 1)."""
    x = np.asarray(x)
    if abs(q - 1.0) < 1e-12:
        return x
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


def _r_squared(resid, y):
    """Coefficient of determination of a least-squares fit with a constant
    term; 1 for y constant to rounding (a spread below 1e-15 of its scale)."""
    ss_tot, scale = (float(np.dot(v, v)) for v in (y - y.mean(), y))
    return 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 1e-30 * scale else 1.0


@dataclass
class FitResult:
    exponent: float
    amplitude: float
    r_squared: float


def fit_power_law(t, y):
    """Least-squares fit y ~ amplitude * t^exponent on log-log values.

    A fit that cannot be made, from fewer than MIN_FIT_POINTS points, a
    sample with t <= 0 or y <= 0 (a sign the quantity has decayed into
    rounding noise or the window is wrong) or log t without spread at
    working precision (t all equal), has NaN exponent, amplitude and
    r_squared.  An amplitude past the largest float is inf.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    unfit = FitResult(math.nan, math.nan, math.nan)
    if t.size < MIN_FIT_POINTS or not (np.all(t > 0.0) and np.all(y > 0.0) and np.ptp(t) > 0.0):
        return unfit
    lt, ly = np.log(t), np.log(y)
    (slope, intercept), _, rank, *_ = np.polyfit(lt, ly, 1, full=True)
    if rank < 2:
        return unfit
    return FitResult(
        exponent=float(slope),
        amplitude=math.exp(intercept) if intercept <= _LOG_HUGE else math.inf,
        r_squared=_r_squared(ly - (slope * lt + intercept), ly),
    )


@dataclass
class LogGrowthFit:
    offset: float
    slope: float
    r_squared: float


def fit_log_growth(t, v):
    """Fit v ~ offset + slope * log(1 + t), for logarithmically growing
    exterior masses.  A fit that cannot be made, from fewer than
    MIN_FIT_POINTS points, a t <= -1 or log(1 + t) without spread at
    working precision, has NaN offset, slope and r_squared.  v is fit
    divided by a power of 2 near its largest |v|: exact, so it moves no bit
    of a fit whose squares were finite, and keeps larger ones finite."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    unfit = LogGrowthFit(math.nan, math.nan, math.nan)
    if t.size < MIN_FIT_POINTS or not np.all(t > -1.0):
        return unfit
    x = np.log1p(t)
    design = np.column_stack([np.ones_like(x), x])
    scale = math.ldexp(1.0, math.frexp(float(np.abs(v).max()))[1] - 1)
    v = v / scale
    coef, _, rank, _ = np.linalg.lstsq(design, v, rcond=None)
    if rank < 2:
        return unfit
    r2 = _r_squared(v - design @ coef, v)
    return LogGrowthFit(offset=float(coef[0]) * scale, slope=float(coef[1]) * scale, r_squared=r2)
