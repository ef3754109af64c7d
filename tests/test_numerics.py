import numpy as np
import pytest
from scipy.integrate import quad

from nlw.errors import OffGridError
from nlw.numerics import (
    abs_power,
    cumtrapz,
    derivative,
    dyadic_times,
    fit_log_growth,
    fit_power_law,
    grid_index,
    odd_power,
    trapz,
    trapz_dot,
)


def test_trapz_exact_for_linear():
    h = 0.1
    y = 3.0 * h * np.arange(11) - 1.0
    assert abs(trapz(y, h) - (0.5 * 3.0 - 1.0)) < 1e-14


def test_trapz_matches_quad_for_smooth():
    h = 1.0 / 512.0
    x = h * np.arange(513)
    y = np.sin(3.0 * x) * np.exp(-x)
    ref, _ = quad(lambda s: np.sin(3.0 * s) * np.exp(-s), 0.0, x[-1])
    # composite trapezoid error ~ h^2/12 * |f'(b) - f'(a)| ~ 1.1e-6 here
    assert abs(trapz(y, h) - ref) < 5e-6


def test_trapz_degenerate_lengths():
    assert trapz(np.array([5.0]), 0.1) == 0.0
    assert trapz(np.array([]), 0.1) == 0.0


def test_cumtrapz_consistency():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(400)
    h = 0.03
    cum = cumtrapz(y, h)
    assert cum[0] == 0.0
    assert abs(cum[-1] - trapz(y, h)) < 1e-12
    k = 173
    assert abs(cum[k] - trapz(y[: k + 1], h)) < 1e-12


def test_derivative_is_second_order():
    errs = []
    for n in (64, 128, 256):
        h = 1.0 / n
        x = h * np.arange(n + 1)
        d = derivative(np.sin(2.0 * x), h)
        errs.append(np.max(np.abs(d - 2.0 * np.cos(2.0 * x))))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.9, f"interior+edge stencils should be O(h^2), got {order1}"
    assert order2 > 1.9


def test_derivative_exact_for_quadratic():
    # the three-point stencils reproduce polynomials up to degree 2 exactly
    h = 0.25
    x = h * np.arange(9)
    d = derivative(1.5 * x * x - 2.0 * x + 3.0, h)
    assert np.max(np.abs(d - (3.0 * x - 2.0))) < 1e-12


def test_derivative_needs_three_points():
    with pytest.raises(ValueError):
        derivative(np.array([1.0, 2.0]), 0.1)


def test_abs_power_matches_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64) * 2.0
    for q in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 2.5, 4.0 + 1e-6):
        ref = np.abs(x) ** q
        assert np.allclose(abs_power(x, q), ref, rtol=1e-12, atol=0.0)


def test_odd_power_sign_and_magnitude():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) * 2.0
    for q in (2.0, 3.0, 4.0, 5.0, 3.5):  # the callers pass p; none passes 1
        ref = np.abs(x) ** (q - 1.0) * x
        got = odd_power(x, q)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-300)
        assert np.all(np.sign(got) == np.sign(ref))


def test_dyadic_times():
    assert dyadic_times(4.0, 64.0) == [4.0, 8.0, 16.0, 32.0, 64.0]
    assert dyadic_times(3.0, 5.0) == [3.0]
    # the upper endpoint is included despite rounding noise
    assert dyadic_times(0.1, 0.4)[-1] == pytest.approx(0.4)
    with pytest.raises(ValueError):
        dyadic_times(0.0, 1.0)
    with pytest.raises(ValueError):
        dyadic_times(2.0, 1.0)


def test_r_squared_does_not_depend_on_the_scale_of_y():
    """A fit's r^2 is the same for y and a * y, a from 1e-20 to 1e20: the
    cut below which y counts as constant is relative to y's own scale (an
    absolute cut read 1.0 for exterior masses near 1e-17).  Constant y
    says nothing of a law: its fit is NaN at every scale (it read as the
    perfect fit r^2 = 1 on an exterior mass that underflowed to 0)."""
    t = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    y = 2.7 + 10.1 * np.log1p(t) + np.array([0.3, -0.2, 0.25, -0.4, 0.1])
    growth, power = fit_log_growth(t, y).r_squared, fit_power_law(t, y).r_squared
    assert 0.99 < growth < 0.9999 and 0.9 < power < 0.9999
    for a in 10.0 ** np.arange(-20, 21, 4):
        assert fit_log_growth(t, a * y).r_squared == pytest.approx(growth, rel=1e-12)
        assert fit_power_law(t, a * y).r_squared == pytest.approx(power, rel=1e-12)
        assert np.isnan(fit_log_growth(t, np.full(t.size, 0.1 * a)).r_squared)
        assert np.isnan(fit_power_law(t, np.full(t.size, 0.1 * a)).r_squared)


def test_grid_index():
    assert grid_index(0.75, 1.0 / 4.0) == 3
    assert grid_index(128.0, 1.0 / 128.0) == 128 * 128
    with pytest.raises(OffGridError):
        grid_index(0.3, 1.0 / 4.0)


# 1.5 and 5.5 (no caller's exponent), 2.25, and the floats next to 2.5,
# 1, 3 and 4, 3 + 5e-13 among them, take np.power, bitwise: the table
# is matched by equality, not to a tolerance
_OFF_PATH = [1.5, 5.5, 2.25, float(np.nextafter(2.5, 3.0)), 3.0 + 5e-13,
             float(np.nextafter(3.0, 4.0)), float(np.nextafter(4.0, 3.0)),
             float(np.nextafter(1.0, 2.0))]


def _ulp_bound(q):
    """abs_power's stated bound on its distance from np.abs(x)**q, in ulp:
    k for the half-integers k + 1/2 = 2.5, 3.5, 4.5, 0 (bitwise) for the
    exponents that take np.power."""
    return int(q - 0.5) if q in (2.5, 3.5, 4.5) else 0


@pytest.mark.parametrize("q", [2.5, 3.5, 4.5, *_OFF_PATH])
def test_power_underflow_guard(q):
    """Non-integer powers stay within the stated ulp bound of np.abs(x)**q
    (bitwise where they take np.power) down to the smallest normal float,
    and are exactly zero where that power falls below it; odd_power keeps
    the sign and is the power times x."""
    mags = np.concatenate([[0.0, 5e-324, 1e-320], np.logspace(-320, 3, 4001),
                           np.random.default_rng(7).uniform(0.5, 8.0, 20_000)])
    x = np.concatenate([mags, -mags])
    with np.errstate(under="ignore"):
        ref = np.abs(x) ** q
    normal = ref >= np.finfo(float).tiny
    assert normal.any() and not normal.all()
    got = abs_power(x, q)
    ulp = np.abs(got[normal] - ref[normal]) / np.spacing(ref[normal])
    assert ulp.max() <= _ulp_bound(q)
    assert np.all(got[~normal] == 0.0)
    odd = odd_power(x, q + 1.0)  # q + 1.0 - 1.0 is q but next to an integer
    assert np.array_equal(odd, abs_power(x, q + 1.0 - 1.0) * x)
    assert np.array_equal(np.signbit(odd), np.signbit(x))


def _ladder(x, q):
    """abs_power's values spelled out: |x| and products of x^2 for the
    integer exponents 1 .. 4, |x|^k sqrt|x| for the half-integers k + 1/2
    = 2.5, 3.5, 4.5 (the odd factor of |x| taken with the root, the even
    power by squaring), and np.power for the others, 5 .. 8 included,
    those two zeroed below the smallest normal float."""
    a = np.abs(x)
    x2 = x * x
    root = np.sqrt(a)
    ladder = {
        1: lambda: a,
        2: lambda: x2,
        3: lambda: a * x2,
        4: lambda: x2 * x2,
        2.5: lambda: (a * a) * root,
        3.5: lambda: (a * a) * (root * a),
        4.5: lambda: ((a * a) * (a * a)) * root,
    }
    if q in (1, 2, 3, 4):
        return ladder[q]()
    ref = ladder[q]() if q in ladder else a**q
    ref[ref < np.finfo(float).tiny] = 0.0
    return ref


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 2.5, 3.5, 4.5,
                               *_OFF_PATH])
def test_abs_power_out_is_bitwise_the_allocating_form(q):
    """With out=, abs_power writes into out and returns it, with the bits
    of the allocating form: zeros of either sign, NaN, infinities and the
    values around the underflow floor included."""
    floor = np.finfo(float).tiny ** (1.0 / q)
    near_floor = floor * (1.0 + np.finfo(float).eps * np.arange(-8, 9))
    mags = np.concatenate([np.logspace(-320, 300, 2001), near_floor])
    x = np.concatenate([mags, -mags, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ref = _ladder(x, q)
        got = abs_power(x, q)
        out = np.full(x.shape, 7.0)
        into = abs_power(x, q, out=out)
        scalar = abs_power(np.float64(-1.5), q)
    assert into is out
    assert got.tobytes() == ref.tobytes()
    assert out.tobytes() == ref.tobytes()
    assert np.ndim(scalar) == 0 and scalar == _ladder(np.array([-1.5]), q)[0]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 257, 10_000, 10_001, 25_003])
def test_trapz_dot_is_the_trapezoid_of_the_product(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal(size)
    b = rng.standard_normal(size) + 2.0
    got = trapz_dot(a, b, 0.01)
    if size < 2:
        assert got == 0.0
    else:
        ref = trapz(a * b, 0.01)
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13 * trapz(np.abs(a * b), 0.01))
        # bitwise the sum 0.0 + dot(chunk) + ... of 10,000-entry chunks,
        # also where one np.dot call covers the array
        total = 0.0
        for i in range(0, size, 10_000):
            total += float(np.dot(a[i : i + 10_000], b[i : i + 10_000]))
        assert got == 0.01 * (total - 0.5 * (float(a[0] * b[0]) + float(a[-1] * b[-1])))

