import math

import numpy as np
import pytest

import oracles
import dataclasses

from nlw.errors import (
    BoundaryLeakError,
    DivergentIntegralError,
    InitialDataError,
    OutOfRangeError,
)
from nlw.model import (
    AppendixPowerLaw,
    FarField,
    GaussianBump,
    DirectedPulse,
    ModelParams,
    RadialPair,
    Tabulated,
    check_boundary_leak,
    k_functional,
    make_params,
    nonlinearity,
)
from nlw.solver import GridSpec


# --------------------------------------------------------------------------
# parameters
# --------------------------------------------------------------------------

def test_params_frozen_exponents():
    """kappa0 = (5-p)/(p+1) and beta = (p-3)/(p-1) at reference points."""
    assert make_params(3.0, 0.5).kappa0 == pytest.approx(0.5)
    assert make_params(4.0, 0.5).kappa0 == pytest.approx(0.2)
    assert make_params(4.5, 0.5).kappa0 == pytest.approx(1.0 / 11.0)
    assert make_params(3.0, 0.5).beta == pytest.approx(0.0)
    assert make_params(4.0, 0.5).beta == pytest.approx(1.0 / 3.0)
    assert make_params(4.5, 0.5).beta == pytest.approx(3.0 / 7.0)


def test_params_are_a_frozen_record():
    params = make_params(4, 0.25)
    assert params == ModelParams(p=4.0, kappa=0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.p = 3.0


def test_params_power_identity():
    # p*beta - p + 1 = beta - 2 links the source power law to the bulk
    # integrand power law; it should hold identically over the p range
    for p in np.linspace(3.0, 4.99, 23):
        beta = make_params(p, 0.5).beta
        assert p * beta - p + 1.0 == pytest.approx(beta - 2.0, abs=1e-12)


def test_params_validation():
    with pytest.raises(OutOfRangeError):
        make_params(2.5, 0.5)
    with pytest.raises(OutOfRangeError):
        make_params(5.0, 0.5)
    with pytest.raises(OutOfRangeError):
        make_params(4.0, 0.0)
    with pytest.raises(OutOfRangeError):
        make_params(4.0, 1.0)
    make_params(3.0, 0.999)  # boundary-adjacent values are fine


def test_nonlinearity_sign_and_origin():
    r = 0.25 * np.arange(9)
    w = np.linspace(-2.0, 2.0, 9)
    w[0] = 0.0
    f = nonlinearity(w, r, 4.0)
    assert np.all(np.isfinite(f))
    assert f[0] == 0.0
    # defocusing: the source term carries the sign of w itself
    assert np.all(np.sign(f[1:]) == np.sign(w[1:]))


def test_nonlinearity_matches_formula():
    r = np.array([0.0, 0.5, 1.0, 2.0])
    w = np.array([0.0, -0.3, 0.7, 1.1])
    p = 3.5
    f = nonlinearity(w, r, p)
    ref = np.abs(w[1:]) ** (p - 1.0) * w[1:] / r[1:] ** (p - 1.0)
    assert np.allclose(f[1:], ref, rtol=1e-13)


# --------------------------------------------------------------------------
# data families
# --------------------------------------------------------------------------

def test_gaussian_bump_shape():
    fam = GaussianBump(0.4, 2.0, 0.5)
    r = np.linspace(0.0, 8.0, 33)
    np.testing.assert_allclose(fam.w0(r), r * fam.u0(r), rtol=1e-15)
    assert np.all(fam.w1(r) == 0.0)
    assert fam.u0(np.array([2.0]))[0] == pytest.approx(0.4)
    beyond = fam.support_radius()
    assert fam.u0(np.array([beyond]))[0] <= 0.4 * 1e-13


def test_gaussian_bump_validation():
    with pytest.raises(OutOfRangeError):
        GaussianBump(1.0, 2.0, 0.0)


def test_directed_pulse_rides_characteristic():
    fam = DirectedPulse(1.0, 4.0, 0.5, direction="inward")
    r = np.linspace(0.0, 8.0, 1601)
    w0 = fam.w0(r)
    w1 = fam.w1(r)
    # an inward mover satisfies w_t = +w_r at t = 0
    w0r = np.gradient(w0, r)
    assert np.max(np.abs(w1 - w0r)) < 5e-3 * np.max(np.abs(w0r))
    out = DirectedPulse(1.0, 4.0, 0.5, direction="outward")
    assert np.max(np.abs(out.w1(r) + w0r)) < 5e-3 * np.max(np.abs(w0r))
    with pytest.raises(OutOfRangeError):
        DirectedPulse(1.0, 4.0, 0.5, direction="sideways")


def test_power_law_tail_is_exact():
    params = make_params(4.0, 0.25)
    fam = AppendixPowerLaw(0.7, params)
    r = np.array([1.0, 1.5, 4.0, 133.0])
    np.testing.assert_array_equal(fam.w0(r), 0.7 * r ** params.beta)
    assert np.all(fam.w1(r) == 0.0)
    # no boundary leak check: the attached far field carries the weight at r_max
    pair = fam.sample(GridSpec(h=1.0 / 16.0, r_max=4.0, t_max=1.0))
    assert pair.far_field.c == 0.7 and pair.far_field.p == 4.0


def test_power_law_blend_is_smooth():
    """The interior cap meets the tail with matching value and slope."""
    params = make_params(4.0, 0.25)
    fam = AppendixPowerLaw(0.7, params)
    h = 1e-5
    r = np.array([1.0 - 2 * h, 1.0 - h, 1.0, 1.0 + h, 1.0 + 2 * h])
    w = fam.w0(r)
    slope_in = (w[1] - w[0]) / h
    slope_out = (w[4] - w[3]) / h
    assert abs(w[2] - 0.7) < 1e-12
    assert abs(slope_in - slope_out) < 1e-3 * max(abs(slope_out), 1.0)
    # w stays below the tail envelope inside the ball (no overshoot)
    rr = np.linspace(1e-3, 1.0, 500)
    assert np.all(np.abs(fam.w0(rr)) <= 0.7 * rr ** params.beta + 1e-12)


def test_sample_pins_origin_and_leak_check():
    fam = GaussianBump(1.0, 6.0, 0.5)
    from nlw.solver import GridSpec

    grid = GridSpec(h=1.0 / 32.0, r_max=8.0, t_max=1.0, boundary="pad")
    pair = fam.sample(grid)
    assert pair.w0[0] == 0.0 and pair.w1[0] == 0.0
    # truncating right at the peak trips the leak check
    tight = GridSpec(h=1.0 / 32.0, r_max=6.0, t_max=1.0, boundary="pad")
    with pytest.raises(BoundaryLeakError):
        fam.sample(tight)


def test_radial_pair_requires_pinned_origin():
    with pytest.raises(ValueError):
        RadialPair(w0=np.array([0.5, 0.0, 0.0]), w1=np.zeros(3), h=0.5)
    with pytest.raises(ValueError):
        RadialPair(w0=np.zeros(3), w1=np.zeros(4), h=0.5)


def test_initial_data_errors_are_lab_errors():
    # InitialDataError is an NlwError (the CLI exits 2) and a ValueError
    with pytest.raises(InitialDataError, match="r = 0"):
        RadialPair(w0=np.array([0.5, 0.0, 0.0]), w1=np.zeros(3), h=0.5)
    for w0, w1 in [([0.0, np.nan, 0.0], np.zeros(3)), (np.zeros(3), [0.0, 0.0, -np.inf])]:
        with pytest.raises(InitialDataError, match="must be finite"):
            RadialPair(w0=np.array(w0), w1=np.array(w1), h=0.5)
    table = Tabulated(np.zeros(9), np.zeros(9), 1.0 / 16.0)
    with pytest.raises(InitialDataError, match="spacing"):
        table.sample(GridSpec(h=1.0 / 32.0, r_max=1.0, t_max=1.0))
    with pytest.raises(InitialDataError, match="beyond the grid"):
        table.sample(GridSpec(h=1.0 / 16.0, r_max=0.25, t_max=1.0))
    with pytest.raises(InitialDataError, match="same shape"):
        Tabulated(np.zeros(9), np.zeros(8), 1.0 / 16.0)


# --------------------------------------------------------------------------
# energies
# --------------------------------------------------------------------------

def test_energy_total_against_u_side_quadrature(ledger_level0):
    """The ledger's half-line energy must equal the 3D u-side integral; the
    oracle integrates the u form directly so the integration-by-parts
    identity inside the normalization is actually exercised."""
    amp, center, width = 0.4, 2.0, 0.5
    u0f, u0rf, w0f, w0rf = oracles.gaussian_u_callables(amp, center, width)
    p = 3.0
    h = 1.0 / 512.0
    n = int(8.0 / h) + 1
    r = h * np.arange(n)
    fam = GaussianBump(amp, center, width)
    e_grid = ledger_level0(fam.w0(r), np.zeros(n), h, p)[2]
    e_ref = oracles.energy_u_quad(u0f, u0rf, lambda r: 0.0, p, 8.0)
    assert abs(e_grid - e_ref) < 2e-5 * e_ref


def test_energy_channels_sum_and_split(ledger_level0):
    # at-rest data puts exactly half the energy in each channel
    h = 1.0 / 256.0
    fam = GaussianBump(0.5, 1.5, 0.3)
    n = int(6.0 / h) + 1
    r = h * np.arange(n)
    pair = RadialPair(w0=fam.w0(r), w1=np.zeros(n), h=h)
    params = make_params(3.5, 0.5)
    rep = k_functional(pair, params)
    e = ledger_level0(pair.w0, pair.w1, h, params.p)[2]
    # all mass sits inside r < 1 + support, but the weight is 1 only below
    # r = 1; compare instead against the quadrature oracle
    u0f, u0rf, w0f, w0rf = oracles.gaussian_u_callables(0.5, 1.5, 0.3)
    k1_ref = oracles.k1_quad(w0f, w0rf, lambda rr: 0.0, 3.5, 0.5, 6.0)
    # grid error is O(h^2): measured 1.7e-4 rel at h=1/256, quartering
    # under refinement
    assert abs(rep.k1 - k1_ref) < 4e-4 * k1_ref
    assert rep.k == pytest.approx(4.0 * rep.k1)
    # for at-rest data the unweighted inward channel is exactly E/2 and the
    # weighted one can only exceed it
    assert rep.k1 > 0.5 * e * 0.999


# --------------------------------------------------------------------------
# weighted channel mass
# --------------------------------------------------------------------------

def test_inward_density_integrates_to_inward_channel(ledger_level0):
    """K1 weighs the ledger's E_- density by max(1, r^kappa): for data
    supported in r < 1 the weight is 1 wherever the density is not 0, so
    K1 is the ledger's E_-(0)."""
    h, p = 1.0 / 128.0, 4.0
    fam = DirectedPulse(0.5, 0.5, 0.08, direction="inward")
    assert fam.support_radius() < 1.0
    pair = fam.sample(GridSpec.padded(h, 1.0, fam.support_radius()))
    e_minus = ledger_level0(pair.w0, pair.w1, h, p)[0]
    k1 = k_functional(pair, make_params(p, 0.9)).k1
    assert k1 == pytest.approx(e_minus, rel=1e-13)


def test_k_functional_divergence_guard():
    """p=4 power-law tail: the weighted integrand scales like
    r^{kappa - 4/3}, integrable only for kappa < 1/3."""
    h = 1.0 / 16.0
    for kappa, ok in ((0.25, True), (0.5, False), (0.9, False)):
        params = make_params(4.0, kappa)
        fam = AppendixPowerLaw(0.5, params)
        from nlw.solver import GridSpec

        grid = GridSpec(h=h, r_max=400.0, t_max=1.0, boundary="outgoing")
        pair = fam.sample(grid)
        if ok:
            rep = k_functional(pair, params)
            assert rep.k1 > 0.0
        else:
            with pytest.raises(DivergentIntegralError):
                k_functional(pair, params)


def test_k_functional_against_quadrature():
    import scipy.integrate

    kappa = 0.25
    params = make_params(4.0, kappa)
    c = 0.5
    fam = AppendixPowerLaw(c, params)
    h = 1.0 / 64.0
    from nlw.solver import GridSpec

    grid = GridSpec(h=h, r_max=200.0, t_max=1.0, boundary="outgoing")
    pair = fam.sample(grid)
    rep = k_functional(pair, params)

    beta = params.beta

    def dens(r):
        w = fam.w0(np.array([r]))[0]
        wr = (fam.w0(np.array([r + 1e-6]))[0] - fam.w0(np.array([r - 1e-6]))[0]) / 2e-6
        pot = (2.0 / 5.0) * abs(w) ** 5.0 / r ** 3.0
        return max(1.0, r ** kappa) * (wr ** 2 + pot)

    ref, _ = scipy.integrate.quad(dens, 1e-9, 200.0, limit=600, points=[1.0])
    # past r_max = 200 the data are c r^beta: the integrand is
    # c^2 (beta^2 + (2/5) c^3) r^(2 beta - 2 + kappa)
    expo = 2.0 * beta - 1.0 + kappa
    ref += c * c * (beta**2 + 0.4 * c**3) * 200.0**expo / -expo
    ref *= math.pi
    assert abs(rep.k1 - ref) < 2e-3 * ref


# the quick appendix fixture's amplitude: the flagship's until its default
# became c = 2, half the envelope threshold read off the far field (where
# the grid search it came from ended at a blow-up of the scheme, not at a
# failure of the envelope)
FLAGSHIP_C = 3.36376953125 / 2.0


def test_far_field_profile_against_solve_ivp_and_the_grid():
    """Phi from the RK4 table against scipy's DOP853 to 1e-10, and against
    the discrete field r^-beta w at s = t/r = 1/4 and 1/2 (h = 1/32)."""
    from scipy.integrate import solve_ivp

    p, c = 4.0, FLAGSHIP_C
    params = make_params(p, 0.25)
    beta = params.beta

    def rhs(s, y):
        acc = beta * (beta - 1.0) * y[0] - abs(y[0]) ** (p - 1.0) * y[0]
        return [y[1], (acc - 2.0 * (beta - 1.0) * s * y[1]) / (1.0 - s * s)]

    s = np.concatenate([[0.0], np.linspace(0.0123, 0.9, 60)])
    ref = solve_ivp(rhs, (0.0, 0.9), [c, 0.0], t_eval=s, method="DOP853",
                    rtol=1e-13, atol=1e-13)
    phi, dphi = FarField(c, p).profile(s)
    assert np.max(np.abs(phi - ref.y[0])) < 1e-10
    assert np.max(np.abs(dphi - ref.y[1])) < 1e-7

    h, t = 1.0 / 32.0, 8.0
    grid = GridSpec(h=h, r_max=48.0, t_max=t, boundary="outgoing")
    pair = AppendixPowerLaw(c, params).sample(grid)
    from nlw.solver import Monitors, evolve

    w = evolve(pair, params, grid, Monitors(snapshot_times=(t,))).snapshots[0].w_curr
    for s_val in (0.25, 0.5):
        r = t / s_val
        discrete = w[round(r / h)] / r**beta
        assert abs(discrete - pair.far_field.profile(s_val)[0]) < 1e-5


def test_far_field_tails_against_quadrature():
    """Each closed integral past (R, t) against scipy's quad of its
    density, with Phi from a DOP853 dense solution, up to t/R = 64/68 (the
    flagship's last level), where the table's error grows to 2.5e-7."""
    from scipy.integrate import quad, solve_ivp

    p, c = 4.0, FLAGSHIP_C
    beta = (p - 3.0) / (p - 1.0)

    def rhs(s, y):
        acc = beta * (beta - 1.0) * y[0] - abs(y[0]) ** (p - 1.0) * y[0]
        return [y[1], (acc - 2.0 * (beta - 1.0) * s * y[1]) / (1.0 - s * s)]

    sol = solve_ivp(rhs, (0.0, 0.95), [c, 0.0], method="DOP853", rtol=1e-13, atol=1e-13,
                    dense_output=True).sol

    def density(kind, r, t):
        phi, dphi = sol(t / r)
        if kind in ("e_minus", "e_plus"):
            sign = 1.0 if kind == "e_minus" else -1.0
            chan = r ** (beta - 1.0) * (beta * phi - (t / r) * dphi + sign * dphi)
            return math.pi * (chan**2 + 0.4 * abs(r**beta * phi) ** 5 / r**3)
        # |w|^5/r^4, 4 pi |w|^8/r^6 and 4 pi (|w|^3/r)^2 / r^2 for w = r^beta phi
        d, power, pref = {"bulk": (2 * beta - 3, 5.0, 1.0), "y2p": (2 * beta - 4, 8.0, 4 * math.pi),
                          "exterior": (-2.0, 6.0, 4 * math.pi)}[kind]
        return pref * r**d * abs(phi) ** power

    far = FarField(c, p)
    for r, t in ((20.0, 8.0), (12.0, 10.0), (68.0, 64.0), (68.0, 0.0)):
        for kind in ("e_minus", "e_plus", "bulk", "y2p", "exterior"):
            # r' = r / x on x in (0, 1]
            ref, _ = quad(lambda x: density(kind, r / x, t) * r / x**2, 0.0, 1.0,
                          epsabs=0.0, epsrel=1e-12, limit=200)
            assert far.tail(kind, r, t) == pytest.approx(ref, rel=1e-6), (kind, r, t)


def test_k_functional_far_field_closed_form():
    """K of power-law data = grid part on r <= 1 + the closed-form rest
    pi c^2 (beta^2 + 2 c^(p-1)/(p+1)) R^(2 beta - 1 + kappa) / (1 - 2 beta - kappa)
    from R = 1 on, where the data are exactly c r^beta; so it does not
    depend on r_max, bit for bit: K1 = 233.48 at the flagship's amplitude
    (h = 1/32), whatever the grid."""
    p, kappa, c, h = 4.0, 0.25, FLAGSHIP_C, 1.0 / 32.0
    params = make_params(p, kappa)
    beta = params.beta
    fam = AppendixPowerLaw(c, params)
    reps = {}
    for r_max in (132.0, 1028.0):
        pair = fam.sample(GridSpec(h=h, r_max=r_max, t_max=1.0))
        reps[r_max] = rep = k_functional(pair, params)
        expo = 2.0 * beta - 1.0 + kappa
        closed = math.pi * c * c * (beta**2 + 2.0 * c ** (p - 1.0) / (p + 1.0)) / -expo
        assert rep.tail == pytest.approx(closed, rel=1e-12)
        inner = pair.r <= 1.0
        # the inward density on r <= 1 (weight 1) with numpy's own stencil
        wr = np.gradient(pair.w0, h, edge_order=2)
        pot = 2.0 / (p + 1.0) * np.abs(pair.w0[1:]) ** (p + 1.0) / pair.r[1:] ** (p - 1.0)
        inward = (wr + pair.w1) ** 2 + np.concatenate(([0.0], pot))
        assert rep.k1 - rep.tail == pytest.approx(
            math.pi * np.trapezoid(inward[inner], dx=h), rel=1e-12)
        assert rep.k == pytest.approx(4.0 * rep.k1, rel=1e-15)
    assert reps[132.0].k1 == pytest.approx(233.4786, rel=2e-5)  # ROADMAP item 2's value
    assert reps[132.0] == reps[1028.0]
    with pytest.raises(DivergentIntegralError, match="kappa=0.34"):
        FarField(c, p).k_tail(132.0, 0.34)


def test_boundary_leak_fraction_monotone_in_room():
    h = 1.0 / 64.0
    fam = GaussianBump(1.0, 3.0, 0.4)
    # generous grid passes, truncating right at the peak fails
    n_wide = int(8.0 / h) + 1
    r = h * np.arange(n_wide)
    check_boundary_leak(RadialPair(fam.w0(r), np.zeros(n_wide), h))
    n_tight = int(3.2 / h) + 1
    rt = h * np.arange(n_tight)
    with pytest.raises(BoundaryLeakError):
        check_boundary_leak(RadialPair(fam.w0(rt), np.zeros(n_tight), h))
