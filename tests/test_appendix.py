import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from nlw import appendix, solver
from nlw.appendix import (
    find_envelope_threshold,
    full_slab,
    run_appendix_example,
    source_triangle_check,
    triangle_bound_constant,
)
from nlw.cli import _jsonable
from nlw.errors import OutOfRangeError
from nlw.model import AppendixPowerLaw, FarField, GaussianBump, make_params
from nlw.numerics import grid_index
from nlw.solver import GridSpec, Monitors, clean_edge, evolve, leapfrog

from oracles import (
    cp_closed,
    far_profile,
    sup_abs,
    triangle_power_closed,
    triangle_source_quad,
    triangle_sum,
)


# --------------------------------------------------------------------------
# strip-integral constant
# --------------------------------------------------------------------------

def test_triangle_bound_constant_closed_form():
    # C_p = 2 / (beta (1 - beta)); frozen spot values guard both sides
    assert triangle_bound_constant(3.5) == pytest.approx(12.5, rel=1e-14)
    assert triangle_bound_constant(4.0) == pytest.approx(9.0, rel=1e-14)
    assert triangle_bound_constant(4.5) == pytest.approx(49.0 / 6.0, rel=1e-14)
    for p in (3.2, 3.8, 4.3, 4.9):
        assert triangle_bound_constant(p) == pytest.approx(cp_closed(p), rel=1e-14)


def test_triangle_bound_constant_diverges_at_p3():
    assert triangle_bound_constant(3.0) == math.inf


def test_strip_constant_dominates_exact_triangle():
    # the strip enlargement is an upper bound, so the exact triangle
    # integral of r^{beta-2} must come in below C_p r_apex^beta
    for p, r_apex, t_apex in ((4.0, 2.0, 1.0), (4.5, 3.0, 2.5), (3.5, 1.5, 0.5)):
        beta = (p - 3.0) / (p - 1.0)
        exact = triangle_power_closed(beta, r_apex, t_apex)
        strip = triangle_bound_constant(p) * r_apex**beta
        assert 0.0 < exact < strip


# --------------------------------------------------------------------------
# triangle source integrals from Phi
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3.0, 3.5, 4.0, 4.5])
def test_triangle_rows_match_scipy_quadrature(p):
    """At the study's c = 2 each triangle_bound integral (apex (1 + t', t'),
    t' = 1, 2, 4) is within 1e-8 of scipy quad over an independent DOP853
    Phi (7e-10 at worst), and the scale-free ratio is the integral over
    the bound."""
    far = FarField(2.0, p)
    for t_apex in (1.0, 2.0, 4.0):
        row = source_triangle_check(far, t_apex)
        assert (row["r_apex"], row["t_apex"]) == (1.0 + t_apex, t_apex)
        assert row["integral"] == pytest.approx(triangle_source_quad(2.0, p, t_apex), rel=1e-8)
        if p == 3.0:
            assert (row["bound"], row["ratio"]) == (math.inf, 0.0)
        else:
            assert row["ratio"] == pytest.approx(row["integral"] / row["bound"], rel=1e-14)


def test_oracle_triangle_sum_is_exact_on_a_linear_integrand():
    """With w = r and p = 4 the integrand is w^4 / r^3 = r, linear on each
    level, so both trapezoid stages of oracles.triangle_sum are exact: the
    sum equals r' t'^2 to rounding."""
    h = 1.0 / 32.0
    slab = np.tile(h * np.arange(257), (65, 1))
    assert triangle_sum(slab, h, 4.0, 3.0, 2.0) == pytest.approx(3.0 * 4.0, rel=1e-13)


@pytest.mark.parametrize("p", [3.5, 4.0])
def test_slab_triangle_sum_converges_to_the_closure(p):
    """The grid cross-check: the discrete triangle sum over full_slab's
    leapfrog levels (c = 2, r_max = 10, t_max = 4, the whole grid stepped)
    reaches FarField.triangle_source at second order, from 1.19e-3,
    4.6e-4 and 2.3e-4 relative at h = 1/16 to 2.96e-4, 1.15e-4 and 5.8e-5
    at h = 1/32 (p = 4; t' = 1, 2, 4)."""
    params, far = make_params(p, 0.25), FarField(2.0, p)
    errs = []
    for h in (1.0 / 16.0, 1.0 / 32.0):
        grid = GridSpec(h=h, r_max=10.0, t_max=4.0, boundary="outgoing")
        slab = full_slab(AppendixPowerLaw(2.0, params).sample(grid), params, grid)
        errs.append([triangle_sum(slab, h, p, 1.0 + t, t) - 2.0**p * far.triangle_source(t)
                     for t in (1.0, 2.0, 4.0)])
    for coarse, fine, t_apex in zip(*errs, (1.0, 2.0, 4.0)):
        assert abs(fine) < 4e-4 * 2.0**p * far.triangle_source(t_apex)
        assert math.log2(coarse / fine) >= 1.9, (t_apex, coarse, fine)


# --------------------------------------------------------------------------
# full slab evolution
# --------------------------------------------------------------------------

def test_full_slab_matches_evolve_levels():
    params = make_params(4.0, 0.5)
    family = GaussianBump(0.6, 1.5, 0.4)
    grid = GridSpec.padded(1.0 / 32.0, 1.0, family.support_radius())
    pair = family.sample(grid)
    slab = full_slab(pair, params, grid)
    mon = Monitors(snapshot_times=(0.5, 1.0))
    traj = evolve(pair, params, grid, mon)
    assert slab.shape == (grid.steps + 1, grid.n + 1)
    # identical stencils in identical order: bit-for-bit agreement
    for t in (0.5, 1.0):
        level = traj.ledger.level(t)
        np.testing.assert_array_equal(slab[level], traj.snapshot_at(t).w_curr)


# --------------------------------------------------------------------------
# envelope-based source bound
# --------------------------------------------------------------------------

def test_source_triangle_check_subcritical_amplitude():
    p, c = 4.0, 0.05
    rep = source_triangle_check(FarField(c, p), 1.0)
    assert rep["integral"] > 0.0
    assert rep["ratio"] < 1.0
    beta = make_params(p, 0.25).beta
    assert rep["bound"] == pytest.approx((3.0 * c) ** p * cp_closed(p) * 2.0**beta, rel=1e-14)


def test_source_triangle_check_vacuous_at_p3():
    """At p = 3 the bound is inf and the ratio 0, also at an amplitude
    whose (3c)^p underflows."""
    for c in (0.05, 1e-200):
        rep = source_triangle_check(FarField(c, 3.0), 1.0)
        assert rep["bound"] == math.inf
        assert rep["ratio"] == 0.0


def test_source_triangle_ratio_is_scale_free():
    """The ratio is taken from |w / c|^p: at c = 1e-200, where integral
    and bound underflow to 0, it is the small-amplitude limit, which
    c = 1e-6 reads within 1e-9."""
    for t_apex in (1.0, 2.0, 4.0):
        tiny = source_triangle_check(FarField(1e-200, 4.0), t_apex)
        assert tiny["integral"] == tiny["bound"] == 0.0
        small = source_triangle_check(FarField(1e-6, 4.0), t_apex)
        assert tiny["ratio"] == pytest.approx(small["ratio"], rel=1e-9)


# --------------------------------------------------------------------------
# envelope threshold search
# --------------------------------------------------------------------------

class _FailingFarField:
    """A stand-in for FarField whose envelope fails at every amplitude; the
    exact verdict holds at every amplitude up to the cap."""

    def __init__(self, c, p):
        pass

    def envelope(self, t):
        return SimpleNamespace(holds=False)


def test_envelope_threshold_fails_at_the_cap(monkeypatch):
    monkeypatch.setattr(appendix, "FarField", _FailingFarField)
    with pytest.raises(OutOfRangeError, match="envelope fails at the cap c=4.0"):
        find_envelope_threshold(4.0)


@pytest.mark.parametrize("p", [3.0, 3.5, 4.0, 4.5])
def test_envelope_search_pinned_against_dop853(p):
    """The envelope at c = 0.02, 2 and 4 (the cap) through t = 16 against an
    independent DOP853 Phi: the peak ratio max |Phi| / (3c) over s <= 16/17
    to 1e-8, and where it peaks; all hold, so the threshold is the cap."""
    assert find_envelope_threshold(p) == 4.0
    for c in (0.02, 2.0, 4.0):
        env = FarField(c, p).envelope([16.0])
        sol = far_profile(c, p, 16.0 / 17.0)
        peak, s_peak = sup_abs(lambda s: sol(s)[0], 0.0, 16.0 / 17.0)
        assert env.holds and env.peak_ratio == pytest.approx(peak / (3.0 * c), abs=1e-8), c
        assert env.peak_s == pytest.approx(s_peak, abs=1e-4), c


def test_envelope_verdict_at_the_old_flagship_amplitude():
    """At c = 1.681884765625 through t = 64 the verdict from Phi is within
    1e-5 of the h = 1/128 grid's peak ratio 0.3381881, and the profile
    floor is 0 from Phi's zero at s = 0.7478 on; the peak is at the edge of
    the last level, (r, t) = (65, 64)."""
    c = 1.681884765625
    env = FarField(c, 4.0).envelope(np.arange(8193) / 128.0)
    assert env.peak_ratio == pytest.approx(0.3381881, abs=1e-5)
    summary = env.summary()
    assert (summary["peak_r"], summary["peak_t"]) == (pytest.approx(65.0), pytest.approx(64.0))
    assert env.min_profile[-1] == 0.0 and env.profile_zero_s == pytest.approx(0.7478, abs=1e-4)
    assert np.all(np.diff(env.max_ratio) >= 0.0) and np.all(np.diff(env.min_profile) <= 0.0)


def _wedge_peak_ratio(pair, params, grid, c, edge):
    """The grid's envelope peak from the leapfrog levels stepped to the
    clean edge edge(m) (a solver.CleanEdge): the largest |w| / (3 c r^beta)
    from r = 1 + t to that edge, on the nodes the run steps."""
    floor3 = np.zeros(grid.n + 1)
    floor3[1:] = 3.0 * (c * grid.r[1:] ** params.beta)
    one = grid_index(1.0, grid.h)
    peak = 0.0
    for m, _, w, *_ in leapfrog(pair, params, grid, edge=edge):
        lo, hi = m + one, edge(m)
        if lo <= hi:
            peak = max(peak, float(np.max(np.abs(w[lo : hi + 1]) / floor3[lo : hi + 1])))
    return peak


@pytest.mark.parametrize("c", [1.0, 2.0, 3.3])
def test_grid_envelope_peak_converges_to_the_far_field_verdict(c):
    """The exterior solver stays checked: on the old probe grid (p = 4,
    T = 16, r_max = 34), stepped whole, the wedge's peak ratio reaches the
    Phi verdict at second order, the gap falling fourfold from h = 1/32 to
    1/64 (1.8e-5 and 1.2e-4 at h = 1/32 for c = 2 and 3.3); at c = 1 both
    peak at t = 0, on the data.  The light-cone window, which the grid
    fits, reads a peak within 1/10 of that gap of the whole grid's (1 % at
    c = 2, 6.5 % at c = 3.3: its edge takes Phi's exact values)."""
    p, t_max = 4.0, 16.0
    params = make_params(p, 0.5)
    want = FarField(c, p).envelope([t_max]).peak_ratio
    gaps = []
    for h in (1.0 / 32.0, 1.0 / 64.0):
        grid = GridSpec(h=h, r_max=2.0 + 2.0 * t_max, t_max=t_max, boundary="outgoing")
        pair = AppendixPowerLaw(c, params).sample(grid)
        whole, window = clean_edge(grid, far_field=False), clean_edge(grid, far_field=True)
        assert window.slope == 1
        peak = _wedge_peak_ratio(pair, params, grid, c, whole)
        gaps.append(abs(peak - want))
        assert abs(_wedge_peak_ratio(pair, params, grid, c, window) - peak) <= 0.1 * gaps[-1]
    assert gaps[0] < 2e-4
    assert gaps[1] < 1e-12 or 3.9 < gaps[0] / gaps[1] < 4.1, gaps


# --------------------------------------------------------------------------
# orchestrated report
# --------------------------------------------------------------------------

def test_report_sections(appendix_quick):
    report = appendix_quick["report"]
    assert report["p"] == 4.0 and report["kappa"] == 0.25

    env = report["envelope"]
    assert env["holds"] is True
    assert env["peak_ratio"] < 1.0
    assert env["threshold"] is None  # c was given
    assert env["c"] == 3.36376953125 / 2.0
    assert env["first_violation_t"] is None
    # Phi changes sign once on the exterior, so the profile floor is 0
    assert env["min_profile"] == 0.0
    assert env["profile_zero_s"] == pytest.approx(0.7478, abs=1e-4)
    # the verdict is the exact sup of the interpolated Phi over s <= 32/33
    far = appendix_quick["traj"].pair.far_field
    peak, _ = sup_abs(lambda s: far.profile(s)[0], 0.0, 32.0 / 33.0)
    assert env["peak_ratio"] == pytest.approx(peak / (3.0 * env["c"]), abs=1e-12)

    k_sec = report["channel_mass"]
    assert k_sec["divergent"] is False
    assert k_sec["k"] == pytest.approx(4.0 * k_sec["k1"])
    assert k_sec["k1"] > 0.0

    decay = report["energy_decay"]
    assert decay["times"] == [4.0, 8.0, 16.0, 32.0]
    assert all(v > 0.0 for v in decay["e_minus"])
    assert all(v > 0.0 for v in decay["scaled_by_t_kappa"])

    rates = report["scattering_rates"]
    lp = rates["lp_l2p"]
    assert lp["times"] == [4.0, 8.0, 16.0]
    assert lp["exponent"] is not None and lp["exponent"] < 0.0
    assert isinstance(lp["tails_converged"], bool)
    assert lp["predicted_exponent"] == pytest.approx(-1.0 / 28.0)
    ext = rates["exterior_growth"]
    assert ext["slope"] > 0.0
    assert len(ext["values"]) == 4
    defects = rates["free_wave_defect"]
    assert defects["pairs"] == [[8.0, 16.0], [16.0, 32.0]]
    assert all(v > 0.0 for v in defects["values"])

    tri = report["triangle_bound"]
    assert [row["t_apex"] for row in tri] == [1.0, 2.0, 4.0]
    assert all(0.0 < row["ratio"] < 1.0 for row in tri)
    assert all(row["integral"] < row["bound"] for row in tri)

    json.dumps(report)  # the CLI writes this verbatim


def _report_scalars(report):
    """Every number of a report that an integral past the clean edge feeds."""
    rates = report["scattering_rates"]
    lp, ext = rates["lp_l2p"], rates["exterior_growth"]
    out = {"k": report["channel_mass"]["k"], "lp exponent": lp["exponent"],
           "lp r^2": lp["r_squared"], "ext slope": ext["slope"],
           "ext offset": ext["offset"], "ext r^2": ext["r_squared"]}
    for name, values in (("e_minus", report["energy_decay"]["e_minus"]),
                         ("lp total", lp["totals"]), ("ext value", ext["values"]),
                         ("defect", rates["free_wave_defect"]["values"])):
        out.update({f"{name} {k}": v for k, v in enumerate(values)})
    return out


def test_report_does_not_depend_on_r_max():
    """The light-cone window and the far-field closures leave every number
    of the report the same, bit for bit, between r_max = 2 t_max + 4 and
    16 t_max + 4: both runs step the same window, and K takes its grid
    part on r <= 1.  Only grid.r_max differs."""
    c = 3.36376953125 / 2.0
    small, _, _ = run_appendix_example(4.0, 0.25, c=c, h=1.0 / 16.0, t_max=32.0)
    large, _, _ = run_appendix_example(4.0, 0.25, c=c, h=1.0 / 16.0, t_max=32.0, r_max=516.0)
    assert small["grid"].pop("r_max") == 68.0 and large["grid"].pop("r_max") == 516.0
    assert len(_report_scalars(small)) == 19
    assert small == large
    shares = small["far_field"]["closure_share"]
    assert set(shares) == {"e_minus", "e_plus", "y2p", "exterior", "k", "free_wave_defect"}
    assert 0.0 < shares["k"] < 1.0 and all(0.0 < v < 1.0 for v in shares["e_minus"])
    assert len(shares["free_wave_defect"]) == 2


def test_report_does_not_depend_on_the_pad(monkeypatch):
    """The window's pad moves the quick study's numbers (h = 1/32, t_max =
    32) by less than 1/10 of their change from h = 1/16 to 1/32 on the
    whole grid: pad 8 (solver.PAD) and pad 16 agree that closely (at most
    0.078 of it, on E_-(4)).  With PAD = 64 the window
    would pass r_max = 68, so the study steps the whole grid."""
    c = 3.36376953125 / 2.0

    def scalars(h, pad):
        monkeypatch.setattr(solver, "PAD", pad)
        report, traj, _ = run_appendix_example(4.0, 0.25, c=c, h=h, t_max=32.0)
        return _report_scalars(report), traj.edge.slope

    (coarse, s1), (fine, s2) = scalars(1.0 / 16.0, 64.0), scalars(1.0 / 32.0, 64.0)
    (pad8, s3), (pad16, s4) = scalars(1.0 / 32.0, 8.0), scalars(1.0 / 32.0, 16.0)
    assert (s1, s2, s3, s4) == (-1, -1, 1, 1)  # whole grids, then windows
    for key, value in pad8.items():
        assert abs(pad16[key] - value) < 0.1 * abs(fine[key] - coarse[key]), key


def test_default_study_steps_one_evolve(monkeypatch):
    """The default amplitude comes from the far field, not from PDE probes:
    the whole study steps a single evolve, at c = 2, half the search's cap."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solver.evolve(*args, **kwargs)

    monkeypatch.setattr(appendix, "evolve", counted)
    report, _, _ = run_appendix_example(4.0, 0.25, h=1.0 / 16.0, t_max=8.0)
    assert len(calls) == 1
    assert report["envelope"]["c"] == 2.0 and report["envelope"]["threshold"] == 4.0


def test_study_steps_one_leapfrog(monkeypatch):
    """The study is one PDE run: its envelope and triangle rows come from
    Phi, so run_appendix_example creates exactly one leapfrog generator,
    wherever a module of nlw holds it."""
    made = []

    def counted(*args, **kwargs):
        made.append(args[2])
        return stepper(*args, **kwargs)

    stepper = solver.leapfrog
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nlw" and getattr(module, "leapfrog", None) is stepper:
            monkeypatch.setattr(module, "leapfrog", counted)
    report, traj, _ = run_appendix_example(4.0, 0.25, c=2.0, h=1.0 / 16.0, t_max=8.0)
    assert made == [traj.grid]
    assert len(report["triangle_bound"]) == 3


def test_defect_pairs_reach_t_max():
    """The free-wave defect is reported on every dyadic pair (t, 2t), t >= 8,
    of the study's snapshots: at t_max = 128 up to (64, 128), not (32, 64)."""
    report, _, _ = run_appendix_example(4.0, 0.25, c=3.36376953125 / 2.0, h=1.0 / 16.0,
                                        t_max=128.0)
    defects = report["scattering_rates"]["free_wave_defect"]
    assert defects["pairs"] == [[8.0, 16.0], [16.0, 32.0], [32.0, 64.0], [64.0, 128.0]]
    assert len(defects["values"]) == 4 and all(v > 0.0 for v in defects["values"])
    assert len(report["far_field"]["closure_share"]["free_wave_defect"]) == 4


def test_report_divergent_channel_mass():
    """kappa above (5-p)/(p-1) makes the weighted mass diverge; the report
    must degrade gracefully rather than fail: no scaled decay column, and
    with t_max = 8 there is one fit time (its fit NaN, null in JSON) and no
    defect pairs."""
    report, traj, _ = run_appendix_example(
        4.0, 0.5, c=0.4, h=1.0 / 32.0, t_max=8.0
    )
    assert report["channel_mass"]["divergent"] is True
    assert "k" not in report["channel_mass"]
    assert report["energy_decay"]["scaled_by_t_kappa"] is None
    lp = report["scattering_rates"]["lp_l2p"]
    assert lp["times"] == [4.0]
    assert math.isnan(lp["exponent"]) and math.isnan(lp["r_squared"])
    ext = report["scattering_rates"]["exterior_growth"]
    assert math.isnan(ext["slope"]) and len(ext["values"]) == 2
    assert report["scattering_rates"]["free_wave_defect"]["pairs"] == []
    json.dumps(_jsonable(report), allow_nan=False)
