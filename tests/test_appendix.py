import json
import math

import numpy as np
import pytest

from nlw.appendix import (
    TriangleRegion,
    envelope_holds,
    find_envelope_threshold,
    full_slab,
    run_appendix_example,
    source_triangle_check,
    triangle_bound_constant,
    triangle_integral,
)
from nlw.errors import BlowupError, OutOfRangeError
from nlw.model import AppendixPowerLaw, GaussianBump, make_params
from nlw.numerics import grid_index
from nlw.solver import GridSpec, Monitors, evolve, leapfrog

from oracles import cp_closed, triangle_power_closed, triangle_quad


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
# triangle regions and discrete integrals
# --------------------------------------------------------------------------

def test_triangle_region_validation():
    TriangleRegion(r_apex=2.0, t_apex=1.0)
    with pytest.raises(OutOfRangeError):
        TriangleRegion(r_apex=1.0, t_apex=1.0)
    with pytest.raises(OutOfRangeError):
        TriangleRegion(r_apex=2.0, t_apex=0.0)
    with pytest.raises(OutOfRangeError):
        TriangleRegion(r_apex=2.0, t_apex=2.5)


def test_triangle_integral_linear_integrand_exact():
    """With w = r and p = 4 the integrand is w^4 / r^3 = r, linear on each
    level, so both trapezoid stages are exact: the discrete sum equals
    r' t'^2 to rounding."""
    h = 1.0 / 32.0
    grid = GridSpec(h=h, r_max=8.0, t_max=2.0, boundary="outgoing")
    params = make_params(4.0, 0.25)
    slab = np.tile(grid.r, (grid.steps + 1, 1))
    region = TriangleRegion(r_apex=3.0, t_apex=2.0)
    got = triangle_integral(slab, grid, params, region)
    assert got == pytest.approx(3.0 * 4.0, rel=1e-13)


def test_triangle_integral_converges_to_quadrature():
    """Manufactured smooth slab w(r, t) = r e^{-t} against an independent
    2D quadrature of |w|^p / r^{p-1}; the discrete error must shrink at
    second order."""
    params = make_params(4.0, 0.25)
    region = TriangleRegion(r_apex=3.0, t_apex=1.5)
    fn = lambda r, t: (r * math.exp(-t)) ** 4 / r**3
    ref = triangle_quad(fn, region.r_apex, region.t_apex)
    errs = []
    for h in (1.0 / 16.0, 1.0 / 32.0):
        grid = GridSpec(h=h, r_max=6.0, t_max=2.0, boundary="outgoing")
        t_col = (h * np.arange(grid.steps + 1))[:, None]
        slab = grid.r[None, :] * np.exp(-t_col)
        errs.append(abs(triangle_integral(slab, grid, params, region) - ref))
    assert errs[1] < errs[0]
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8, f"triangle integral converged at order {order:.2f}"


def test_triangle_integral_domain_guards():
    h = 1.0 / 16.0
    grid = GridSpec(h=h, r_max=4.0, t_max=1.0, boundary="outgoing")
    params = make_params(4.0, 0.25)
    slab = np.zeros((grid.steps + 1, grid.n + 1))
    with pytest.raises(OutOfRangeError):
        # apex time beyond the slab
        triangle_integral(slab, grid, params, TriangleRegion(3.0, 2.0))
    with pytest.raises(OutOfRangeError):
        # base leaves the radial grid
        triangle_integral(slab, grid, params, TriangleRegion(3.75, 0.5))


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
    params = make_params(p, 0.25)
    family = AppendixPowerLaw(c, params)
    h = 1.0 / 16.0
    grid = GridSpec(
        h=h, r_max=h * math.ceil(6.0 / h), t_max=2.0, boundary="outgoing"
    )
    slab = full_slab(family.sample(grid, leak_tol=None), params, grid)
    rep = source_triangle_check(slab, grid, params, c, TriangleRegion(2.0, 1.0))
    assert rep.integral > 0.0
    assert rep.ratio < 1.0
    assert rep.bound == pytest.approx(
        (3.0 * c) ** p * cp_closed(p) * 2.0 ** params.beta, rel=1e-5
    )


def test_source_triangle_check_vacuous_at_p3():
    p, c = 3.0, 0.05
    params = make_params(p, 0.5)
    family = AppendixPowerLaw(c, params)
    h = 1.0 / 16.0
    grid = GridSpec(
        h=h, r_max=h * math.ceil(6.0 / h), t_max=2.0, boundary="outgoing"
    )
    slab = full_slab(family.sample(grid, leak_tol=None), params, grid)
    rep = source_triangle_check(slab, grid, params, c, TriangleRegion(2.0, 1.0))
    assert rep.bound == math.inf
    assert rep.ratio == 0.0


# --------------------------------------------------------------------------
# envelope threshold search
# --------------------------------------------------------------------------

def test_envelope_threshold_brackets():
    thr = find_envelope_threshold(4.0, h=1.0 / 16.0, t_max=8.0)
    assert 0.02 < thr <= 4.0


def test_envelope_threshold_unreachable_floor():
    with pytest.raises(OutOfRangeError):
        find_envelope_threshold(4.0, h=1.0 / 16.0, t_max=8.0, lo=3.9, hi=3.95)


@pytest.mark.parametrize(
    "lo, hi, cap", [(0.02, 8.0, 1.0), (2.0, 2.0, 4.0), (3.0, 2.0, 4.0), (0.0, 2.0, 4.0)]
)
def test_envelope_threshold_rejects_a_bad_bracket(lo, hi, cap):
    """A bracket outside 0 < lo < hi <= cap is refused up front; with
    hi = 8 > cap = 1 the search used to return 3.096, above its cap."""
    with pytest.raises(OutOfRangeError):
        find_envelope_threshold(4.0, h=1.0 / 16.0, t_max=8.0, lo=lo, hi=hi, cap=cap)


def test_envelope_threshold_stays_at_or_below_cap():
    # the envelope holds at c = 1 here (threshold about 3.1), so the
    # doubling search stops at the cap itself
    assert find_envelope_threshold(4.0, h=1.0 / 16.0, t_max=8.0, hi=0.5, cap=1.0) == 1.0


@pytest.mark.parametrize(
    "p, want",
    [(3.0, 4.201171875), (3.5, 3.55126953125), (4.0, 3.09716796875), (4.5, 2.76904296875)],
)
def test_envelope_threshold_pinned(p, want):
    """The search's result, bit for bit, at h = 1/16 and t_max = 8 (values
    of nlw 0.1.0).  cap = 16 lets p = 3 end by bisection, not at the cap."""
    assert find_envelope_threshold(p, h=1.0 / 16.0, t_max=8.0, cap=16.0) == want


def _envelope_only_holds(pair, params, grid, c):
    """The probe decision from the leapfrog levels alone: "fails" at the
    first level whose envelope ratio |w| / (3 c r^beta) over the wedge
    [1 + t, r_max - t] reaches 1, "blows up" on a blow-up; no ledger."""
    floor3 = np.zeros(grid.n + 1)
    floor3[1:] = 3.0 * (c * grid.r[1:] ** params.beta)
    one = grid_index(1.0, grid.h)
    try:
        for m, _, w, *_ in leapfrog(pair, params, grid):
            lo, hi = m + one, grid.n - m
            if lo <= hi and np.max(np.abs(w[lo : hi + 1]) / floor3[lo : hi + 1]) >= 1.0:
                return "fails"
    except BlowupError:
        return "blows up"
    return "holds"


@pytest.mark.parametrize("p", [3.5, 4.0])
def test_envelope_probe_decides_as_the_envelope_only_check(p):
    """envelope_holds (the threshold search's probe) against an early-exit
    check of the envelope ratio alone, on power-law data of amplitude a
    probed at c: a = c over the whole range (holds, then blows up), and
    a = 3 probed at c < a / 2.5, where the ratio starts near 1 and may
    reach it mid-run or at once."""
    params = make_params(p, 0.5)
    h, t_max = 1.0 / 16.0, 8.0
    grid = GridSpec(h=h, r_max=h * math.ceil((2.0 + 2.0 * t_max) / h), t_max=t_max,
                    boundary="outgoing")
    cases = [(a, a) for a in (0.5, 2.0, 3.0, 3.5, 3.6, 4.0, 8.0, 16.0)]
    cases += [(3.0, 3.0 / k) for k in (2.5, 2.7, 2.8, 2.9, 2.95, 3.0, 3.2)]
    seen = set()
    for a, c in cases:
        pair = AppendixPowerLaw(a, params).sample(grid, leak_tol=None)
        verdict = _envelope_only_holds(pair, params, grid, c)
        seen.add(verdict)
        assert envelope_holds(pair, params, grid, c) == (verdict == "holds"), (a, c)
    assert seen == {"holds", "fails", "blows up"}


# --------------------------------------------------------------------------
# orchestrated report
# --------------------------------------------------------------------------

def test_report_sections(appendix_quick):
    report = appendix_quick["report"]
    assert report["p"] == 4.0 and report["kappa"] == 0.25

    env = report["envelope"]
    assert env["holds"] is True
    assert env["peak_ratio"] < 1.0
    assert env["threshold"] is not None
    assert env["c"] == pytest.approx(env["threshold"] / 2.0)
    assert env["first_violation_t"] is None
    assert 0.0 < env["min_profile"] <= env["peak_ratio"] + 1.0

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
    """The far-field closure leaves every reported integral, and the fits
    on them, within 1 % between r_max = 2 t_max + 4 and 16 t_max + 4."""
    c = 3.36376953125 / 2.0
    small, _ = run_appendix_example(4.0, 0.25, c=c, h=1.0 / 16.0, t_max=32.0)
    large, _ = run_appendix_example(4.0, 0.25, c=c, h=1.0 / 16.0, t_max=32.0, r_max=516.0)
    assert small["grid"]["r_max"] == 68.0
    got, want = _report_scalars(small), _report_scalars(large)
    assert len(got) == 19
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-2), key
    shares = small["far_field"]["closure_share"]
    assert set(shares) == {"e_minus", "e_plus", "y2p", "exterior", "k", "free_wave_defect"}
    assert 0.0 < shares["k"] < 1.0 and all(0.0 < v < 1.0 for v in shares["e_minus"])
    assert len(shares["free_wave_defect"]) == 2


def test_threshold_search_builds_no_far_field_table(monkeypatch):
    """The envelope-only probes close no integral: no Phi table, and the
    threshold is bitwise the one found before the far field existed."""
    from nlw.model import FarField

    def no_table(*args):
        raise AssertionError("a threshold probe tabulated the far field")

    monkeypatch.setattr(FarField, "_ensure", no_table)
    assert find_envelope_threshold(4.0) == 3.36376953125


def test_report_divergent_channel_mass():
    """kappa above (5-p)/(p-1) makes the weighted mass diverge; the report
    must degrade gracefully rather than fail: no scaled decay column, and
    with t_max = 8 there is one fit time and no defect pairs."""
    report, traj = run_appendix_example(
        4.0, 0.5, c=0.4, h=1.0 / 32.0, t_max=8.0
    )
    assert report["channel_mass"]["divergent"] is True
    assert "k" not in report["channel_mass"]
    assert report["energy_decay"]["scaled_by_t_kappa"] is None
    lp = report["scattering_rates"]["lp_l2p"]
    assert lp["times"] == [4.0]
    assert lp["exponent"] is None and lp["r_squared"] is None
    ext = report["scattering_rates"]["exterior_growth"]
    assert ext["slope"] is None and len(ext["values"]) == 2
    assert report["scattering_rates"]["free_wave_defect"]["pairs"] == []
    json.dumps(report)
