"""Laboratory for the explicit slow-decay example.

The example starts the power-law family (u0 = c r^{-2/(p-1)} outside the
unit ball, at rest) and verifies, numerically, the chain of facts that
make it scatter even though its conformal-type norms diverge:

  * envelope: |w(r,t)| stays below 3 c r^beta on the undisturbed exterior
    r >= 1 + t, where w = r^beta Phi(t/r) exactly (model.FarField); the
    profile |w| / (c r^beta) has no positive floor there, since Phi changes
    sign (at s = t/r ~ 0.62 for p = 4, c = 2) and w vanishes on that ray;
  * the source term of the integral equation over a backward light
    triangle with apex (r', t'), t' < r', obeys the closed-form bound

        iint |w|^p / r^{p-1} dr dt <= (3c)^p * C_p * (r')^beta,

    where C_p is the constant produced by enlarging the triangle to the
    full characteristic strips and integrating r^{beta-2} (finite only
    for beta > 0, i.e. p > 3 -- at p = 3 the strip integral diverges
    logarithmically at the inner corner); the report's triangles have apex
    (1 + t', t'), so they lie in r >= 1 + t and their integral is exact from
    Phi (FarField.triangle_source);
  * the weighted channel mass is finite exactly for kappa < (5-p)/(p-1)
    and the scattering-rate fits behave accordingly.

run_appendix_example orchestrates the study's one PDE run, which steps
only the light-cone window r <= 1 + t + 8 and takes the rest from Phi, and
returns a JSON-ready report; the CLI `appendix` subcommand wraps it.
"""

import math

import numpy as np

from .diagnostics import TAIL_EXPONENT_CUT
from .errors import (
    ConfigError,
    DivergentIntegralError,
    OffGridError,
    OutOfRangeError,
)
from .model import AppendixPowerLaw, FarField, k_functional, make_params, tail_beta
from .numerics import dyadic_times, fit_power_law, node_at_or_past
from .scattering import (
    exterior_growth_fit,
    free_wave_defect,
    lp_l2p_tail,
    predicted_tail_exponent,
)
from .solver import GridSpec, Monitors, evolve, leapfrog, plan_run


def triangle_bound_constant(p):
    """The strip-integral constant C_p with iint_{strips} r^{beta-2} =
    C_p (r')^beta, in closed form: C_p = 2 / (beta (1 - beta)).

    In characteristic coordinates the strips reduce to the integral of
    [2^{1-beta} / (1-beta)] x^{beta-1} over 0 < x < 2 r', which is
    (2 r')^beta 2^{1-beta} / (beta (1-beta)).  Returns inf for p = 3,
    where beta = 0 makes the inner-corner contribution logarithmically
    divergent.
    """
    beta = tail_beta(p)
    if beta <= 0.0:
        return math.inf
    return 2.0 / (beta * (1.0 - beta))


def full_slab(pair, params, grid):
    """Leapfrog evolution that keeps every level: returns W[level, node].

    Only intended for short, coarse runs (the memory cost is the full
    space-time slab); the tests' grid check of FarField.triangle_source
    uses it.  The levels are leapfrog()'s, so on a run that steps the whole
    grid they agree with evolve()'s snapshots bit for bit.
    """
    slab = np.empty((grid.steps + 1, grid.n + 1))
    for m, _, w, *_ in leapfrog(pair, params, grid):
        slab[m] = w
    return slab


def source_triangle_check(far, t_apex):
    """The triangle_bound row of the backward light triangle with apex
    (r', t') = (1 + t', t'): its source integral iint |w|^p / r^{p-1} dr dt
    from Phi (far.triangle_source), the bound (3c)^p C_p r'^beta and their
    ratio, taken scale-free from iint |w / c|^p / r^{p-1} so that no
    amplitude makes it 0/0.  At p = 3 the bound is inf and the ratio 0: the
    check is vacuous."""
    r_apex, p = 1.0 + t_apex, far.p
    scaled = far.triangle_source(t_apex)
    strip = triangle_bound_constant(p) * r_apex**far.beta
    return {"r_apex": r_apex, "t_apex": t_apex, "integral": far.c**p * scaled,
            "bound": math.inf if math.isinf(strip) else (3.0 * far.c) ** p * strip,
            "ratio": scaled / (3.0**p * strip)}


PLOT_LEVELS = 512  # at most this many plot levels; built as a set, as np.unique loads numpy.ma
ENVELOPE_CAP = 4.0  # the largest amplitude find_envelope_threshold vouches for
ENVELOPE_HORIZON = 16.0  # the level time its verdict is read at


def find_envelope_threshold(p):
    """ENVELOPE_CAP = 4, once FarField.envelope shows the envelope
    |w| < 3 c r^beta holding at c = 4 on r >= 1 + t (to r = inf) through
    t = ENVELOPE_HORIZON; no PDE runs.  Below the cap there is nothing to
    search: |Phi| stays well below 3c (measured for c up to 64 and p from
    3 to 4.5).  Raises OutOfRangeError if the envelope fails at the cap.
    """
    p = make_params(p, 0.5).p  # kappa is irrelevant to the envelope
    c = ENVELOPE_CAP
    if not FarField(c, p).envelope([ENVELOPE_HORIZON]).holds:
        raise OutOfRangeError(f"envelope fails at the cap c={c}; no threshold found")
    return c


def run_appendix_example(p, kappa, c=None, h=1.0 / 128.0, t_max=64.0, r_max=None):
    """Full study of the slow-decay example; returns (report, traj, env).

    The report is a JSON-ready dict with five sections: the envelope
    verdict, the weighted channel mass (or its divergence), the decay of
    the inward energy against t^{-kappa}, the scattering-rate fits, and
    the triangle source bound.  c=None picks half the envelope threshold,
    c = 2 (find_envelope_threshold).  The envelope verdict comes from the
    data's far field on r >= 1 + t (FarField.envelope: env), not the grid,
    and so do the triangle rows (source_triangle_check): the study steps
    one PDE run, which records no characteristic bins.

    r_max=None sizes the grid at 2*t_max + 4.  The data carry their exact
    exterior r^beta Phi(t/r) (a FarField), so the run steps its light-cone
    window (solver.clean_edge), every integral stops at its edge and is
    closed past it exactly: no number depends on r_max.  The far_field
    section states the rule and each closure's share of its integral.

    A fit that cannot be made has NaN fields (numerics.fit_power_law and
    fit_log_growth), null once the CLI writes them: the tail-norm fit below
    t_max = 32 (below 8 no tail norm starts) or where a total underflowed
    to 0, the exterior fit below t_max = 16.  Raises
    ConfigError, before the threshold search and any run, if t_max is
    below 4, the first dyadic sample time, if p, kappa or c are out of
    range (make_params, AppendixPowerLaw), or if h, t_max and r_max make
    no grid or one that plan_run refuses (r_max at most 2*t_max + 1 + h,
    or a monitored time off the grid).
    """
    if not t_max >= 4.0:
        raise ConfigError(f"t_max={t_max} is below 4, the first dyadic sample time")
    try:
        params = make_params(p, kappa)
        family = None if c is None else AppendixPowerLaw(c, params)
        if r_max is None:
            r_max = node_at_or_past(4.0 + 2.0 * t_max, h, "r_max")
        grid = GridSpec(h=h, r_max=r_max, t_max=t_max, boundary="outgoing")
        times = dyadic_times(4.0, t_max)
        plot_at, k = {0, *(round(t / h) for t in times)}, PLOT_LEVELS - 1 - len(times)
        plot_at.update(round(grid.steps ** (j / (k - 1))) for j in range(k))  # 1 .. steps
        mon = Monitors(radii=(1.0, "t/4"), snapshot_times=tuple(times), energy_levels=plot_at)
        plan_run(grid, mon, far_field=True)
    except (OffGridError, OutOfRangeError) as err:
        raise ConfigError(str(err)) from err
    threshold = None
    if family is None:
        threshold = find_envelope_threshold(p)
        family = AppendixPowerLaw(threshold / 2.0, params)

    traj = evolve(family.sample(grid), params, grid, mon)
    led = traj.ledger
    env = traj.pair.far_field.envelope(led.t)
    envelope_sec = {**env.summary(), "threshold": threshold}

    try:
        kr = k_functional(traj.pair, params)
        k_sec = {"divergent": False, "k1": kr.k1, "k": kr.k}
        k_value, k_share = kr.k, (kr.tail / kr.k1 if kr.k1 else None)
    except DivergentIntegralError as err:
        k_sec = {"divergent": True, "detail": str(err)}
        k_value = k_share = None

    e_minus_vals = [float(led.e_minus[led.level(t)]) for t in times]
    decay_sec = {
        "times": list(times),
        "e_minus": e_minus_vals,
        "scaled_by_t_kappa": (
            None
            if not k_value
            else [e * t**kappa / k_value for t, e in zip(times, e_minus_vals)]
        ),
    }

    # the start times t0 <= t_max / 2; the decade fit does not depend on t0
    fit_times = times[:-1]
    tail_reports = [lp_l2p_tail(traj, t0) for t0 in fit_times]
    tails_converged = all(rep.exponent <= TAIL_EXPONENT_CUT for rep in tail_reports)
    lp_fit = fit_power_law(fit_times, [rep.total for rep in tail_reports])
    ext_fit, ext_vals = exterior_growth_fit(traj, times)
    defect_ts = [t for t in times if t >= 8.0 and 2.0 * t <= t_max]  # (t, 2t), both recorded
    defects = [free_wave_defect(traj, t, 2.0 * t) for t in defect_ts]
    rates_sec = {
        "lp_l2p": {
            "times": list(fit_times),
            "totals": [rep.total for rep in tail_reports],
            "exponent": lp_fit.exponent,
            "r_squared": lp_fit.r_squared,
            "predicted_exponent": predicted_tail_exponent(params),
            "tails_converged": tails_converged,
        },
        "exterior_growth": {
            "slope": ext_fit.slope,
            "offset": ext_fit.offset,
            "r_squared": ext_fit.r_squared,
            "values": [float(v) for v in ext_vals],
        },
        "free_wave_defect": {
            "pairs": [[d.t1, d.t2] for d in defects],
            "values": [d.defect for d in defects],
        },
    }

    triangle_sec = [source_triangle_check(traj.pair.far_field, t) for t in (1.0, 2.0, 4.0)]

    at = [led.level(t) for t in times]
    closed = {"e_minus": led.e_minus, "e_plus": led.e_plus, "y2p": led.y2p**2,
              "exterior": led.exterior_l2p2}
    # a share of an integral that underflowed to 0 with its closure (c = 1e-200) is null
    shares = {k: np.divide(traj.far_tails[k][at], v[at], out=np.full(len(at), np.nan),
                           where=v[at] != 0.0).tolist() for k, v in closed.items()}
    far_sec = {
        "clean_edge": "level m is stepped and exact on nodes <= (1 + 8)/h + m, r <= 1 + t + 8 "
                      "(if that window would pass r_max, the whole grid's n - m - 1); each "
                      "integral stops there and is closed past it by w = r^beta Phi(t/r)",
        "times": list(times),
        "closure_share": {**shares, "k": k_share,
                          "free_wave_defect": [d.closure for d in defects]},
    }
    report = {
        "p": p,
        "kappa": kappa,
        "grid": {"h": h, "r_max": grid.r_max, "t_max": t_max},
        "far_field": far_sec,
        "envelope": envelope_sec,
        "channel_mass": k_sec,
        "energy_decay": decay_sec,
        "scattering_rates": rates_sec,
        "triangle_bound": triangle_sec,
    }
    return report, traj, env
