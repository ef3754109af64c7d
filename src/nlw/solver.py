"""Unit-CFL leapfrog evolution and an independent Duhamel integrator.

The reduced field w(r,t) lives on nodes r_i = i*h, 0 <= i <= n, and is
advanced with time step equal to h:

    w_i^{m+1} = w_{i-1}^m + w_{i+1}^m - w_i^{m-1} - h^2 F(w_i^m, r_i),

with F(w,r) = |w|^{p-1} w / r^{p-1}.  At unit CFL the homogeneous part of
this stencil is the exact d'Alembert propagator on the grid, so all
numerical error comes from the source quadrature (the diamond-midpoint
rule above) and from the first time level.  The origin node is pinned to
zero; the outer boundary either stays pinned ("pad", for runs whose data
clears the boundary causally) or is filled by first-order outgoing
transport ("outgoing", exact for right-moving waves at unit CFL).

duhamel_solve integrates the same problem as a fixed point of the
integral (Duhamel) form of the equation, discretized with composite
trapezoid quadrature over the full backward light triangle of every node.
Its source quadrature is genuinely different from the leapfrog's, which
makes the pair usable for cross-verification at second order.

leapfrog() generates the levels of the scheme.  evolve() accumulates the
running diagnostics (channel energies, origin trace, flux lines, triangle
probes, characteristic-line bins) while it steps, because storing the
full space-time field is not affordable for production grids.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowupError,
    ConfigError,
    InitialDataError,
    NoContractionError,
    OffGridError,
)
from .model import nonlinearity
from .numerics import abs_power, grid_index, odd_power, trapz

BLOWUP_FACTOR = 1e3
PICARD_MAX_SWEEPS = 50


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid [0, r_max] with time step equal to h."""

    h: float
    r_max: float
    t_max: float
    boundary: str = "outgoing"  # "outgoing" or "pad"

    def __post_init__(self):
        if self.h <= 0:
            raise OffGridError(f"h={self.h} must be positive")
        if self.boundary not in ("outgoing", "pad"):
            raise OffGridError(f"unknown boundary treatment {self.boundary!r}")
        # r_max, t_max and the exterior start r = 1 + t must be node-aligned
        grid_index(self.r_max, self.h, "r_max")
        grid_index(self.t_max, self.h, "t_max")
        grid_index(1.0, self.h, "exterior base radius r")

    @property
    def n(self):
        """Index of the outermost node."""
        return grid_index(self.r_max, self.h, "r_max")

    @property
    def steps(self):
        """Number of time steps to reach t_max."""
        return grid_index(self.t_max, self.h, "t_max")

    @property
    def r(self):
        return self.h * np.arange(self.n + 1)

    @classmethod
    def padded(cls, h, t_max, support_radius, margin=1.0):
        """Grid large enough that data inside support_radius never touches
        the outer boundary before t_max (causally padded, boundary pinned)."""
        r_max = h * math.ceil((support_radius + t_max + margin) / h)
        return cls(h=h, r_max=r_max, t_max=t_max, boundary="pad")


@dataclass
class Snapshot:
    """Three consecutive levels around a requested time, enough to form
    centered time derivatives and to restart an evolution."""

    t: float
    w_prev: np.ndarray
    w_curr: np.ndarray
    w_next: np.ndarray
    h: float

    @property
    def w_t(self):
        return (self.w_next - self.w_prev) / (2.0 * self.h)


@dataclass
class EnvelopeSpec:
    """Pointwise envelope monitor for power-law data: track
    |w| / (3 c r^beta) over the undisturbed exterior r >= 1 + t and the
    profile floor |w| / (c r^beta) over r >= max(1 + t, r_min_profile),
    both restricted to the causal wedge r <= r_max - t.  ray_offsets adds
    per-level samples of |w| / (c r^beta) along the rays r = 1 + t + off."""

    c: float
    r_min_profile: float = 4.0
    ray_offsets: tuple = (0.0, 2.0, 4.0)


@dataclass
class Monitors:
    """What evolve() should record beyond the global energy series.

    radii          channel energies E(t;0,R) for fixed R, plus the moving
                   label "t/4" for the ball of radius t/4
    flux_s         inward characteristic lines r + t = s to record the
                   flux integrand along
    flux_tau       outward characteristic lines r = t - tau
    char_tau       outward lines along which (w_r - w_t) is traced
    triangles      inward triangle probes (t0, r0)
    triangles_out  outward triangle probes (t0, r0), t0 >= r0
    snapshot_times three-level snapshots at these times
    envelope       EnvelopeSpec or None
    xi_variant     "one_sided" (w(h)/h) or "second_order"
    """

    radii: tuple = ()
    flux_s: tuple = ()
    flux_tau: tuple = ()
    char_tau: tuple = ()
    triangles: tuple = ()
    triangles_out: tuple = ()
    snapshot_times: tuple = ()
    envelope: EnvelopeSpec | None = None
    xi_variant: str = "one_sided"


@dataclass
class TriangleRecord:
    """Running accumulators for one triangle probe.

    For an inward probe with corner (t0, r0) the domain is
    {r > 0, t > t0, r + t < t0 + r0}; for an outward probe it is
    {r > 0, t < t0, t - r > t0 - r0}.  During the run we accumulate the
    bulk integral of |w|^{p+1}/r^p over the domain (trapezoid in r,
    trapezoid in t across the levels that slice it) and the flux
    integrand along the slanted edge; the channel energy at the corner
    and the origin trace segment come from the global series.
    """

    t0: float
    r0: float
    kind: str  # "inward" or "outward"
    m_lo: int
    m_hi: int
    bulk: float = 0.0
    flux: float = 0.0
    energy: float = float("nan")  # E_-(t0;0,r0) or E_+(t0;0,r0)


@dataclass
class EnvelopeRecord:
    """Per-level extrema of the envelope and profile ratios."""

    c: float
    beta: float
    t: np.ndarray
    max_ratio: np.ndarray  # sup |w| / (3 c r^beta), nan when region empty
    min_profile: np.ndarray  # inf |w| / (c r^beta), nan when region empty
    ray_offsets: tuple = ()
    ray_ratio: np.ndarray | None = None  # |w|/(c r^beta) along r = 1+t+off
    peak_ratio: float = 0.0
    peak_r: float = float("nan")
    peak_t: float = float("nan")
    first_violation_t: float = float("nan")


@dataclass
class Trajectory:
    """Everything evolve() recorded about one run."""

    grid: GridSpec
    params: object
    monitors: Monitors
    ledger: object  # diagnostics.EnergyLedger
    pair: object = None  # RadialPair the run started from
    snapshots: list = field(default_factory=list)
    char_traces: dict = field(default_factory=dict)
    flux_in: dict = field(default_factory=dict)
    flux_out: dict = field(default_factory=dict)
    triangle_records: list = field(default_factory=list)
    envelope: EnvelopeRecord | None = None
    linear: bool = False

    def snapshot_at(self, t):
        for snap in self.snapshots:
            if abs(snap.t - t) <= 1e-9 * max(1.0, abs(t)):
                return snap
        raise KeyError(f"no snapshot recorded at t={t}")


def bootstrap(pair, params, grid, linear=False, direction=+1):
    """First time level from a Taylor expansion at t = 0:

        w(h) = w0 + h w1 + (h^2/2) (D_h w0 - F(w0)),

    with D_h the standard three-point second difference.  direction=-1
    produces the backward level w(-h) instead.  Second order by itself,
    which keeps the scheme's global order at two; exact for linear data
    at rest (w1 = 0), where it reduces to the half-sum of neighbors.
    """
    h = grid.h
    w0, w1 = pair.w0, pair.w1
    f0 = np.zeros_like(w0) if linear else nonlinearity(w0, grid.r, params.p)
    w = np.empty_like(w0)
    w[1:-1] = 0.5 * (w0[2:] + w0[:-2]) + direction * h * w1[1:-1]
    w[1:-1] -= 0.5 * h * h * f0[1:-1]
    w[0] = 0.0
    if grid.boundary == "pad":
        w[-1] = 0.0
    else:
        # first-order outgoing transport, exact for right-movers at unit CFL
        w[-1] = w0[-2] if direction > 0 else w0[-1]
    return w


def _inverse_power(r, s):
    """1 / r^s on the nodes, with the origin slot 0 (integrands vanish there)."""
    out = np.zeros(r.size)
    out[1:] = 1.0 / abs_power(r[1:], s)
    return out


def _source(w, e, p, inv_rp1, out):
    """Fill out[:e] with the source (|w|^{p-1} w) / r^{p-1} of the nodes
    [0, e) and return the power q = |w|^{p-1} it took."""
    q = abs_power(w[:e], p - 1.0)
    np.multiply(q, w[:e], out=out[:e])
    out[:e] *= inv_rp1[:e]
    return q


def leapfrog(pair, params, grid, linear=False):
    """Generate the leapfrog levels m = 0 .. steps of a run.

    Yields (m, w_prev, w, w_next, e, q, f): the levels m-1, m and m+1
    (level 0 is the data between the two Taylor bootstraps), the end e of
    the nodes [0, e) that carry the work of level m, and there the power
    q = |w|^{p-1} and the source f = (q w) / r^{p-1} of the step (both
    None in linear runs, which take no power).  The arrays are workspaces
    that later levels overwrite: copy what must outlive the level.

    At unit CFL the support of the field grows by one node per level, so
    level m vanishes past node supp + m, with supp the last nonzero node
    of the data.  The step and the blow-up check run on nodes
    [0, supp + m + 2] only (the whole grid once that reaches r_max); the
    result is the same as on the whole grid.

    Raises BlowupError if the sup norm exceeds 1e3 * (sup|w0| + 1).
    """
    h = grid.h
    n = grid.n
    p = params.p
    if pair.w0.size != n + 1:
        raise InitialDataError(f"data have {pair.w0.size} nodes, the grid {n + 1}")
    inv_rp1 = None if linear else _inverse_power(grid.r, p - 1.0)
    nonzero = np.flatnonzero((pair.w0 != 0.0) | (pair.w1 != 0.0))
    supp = int(nonzero[-1]) if nonzero.size else 0
    blowup_at = BLOWUP_FACTOR * (np.abs(pair.w0).max() + 1.0)
    # written only on nodes [0, e) for a window end e that never decreases,
    # so its entries past the window stay zero
    f = None if linear else np.zeros(n + 1)
    q = None

    w_prev = bootstrap(pair, params, grid, linear=linear, direction=-1)
    w = pair.w0.copy()
    w_next = bootstrap(pair, params, grid, linear=linear, direction=+1)
    for m in range(grid.steps + 1):
        # level m + 1 reaches node supp + m + 1; one more node is zero
        e = min(n + 1, supp + m + 3)
        if not linear:
            q = _source(w, e, p, inv_rp1, f)
        if m > 0:
            top = min(e + 1, n + 1)  # updates nodes 1 .. top-2
            nxt = w_next[1 : top - 1]
            np.add(w[: top - 2], w[2:top], out=nxt)
            nxt -= w_prev[1 : top - 1]
            if not linear:
                nxt -= (h * h) * f[1 : top - 1]
            w_next[0] = 0.0
            w_next[-1] = 0.0 if grid.boundary == "pad" else w[-2]
            sup = float(np.abs(w_next[:e]).max())
            if not math.isfinite(sup) or sup > blowup_at:
                raise BlowupError(f"|w| reached {sup:.3g} at t={(m + 1) * h:.6g}")
        yield m, w_prev, w, w_next, e, q, f
        # level m - 1 is no longer needed; its buffer takes level m + 2
        w_prev, w, w_next = w, w_next, w_prev


def evolve(pair, params, grid, monitors=None, linear=False):
    """Run the leapfrog scheme to t_max, accumulating diagnostics.

    Returns a Trajectory whose ledger carries per-level series (channel
    energies, origin trace, bulk integrals, characteristic bins) and
    whose records carry the requested probes.  One extra level beyond
    t_max is computed so that centered time derivatives exist at t_max.

    The levels come from leapfrog(), diagnostics and bins included on its
    light-cone window only.  Each level evaluates one power,
    q = |w|^{p-1}.  The source f = (q w) / r^{p-1} drives the step, and
    every diagnostic power is a product of f, q and w:
    |w|^{p+1}/r^{p-1} = f w, |u|^{2p} r^2 = f^2 and
    |u|^{2(p-1)} r^2 = (q / r^{p-1})^2 r^2.  Linear runs take that power
    here, for the ledger only.  The characteristic bins, which sample the
    midpoint-in-time field, take a second power.

    Raises BlowupError if the sup norm exceeds 1e3 * (sup|w0| + 1).
    """
    from .diagnostics import EnergyLedger  # deferred to avoid an import cycle

    mon = monitors or Monitors()
    h = grid.h
    n = grid.n
    steps = grid.steps
    r = grid.r
    p = params.p

    inv_rp1 = _inverse_power(r, p - 1.0)
    inv_rp = _inverse_power(r, p)
    inv_r = _inverse_power(r, 1.0)
    r_sq = r * r
    pot_coef = 2.0 / (p + 1.0)
    # trapezoid weight times the time step h, per node, for the bins
    bin_wts = np.full(n + 1, h * h)
    bin_wts[0] = bin_wts[-1] = h * (0.5 * h)
    one_idx = grid_index(1.0, h, "exterior base radius r")

    ledger = EnergyLedger.allocate(steps, h, params, mon, n)

    # fixed monitored radii -> node indices; "t/4" handled per level
    radius_idx = {}
    for label in mon.radii:
        if label == "t/4":
            continue
        radius_idx[label] = grid_index(float(label), h, f"radius {label}")

    def line_monitor(labels, what):
        """A NaN series and the node index of each characteristic label."""
        series = {x: np.full(steps + 1, np.nan) for x in labels}
        return series, {x: grid_index(x, h, f"{what}={x}") for x in labels}

    flux_in, flux_in_idx = line_monitor(mon.flux_s, "flux label s")
    flux_out, flux_out_idx = line_monitor(mon.flux_tau, "flux label tau")
    char_traces, char_idx = line_monitor(mon.char_tau, "trace label tau")

    triangles = []
    for (t0, r0) in mon.triangles:
        m0 = grid_index(t0, h, "triangle t0")
        m1 = grid_index(t0 + r0, h, "triangle t0+r0")
        if m1 > steps:
            raise OffGridError(f"inward triangle ({t0},{r0}) ends past t_max")
        triangles.append(TriangleRecord(t0, r0, "inward", m0, m1))
    for (t0, r0) in mon.triangles_out:
        m1 = grid_index(t0, h, "triangle t0")
        m0 = grid_index(t0 - r0, h, "triangle t0-r0")
        if m0 < 0 or m1 > steps:
            raise OffGridError(f"outward triangle ({t0},{r0}) leaves the run")
        triangles.append(TriangleRecord(t0, r0, "outward", m0, m1))

    snap_levels = {}
    for t_snap in mon.snapshot_times:
        m_snap = grid_index(t_snap, h, "snapshot time")
        if m_snap > steps:
            raise OffGridError(f"snapshot time {t_snap} past t_max")
        snap_levels[m_snap] = t_snap

    env = None
    if mon.envelope is not None:
        env = EnvelopeRecord(
            c=mon.envelope.c,
            beta=params.beta,
            t=h * np.arange(steps + 1),
            max_ratio=np.full(steps + 1, np.nan),
            min_profile=np.full(steps + 1, np.nan),
            ray_offsets=tuple(mon.envelope.ray_offsets),
            ray_ratio=np.full((len(mon.envelope.ray_offsets), steps + 1), np.nan),
        )
        env_floor = np.zeros(n + 1)
        env_floor[1:] = mon.envelope.c * r[1:] ** params.beta
        prof_idx = grid_index(mon.envelope.r_min_profile, h, "profile radius")
        ray_idx = [
            grid_index(off, h, "ray offset") for off in mon.envelope.ray_offsets
        ]

    if mon.xi_variant not in ("one_sided", "second_order"):
        raise OffGridError(f"unknown xi variant {mon.xi_variant!r}")

    traj = Trajectory(
        grid=grid,
        params=params,
        monitors=mon,
        ledger=ledger,
        pair=pair,
        char_traces=char_traces,
        flux_in=flux_in,
        flux_out=flux_out,
        triangle_records=triangles,
        envelope=env,
        linear=linear,
    )

    # each workspace below is written only on leapfrog's window [0, e),
    # whose end never decreases, so its entries past the window stay zero
    f_linear = np.zeros(n + 1) if linear else None  # the ledger's source
    g1 = np.zeros(n + 1)  # |w|^{p+1} / r^{p-1}; stays zero in linear runs
    g2 = np.zeros(n + 1)  # |w|^{p+1} / r^p; stays zero in linear runs
    wr = np.zeros(n + 1)
    wt = np.zeros(n + 1)
    ea = np.zeros(n + 1)  # inward energy density / pi
    eb = np.zeros(n + 1)  # outward energy density / pi
    tmp = np.zeros(n + 1)

    def diagnose(m, w_prev, w, w_next, q, f, e, w_t=None):
        """Record every per-level series for level m (time t = m*h) from
        the nodes [0, e), past which every integrand vanishes."""
        win = slice(0, e)
        c = min(e, n)  # centered differences on nodes 1 .. c-1
        np.subtract(w[2 : c + 1], w[: c - 1], out=wr[1:c])
        wr[1:c] /= 2.0 * h
        wr[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
        if e > n:
            wr[n] = (3.0 * w[n] - 4.0 * w[n - 1] + w[n - 2]) / (2.0 * h)
        if w_t is None:
            np.subtract(w_next[win], w_prev[win], out=wt[win])
            wt[win] /= 2.0 * h
            w_t = wt

        np.add(wr[win], w_t[win], out=ea[win])
        ea[win] *= ea[win]
        np.subtract(wr[win], w_t[win], out=eb[win])
        eb[win] *= eb[win]
        if not linear:
            np.multiply(g1[win], pot_coef, out=tmp[win])
            ea[win] += tmp[win]
            eb[win] += tmp[win]
        e_minus = math.pi * trapz(ea[win], h)
        e_plus = math.pi * trapz(eb[win], h)
        ledger.e_minus[m] = e_minus
        ledger.e_plus[m] = e_plus
        ledger.e_total[m] = e_minus + e_plus

        if mon.xi_variant == "one_sided":
            ledger.xi[m] = w[1] / h
        else:
            ledger.xi[m] = (4.0 * w[1] - w[2]) / (2.0 * h)

        ledger.bulk[m] = trapz(g2[win], h)
        np.multiply(f[win], f[win], out=tmp[win])  # |u|^{2p} r^2
        ledger.y2p[m] = math.sqrt(4.0 * math.pi * trapz(tmp[win], h))

        # exterior r > 1 + t part of 4*pi int |u|^{2(p-1)} r^2 dr; trapz
        # gives 0 once fewer than two nodes of the window lie past 1 + t
        j0 = m + one_idx
        ext = q[j0:] * inv_rp1[j0:e]  # |u|^{p-1}
        ext *= ext
        ext *= r_sq[j0:e]
        ledger.exterior_l2p2[m] = 4.0 * math.pi * trapz(ext, h)

        for label in mon.radii:
            if label == "t/4":
                idx = max(1, min(n, int(round(m / 4.0))))
            else:
                idx = radius_idx[label]
            em = math.pi * trapz(ea[: idx + 1], h)
            ep = math.pi * trapz(eb[: idx + 1], h)
            tot, mn, pl = ledger.radii[label]
            tot[m] = em + ep
            mn[m] = em
            pl[m] = ep

        for s, arr in flux_in.items():
            i = flux_in_idx[s] - m
            if 0 <= i <= n:
                arr[m] = 0.0 if i == 0 else g1[i]
        for tau, arr in flux_out.items():
            i = m - flux_out_idx[tau]
            if 0 <= i <= n:
                arr[m] = 0.0 if i == 0 else g1[i]
        for tau, arr in char_traces.items():
            i = m - char_idx[tau]
            if 1 <= i <= n - 1:
                arr[m] = wr[i] - w_t[i]

        for rec in triangles:
            if not (rec.m_lo <= m <= rec.m_hi):
                continue
            wt_time = 0.5 if m in (rec.m_lo, rec.m_hi) else 1.0
            # node on the slanted edge, which is also the slice's width
            edge = rec.m_hi - m if rec.kind == "inward" else m - rec.m_lo
            # radial trapezoid times the time trapezoid weight (one h)
            rec.bulk += wt_time * h * trapz(g2[: edge + 1], h)
            rec.flux += wt_time * h * (0.0 if edge == 0 else g1[edge])
            if m == (rec.m_lo if rec.kind == "inward" else rec.m_hi):
                i0 = grid_index(rec.r0, h, "triangle r0")
                dens = ea if rec.kind == "inward" else eb
                rec.energy = math.pi * trapz(dens[: i0 + 1], h)

        if env is not None:
            lo = m + one_idx
            hi = n - m  # causal wedge: boundary influence travels inward at speed 1
            if lo <= hi:
                ratio = np.abs(w[lo : hi + 1]) / (3.0 * env_floor[lo : hi + 1])
                k = int(np.argmax(ratio))
                env.max_ratio[m] = ratio[k]
                if ratio[k] > env.peak_ratio:
                    env.peak_ratio = float(ratio[k])
                    env.peak_r = r[lo + k]
                    env.peak_t = m * h
                if ratio[k] >= 1.0 and math.isnan(env.first_violation_t):
                    env.first_violation_t = m * h
                plo = max(lo, prof_idx)
                if plo <= hi:
                    prof = np.abs(w[plo : hi + 1]) / env_floor[plo : hi + 1]
                    env.min_profile[m] = prof.min()
                for kray, doff in enumerate(ray_idx):
                    j = lo + doff
                    if j <= hi:
                        env.ray_ratio[kray, m] = abs(w[j]) / env_floor[j]

        if m in snap_levels:
            traj.snapshots.append(
                Snapshot(
                    t=snap_levels[m],
                    w_prev=w_prev.copy(),
                    w_curr=w.copy(),
                    w_next=w_next.copy(),
                    h=h,
                )
            )

    def bin_step(m, w_lo, w_hi, e):
        """Accumulate the characteristic bins for the step m -> m+1 using
        the midpoint-in-time field; bin k collects mass near r+t=(k+1/2)h."""
        np.add(w_lo[:e], w_hi[:e], out=tmp[:e])
        tmp[:e] *= 0.5
        g = abs_power(tmp[:e], p + 1.0)
        g *= inv_rp[:e]
        g *= bin_wts[:e]
        ledger.s_bulk[m : m + e] += g

    for m, w_prev, w, w_next, e, q, f in leapfrog(pair, params, grid, linear):
        if linear:
            f = f_linear
            q = _source(w, e, p, inv_rp1, f)
        else:
            np.multiply(f[:e], w[:e], out=g1[:e])
            np.multiply(g1[:e], inv_r[:e], out=g2[:e])
        diagnose(m, w_prev, w, w_next, q, f, e, w_t=pair.w1 if m == 0 else None)
        if m < steps and not linear:
            bin_step(m, w, w_next, e)

    return traj


def _diagonals(a, col, sign, shape):
    """Read-only view v[jt, j, y] = a[j, col + sign*(jt - j) + y].

    Each v[jt] is a shifted diagonal band of a: one step down a row moves
    one column against sign.  The caller keeps every index of shape
    inside a.
    """
    s0, s1 = a.strides
    return np.lib.stride_tricks.as_strided(
        a[0, col:], shape=shape, strides=(sign * s1, s0 - sign * s1, s1),
        writeable=False,
    )


def duhamel_solve(pair, params, grid, t_target, tol=1e-10, max_sweeps=PICARD_MAX_SWEEPS):
    """Solve the integral (Duhamel) form of the equation by Picard
    iteration and return the field at t_target.

    Every node value is the odd-extension d'Alembert average of the data
    plus the integral of the source over the full backward light triangle,
    discretized with composite trapezoid quadrature in both directions
    (computed with per-level prefix sums).  The quadrature shares nothing
    with the leapfrog's diamond-midpoint rule beyond the grid itself.

    A sweep evaluates the source once per time level, then sums each
    target level's light triangle over all earlier source levels at once:
    the prefix-sum and source values it needs are shifted diagonals of the
    per-level tables, read through strided views, and the rows are added
    in source-level order, so every node sees the same operations in the
    same order as a level-by-level loop.

    Values are exact (to quadrature order) wherever the backward triangle
    stays inside the grid: data are zero-extended beyond r_max, so for
    data supported in r <= r_max - t_target the whole level is clean.

    Raises OffGridError for a negative or off-grid t_target, ConfigError
    for max_sweeps < 1, and NoContractionError if the sweep cap is hit
    before the sup-norm update falls below tol.
    """
    if max_sweeps < 1:
        raise ConfigError(f"max_sweeps={max_sweeps} must be at least 1")
    if t_target < 0:
        raise OffGridError(f"t_target={t_target} must not be negative")
    h = grid.h
    n = grid.n
    p = params.p
    m = grid_index(t_target, h, "t_target")
    if m < 1:
        return pair.w0.copy()
    if m > grid.steps:
        raise OffGridError(f"t_target={t_target} exceeds t_max={grid.t_max}")

    ny = n + m  # iterate lives on y = 0..ny
    # data on extended indices y = -m .. ny + m (odd through 0, zero past n)
    off = m
    w0e = np.zeros(ny + 2 * m + 1)
    w1e = np.zeros_like(w0e)
    w0e[off : off + n + 1] = pair.w0
    w1e[off : off + n + 1] = pair.w1
    w0e[:off] = -pair.w0[m:0:-1]
    w1e[:off] = -pair.w1[m:0:-1]

    # inclusive prefix sums with a leading zero: P[k+1] = sum to index k
    p1 = np.zeros(w1e.size + 1)
    np.cumsum(w1e, out=p1[1:])

    y = np.arange(ny + 1)
    lin = np.empty((m + 1, ny + 1))
    for j in range(m + 1):
        lo = y - j + off
        hi = y + j + off
        lin[j] = 0.5 * (w0e[lo] + w0e[hi])
        if j > 0:
            lin[j] += 0.5 * h * (
                p1[hi + 1] - p1[lo] - 0.5 * (w1e[lo] + w1e[hi])
            )

    r_pow = np.zeros(ny + 1)
    r_pow[1:] = 1.0 / abs_power(h * y[1:], p - 1.0)

    u = lin.copy()
    new = np.empty_like(lin)
    ge = np.zeros((m + 1, ny + 2 * m + 1))
    pg = np.zeros((m + 1, ny + 2 * m + 2))
    # source level j reaches target level jt over [y - d, y + d], d = jt - j
    band = (m + 1, m, ny + 1)
    pg_hi = _diagonals(pg, off + 1, 1, band)  # pg[j, y + d + off + 1]
    pg_lo = _diagonals(pg, off, -1, band)  # pg[j, y - d + off]
    ge_hi = _diagonals(ge, off, 1, band)  # ge[j, y + d + off]
    ge_lo = _diagonals(ge, off, -1, band)  # ge[j, y - d + off]
    work = np.empty_like(lin)
    half_sum = np.empty((m, ny + 1))
    acc = np.empty(ny + 1)
    prev_diff = math.inf
    grew = 0
    for sweep in range(max_sweeps):
        # overflow in a diverging iterate is an expected intermediate state;
        # the guards below turn it into NoContractionError
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m + 1):
                g = ge[j, off : off + ny + 1]
                np.multiply(odd_power(u[j], p), r_pow, out=g)
                np.negative(g[m:0:-1], out=ge[j, :off])
                np.cumsum(ge[j], out=pg[j, 1:])
            np.copyto(new, lin)
            for jt in range(1, m + 1):
                # inner[j] = h*(pg_hi - pg_lo - 0.5*(ge_lo + ge_hi)), j < jt
                inner, gsum = work[:jt], half_sum[:jt]
                np.subtract(pg_hi[jt, :jt], pg_lo[jt, :jt], out=inner)
                np.add(ge_lo[jt, :jt], ge_hi[jt, :jt], out=gsum)
                gsum *= 0.5
                inner -= gsum
                inner *= h
                inner[0] *= 0.5
                np.add.reduce(inner, axis=0, out=acc, initial=0.0)
                acc *= 0.5 * h
                new[jt] -= acc
            np.subtract(new, u, out=work)
            diff = float(np.abs(work, out=work).max())
        u, new = new, u
        if diff <= tol:
            return u[m, : n + 1].copy()
        if not math.isfinite(diff):
            raise NoContractionError(
                f"Picard iterate diverged at sweep {sweep + 1} "
                f"(t_target={t_target}); shrink the horizon"
            )
        if diff >= prev_diff:
            grew += 1
            if grew >= 3:
                raise NoContractionError(
                    f"Picard updates grew over three consecutive sweeps "
                    f"(last {diff:.3g}, t_target={t_target}); shrink the horizon"
                )
        else:
            grew = 0
        prev_diff = diff
    raise NoContractionError(
        f"Picard iteration stalled at residual {diff:.3g} after "
        f"{max_sweeps} sweeps (t_target={t_target}); shrink the horizon"
    )
