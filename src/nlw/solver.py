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
trapezoid quadrature over the full backward light triangle of every node
and marched level by level with an exact recurrence of the triangle sums,
O(n m) per sweep to level m.  The system is strictly lower triangular in
time, and a Gauss-Seidel sweep (each level's source taken from its new
row) solves it by forward substitution: a second sweep confirms it with
an update of exactly 0, so every solve takes two sweeps.  Its source
quadrature is genuinely different from the leapfrog's, which makes the
pair usable for cross-verification at second order.

leapfrog() generates the levels of the scheme, each with its power and
source (linear runs too, whose step leaves the source out), and
free_levels() gives its linear levels in closed form, with no step.
evolve() records, while it steps, the diagnostics its Monitors ask for
(channel energies, origin trace, flux lines, triangle probes,
characteristic-line bins), because storing the full space-time field is
not affordable for production grids.
Data with a far field, r^beta Phi(t/r) on r > 1 + t, step only their
light-cone window r <= 1 + t + PAD (clean_edge); Phi fills and closes it.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BlowupError,
    ConfigError,
    InitialDataError,
    NoContractionError,
    OffGridError,
)
from .diagnostics import EnergyLedger
from .model import nonlinearity
from .numerics import (
    abs_power, differences, grid_index, is_number, node_at_or_past, odd_power, trapz_dot,
)

BLOWUP_FACTOR = 1e3
PAD = 8.0  # how far past r = 1 + t a far-field run steps its window
PICARD_TOL = 1e-10
PICARD_MAX_SWEEPS = 50


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid [0, r_max] with time step equal to h."""

    h: float
    r_max: float
    t_max: float
    boundary: str = "outgoing"  # "outgoing" or "pad"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise OffGridError(f"h={self.h} must be positive and finite")
        if self.boundary not in ("outgoing", "pad"):
            raise OffGridError(f"unknown boundary treatment {self.boundary!r}")
        # r_max, t_max and the exterior start r = 1 + t must be node-aligned
        grid_index(self.r_max, self.h, "r_max")
        grid_index(self.t_max, self.h, "t_max")
        grid_index(1.0, self.h, "exterior base radius r")

    @cached_property
    def n(self):
        """Index of the outermost node."""
        return grid_index(self.r_max, self.h, "r_max")

    @cached_property
    def steps(self):
        """Number of time steps to reach t_max."""
        return grid_index(self.t_max, self.h, "t_max")

    @property
    def r(self):
        return self.h * np.arange(self.n + 1)

    @classmethod
    def padded(cls, h, t_max, support_radius):
        """Grid large enough that data inside support_radius never touches
        the outer boundary before t_max (causally padded, boundary pinned):
        r_max is the first node at or past support_radius + t_max + 1."""
        r_max = node_at_or_past(support_radius + t_max + 1.0, h, "padded r_max")
        return cls(h=h, r_max=r_max, t_max=t_max, boundary="pad")


@dataclass(frozen=True)
class CleanEdge:
    """The last node, node + slope * m, where level m (int or array) and its
    w_t are exact: +1 in a far-field window, n - m - 1 on the whole grid."""

    node: int
    slope: int

    def __call__(self, m):
        return self.node + self.slope * m


def clean_edge(grid, far_field, pad=None):
    """A run's CleanEdge: a far field's window one + pad + m (pad PAD's nodes
    by default) if it and Phi's two nodes fit through level steps + 1."""
    if far_field:
        node = grid_index(1.0, grid.h) + (grid_index(PAD, grid.h) if pad is None else pad)
        if node + grid.steps + 3 <= grid.n:
            return CleanEdge(node, 1)
    return CleanEdge(grid.n - 1, -1)


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
class Monitors:
    """What evolve() should record besides the totals, which every run
    records (EnergyLedger); it runs only the recorders asked for here.
    Reading what a run did not record raises OffGridError, and so does a
    radius label not "t/4" or R > 0; plan_run refuses, before the first
    step, any monitor that does not lie on the run.

    radii          channel energies E(t;0,R) for fixed R, plus the moving
                   label "t/4" for the ball of radius t/4
    flux_s         inward characteristic lines r + t = s to record the
                   flux integrand along
    flux_tau       outward characteristic lines r = t - tau
    char_tau       outward lines along which (w_r - w_t) is traced
    triangles      inward triangle probes (t0, r0)
    triangles_out  outward triangle probes (t0, r0), t0 >= r0
    snapshot_times three-level snapshots at these times
    bins           the characteristic bins (ledger.s_bulk) for
                   diagnostics.weighted_morawetz; they cost a second power
    energy_levels  the levels to record E, E_-, E_+ and the radii on (None: all); NaN elsewhere

    With a far field (power-law data) the totals and radii are closed past
    the clean edge (see _Recorders), plan_run refuses a flux or trace line
    past the whole grid's edge n - m - 1 and widens the window to hold the
    rest and every triangle slice.  The bins (whole grid only) are not
    closed: on such data they cover the grid's wedge only.
    """

    radii: tuple = ()
    flux_s: tuple = ()
    flux_tau: tuple = ()
    char_tau: tuple = ()
    triangles: tuple = ()
    triangles_out: tuple = ()
    snapshot_times: tuple = ()
    bins: bool = False
    energy_levels: tuple = None

    def __post_init__(self):
        for x in self.radii:
            if x != "t/4" and not (is_number(x) and 0.0 < x < math.inf):
                raise OffGridError(f"radius label {x!r} is not 't/4' or a positive radius")


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
class Trajectory:
    """Everything evolve() recorded about one run."""

    grid: GridSpec
    params: object
    monitors: Monitors
    ledger: EnergyLedger
    pair: object = None  # RadialPair the run started from
    snapshots: list = field(default_factory=list)
    char_traces: dict = field(default_factory=dict)
    flux_in: dict = field(default_factory=dict)
    flux_out: dict = field(default_factory=dict)
    triangle_records: list = field(default_factory=list)
    linear: bool = False
    far_tails: dict = field(default_factory=dict)  # per-level closures of the totals
    edge: CleanEdge = None  # the run's clean edge (plan_run)

    def snapshot_at(self, t):
        for snap in self.snapshots:
            if abs(snap.t - t) <= 1e-9 * max(1.0, abs(t)):
                return snap
        raise KeyError(f"no snapshot recorded at t={t}")


def bootstrap(pair, params, grid, linear=False):
    """The levels w(-h) and w(h) around t = 0, as the two rows of one
    array, from a Taylor expansion:

        w(+-h) = w0 +- h w1 + (h^2/2) (D_h w0 - F(w0)),

    with D_h the standard three-point second difference and one F(w0) for
    both.  Second order by itself, which keeps the scheme's global order
    at two; exact for linear data at rest (w1 = 0), where it reduces to
    the half-sum of neighbors.
    """
    h = grid.h
    w0, w1 = pair.w0, pair.w1
    f0 = np.zeros_like(w0) if linear else nonlinearity(w0, grid.r, params.p)
    levels = np.zeros((2, w0.size))  # the ends pinned, unless outgoing below
    levels[:, 1:-1] = 0.5 * (w0[2:] + w0[:-2]) + np.multiply.outer([-h, h], w1[1:-1])
    levels[:, 1:-1] -= 0.5 * h * h * f0[1:-1]
    if grid.boundary == "outgoing":  # first-order transport, exact for right-movers at unit CFL
        levels[:, -1] = w0[-1], w0[-2]
    return levels


def _inverse_power(r, s):
    """1 / r^s on the nodes, with the origin slot 0 (integrands vanish there)."""
    out = np.zeros(r.size)
    out[1:] = 1.0 / abs_power(r[1:], s)
    return out


def _source(w, e, p, inv_rp1, q, out):
    """Fill q[:e] with the power |w|^{p-1} of the nodes [0, e) and out[:e]
    with the source (q w) / r^{p-1}: the step's own F, whose rounding (times
    1 / r^{p-1}, where model.nonlinearity divides) the snapshot digests pin."""
    abs_power(w[:e], p - 1.0, out=q[:e])
    np.multiply(q[:e], w[:e], out=out[:e])
    out[:e] *= inv_rp1[:e]


def leapfrog(pair, params, grid, linear=False, edge=None):
    """Generate the leapfrog levels m = 0 .. steps of a run.

    Yields (m, w_prev, w, w_next, e, q, f): the levels m-1, m and m+1
    (level 0 is the data between the two Taylor bootstrap levels), the end
    e of the nodes [0, e) that carry the work of level m, and there the
    power q = |w|^{p-1} and the source f = (q w) / r^{p-1} of the level,
    linear runs included: only their step leaves the source out.  The
    arrays are workspaces that later levels overwrite: copy what must
    outlive the level.

    At unit CFL the support of the field grows by one node per level, so
    level m vanishes past node supp + m, with supp the last nonzero node
    of the data.  The step and the blow-up check run on nodes
    [0, supp + m + 2] only (the whole grid once that reaches r_max); the
    result is the same as on the whole grid.  In a far-field window (edge,
    clean_edge's by default) e = edge(m) + 2, Phi fills two nodes past
    edge(m + 1) from one table, and nodes past the window hold no level.

    Raises BlowupError if the sup norm exceeds 1e3 * (sup|w0| + 1).
    """
    h = grid.h
    n = grid.n
    p = params.p
    if pair.w0.size != n + 1:
        raise InitialDataError(f"data have {pair.w0.size} nodes, the grid {n + 1}")
    inv_rp1 = _inverse_power(grid.r, p - 1.0)
    nonzero = np.flatnonzero((pair.w0 != 0.0) | (pair.w1 != 0.0))
    supp = int(nonzero[-1]) if nonzero.size else 0
    edge, fill = edge or clean_edge(grid, pair.far_field is not None and not linear), None
    if edge.slope > 0:  # Phi on the nodes edge(m) + 1 and + 2 of each level m
        lv = np.arange(grid.steps + 2)[:, None]
        fill, supp = pair.far_field.field(h * (edge(lv) + [1, 2]), h * lv), edge.node - 1
    blowup_at = BLOWUP_FACTOR * (np.abs(pair.w0).max() + 1.0)
    # q and f are written only on nodes [0, e) for a window end e that
    # never decreases, so their entries past the window stay zero
    q = np.zeros(n + 1)
    f = np.zeros(n + 1)
    work = np.empty(n + 1)  # the step's h^2 f

    w_prev, w_next = bootstrap(pair, params, grid, linear=linear)
    w = pair.w0.copy()
    for m in range(grid.steps + 1):
        # level m + 1 reaches node supp + m + 1; one more node is zero
        e = min(n + 1, supp + m + 3)
        _source(w, e, p, inv_rp1, q, f)
        if m > 0:
            top = min(e + 1, n + 1)  # updates nodes 1 .. top-2
            nxt = w_next[1 : top - 1]
            np.add(w[: top - 2], w[2:top], out=nxt)
            nxt -= w_prev[1 : top - 1]
            if not linear:
                nxt -= np.multiply(f[1 : top - 1], h * h, out=work[1 : top - 1])
            w_next[0] = 0.0
            w_next[-1] = 0.0 if grid.boundary == "pad" else w[-2]
            if fill is not None:
                w_next[e : e + 2] = fill[m + 1]
            window = w_next[:e]
            sup = float(np.maximum(window.max(), -window.min()))  # NaN stays NaN
            if not math.isfinite(sup) or sup > blowup_at:
                raise BlowupError(f"|w| reached {sup:.3g} at t={(m + 1) * h:.6g}")
        yield m, w_prev, w, w_next, e, q[:e], f
        # level m - 1 is no longer needed; its buffer takes level m + 2
        w_prev, w, w_next = w, w_next, w_prev


def _odd_extension(w0, w1, c, size):
    """(2, size) rows of w0, w1 with node 0 at column c, odd through it
    (column c - j holds -node j) and zero past their last node."""
    ext = np.zeros((2, size))
    ext[:, c : c + len(w0)] = w0, w1
    k = min(len(w0) - 1, c)  # nodes -k .. -1 fit before node 0
    ext[:, c - k : c] = -ext[:, c + k : c : -1]
    return ext


def free_levels(w0, w1, h, m):
    """The levels m - 1, m and m + 1 (m >= 1) of leapfrog(linear=True) from
    data (w0, w1) on nodes [0, n], as rows, without stepping: with w0e, w1e
    the odd extensions, zero past node n, level l is the lattice d'Alembert
    form (w0e[j + l] + w0e[j - l]) / 2 + h sum w1e[k], k = j - l + 1,
    j - l + 3, ..., j + l - 1, its sums differences of per-parity prefix sums.
    """
    n, c = w0.size - 1, m + 2  # c: the position of node 0 in ext
    ext = _odd_extension(w0, w1, c, n + 2 * c)
    for par in (0, 1):
        ext[1, par::2] = np.cumsum(ext[1, par::2])
    out = np.array([0.5 * (ext[0, c + l : c + l + n + 1] + ext[0, c - l : c - l + n + 1])
                    + h * (ext[1, c + l - 1 : c + l + n] - ext[1, c - l - 1 : c - l + n])
                    for l in (m - 1, m, m + 1)])
    out[:, 0] = 0.0  # leapfrog pins the origin
    return out


class _Recorders:
    """The per-monitor recorders of one evolve() run.

    Each method records one monitor kind from a level of leapfrog(),
    (m, w_prev, w, w_next, e, q, f); `active` holds those the run's
    Monitors ask for, in call order, as plain functions (bound methods
    would tie the workspace into a reference cycle).  They share one
    workspace, allocated once per run: chan = 2h (w_r + w_t),
    2h (w_r - w_t), written only on nodes [0, e) of leapfrog's window,
    whose end never decreases, so its entries past the window stay zero;
    tmp is scratch.  energies() is the one channel-energy rule: the
    totals, the radii and the triangle corners all take E_- and E_+ on
    a node prefix from it, as trapezoid dot products.  Off energy_at the
    totals skip it and chan is not formed, unless a triangle or trace reads it.

    A run of data with a far field stops at its clean edge (traj.edge):
    the totals add FarField.tail past its radius (traj.far_tails), a
    radius past it the exact integral up to its radius, a snapshot Phi
    past each window.  Nodes and levels, energy_at too, come from plan_run.
    """

    def __init__(self, traj, plan):
        grid, params, mon, led = traj.grid, traj.params, traj.monitors, traj.ledger
        h, n, steps, r, p = grid.h, grid.n, grid.steps, grid.r, params.p
        self.traj, self.led, self.linear, self.edge = traj, led, traj.linear, traj.edge
        self.h, self.n, self.steps, self.r, self.p = h, n, steps, r, p
        self.one = grid_index(1.0, h, "exterior base radius r")
        self.inv_r = _inverse_power(r, 1.0)
        self.dt0 = (2.0 * h) * traj.pair.w1  # 2h w_t at level 0
        self.chan, self.tmp = np.zeros((2, n + 1)), np.zeros(n + 1)
        self.active = [_Recorders.channels, _Recorders.totals]
        self.far, self.tails = traj.pair.far_field, None
        if self.far is not None:
            lv = np.arange(steps + 1)
            traj.far_tails = {k: self.far.tail(k, h * traj.edge(lv), h * lv)
                              for k in self.far.kinds}
            self.tails = list(zip(*(a.tolist() for a in traj.far_tails.values())))
        self.r_2mp = r * _inverse_power(r, p - 1.0)  # r^{2-p}, 0 at the origin
        self.radius_idx, self.energy_at, lines, probes, self.snap_levels = plan
        if mon.radii:
            self.active.append(_Recorders.radii)
        # (series, label node k, +1 inward / -1 outward, trace?, lo, hi)
        series = {"flux_s": traj.flux_in, "flux_tau": traj.flux_out,
                  "char_tau": traj.char_traces}
        self.lines = []
        for name, x, k, sign, lo, hi in lines:
            series[name][x] = np.full(steps + 1, np.nan)
            self.lines.append((series[name][x], k, sign, name == "char_tau", lo, hi))
        if self.lines:
            self.active.append(_Recorders.line_samples)
        traj.triangle_records = [TriangleRecord(t0, r0, kind, m0, m1)
                                 for kind, t0, r0, m0, m1, _ in probes]
        self.corner_idx = [i0 for *_, i0 in probes]  # node of each corner radius r0
        if probes:
            self.active.append(_Recorders.triangles)
        traced = probes or any(line[3] for line in self.lines)  # they read chan off energy_at
        self.chan_at = range(steps + 1) if traced else self.energy_at
        if self.snap_levels:
            self.active.append(_Recorders.snapshots)
        if mon.bins and not traj.linear:
            # per node: trapezoid weight times the step h, over r^p, and
            # 2^-(p+1), turning |w_m + w_{m+1}|^{p+1} into the midpoint power
            self.bin_coef = np.full(n + 1, h * h)
            self.bin_coef[0] = self.bin_coef[-1] = h * (0.5 * h)
            self.bin_coef *= _inverse_power(r, p) * 0.5 ** (p + 1.0)
            self.active.append(_Recorders.bins)

    def channels(self, m, w_prev, w, w_next, e, q, f):
        """chan on [0, e) from differences: 2h w_r in tmp, 2h w_t in chan[1]."""
        if m not in self.chan_at:
            return
        tmp, ch = self.tmp, self.chan[:, :e]
        differences(w[: e + 1], out=tmp[: e + 1])
        d_t = self.dt0[:e] if m == 0 else np.subtract(w_next[:e], w_prev[:e], out=ch[1])
        np.add(tmp[:e], d_t, out=ch[0])
        np.subtract(tmp[:e], d_t, out=ch[1])

    def energies(self, w, f, end, tails=(0.0, 0.0)):
        """(E_-, E_+) of the level on the nodes [0, end), plus tails: pi times
        the trapezoid integrals of chan^2/(4h^2) plus the potential share
        (2/(p+1)) f w = (2/(p+1)) |w|^{p+1}/r^{p-1} (none if linear)."""
        h, p, ch = self.h, self.p, self.chan[:, :end]
        pot = 0.0 if self.linear else (2.0 / (p + 1.0)) * trapz_dot(f[:end], w[:end], h)
        chan_sq = 1.0 / (4.0 * h * h)  # (w_r +- w_t)^2 per chan^2
        return (math.pi * (trapz_dot(ch[0], ch[0], h) * chan_sq + pot) + tails[0],
                math.pi * (trapz_dot(ch[1], ch[1], h) * chan_sq + pot) + tails[1])

    def energies_to(self, m, w, f, e, i):
        """(E_-, E_+) on [0, r_i], closed past the clean edge."""
        if self.far is None or i <= (edge := self.edge(m)):
            return self.energies(w, f, min(e, i + 1))
        t, far = m * self.h, self.far
        tails = [float(far.tail(k, edge * self.h, t) - far.tail(k, i * self.h, t))
                 for k in ("e_minus", "e_plus")]
        return self.energies(w, f, edge + 1, tails)

    def flux(self, w, f, i):
        """|w|^{p+1} / r^{p-1} at node i, 0 at the origin and if linear."""
        return 0.0 if i == 0 or self.linear else f[i] * w[i]

    def totals(self, m, w_prev, w, w_next, e, q, f):
        """E_-, E_+, E (on energy_at only), xi, bulk, y2p and the exterior
        norm of level m, as trapezoid dot products over the window."""
        h, led, tmp = self.h, self.led, self.tmp
        end, tails = (e, (0.0,) * 5) if self.tails is None else (self.edge(m) + 1, self.tails[m])
        if m in self.energy_at:
            e_minus, e_plus = self.energies(w, f, end, tails)
            led.e_minus[m], led.e_plus[m], led.e_total[m] = e_minus, e_plus, e_minus + e_plus
            if not math.isfinite(led.e_total[m]):  # an overflow, not an unrecorded level
                raise BlowupError(f"energy E_- + E_+ = {led.e_total[m]} is not finite at level "
                                  f"{m} (t={m * h:g})")
        if not self.linear:
            u = np.multiply(w[:end], self.inv_r[:end], out=tmp[:end])
            led.bulk[m] = trapz_dot(f[:end], u, h) + tails[2]
        # w = r u is odd in r, so w(h)/h is already second order: its error
        # h^2 w_rrr(0) / 6 is half that of (4 w(h) - w(2h)) / (2h)
        led.xi[m] = w[1] / h
        led.y2p[m] = math.sqrt(4.0 * math.pi * trapz_dot(f[:end], f[:end], h) + tails[3])
        # exterior r > 1 + t part of 4*pi int |u|^{2(p-1)} r^2 dr; the
        # integral is 0 once fewer than two nodes of the window lie past 1 + t
        j0 = m + self.one
        u_p1 = np.multiply(q[j0:end], self.r_2mp[j0:end], out=tmp[j0:end])  # |u|^{p-1} r
        led.exterior_l2p2[m] = 4.0 * math.pi * trapz_dot(u_p1, u_p1, h) + tails[4]

    def radii(self, m, w_prev, w, w_next, e, q, f):
        """Channel energies on [0, R], R a monitored radius or t/4, at energy_at."""
        if m not in self.energy_at:
            return
        t4_idx = max(1, min(self.n, int(round(m / 4.0))))
        for label, (tot, mn, pl) in self.led.radii.items():
            i = t4_idx if label == "t/4" else self.radius_idx[label]
            em, ep = self.energies_to(m, w, f, e, i)
            tot[m], mn[m], pl[m] = em + ep, em, ep

    def line_samples(self, m, w_prev, w, w_next, e, q, f):
        """The flux integrand on the lines r + t = s and r = t - tau, and
        (w_r - w_t) on the lines of char_tau, at level m."""
        for arr, k, sign, trace, lo, hi in self.lines:
            i = sign * (k - m)
            if lo <= i <= hi:
                arr[m] = self.chan[1, i] / (2.0 * self.h) if trace else self.flux(w, f, i)

    def triangles(self, m, w_prev, w, w_next, e, q, f):
        """Level m's slice of each live triangle probe's bulk and edge flux,
        and the channel energy at its corner."""
        h = self.h
        live = []  # (record, slanted-edge node, corner level?, corner node)
        for rec, i0 in zip(self.traj.triangle_records, self.corner_idx):
            if rec.m_lo <= m <= rec.m_hi:
                inward = rec.kind == "inward"
                edge = rec.m_hi - m if inward else m - rec.m_lo
                live.append((rec, edge, m == (rec.m_lo if inward else rec.m_hi), i0))
        if not live:
            return
        if not self.linear:  # f w / r = |w|^{p+1}/r^p on the slices' reach
            reach = min(e, 1 + max(edge for _, edge, _, _ in live))
            f_r, u = f[:reach], np.multiply(w[:reach], self.inv_r[:reach], out=self.tmp[:reach])
        for rec, edge, corner, i0 in live:
            wt_time = 0.5 if m in (rec.m_lo, rec.m_hi) else 1.0
            # radial trapezoid times the time trapezoid weight (one h);
            # the slanted-edge node is also the slice's width
            if not self.linear:
                rec.bulk += wt_time * h * trapz_dot(f_r[: edge + 1], u[: edge + 1], h)
            rec.flux += wt_time * h * self.flux(w, f, edge)
            if corner:
                e_minus, e_plus = self.energies_to(m, w, f, e, i0)
                rec.energy = e_minus if rec.kind == "inward" else e_plus

    def snapshots(self, m, w_prev, w, w_next, e, q, f):
        if m in self.snap_levels:
            levels = [w_prev.copy(), w.copy(), w_next.copy()]
            if self.edge.slope > 0:
                for j, level in zip((m - 1, m, m + 1), levels):
                    i = self.edge(j) + 1
                    level[i:] = self.far.field(self.r[i:], abs(j) * self.h)  # even in t
            self.traj.snapshots.append(Snapshot(self.snap_levels[m], *levels, self.h))

    def bins(self, m, w_prev, w, w_next, e, q, f):
        """Add the step m -> m+1 to the characteristic bins, from the
        midpoint-in-time field; bin k collects mass near r+t=(k+1/2)h."""
        if m == self.steps:
            return
        # |x|^{p+1} as |x|^{p-1} x^2 with x = w_m + w_{m+1}: no temporary,
        # and for p = 3 .. 6 the multiplications of abs_power's own ladder
        x = np.add(w[:e], w_next[:e], out=self.tmp[:e])
        g = abs_power(x, self.p - 1.0, out=self.chan[0, :e])
        x *= x
        g *= x
        g *= self.bin_coef[:e]
        self.led.s_bulk[m : m + e] += g


def plan_run(grid, monitors, far_field=False, linear=False):
    """Check a run's request against its grid before the first step and
    resolve its monitors to nodes and levels; far_field tells whether the
    data carry an exact exterior.  evolve() calls it first, and the CLI
    before it samples any data.

    Returns what _Recorders reads, (radius_idx, energy_at, lines, probes,
    snap_levels), and the run's CleanEdge: the node of each fixed radius,
    the levels the channel energies are recorded on, (name, label, k, sign, lo, hi)
    of each flux and trace line (on node sign (k - m) at level m, sampled
    where lo <= that <= hi), (kind, t0, r0, m_lo, m_hi, corner node) of
    each triangle probe, and the time of each snapshot level.  A far
    field's window is widened to hold them.

    Raises ConfigError for a linear run of far-field data (their exterior
    solves the nonlinear equation: nothing would close the run past
    r_max), and OffGridError for a negative t_max, fewer than 3 nodes, a
    far field whose clean edge falls inside r = 1 + t (r_max <= 2 t_max +
    1 + h), and a monitor off the grid spacing or off the run: a radius
    past r_max, an energy level outside [0, steps], a flux or trace line
    that no level puts on a sampled node or, with a far field, that some
    level samples past the clean edge, a triangle that leaves the run or
    the grid, a snapshot outside [0, t_max].
    """
    h, n, steps = grid.h, grid.n, grid.steps
    if steps < 0 or n < 2:
        raise OffGridError(f"a run needs t_max >= 0 and r_max >= 2h, got t_max={grid.t_max}, "
                           f"r_max={grid.r_max}")
    if far_field and linear:
        raise ConfigError("a linear run of far-field data closes nothing past r_max")
    one, whole = grid_index(1.0, h), clean_edge(grid, False)
    if far_field and whole(steps) <= steps + one:
        raise OffGridError(f"r_max={grid.r_max} must exceed 2 t_max + 1 + h for a far field")
    radius_idx = {x: grid_index(float(x), h, f"radius {x}") for x in monitors.radii if x != "t/4"}
    for x, i in radius_idx.items():
        if i > n:
            raise OffGridError(f"radius {x} lies past r_max={grid.r_max}")
    energy_at = range(steps + 1)  # every level, unless Monitors.energy_levels names some
    if monitors.energy_levels is not None:
        energy_at = set(monitors.energy_levels)
        on_run = lambda m: isinstance(m, numbers.Integral) and 0 <= m <= steps
        if off := [m for m in energy_at if not on_run(m)]:
            raise OffGridError(f"energy level {off[0]!r} lies outside the levels [0, {steps}]")
    lines, reach = [], [grid_index(PAD, h)]  # the window's nodes past r = 1 + t
    for name, what, sign, lo, hi in (
        ("flux_s", "flux label s", 1, 0, n),
        ("flux_tau", "flux label tau", -1, 0, n),
        ("char_tau", "trace label tau", -1, 1, n - 1),
    ):
        for x in getattr(monitors, name):
            k = grid_index(x, h, f"{what}={x}")
            ends = (sign * k, sign * (k - steps))  # its nodes at levels 0 and steps
            if max(ends) < lo or min(ends) > hi:
                raise OffGridError(f"the line of {what}={x} never crosses the run "
                                   f"(r_max={grid.r_max}, t_max={grid.t_max})")
            m = steps if sign < 0 else 0  # where its node lies farthest past the clean edge
            if far_field and sign * (k - m) > whole(m):
                raise OffGridError(f"the line of {what}={x} runs past the clean edge of the "
                                   f"far field; it needs r_max >= {h * (sign * (k - m) + m + 1)}")
            reach.append(sign * (k - m) - m - one)
            lines.append((name, x, k, sign, lo, hi))
    probes = []
    for kind, pairs in (("inward", monitors.triangles), ("outward", monitors.triangles_out)):
        for t0, r0 in pairs:
            t_lo, t_hi = (t0, t0 + r0) if kind == "inward" else (t0 - r0, t0)
            m0 = grid_index(t_lo, h, "triangle start")
            m1 = grid_index(t_hi, h, "triangle end")
            i0 = grid_index(r0, h, "triangle r0")
            if m0 < 0 or m1 > steps or not 0 < i0 <= n:
                raise OffGridError(f"{kind} triangle ({t0},{r0}) leaves the run or the grid")
            probes.append((kind, t0, r0, m0, m1, i0))
            reach.append(i0 - m0 - one if kind == "inward" else 0)
    edge = clean_edge(grid, far_field and not monitors.bins, max(reach))
    snap_levels = {}
    for t_snap in monitors.snapshot_times:
        m_snap = grid_index(t_snap, h, "snapshot time")
        if not 0 <= m_snap <= steps:
            raise OffGridError(f"snapshot time {t_snap} lies outside [0, t_max={grid.t_max}]")
        snap_levels[m_snap] = t_snap
    return radius_idx, energy_at, lines, probes, snap_levels, edge


def evolve(pair, params, grid, monitors=None, linear=False):
    """Run the leapfrog scheme to t_max, recording what monitors ask for.

    Returns a Trajectory whose ledger carries the per-level series and
    whose records carry the requested probes.  One extra level beyond
    t_max is computed so that centered time derivatives exist at t_max.

    Each level of leapfrog() goes, on its light-cone window, through the
    recorders of the requested monitor kinds only (see _Recorders, whose
    energies() gives every channel energy, on a prefix of the window).
    Every level reuses leapfrog's power q = |w|^{p-1} and source
    f = (q w) / r^{p-1}: |w|^{p+1}/r^{p-1} = f w, |u|^{2p} r^2 = f^2 and
    |u|^{2(p-1)} r^2 = (q r^{2-p})^2.  Linear runs read them for y2p and
    the exterior norm only: their potential, flux and bulk terms are 0.
    The characteristic bins, which sample the
    midpoint-in-time field, take a second power, so they are recorded
    only when monitors.bins asks for them.

    plan_run refuses a bad request (ConfigError, OffGridError) before
    any step, and a BlowupError data whose level-0 integrals of F(w0) w0
    or F(w0)^2 overflow (linear runs too: y2p reads F).  Raises
    BlowupError if the sup norm exceeds 1e3 * (sup|w0| + 1).
    """
    mon = monitors or Monitors()
    *plan, edge = plan_run(grid, mon, pair.far_field is not None, linear)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        f0 = nonlinearity(pair.w0, pair.r, params.p)
        pot, sq = trapz_dot(f0, pair.w0, pair.h), trapz_dot(f0, f0, pair.h)
    if not (math.isfinite(pot) and math.isfinite(sq)):
        raise BlowupError(f"the data's source overflows: int F(w0) w0 dr = {pot}, "
                          f"int F(w0)^2 dr = {sq}")
    ledger = EnergyLedger.allocate(grid.steps, grid.h, params, mon, grid.n)
    traj = Trajectory(grid, params, mon, ledger, pair, linear=linear, edge=edge)
    recorders = _Recorders(traj, plan)
    for level in leapfrog(pair, params, grid, linear, edge):
        for record in recorders.active:
            record(recorders, *level)
    return traj


def duhamel_solve(pair, params, grid, t_target):
    """Solve the integral (Duhamel) form of the equation by Gauss-Seidel
    sweeps of its Picard map and return the field at t_target.

    Every node value is the odd-extension d'Alembert average of the data
    plus the integral of the source over the full backward light triangle,
    discretized with composite trapezoid quadrature in both directions.
    The quadrature shares nothing with the leapfrog's diamond-midpoint
    rule beyond the grid itself.

    A sweep marches the triangle integrals I up the target levels.  The
    radial trapezoid sum S(y, d) of one source level over [y - d, y + d]
    obeys S(y, d+1) = S(y-1, d) + S(y+1, d) - S(y, d-1) exactly, end
    weights included (S(y, 0) = 0), so with G the source and c_0 = 1/2,
    c_j = 1 the time trapezoid weights,

        I(j+1, y) = I(j, y-1) + I(j, y+1) - I(j-1, y)
                    + (h^2/2) c_j (G(j, y-1)/2 + G(j, y) + G(j, y+1)/2).

    I is carried on y = -1 .. n+2m+1: odd through the origin like G, and
    G is zero past the iterate's last node n+m, so the never-written top
    node is exactly 0 on all m levels.  The march is the unit-CFL
    d'Alembert stencil, which carries rounding without growth: the result
    differs from summing each triangle directly only by reordering, a few
    ulp per level.  Level j's row reads the sources of levels below j
    only, and a sweep takes each level's source from its new row (the
    Gauss-Seidel order of the Picard map), so the first sweep is forward
    substitution, the second recomputes its bits with an update of exactly
    0, and every solve with finite levels takes two sweeps.  The source is
    evaluated once per level 0..m (the top level's keeps the count at one
    per level), and the iterate is updated in place, so a solve holds two
    tables, the iterate and the linear part.

    Values are exact (to quadrature order) wherever the backward triangle
    stays inside the grid: data are zero-extended beyond r_max, so for
    data supported in r <= r_max - t_target the whole level is clean.

    Raises OffGridError for a negative or off-grid t_target, and
    NoContractionError if the iterate stops being finite or if
    PICARD_MAX_SWEEPS sweeps pass before the sup-norm update falls below
    PICARD_TOL.
    """
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
    w0e, w1e = _odd_extension(pair.w0, pair.w1, off, ny + 2 * m + 1)

    # inclusive prefix sums with a leading zero: P[k+1] = sum to index k
    p1 = np.zeros(w1e.size + 1)
    np.cumsum(w1e, out=p1[1:])

    lin = np.empty((m + 1, ny + 1))
    for j in range(m + 1):
        # nodes y - j and y + j of the extended data, for y = 0 .. ny
        lo, hi = slice(off - j, off - j + ny + 1), slice(off + j, off + j + ny + 1)
        lin[j] = 0.5 * (w0e[lo] + w0e[hi])
        if j > 0:
            lin[j] += 0.5 * h * (
                p1[off + j + 1 : off + j + ny + 2] - p1[lo] - 0.5 * (w1e[lo] + w1e[hi])
            )

    r_pow = _inverse_power(h * np.arange(ny + 1), p - 1.0)

    u = lin.copy()
    row = np.empty(ny + 1)
    work = np.empty(ny + 1)
    update = np.empty(ny + 1)  # per node, the sweep's largest |new - old|
    # G of level j and I of levels j-1, j, j+1 on y = -1 .. ny+m+1, at index y + 1
    g = np.zeros(ny + m + 3)
    i_prev, i_cur, i_next = np.zeros((3, ny + m + 3))
    stencil = np.empty(ny + m + 1)
    for sweep in range(PICARD_MAX_SWEEPS):
        # overflow in a diverging iterate is an expected intermediate state;
        # the guard below turns it into NoContractionError
        with np.errstate(over="ignore", invalid="ignore"):
            i_prev.fill(0.0)
            i_cur.fill(0.0)
            update.fill(0.0)
            for j in range(m + 1):
                np.subtract(lin[j], i_cur[1 : ny + 2], out=row)
                np.subtract(row, u[j], out=work)
                np.maximum(update, np.abs(work, out=work), out=update)
                u[j] = row
                np.multiply(odd_power(u[j], p), r_pow, out=g[1 : ny + 2])
                g[0] = -g[2]
                if j == m:
                    break
                np.add(g[:-2], g[2:], out=stencil)
                stencil *= 0.5
                stencil += g[1:-1]
                stencil *= (0.25 if j == 0 else 0.5) * h * h
                np.add(i_cur[:-2], i_cur[2:], out=i_next[1:-1])
                i_next[1:-1] -= i_prev[1:-1]
                i_next[1:-1] += stencil
                i_next[0] = -i_next[2]
                i_prev, i_cur, i_next = i_cur, i_next, i_prev
            diff = float(update.max())
        if diff <= PICARD_TOL:
            return u[m, : n + 1].copy()
        if not math.isfinite(diff):
            raise NoContractionError(
                f"Picard iterate diverged at sweep {sweep + 1} "
                f"(t_target={t_target}); shrink the horizon"
            )
    raise NoContractionError(
        f"Picard iteration stalled at residual {diff:.3g} after "
        f"{PICARD_MAX_SWEEPS} sweeps (t_target={t_target}); shrink the horizon"
    )
