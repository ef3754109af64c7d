"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into nlw's public functions by replacing
module attributes from outside the package: nothing inside ``src/nlw``
knows it is being traced.  Each span is ``[name, start, end, parent,
attrs]`` with ``parent`` the index of the enclosing span (-1 at top
level), so the spans of one process form a forest in call order.

``layer_metrics`` turns a span list into the per-layer metrics that
``BENCHMARK.json`` lists under ``per_layer``.
"""

import functools
import importlib
import inspect
import os
import sys
from dataclasses import dataclass
from time import perf_counter


def _node_steps(a):
    grid = a["grid"]
    return {"node_steps": (grid.n + 1) * grid.steps}


def _picard_levels(a):
    # duhamel_solve evaluates the source once per time level 0..m per sweep
    return {"levels": int(round(a["t_target"] / a["grid"].h)) + 1}


def _defect_node_steps(a):
    grid = a["traj"].grid
    return {"node_steps": (grid.n + 1) * int(round((a["t2"] - a["t1"]) / grid.h))}


def _file_bytes(a):
    path = os.fspath(a["path"])
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``attr`` may be dotted (``Class.method``); such an attribute is
    replaced on its class only.  A plain function is replaced in every
    loaded ``nlw`` module that holds it, unless ``only`` names the
    modules whose calls are to be traced.  ``measure`` maps the bound
    call arguments to span attributes; it runs after the call returns
    or raises.
    """

    span: str
    module: str
    attr: str
    only: tuple = ()
    measure: object = None


LAYERS = (
    Layer("solver.evolve", "nlw.solver", "evolve", measure=_node_steps),
    Layer("solver.duhamel_solve", "nlw.solver", "duhamel_solve", measure=_picard_levels),
    Layer("numerics.abs_power", "nlw.numerics", "abs_power", only=("nlw.solver",)),
    Layer("numerics.cumtrapz", "nlw.numerics", "cumtrapz", only=("nlw.solver",)),
    Layer("numerics.odd_power", "nlw.numerics", "odd_power", only=("nlw.solver",)),
    Layer("appendix.find_envelope_threshold", "nlw.appendix", "find_envelope_threshold"),
    Layer("appendix.full_slab", "nlw.appendix", "full_slab"),
    Layer("appendix.source_triangle_check", "nlw.appendix", "source_triangle_check"),
    Layer("scattering.free_wave_defect", "nlw.scattering", "free_wave_defect",
          measure=_defect_node_steps),
    Layer("scattering.lp_l2p_tail", "nlw.scattering", "lp_l2p_tail"),
    Layer("scattering.exterior_growth_fit", "nlw.scattering", "exterior_growth_fit"),
    Layer("scattering.fit_power_law", "nlw.scattering", "fit_power_law"),
    Layer("model.k_functional", "nlw.model", "k_functional"),
    Layer("model.sample", "nlw.model", "InitialData.sample"),
    Layer("cli.write_ledger_csv", "nlw.cli", "write_ledger_csv", measure=_file_bytes),
    Layer("cli.write_snapshots_npz", "nlw.cli", "write_snapshots_npz", measure=_file_bytes),
    Layer("cli.write_json", "nlw.cli", "write_json"),
    Layer("cli.run_checks", "nlw.cli", "run_checks"),
    Layer("svgplot.line_plot", "nlw.svgplot", "line_plot", measure=_file_bytes),
    Layer("diagnostics.pointwise_bounds", "nlw.diagnostics", "pointwise_bounds"),
    Layer("diagnostics.triangle_residual", "nlw.diagnostics", "triangle_residual"),
)

# the calls that end set-up: the first of either starts the stepping
STEPPING = ("solver.evolve", "solver.duhamel_solve")

FITS = ("scattering.lp_l2p_tail", "scattering.exterior_growth_fit", "scattering.fit_power_law")

# per-layer metric -> unit; the names and order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "solver.evolve.s": "s",
    "solver.evolve.self_s": "s",
    "solver.evolve.calls": "count",
    "solver.evolve.node_steps": "count",
    "solver.evolve.node_steps_per_s": "1/s",
    "numerics.abs_power.s": "s",
    "numerics.abs_power.calls": "count",
    "numerics.cumtrapz.s": "s",
    "numerics.cumtrapz.calls": "count",
    "numerics.odd_power.s": "s",
    "numerics.odd_power.calls": "count",
    "solver.duhamel_solve.s": "s",
    "solver.duhamel_solve.calls": "count",
    "solver.duhamel_solve.sweeps": "count",
    "appendix.find_envelope_threshold.s": "s",
    "appendix.find_envelope_threshold.probes": "count",
    "scattering.free_wave_defect.s": "s",
    "scattering.free_wave_defect.node_steps": "count",
    "scattering.fits.s": "s",
    "appendix.full_slab.s": "s",
    "appendix.source_triangle_check.s": "s",
    "model.k_functional.s": "s",
    "cli.write_ledger_csv.s": "s",
    "cli.write_ledger_csv.bytes": "B",
    "cli.write_snapshots_npz.s": "s",
    "cli.write_snapshots_npz.bytes": "B",
    "cli.write_json.s": "s",
    "svgplot.line_plot.s": "s",
    "svgplot.line_plot.calls": "count",
    "svgplot.line_plot.bytes": "B",
    "cli.run_checks.s": "s",
    "diagnostics.pointwise_bounds.s": "s",
    "diagnostics.triangle_residual.s": "s",
    "model.sample.s": "s",
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "proc.offcpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "frac",
}


class Recorder:
    """Collects spans in memory; ``install`` puts its wrappers in place."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if measure is not None:
                    span[4] = measure(signature.bind(*args, **kwargs).arguments)

        return traced

    def install(self, layers):
        """Replace each layer's attribute by a recording wrapper.

        Import the modules to be traced first: a function is replaced only
        where it is already bound.
        """
        for layer in layers:
            holder = importlib.import_module(layer.module)
            *owner, attr = layer.attr.split(".")
            for part in owner:
                holder = getattr(holder, part)
            original = getattr(holder, attr)
            wrapped = self.wrap(layer.span, original, layer.measure)
            if owner:
                setattr(holder, attr, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name != "nlw" and not name.startswith("nlw."):
                    continue
                if layer.only and name not in layer.only:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children are disjoint sub-intervals of
    their parent and their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def _has_ancestor(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def total_seconds(spans, names):
    """Time inside spans named in ``names``, counting nested ones once."""
    names = set(names)
    return sum(
        end - start
        for i, (name, start, end, _, _) in enumerate(spans)
        if name in names and not _has_ancestor(spans, i, names)
    )


def _attr_sum(spans, name, key):
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def first_start(spans, names):
    """Start of the earliest span named in ``names``, or None."""
    starts = [s[1] for s in spans if s[0] in names]
    return min(starts) if starts else None


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced run of ``wall_s`` seconds.

    Returns every ``LAYER_METRICS`` name that spans alone determine; the
    ``proc.*`` and ``trace.*`` metrics other than ``trace.coverage`` come
    from the process measurements instead.
    """
    out = {}
    for layer in LAYERS:
        out[layer.span + ".s"] = total_seconds(spans, (layer.span,))
        out[layer.span + ".calls"] = sum(1 for s in spans if s[0] == layer.span)
    selfs = self_times(spans)
    out["solver.evolve.self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[0] == "solver.evolve"
    )
    node_steps = _attr_sum(spans, "solver.evolve", "node_steps")
    out["solver.evolve.node_steps"] = node_steps
    evolve_s = out["solver.evolve.s"]
    out["solver.evolve.node_steps_per_s"] = node_steps / evolve_s if evolve_s else 0.0
    sweeps = 0
    for i, span in enumerate(spans):
        if span[0] == "solver.duhamel_solve":
            calls = sum(1 for s in spans if s[3] == i and s[0] == "numerics.odd_power")
            sweeps += calls // span[4]["levels"]
    out["solver.duhamel_solve.sweeps"] = sweeps
    out["appendix.find_envelope_threshold.probes"] = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "solver.evolve"
        and _has_ancestor(spans, i, {"appendix.find_envelope_threshold"})
    )
    out["scattering.free_wave_defect.node_steps"] = _attr_sum(
        spans, "scattering.free_wave_defect", "node_steps"
    )
    out["scattering.fits.s"] = total_seconds(spans, FITS)
    for name in ("cli.write_ledger_csv", "cli.write_snapshots_npz", "svgplot.line_plot"):
        out[name + ".bytes"] = _attr_sum(spans, name, "bytes")
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
    return {k: v for k, v in out.items() if k in LAYER_METRICS}
