"""Self-tests of the benchmark: span arithmetic, metric names, seeds and
the correctness checks.

    python3 -m pytest perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# observations of passing seed-0 runs
FLAGSHIP_OK = {
    "rc": 0,
    "peak_ratio": 0.3382,
    "ext_r_squared": 0.9975,
    "ext_slope": 64.56,
    "lp_exponent": -0.1055,
    "defect_pairs": [[8.0, 16.0], [16.0, 32.0], [32.0, 64.0]],
    "defects": [2.062, 1.918, 1.743],
}
GAUSSIAN_OK = {
    "rc": 0,
    "checks": [
        ["conservation", True],
        ["additivity", True],
        ["monotonicity", True],
        ["pointwise", True],
        ["triangle", True],
    ],
    "e0": workloads.GAUSSIAN_E0_SEED0,
}
REFINEMENT_OK = {"diffs": [1.2e-5, 3.0e-6, 7.5e-7]}


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.5, 1),
        _span("b", 5.0, 6.0, 0),
        _span("d", 11.0, 12.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.0])
    assert spans.total_seconds(tree, ["b"]) == pytest.approx(4.0)
    # nested members of a group count once
    assert spans.total_seconds(tree, ["b", "c"]) == pytest.approx(4.0)
    assert spans.total_seconds(tree, ["a", "d"]) == pytest.approx(11.0)


def test_layer_metrics_on_a_synthetic_trace():
    tree = [
        _span("appendix.find_envelope_threshold", 0.0, 2.0, -1),
        _span("solver.evolve", 0.1, 0.9, 0, {"node_steps": 100}),
        _span("solver.evolve", 1.0, 1.9, 0, {"node_steps": 100}),
        _span("solver.evolve", 2.0, 6.0, -1, {"node_steps": 1000}),
        _span("numerics.abs_power", 2.5, 3.5, 3),
        _span("solver.duhamel_solve", 6.0, 8.0, -1, {"levels": 3}),
    ]
    tree += [_span("numerics.odd_power", 6.0 + k / 10, 6.05 + k / 10, 5) for k in range(6)]
    out = spans.layer_metrics(tree, wall_s=10.0)
    assert out["solver.evolve.calls"] == 3
    assert out["solver.evolve.s"] == pytest.approx(5.7)
    assert out["solver.evolve.self_s"] == pytest.approx(4.7)
    assert out["solver.evolve.node_steps"] == 1200
    assert out["solver.evolve.node_steps_per_s"] == pytest.approx(1200 / 5.7)
    assert out["appendix.find_envelope_threshold.probes"] == 2
    assert out["solver.duhamel_solve.sweeps"] == 2
    assert out["numerics.odd_power.calls"] == 6
    assert out["trace.coverage"] == pytest.approx(0.8)


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    layers = {m["name"]: m for m in doc["per_layer"]}
    assert list(e2e) == list(run.E2E_METRICS)
    assert list(layers) == list(spans.LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in {**run.E2E_METRICS, **spans.LAYER_METRICS}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert (e2e.get(name) or layers[name])["unit"] == unit
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_seed_zero_is_canonical_and_seeds_keep_the_grid():
    canonical = workloads.gaussian_inputs(0)
    assert canonical["data"] == {"p": 3.5, "amplitude": 0.5, "center": 2.0, "width": 0.5}
    assert workloads.refinement_inputs(0)["amplitude"] == 0.5
    support = 2.0 + workloads.SUPPORT_WIDTHS * 0.5
    for seed in range(1, 40):
        g = workloads.gaussian_inputs(seed)
        assert g == workloads.gaussian_inputs(seed)
        d = g["data"]
        assert d["center"] + workloads.SUPPORT_WIDTHS * d["width"] == pytest.approx(
            support, abs=1e-12
        )
        assert 0.45 <= d["amplitude"] <= 0.55
        assert 0.46 <= workloads.refinement_inputs(seed)["amplitude"] <= 0.54
        assert workloads.flagship_inputs(seed) == workloads.flagship_inputs(0)


def test_energy_oracle_matches_the_seed_run():
    ref = workloads.continuum_energy(**workloads.gaussian_inputs(0)["data"])
    assert abs(ref - workloads.GAUSSIAN_E0_SEED0) < 1e-3 * ref


def _doctored(good, **changes):
    return {**good, **changes}


@pytest.mark.parametrize(
    "obs",
    [
        _doctored(FLAGSHIP_OK, rc=3),
        _doctored(FLAGSHIP_OK, peak_ratio=1.2),
        _doctored(FLAGSHIP_OK, ext_r_squared=0.95),
        _doctored(FLAGSHIP_OK, ext_r_squared=None),
        _doctored(FLAGSHIP_OK, ext_slope=-1.0),
        _doctored(FLAGSHIP_OK, lp_exponent=0.4),
        _doctored(FLAGSHIP_OK, lp_exponent=None),
        _doctored(FLAGSHIP_OK, defects=[2.0, 2.1, 1.7]),
        _doctored(FLAGSHIP_OK, defect_pairs=[[8.0, 16.0], [16.0, 32.0]], defects=[2.0, 1.9]),
    ],
)
def test_flagship_check_rejects_doctored_reports(obs):
    inputs = workloads.flagship_inputs(0)
    assert workloads.check_flagship(inputs, FLAGSHIP_OK) == []
    assert workloads.check_flagship(inputs, obs)


@pytest.mark.parametrize(
    "seed, obs",
    [
        (0, _doctored(GAUSSIAN_OK, rc=1)),
        (0, _doctored(GAUSSIAN_OK, checks=GAUSSIAN_OK["checks"][:4])),
        (0, _doctored(GAUSSIAN_OK, checks=[["conservation", False]] + GAUSSIAN_OK["checks"][1:])),
        (0, _doctored(GAUSSIAN_OK, e0=workloads.GAUSSIAN_E0_SEED0 * (1 + 1e-9))),
        (0, _doctored(GAUSSIAN_OK, e0=None)),
        (7, _doctored(GAUSSIAN_OK, e0=1.02 * workloads.GAUSSIAN_E0_SEED0)),
    ],
)
def test_gaussian_check_rejects_doctored_summaries(seed, obs):
    assert workloads.check_gaussian(workloads.gaussian_inputs(0), GAUSSIAN_OK) == []
    assert workloads.check_gaussian(workloads.gaussian_inputs(seed), obs)


@pytest.mark.parametrize(
    "diffs",
    [
        [1.2e-5, 3.0e-6, 1.06e-6],  # second order 1.5
        [1.2e-5, 4.24e-6, 1.06e-6],  # first order 1.5
        [1.2e-5, 3.0e-6],
        [1.2e-5, math.nan, 1e-7],
        [0.0, 0.0, 0.0],
    ],
)
def test_refinement_check_rejects_low_orders(diffs):
    inputs = workloads.refinement_inputs(0)
    assert workloads.check_refinement(inputs, REFINEMENT_OK) == []
    assert workloads.check_refinement(inputs, {"diffs": diffs})


def test_recorder_wraps_nlw_calls_in_every_module():
    """Trace a small evolve and Duhamel solve in a fresh interpreter."""
    script = """
import json
import nlw
from nlw import cli, model, solver
import spans
rec = spans.Recorder()
rec.install(spans.LAYERS)
assert cli.evolve is solver.evolve is nlw.appendix.evolve is nlw.evolve
assert hasattr(solver.evolve, "__wrapped__")
assert hasattr(solver.abs_power, "__wrapped__")
assert nlw.diagnostics.abs_power is nlw.numerics.abs_power  # traced in solver only
assert not hasattr(nlw.numerics.abs_power, "__wrapped__")
params = model.make_params(4.0, 0.25)
family = model.GaussianBump(0.5, 2.0, 0.5)
grid = solver.GridSpec.padded(1 / 32, 1.0, family.support_radius())
pair = family.sample(grid)
solver.evolve(pair, params, grid)
solver.duhamel_solve(pair, params, grid, 1.0)
print(json.dumps([grid.n, spans.layer_metrics(rec.spans, 1.0)]))
"""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PATH": ""}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    n, out = json.loads(proc.stdout.splitlines()[-1])
    assert out["solver.evolve.calls"] == 1
    assert out["solver.evolve.node_steps"] == (n + 1) * 32
    assert out["solver.duhamel_solve.calls"] == 1
    sweeps = out["solver.duhamel_solve.sweeps"]
    assert sweeps >= 2
    assert out["numerics.odd_power.calls"] >= 33 * sweeps
    assert out["model.sample.s"] > 0
    assert set(out) | {"proc.import_s", "proc.cpu_s", "proc.offcpu_s", "trace.wall_s",
                       "trace.overhead_s"} == set(spans.LAYER_METRICS)


def test_exits_nonzero_without_nlw_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaussian_verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
