"""nlw benchmark: the command that runs a workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's command again and again, each time in a fresh child
process, one at a time (a closed loop with one client), for about S
seconds, and checks every run's output.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
medians over the runs; with ``--trace 1`` the runs alternate untraced
and traced, the metrics are the per-layer ones from the traced runs, and
the spans of the last traced run are written to
``.perfbench/trace-<workload>-seed<N>.json``.  ``--workload all`` runs
every workload in turn and prefixes each metric with its workload name.

Run from the root of a source checkout: nlw is imported from ``src``.
Workload outputs go to a temporary directory under ``.perfbench`` that
is removed at exit.  Exit code 0 when every run passed its check, 1 when
any failed, 2 when the checkout has no nlw sources.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD = HERE / "child.py"

# end-to-end metric -> unit; the names and order of BENCHMARK.json's end_to_end
E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}
MIN_RUNS = 3  # medians of set-up and wall time need a few runs
CHILD_TIMEOUT_S = 150.0


def provenance():
    """Machine, interpreter and code that produced the numbers."""
    info = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
    info.update(_cache_sizes())
    return info


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_once(name, inputs, tmp, k, traced, trace_out):
    """One child run; returns its record with ``problems`` filled in."""
    out_dir = tmp / f"run{k}"
    out_dir.mkdir()
    inputs_path = out_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    workloads.write_config(inputs, out_dir)
    result_path = tmp / f"run{k}.json"
    cmd = [sys.executable, str(CHILD), name, str(inputs_path), str(out_dir), str(result_path)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"timed out after {CHILD_TIMEOUT_S:g} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return {"traced": traced, "problems": [f"child exit {proc.returncode}: {tail}"]}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["traced"] = traced
    record["problems"] = workloads.WORKLOADS[name].check(inputs, record["observations"])
    if traced and trace_out is not None:
        shutil.copyfile(out_dir / "spans.json", trace_out)
    shutil.rmtree(out_dir)
    return record


def measure(name, seed, seconds, trace):
    """Closed loop of child runs for about ``seconds``; returns the records.

    A run starts only while the median run so far still fits in the
    budget, after the first ``MIN_RUNS``.  With tracing on, runs
    alternate untraced and traced so both see the same machine state.
    """
    inputs = workloads.WORKLOADS[name].make_inputs(seed)
    trace_out = SCRATCH / f"trace-{name}-seed{seed}.json" if trace else None
    records = []
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        while True:
            traced = bool(trace) and len(records) % 2 == 1
            t0 = perf_counter()
            record = run_once(name, inputs, Path(tmp), len(records), traced, trace_out)
            record["elapsed_s"] = perf_counter() - t0
            records.append(record)
            _print_run(len(records), record)
            spent = perf_counter() - start
            typical = statistics.median(r["elapsed_s"] for r in records)
            if len(records) >= MIN_RUNS and spent + typical > seconds:
                break
    return records


def _print_run(k, record):
    kind = "traced" if record["traced"] else "untraced"
    if "wall_s" not in record:
        print(f"  run {k} {kind}: FAILED {record['problems']}")
        return
    status = "ok" if not record["problems"] else f"FAILED {record['problems']}"
    print(
        f"  run {k} {kind}: wall {record['wall_s']:.3f} s, "
        f"setup {record['setup_s']:.3f} s, rss {record['peak_rss_mb']:.1f} MB, {status}"
    )


def _median(records, key):
    return statistics.median(key(r) for r in records)


def end_to_end(records):
    ok = [r for r in records if not r["problems"]]
    metrics = {}
    if ok:
        metrics["wall_s"] = _median(ok, lambda r: r["wall_s"])
        metrics["setup_s"] = _median(ok, lambda r: r["setup_s"])
        metrics["peak_rss_mb"] = _median(ok, lambda r: r["peak_rss_mb"])
    metrics["pass_frac"] = len(ok) / len(records)
    return metrics


def per_layer(records):
    ok = [r for r in records if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or not traced:
        return {}
    metrics = {
        key: _median(traced, lambda r: r["layers"][key]) for key in traced[0]["layers"]
    }
    metrics["proc.import_s"] = _median(plain, lambda r: r["import_s"])
    metrics["proc.cpu_s"] = _median(plain, lambda r: r["cpu_s"])
    metrics["proc.offcpu_s"] = _median(plain, lambda r: r["wall_s"] - r["cpu_s"])
    metrics["trace.wall_s"] = _median(traced, lambda r: r["wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(plain, lambda r: r["wall_s"])
    return {key: metrics[key] for key in spans.LAYER_METRICS if key in metrics}


def report(name, records, trace):
    """Print the workload's metric table; return (metrics, units, failed)."""
    failed = sum(1 for r in records if r["problems"])
    units = spans.LAYER_METRICS if trace else E2E_METRICS
    metrics = per_layer(records) if trace else end_to_end(records)
    print(f"{name}: {len(records)} runs, {failed} failed, fail_frac {failed / len(records):g}")
    for key, value in metrics.items():
        print(f"  {key:<42} {value:>16.6g} {units[key]}")
    return metrics, units, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nlw" / "__init__.py").is_file():
        print(f"perfbench: no nlw sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    print("provenance " + json.dumps(provenance(), sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        records = measure(name, args.seed, args.seconds, args.trace)
        metrics, units, failed = report(name, records, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        result["attempted"] += len(records)
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0 and len(metrics) == len(units)
        for key, value in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
