"""One workload instance in a fresh process.

    python3 perfbench/child.py WORKLOAD INPUTS_JSON OUT_DIR RESULT_JSON [--trace]

Imports nlw (from ``src`` on PYTHONPATH), runs the workload's command
once and writes a JSON record of its timings, its observations and, with
``--trace``, its per-layer metrics; the spans themselves go to
``OUT_DIR/spans.json``.  Any exception propagates: run.py counts a
nonzero exit as a failed run.
"""

import importlib
import json
import os
import resource
import sys
import time

import spans
import workloads


def main(argv):
    name, inputs_path, out_dir, result_path = argv[:4]
    traced = "--trace" in argv[4:]
    workload = workloads.WORKLOADS[name]
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)

    start = time.perf_counter()
    importlib.import_module(workload.entry)
    import_s = time.perf_counter() - start

    # untraced runs wrap only the two stepping calls, to see where set-up ends
    recorder = spans.Recorder()
    recorder.install(
        [layer for layer in spans.LAYERS if traced or layer.span in spans.STEPPING]
    )

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    value = workload.run(inputs, out_dir)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    stepping = spans.first_start(recorder.spans, spans.STEPPING)
    setup_end = t0 + wall_s if stepping is None else stepping
    record = {
        "wall_s": wall_s,
        "setup_s": import_s + (setup_end - t0),
        "import_s": import_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observations": workload.observe(inputs, out_dir, value),
    }
    if traced:
        record["layers"] = spans.layer_metrics(recorder.spans, wall_s)
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
