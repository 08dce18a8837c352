"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py <prepared.json> <result.json> <mode>

``mode`` is 0 (untraced), 1 (traced) or ``setup`` (stop after set-up).

``palink`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
The result file holds the set-up time (import palink, first load_dataset,
normalize_features), the wall time of the workload's top-level call, the
process's peak resident memory, the failed-operation count, the outputs,
and with tracing on the per-layer metrics; the spans go to
``<result>.spans.json``.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    prepared_path, result_path, mode = argv
    with open(prepared_path) as fh:
        prepared = json.load(fh)

    start = time.perf_counter()
    import palink  # noqa: F401  (the package import is part of set-up)
    from palink.graphdata import load_dataset, normalize_features

    paths = prepared["inputs"]
    dataset = load_dataset(paths["edges"], paths["features"], paths["labels"])
    normalize_features(dataset.features, "minmax_signed")
    setup_s = time.perf_counter() - start
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[prepared["workload"]]
    call = workload.execute
    recorder = None
    if mode == "1":
        recorder = spans.Recorder()
        spans.instrument(recorder)
        call = recorder.wrap(spans.ROOT, call)

    error = None
    start = time.perf_counter()
    try:
        outputs, failed = call(prepared)
    except Exception:  # one failed repetition is reported, not fatal
        outputs, failed = None, workload.operations()
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": workload.operations(),
        "failed": failed,
        "error": error,
        "outputs": outputs,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans, recorder.counts)
        with open(result_path + ".spans.json", "w") as fh:
            json.dump(recorder.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
