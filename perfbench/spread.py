"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--trace 1]
        [--baseline]

Prints, per metric, the median and the quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) and the inter-quartile distance as
a share of the median, which must stay under a third of the metric's bound.
``--baseline`` stores the medians, the spreads, the error rate, the median
quality figures and the input digests of these runs in
``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BASELINE, DIGEST_RECORD, HERE, ROOT, environment


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs, quality = [], []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(os.path.join(".perfbench_out",
                               f"{args.workload}-seed{seed}",
                               "result.json")) as fh:
            reps = json.load(fh)["repetitions"]
        quality.append(reps[0]["quality"])
        print(seed, json.dumps({k: v["value"] for k, v in
                                result["metrics"].items()}), flush=True)

    names = list(runs[0]["metrics"])
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
               for name in names}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = ""
        if bound and s["spread"] is not None and s["spread"] >= bound / 3:
            flag = f"  SPREAD >= bound/3 ({bound / 3:.3f})"
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {spread}{flag}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"correct {correct}, failed {failed} of {attempted} operations")

    if args.baseline:
        baseline = {}
        if os.path.exists(BASELINE):
            with open(BASELINE) as fh:
                baseline = json.load(fh)
        baseline["environment"] = environment()
        baseline["run_seconds"] = seconds
        entry = baseline.setdefault("workloads", {}).setdefault(
            args.workload, {})
        keys = sorted({k for q in quality for k in q if k != "report_sha256"})
        entry["per_layer" if args.trace else "end_to_end"] = {
            "seeds": parse_seeds(args.seeds),
            "error_rate": failed / attempted,
            "metrics": summary,
            "quality": {k: statistics.median(q[k] for q in quality
                                             if q.get(k) is not None)
                        for k in keys},
        }
        with open(DIGEST_RECORD) as fh:
            digests = json.load(fh)[args.workload]
        entry.setdefault("input_sha256", {}).update(
            {str(s): digests[str(s)] for s in parse_seeds(args.seeds)})
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
