"""palink benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src``.  The
inputs are generated at ``--seed`` with ``palink.synth`` before timing and
written under ``.perfbench_out/``.  Each repetition then runs in a fresh
child process (``child.py``) with one BLAS thread, until ``--seconds`` are
used.  Outputs are checked in this process.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json`` as medians over the repetitions.  With ``--trace 1``
untraced and traced repetitions alternate; the result holds the per-layer
metrics (medians over the traced repetitions) and ``trace.overhead``, the
traced median wall time over the untraced one, minus one.

The last line of standard output is the JSON result.  The environment,
every repetition, the input and report digests and the quality figures go
to ``.perfbench_out/<workload>-seed<n>/result.json``.  A missing package,
or generated inputs whose digest differs from an earlier run at the same
seed, is a benchmark error: the exit code is 1 and no result is printed.
"""
from __future__ import annotations

import os

# One BLAS thread: steadier than two on a shared two-core machine.  Set
# before NumPy loads, and inherited by every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench_out"
DIGEST_RECORD = os.path.join(OUT, "input_sha256.json")
BASELINE = os.path.join(HERE, "baseline.json")
REP_TIMEOUT_S = 75  # two repetitions and set-up stay under 180 s
MIN_SETUP_SAMPLES = 5
SELF_SUM_RTOL = 1e-9


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_input_digests(workload: str, seed: int, digests: dict) -> None:
    """Raise if this seed's inputs differ from an earlier run's or from the
    committed baseline's; record them otherwise."""
    record = {}
    if os.path.exists(DIGEST_RECORD):
        with open(DIGEST_RECORD) as fh:
            record = json.load(fh)
    known = [record.get(workload, {}).get(str(seed))]
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        known.append(baseline.get("workloads", {}).get(workload, {})
                     .get("input_sha256", {}).get(str(seed)))
    for expected in known:
        if expected is not None and expected != digests:
            raise BenchmarkError(
                f"{workload} inputs at seed {seed} changed: {digests} "
                f"!= {expected}")
    record.setdefault(workload, {})[str(seed)] = digests
    with open(DIGEST_RECORD, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def environment() -> dict:
    """Interpreter, library, BLAS and CPU facts, read without changing
    anything."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for index in sorted(os.listdir(cache_root)):
            try:
                fields = {}
                for key in ("level", "type", "size"):
                    with open(os.path.join(cache_root, index, key)) as fh:
                        fields[key] = fh.read().strip()
            except OSError:
                continue
            env["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    return env


def run_child(prepared_path: str, prepared: dict, result_path: str,
              mode: str) -> dict:
    """One fresh child process in ``mode`` (see child.py); returns its
    result, or a record of a repetition whose every operation failed."""
    shutil.rmtree(prepared["runs"], ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "child.py"), prepared_path,
               result_path, mode]
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
        stderr = proc.stderr[-4000:]
        error = stderr if proc.returncode else None
    except subprocess.TimeoutExpired:
        stderr = error = f"repetition timed out after {REP_TIMEOUT_S}s"
    if error is None and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        return dict(result, stderr=stderr) if stderr else result
    return {"failed": None, "error": error or "no result written"}


def median(values):
    return statistics.median(values) if values else None


def measure(workload, prepared_path, prepared, reference, run_dir, seconds,
            trace):
    """Repeat the workload until ``seconds`` are used (at least one
    repetition, and with tracing one of each kind) and check each one; then
    fill the time left with set-up-only children.  Returns the repetitions
    and every set-up time measured."""
    reps = []
    start = time.perf_counter()
    longest = 0.0
    first_digest = None
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = run_child(prepared_path, prepared,
                        os.path.join(run_dir, f"rep{len(reps)}.json"),
                        "1" if traced else "0")
        longest = max(longest, time.perf_counter() - t0)
        rep.update(traced=traced, problems=[], quality={})
        ops = workload.operations()
        if rep["failed"] is None:
            rep["attempted"], rep["failed"] = ops, ops
        elif rep["outputs"] is not None:
            rep["problems"], rep["quality"] = workload.check(rep["outputs"],
                                                             reference)
            digest = rep["quality"].get("report_sha256")
            first_digest = first_digest or digest
            if rep["problems"] or digest != first_digest:
                rep["failed"] = ops
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds and len(reps) >= (2 if trace else 1):
            break

    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    longest = 0.0
    while not trace and (len(setups) < MIN_SETUP_SAMPLES or
                         time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        probe = run_child(prepared_path, prepared,
                          os.path.join(run_dir, f"setup{len(setups)}.json"),
                          "setup")
        longest = max(longest, time.perf_counter() - t0)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    return reps, setups


def end_to_end(reps, setups, spec) -> dict:
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    values = {m["name"]: median([r[m["name"]] for r in plain])
              for m in spec["end_to_end"] if m["name"] != "setup_s"}
    values["setup_s"] = median(setups)
    return values


def per_layer(reps, spec) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    problems = []
    for r in traced:
        layers = r["layers"]
        total = sum(v for k, v in layers.items()
                    if k.count(".") == 1 and k.endswith(".self_s"))
        wall = layers["workload.call.s"]
        if abs(total - wall) > SELF_SUM_RTOL * wall:
            problems.append(f"layer self times sum to {total!r}, traced wall "
                            f"is {wall!r}")
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            t = median([r["wall_s"] for r in traced])
            p = median([r["wall_s"] for r in plain])
            values[name] = t / p - 1.0 if t is not None and p else None
        else:
            values[name] = median([r["layers"].get(name, 0.0) for r in traced])
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "palink", "__init__.py")):
            raise BenchmarkError(f"no palink package under {SRC}")
        sys.path.insert(0, SRC)
        workload = WORKLOADS[args.workload]
        run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        prepared = workload.prepare(run_dir, args.seed)
        digests = {role: sha256(path)
                   for role, path in sorted(prepared["inputs"].items())}
        check_input_digests(workload.name, args.seed, digests)
        reference = workload.reference(prepared)
        prepared_path = os.path.join(run_dir, "prepared.json")
        with open(prepared_path, "w") as fh:
            json.dump(prepared, fh, indent=1)
        reps, setups = measure(workload, prepared_path, prepared, reference,
                               run_dir, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in reps for p in r["problems"]]
    if args.trace:
        values, trace_problems = per_layer(reps, spec)
        problems += trace_problems
        wanted = spec["per_layer"]
    else:
        values = end_to_end(reps, setups, spec)
        wanted = spec["end_to_end"]
    if any(v is None for v in values.values()):
        for r in reps:
            print(r.get("error"), file=sys.stderr)
        print("benchmark error: no repetition gave a measurement",
              file=sys.stderr)
        return 1

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    detail = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "input_sha256": digests, "reference": reference,
              "problems": problems, "result": result, "setup_s": setups,
              "repetitions": [{k: v for k, v in r.items()
                               if k not in ("outputs", "layers")}
                              for r in reps]}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    for p in problems:
        print(f"problem: {p}")
    quality = {k: v for k, v in reps[0]["quality"].items()
               if k != "report_sha256"}
    print(f"{workload.name} seed {args.seed}: {len(reps)} repetitions, "
          f"quality {json.dumps(quality)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
