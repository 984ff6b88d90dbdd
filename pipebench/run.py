"""Pipeline benchmark: preprocess -> train -> evaluate -> classify.

Usage, from the repository root::

    python3 pipebench/run.py --workload train-dense --seed 1 --seconds 30 --trace 0

The run generates the workload's TSV inputs from ``--seed`` (untimed),
then repeats the four-command pipeline, each repetition in a fresh
Python process (``worker.py``), until ``--seconds`` are used.  Metrics
are medians over the repetitions.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, including the environment
and the input properties, goes to ``.pipebench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pipebench")
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads so this process and every worker
# agree: on a small shared machine a second thread waits on whatever else
# runs there, which made the timings slower and less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import COMMANDS  # noqa: E402
from workloads import WORKLOADS, generate, input_properties  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "train_triples_per_s": "triples/s",
    "eval_triples_per_s": "triples/s",
    "classify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
    "final_loss": "nats",
}
MIN_REPS = 3          # untraced repetitions; a traced run makes as many of each kind
HARD_LIMIT_S = 150.0  # no repetition starts that could end past this


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p90") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("serialize.bytes"):
        return "B"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"vendor": config.get("name"), "version": config.get("version"), "threads": threads}


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from litrel import kernels

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "using_numba": kernels.using_numba(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


def run_rep(index: int, traced: bool, workload: str, inputs: dict, work: str, tag: str) -> dict:
    """One pipeline repetition in a fresh worker process."""
    rep_dir = os.path.join(work, f"rep{index}")
    spec = {
        "src": SRC,
        "workload": workload,
        "inputs": inputs,
        "rep_dir": rep_dir,
        "trace": traced,
        "result_out": os.path.join(work, f"rep{index}.json"),
        "spans_out": os.path.join(OUT, "results", f"{tag}.spans.json"),
    }
    spec_path = os.path.join(work, f"rep{index}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            capture_output=True, text=True, timeout=HARD_LIMIT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"worker exceeded {HARD_LIMIT_S} s"}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(spec["result_out"]):
        return {"traced": traced, "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    with open(spec["result_out"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def pipeline_s(rep: dict) -> float:
    return sum(statistics.median(rep["times"][c]) for c in COMMANDS)


def complete(rep: dict) -> bool:
    return "error" not in rep and "final_loss" in rep


def end_to_end(reps: list[dict], w, props: dict) -> dict[str, float]:
    median = statistics.median

    def samples(command):
        return [t for r in reps for t in r["times"][command]]

    return {
        "setup_s": median(samples("preprocess")),
        "train_triples_per_s":
            median([w.epochs * props["train_triples"] / t for t in samples("train")]),
        "eval_triples_per_s": median([props["test_triples"] / t for t in samples("evaluate")]),
        "classify_s": median(samples("classify")),
        "pipeline_s": median([pipeline_s(r) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "final_loss": median([r["final_loss"] for r in reps]),
    }


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed: commands, checks and crashed workers."""
    attempted = failed = 0
    failures = []
    for i, rep in enumerate(reps):
        if "exit_codes" not in rep:
            attempted += 1
            failed += 1
            failures.append(f"rep {i}: {rep['error']}")
            continue
        for command, codes in rep["exit_codes"].items():
            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
        if "error" in rep:
            failures.append(f"rep {i}: {rep['error']}")
        for name, problem in rep["checks"].items():
            attempted += 1
            if problem is not None:
                failed += 1
                failures.append(f"rep {i}: check {name}: {problem}")
    done = [r for r in reps if complete(r)]
    if len(done) > 1:
        attempted += 1  # seeded reruns must reproduce the loss and the report exactly
        if len({(r["final_loss"], r["test_mrr"]) for r in done}) != 1:
            failed += 1
            failures.append("repetitions disagree on final_loss/test_mrr under one seed")
    return attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "litrel", "cli.py")):
        print(f"error: no litrel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        inputs = generate(w, args.seed, os.path.join(work, "inputs"))
        props = input_properties(w, inputs, args.seed)
        env = environment()

        reps: list[dict] = []
        longest = 0.0
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            start = time.perf_counter()
            reps.append(run_rep(len(reps), traced, w.name, inputs, work, tag))
            longest = max(longest, time.perf_counter() - start)
            elapsed = time.perf_counter() - begin
            enough = len(reps) >= MIN_REPS * (1 + args.trace)
            if elapsed + longest > (args.seconds if enough else HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures = tally(reps)
    plain = [r for r in reps if complete(r) and not r["traced"]]
    traced = [r for r in reps if complete(r) and r["traced"]]
    record = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "inputs": props, "repetitions": reps, "failures": failures}
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if plain and not args.trace:
        metrics = end_to_end(plain, w, props)
        units = END_TO_END
    elif plain and traced:
        layer_names = traced[0]["layers"].keys()
        metrics = {name: statistics.median([r["layers"][name] for r in traced])
                   for name in layer_names}
        # first run of each command only: traced repetitions run each command once
        first = [sum(r["times"][c][0] for c in COMMANDS) for r in plain]
        metrics["trace.overhead_ratio"] = (statistics.median([pipeline_s(r) for r in traced])
                                           / statistics.median(first))
        units = {name: layer_unit(name) for name in metrics}
        record["absent_layers"] = traced[0]["absent"]
    record["metrics"] = metrics
    if plain:
        # Not a bounded metric: near-random ranks make it seed noise (see README).
        record["quality"] = {"final_loss": plain[0]["final_loss"], "test_mrr": plain[0]["test_mrr"]}
    with open(os.path.join(OUT, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for line in failures:
        print(line, file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"inputs": props}))
    print(json.dumps({"quality": record.get("quality")}))
    if args.trace:
        print(json.dumps({"absent_layers": record.get("absent_layers", [])}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
