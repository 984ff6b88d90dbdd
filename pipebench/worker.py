"""One pipeline repetition in a fresh Python process.

Usage: ``python3 worker.py <spec.json>``.  The spec names the checkout's
``src`` directory, the workload, the generated inputs, a scratch
directory for this repetition, whether to trace, and where to write the
result.  The four CLI commands run in-process through
``litrel.cli.main``; each is timed from outside with
``time.perf_counter``.  Peak RSS is read before the correctness checks,
which run untimed and untraced afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    # imported here: the checkout's src directory is only known from the spec
    from litrel import cli, training
    from litrel.data import KnowledgeGraph

    import checks
    from spans import COMMANDS, Tracer, accounting_error, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    rep_dir = spec["rep_dir"]
    paths = dict(spec["inputs"])
    paths.update({name: os.path.join(rep_dir, name)
                  for name in ("artifact", "checkpoint", "eval", "classify")})
    args = workload.cli_args(paths)
    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
        tracer.enabled = True
        plan = list(COMMANDS)
    else:
        plan = [c for c in COMMANDS for _ in range(workload.repeats[c])]

    result = {"times": {}, "exit_codes": {}, "checks": {}}
    for command in plan:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = tracer.run_command(command, cli.main, args[command])
        elapsed = time.perf_counter() - start
        result["times"].setdefault(command, []).append(elapsed)
        result["exit_codes"].setdefault(command, []).append(code)
        if code != 0:
            result["error"] = f"{command} exited {code}: {out.getvalue()[-2000:]}"
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False

    if "error" not in result:
        state, history = training.load_checkpoint(paths["checkpoint"])
        graph = KnowledgeGraph.load(paths["artifact"])
        with open(os.path.join(paths["eval"], "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        windows = checks.oracle_rank_windows(state, graph, paths, workload.model)
        result["checks"]["loss_trace"] = checks.check_loss_trace(history, workload.epochs)
        result["checks"]["rank_oracle"] = checks.check_ranks(report, windows)
        if workload.group_by is not None:
            result["checks"]["group_identity"] = checks.check_group_identity(report)
        result["checks"]["classification"] = checks.check_classification(
            paths["classify"], paths["labels"])
        result["final_loss"] = history["loss"][-1]
        result["test_mrr"] = report["mrr"]
    if spec["trace"]:
        metrics = layer_metrics(tracer.spans, tracer.counts)
        if "error" not in result:
            error = accounting_error(tracer.spans, metrics)
            result["checks"]["trace_accounting"] = (
                None if error < 1e-6 else f"self times miss the command wall time by {error!r} s")
        result["layers"] = metrics
        result["absent"] = tracer.absent
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
