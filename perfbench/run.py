"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload c4_memory --seed 1 --seconds 15 --trace 0

The run generates its inputs from ``--seed``, measures the program in fresh
child processes (``child.py``), checks every output against a reference
computed outside timing, and prints a human-readable summary followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
of a traced run plus the tracing overhead against an untraced one.  The full
result, with the host fingerprint and every raw sample, is written to
``.perfbench/results/``.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import median  # noqa: E402
from workloads import WORKLOADS, layer_units  # noqa: E402

#: wall-clock budget of one run; the benchmark must exit well inside 180 s
BUDGET_S = 170.0

#: set-up probes per run besides the measured child (set-up is their median)
SETUP_PROBES = 2

#: end-to-end metrics and their units, in reporting order
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "cold_job_s_p50": "s",
    "warm_job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "jobs/s",
}

#: samples a percentile must leave beyond it to count as a supported tail
TAIL_SUPPORT = 10


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], percentile: float) -> float:
    """Linearly interpolated percentile of ``values`` (0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * percentile / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with at least
    :data:`TAIL_SUPPORT` samples beyond it; below ``2 * TAIL_SUPPORT`` samples
    no percentile above the median is supported and the median is reported."""
    count = len(values)
    if not count:
        return 0.0, 50.0, 0
    percentile = max(50.0, 100.0 * (1.0 - TAIL_SUPPORT / count))
    return quantile(values, percentile), percentile, count


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(name: str, cfg: dict, work: Path, deadline: float) -> dict:
    """Run one ``child.py`` process to completion and return its samples."""
    cfg = dict(cfg, work=str(work / name), out=str(work / f"{name}.out.json"))
    Path(cfg["work"]).mkdir(parents=True, exist_ok=True)
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(config_path)],
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_group(process)
    if code is None:
        raise RuntimeError(f"child {name!r} did not finish inside the run budget")
    if code != 0:
        raise RuntimeError(f"child {name!r} failed with exit code {code}")
    return json.loads(Path(cfg["out"]).read_text(encoding="utf-8"))


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever the child left in its process group and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Correctness (outside timing)
# ----------------------------------------------------------------------
def reference_digests(workload, inputs: dict, children: dict, work: Path) -> dict[str, str]:
    """Export digest per input file, from the reference engine run."""
    from child import export_digest
    from repro.core.executor import Executor
    from repro.parallel import shutdown_shared_pools

    from workloads import batch_recipe, service_recipe

    digests: dict[str, str] = {}
    if workload.kind == "batch":
        dataset = inputs["dataset"]
        recipe = batch_recipe(workload, dataset, work / "reference")
        recipe["np"] = 1
        with Executor(recipe) as executor:
            report = executor.execute(mode=workload.reference_mode)
        digests[dataset] = export_digest(list(report.export_paths))
        return digests
    paths = sorted({job["input"] for result in children.values() for job in result["jobs"]})
    try:
        for index, path in enumerate(paths):
            recipe = service_recipe(workload, path)
            recipe.update(
                work_dir=str(work / "reference" / f"{index:04d}"),
                export_path=str(work / "reference" / f"{index:04d}" / "export.jsonl"),
                use_cache=False,
            )
            with Executor(recipe, shared_pool=True) as executor:
                report = executor.execute(mode=workload.mode)
            digests[path] = export_digest(list(report.export_paths))
    finally:
        shutdown_shared_pools()
    return digests


def check_outputs(
    workload, children: dict, digests: dict[str, str], dataset: str | None
) -> tuple[int, list[str]]:
    """Count attempted passes/jobs and describe every failed one."""
    attempted = 0
    failures: list[str] = []
    for child_name, result in children.items():
        if workload.kind == "batch":
            for item in result["passes"]:
                attempted += 1
                label = f"{child_name}/{item['job']}"
                if "error" in item:
                    failures.append(f"{label}: raised {item['error']}")
                elif item["faults"]:
                    failures.append(f"{label}: {item['faults']} faulted rows or op errors")
                elif item["digest"] != digests[dataset]:
                    failures.append(
                        f"{label}: export differs from the {workload.reference_mode} engine's"
                    )
            continue
        cold_digest = {}
        for item in sorted(result["jobs"], key=lambda job: job.get("created_at") or 0.0):
            attempted += 1
            label = f"{child_name}/{item['job']} ({item['kind']})"
            if item["state"] != "succeeded":
                failures.append(f"{label}: state {item['state']}")
            elif item["faults"]:
                failures.append(f"{label}: {item['faults']} faulted rows or op errors")
            elif item["digest"] != digests[item["input"]]:
                failures.append(f"{label}: export differs from the Executor export")
            elif item["kind"] == "warm" and item["digest"] != cold_digest.get(item["input"]):
                failures.append(f"{label}: warm export differs from its cold run")
            if item["kind"] != "warm" and item.get("digest"):
                cold_digest[item["input"]] = item["digest"]
    return attempted, failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latencies(workload, result: dict, kind: str | None = None) -> list[float]:
    """Latencies of the loop's successful jobs (of one kind, or all)."""
    if workload.kind == "batch":
        done = [(p["kind"], p["wall_s"]) for p in result["passes"] if "error" not in p]
    else:
        done = [
            (job["kind"], job["finished_at"] - job["created_at"])
            for job in result["jobs"] if job["state"] == "succeeded"
        ]
    return [
        value for job_kind, value in done
        if job_kind != "setup" and (kind is None or job_kind == kind)
    ]


def end_to_end(workload, inputs: dict, children: dict) -> tuple[dict, dict]:
    """The end-to-end metrics (and how the tail was taken)."""
    measure = children["measure"]
    setups = [result["setup_s"] for result in children.values()]
    every = latencies(workload, measure)
    cold, warm = latencies(workload, measure, "cold"), latencies(workload, measure, "warm")
    tail_value, percentile, count = tail(every)
    if workload.kind == "batch":
        rows_per_s = inputs["rows"] / median(warm) if warm else 0.0
        jobs_per_s = len(every) / sum(every) if every else 0.0
    else:
        finished = [j["finished_at"] for j in measure["jobs"] if j["state"] == "succeeded"]
        span = max(finished, default=measure["loop_start"]) - measure["loop_start"]
        rows_per_s = len(every) * inputs["rows"] / span if span > 0 else 0.0
        jobs_per_s = len(every) / span if span > 0 else 0.0
    values = {
        "setup_s": median(setups),
        "rows_per_s": rows_per_s,
        "peak_rss_mb": measure["peak_rss_mb"],
        "cold_job_s_p50": median(cold),
        "warm_job_s_p50": median(warm),
        "job_s_tail": tail_value,
        "jobs_per_s": jobs_per_s,
    }
    details = {
        "job_s_samples": {"cold": cold, "warm": warm},
        "setup_s_samples": setups,
        "job_s_tail_percentile": percentile,
        "job_s_tail_samples": count,
        "job_s_tail_supported": count >= 2 * TAIL_SUPPORT,
    }
    return values, details


def per_layer(workload, children: dict) -> dict:
    """The traced child's layer metrics plus the tracing overhead."""
    layers = dict(children["traced"]["layers"])

    def primary(result: dict) -> float:
        return median(latencies(workload, result, "warm" if workload.kind == "batch" else "cold"))

    traced, untraced = primary(children["traced"]), primary(children["untraced"])
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    return {name: layers.get(name, 0.0) for name in layer_units()}


def host_fingerprint(seed: int) -> dict:
    from repro.parallel.pool import resolve_start_method

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "start_method": resolve_start_method(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # a terminated run still stops its children (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_inputs

    started = time.monotonic()
    deadline = started + BUDGET_S
    workload = WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench"
    work = out_root / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(workload, args.seed, work / "inputs")
        base = {
            "workload": workload.name, "seed": args.seed, "src": str(SRC), "inputs": inputs,
            "spans_out": str(results_dir / f"{workload.name}-seed{args.seed}.spans.jsonl"),
        }
        if args.trace:
            plan = [("untraced", args.seconds / 2, False), ("traced", args.seconds / 2, True)]
        else:
            plan = [(f"probe-{i + 1}", 0, False) for i in range(SETUP_PROBES)]
            plan.append(("measure", args.seconds, False))
        children = {
            name: run_child(name, dict(base, seconds=seconds, trace=traced), work, deadline)
            for name, seconds, traced in plan
        }
        digests = reference_digests(workload, inputs, children, work)
        attempted, failures = check_outputs(workload, children, digests, inputs.get("dataset"))
        if args.trace:
            metrics, units, details = per_layer(workload, children), layer_units(), {
                "layer_calls": children["traced"]["layer_calls"],
            }
        else:
            metrics, details = end_to_end(workload, inputs, children)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    error_rate = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(
        result, workload=workload.name, why=workload.why, trace=args.trace,
        seconds=args.seconds, host=host_fingerprint(args.seed),
        error_rate=error_rate, failures=failures, details=details,
        wall_s=time.monotonic() - started,
    )
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print(f"host: {json.dumps(record['host'])}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<44} {error_rate:>14.6g} ratio ({failed} of {attempted} failed)")
    if not args.trace:
        support = "" if details["job_s_tail_supported"] else ", too few for a tail: median shown"
        print(
            f"  job_s_tail is p{details['job_s_tail_percentile']:.1f} "
            f"of {details['job_s_tail_samples']} samples{support}"
        )
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
