"""One measured process: set-up, then a closed loop for the given seconds.

Run by ``run.py`` as ``python3 perfbench/child.py <config.json>``; it writes
its raw samples to the config's ``out`` path.  Each child is a fresh
interpreter, so its set-up time covers importing the program.  Nothing from
the program is imported before the set-up clock starts.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import queue
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))


def export_digest(paths: list[str]) -> str:
    """sha256 of the exported rows: gz shards are decompressed and concatenated."""
    digest = hashlib.sha256()
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fault_count(report: dict) -> int:
    """Rows or shards the run quarantined or skipped, plus recorded op errors."""
    faults = report.get("faults") or {}
    return (
        int(faults.get("quarantined_rows", 0))
        + int(faults.get("skipped_rows", 0))
        + int(faults.get("quarantined_shards", 0))
        + sum(int(count) for count in (faults.get("op_errors") or {}).values())
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracing:
    """The traced run's recorder and wrappers, or nothing when tracing is off."""

    def __init__(self, enabled: bool):
        self.recorder = None
        self.installation = None
        if enabled:
            from spans import Recorder, install

            self.recorder = Recorder()
            self.installation = install(self.recorder)

    def set_job(self, job: str | None) -> None:
        if self.recorder is not None:
            self.recorder.job = job

    def worker_cpu_s(self) -> float:
        """CPU seconds of every pool worker so far, closed pools included."""
        if self.installation is None:
            return 0.0
        from spans import pool_pids, worker_cpu_s

        return worker_cpu_s(pool_pids(self.installation.pools)) + self.installation.closed_cpu_s

    def worker_rss_mb(self) -> float:
        """Summed peak resident memory of the live pool workers."""
        if self.installation is None:
            return 0.0
        from spans import pool_pids, worker_peak_rss_mb

        return worker_peak_rss_mb(pool_pids(self.installation.pools))


def run_batch(cfg: dict, workload, tracing_enabled: bool) -> dict:
    """Set up one ``Executor``, then alternate warm and cold passes.

    A warm pass reuses the set-up executor (and its pool); a cold pass
    constructs, runs and closes a fresh one, as each ``repro process``
    invocation or service job does.
    """
    start = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    from repro.core.executor import Executor

    from workloads import batch_recipe

    tracing = Tracing(tracing_enabled)
    recipe = batch_recipe(workload, cfg["inputs"]["dataset"], Path(cfg["work"]))
    tracing.set_job("setup")
    executor = Executor(recipe)
    passes: list[dict] = []

    def one_pass(kind: str, job: str) -> dict:
        tracing.set_job(job)
        began = time.perf_counter()
        try:
            if kind == "cold":
                with Executor(recipe) as fresh:
                    report = fresh.execute(mode=workload.mode, shard_output=workload.shard_output)
            else:
                report = executor.execute(mode=workload.mode, shard_output=workload.shard_output)
        except Exception as error:  # a failed pass counts in error_rate
            report, failure = None, repr(error)
        wall_s = time.perf_counter() - began
        tracing.set_job(None)
        record = {"job": job, "kind": kind, "wall_s": wall_s}
        if report is None:
            record["error"] = failure
        else:
            record["digest"] = export_digest(list(report.export_paths))
            record["faults"] = fault_count(report)
        return record

    try:
        passes.append(one_pass("setup", "setup"))
        setup_s = time.perf_counter() - start
        cpu_before = tracing.worker_cpu_s()
        deadline = time.perf_counter() + cfg["seconds"]
        index = 0
        while cfg["seconds"] > 0 and time.perf_counter() < deadline:
            kind = "warm" if index % 2 == 0 else "cold"
            passes.append(one_pass(kind, f"{kind}-{index:04d}"))
            index += 1
        worker_cpu = tracing.worker_cpu_s() - cpu_before
        worker_rss = tracing.worker_rss_mb()
    finally:
        executor.close()
    return {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "worker_cpu_s": worker_cpu,
        "worker_rss_mb": worker_rss,
        "tracing": tracing,
    }


def run_service(cfg: dict, workload, tracing_enabled: bool) -> dict:
    from workloads import service_input, service_recipe

    start = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    from repro.parallel import shutdown_shared_pools
    from repro.service import InProcessClient, create_core

    tracing = Tracing(tracing_enabled)
    work = Path(cfg["work"])
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    pool_lines = Path(cfg["inputs"]["pool"]).read_text(encoding="utf-8").splitlines(keepends=True)
    seed = cfg["seed"]
    core = create_core(work / "root", queue_limit=8)
    client = InProcessClient(core)
    jobs: list[dict] = []
    lock = threading.Lock()

    def run_job(kind: str, path: Path, submitted: threading.Event | None = None) -> dict:
        """Submit one job and wait for it; ``submitted`` is set once it is queued."""
        payload = {"recipe": service_recipe(workload, str(path)), "mode": workload.mode}
        began = time.perf_counter()
        try:
            view = client.submit_job(payload)
            submit_s = time.perf_counter() - began
            if submitted is not None:
                submitted.set()
            view = client.wait_for_job(view["id"], timeout=120.0, poll_s=0.01)
        except Exception as error:  # a refused or lost job counts in error_rate
            if submitted is not None:
                submitted.set()
            record = {"job": None, "kind": kind, "input": str(path), "state": repr(error)}
            with lock:
                jobs.append(record)
            return record
        record = {
            "job": view["id"], "kind": kind, "input": str(path),
            "state": view["state"], "created_at": view["created_at"],
            "started_at": view["started_at"], "finished_at": view["finished_at"],
            "export_paths": view["export_paths"], "submit_s": submit_s,
        }
        with lock:
            jobs.append(record)
        return record

    try:
        run_job("setup", service_input(pool_lines, seed, "warmup", workload.docs, inputs_dir))
        setup_s = time.perf_counter() - start
        cpu_before = tracing.worker_cpu_s()
        loop_start = time.time()
        deadline = time.perf_counter() + cfg["seconds"]
        finished_inputs: queue.Queue = queue.Queue()

        def cold_client() -> None:
            """Uploads fresh data: each job is a new input (cache miss + write)."""
            index = 0
            try:
                while time.perf_counter() < deadline:
                    tag = f"cold-{index:04d}"
                    path = service_input(pool_lines, seed, tag, workload.docs, inputs_dir)
                    record = run_job("cold", path)
                    index += 1
                    if record["state"] != "succeeded":
                        continue
                    # hand the finished input to the warm client and let its
                    # resubmission queue first, so the order on the server is
                    # deterministic: warm k, then cold k+1
                    submitted = threading.Event()
                    finished_inputs.put((path, submitted))
                    submitted.wait(timeout=120.0)
            finally:
                finished_inputs.put(None)

        def warm_client() -> None:
            """Re-runs each freshly finished input once (identical resubmission)."""
            while True:
                item = finished_inputs.get()
                if item is None:
                    return
                path, submitted = item
                run_job("warm", path, submitted)

        threads = [
            threading.Thread(target=target, name=target.__name__)
            for target in ((cold_client, warm_client) if cfg["seconds"] > 0 else ())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        worker_cpu = tracing.worker_cpu_s() - cpu_before
        worker_rss = tracing.worker_rss_mb()
        # outside timing: per-job fault ledgers and export digests
        for record in jobs:
            if record["state"] != "succeeded":
                continue
            report = client.job_report(record["job"])
            record["faults"] = fault_count(report)
            record["digest"] = export_digest(record["export_paths"])
    finally:
        core.shutdown()
        shutdown_shared_pools()
    return {
        "setup_s": setup_s,
        "loop_start": loop_start,
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb(),
        "worker_cpu_s": worker_cpu,
        "worker_rss_mb": worker_rss,
        "tracing": tracing,
    }


def traced_layers(result: dict, workload, cfg: dict) -> dict:
    """Fold the recorded spans into per-layer metrics and check the call counts."""
    from spans import check_layer_calls, layer_calls, layer_metrics, median

    from workloads import OP_LABELS

    tracing = result.pop("tracing")
    recorder = tracing.recorder
    if recorder is None:
        return {}
    recorder.write(Path(cfg["spans_out"]))
    spans = recorder.spans
    if workload.kind == "batch":
        loop = [p for p in result["passes"] if p["kind"] != "setup" and "error" not in p]
    else:
        loop = [j for j in result["jobs"] if j["kind"] != "setup" and j["state"] == "succeeded"]
    jobs = [item["job"] for item in loop]
    expected = OP_LABELS[workload.recipe]
    for span in spans:
        if span.name == "executor.execute" and span.attrs["ops"] != expected:
            raise RuntimeError(
                f"pipeline of {workload.recipe!r} changed: ops are {span.attrs['ops']}, "
                f"the per-layer metric names expect {expected}"
            )
    metrics = layer_metrics(
        spans, jobs, expected, workload.np, result["worker_cpu_s"], result["worker_rss_mb"]
    )
    if workload.kind == "service":
        metrics["service.submit_s"] = median([j["submit_s"] for j in loop])
        metrics["service.queue_wait_s_p50"] = median(
            [j["started_at"] - j["created_at"] for j in loop]
        )
        metrics["service.run_s_p50"] = median([j["finished_at"] - j["started_at"] for j in loop])
    counts = layer_calls(spans, jobs)
    problems = check_layer_calls(counts, workload.must_call, workload.must_skip)
    if problems:
        raise RuntimeError("traced run measured the wrong thing:\n  " + "\n  ".join(problems))
    return {"layers": metrics, "layer_calls": counts}


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    workload = WORKLOADS[cfg["workload"]]
    runner = run_batch if workload.kind == "batch" else run_service
    result = runner(cfg, workload, cfg["trace"])
    result.update(traced_layers(result, workload, cfg))
    result.pop("tracing", None)
    Path(cfg["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
