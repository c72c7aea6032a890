"""
Time-to-verdict benchmark for the operadics package.

    python3 perfbench/run.py --workload interchange --seed 1312 --seconds 25 --trace 0

Each workload is a closed loop with one client: the next job is sent only
when the previous verdict is back.  Every measurement runs in a fresh
worker process (`worker.py`), so set-up and memory are per workload.

With `--trace 0` the run reports the end-to-end metrics: set-up time (the
median over one measured and four set-up-only processes), verdicts per
second, the median and 90th-percentile time to verdict, and peak memory.
Times are CPU times scaled for the machine's speed (see `worker.py`).
With `--trace 1` a traced process runs for half the time and reports the
per-layer metrics, and an untraced process replays the same jobs to give
the tracing overhead and to check that both give identical verdicts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
details and provenance.  The exit code is 0 only if every verdict matched
its independently known answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("interchange", "word-problem", "operad-laws", "operad-cli")
DEFAULT_SEED = 1312
HELD_OUT_SEED = 5910   # kept aside for confirming claims made on the default seed
SETUP_SAMPLES = 5
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

NOTE = ("measured without CPU pinning or cache dropping, neither of which is "
        "available; the spread includes noise from other load on the machine")


class BenchError(Exception):
    pass


def run_worker(deadline: float, *args: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode in (0, 1) and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"worker {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")


def git_commit() -> str | None:
    """The checked-out commit, read from this checkout's own .git if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src" / "operadics"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(jobs: int) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs_per_run": jobs,
        "note": NOTE,
    }


def end_to_end(workload: str, seed: int, seconds: int, inject_wrong: bool, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    measured = run_worker(deadline, *common, "--seconds", str(seconds),
                          *(["--inject-wrong"] if inject_wrong else []))
    setups = [measured["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(deadline, *common, "--setup-only")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": measured["jobs"] / measured["busy_s"],
        "job_p50_ms": measured["p50_ms"],
        "job_p90_ms": measured["p90_ms"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    details = {
        "jobs": measured["jobs"],
        "failed": measured["failed"],
        "fail_ratio": measured["failed"] / measured["jobs"],
        "failures": measured["failures"],
        "job_p90_samples": measured["jobs"],
        "job_p90_valid": measured["jobs"] >= 100,
        "tail_percentile": measured["tail_percentile"],
        "tail_ms": measured["tail_ms"],
        "setup_samples_s": setups,
        "raw_cpu_jobs_per_s": measured["jobs"] / measured["raw_busy_s"],
        "reference_kernel_s": measured["reference_s"],
    }
    units = dict(END_TO_END)
    return measured["jobs"], measured["failed"], True, details, {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }


def traced(workload: str, seed: int, seconds: int, inject_wrong: bool, deadline: float):
    from tracer import PER_LAYER

    common = ["--workload", workload, "--seed", str(seed)]
    run = run_worker(deadline, *common, "--seconds", str(seconds / 2), "--trace",
                     *(["--inject-wrong"] if inject_wrong else []))
    replay = run_worker(deadline, *common, "--jobs", str(run["jobs"]))
    layers = dict(run["layers"])
    # Traced over untraced verdicts per second, on the same jobs.
    layers["trace.overhead_ratio"] = replay["busy_s"] / run["busy_s"]
    identical = run["digest"] == replay["digest"]
    details = {
        "jobs": run["jobs"],
        "failed": run["failed"],
        "fail_ratio": run["failed"] / run["jobs"],
        "failures": run["failures"] + replay["failures"],
        "untraced_replay_failed": replay["failed"],
        "traced_and_untraced_verdicts_identical": identical,
    }
    units = dict(PER_LAYER)
    return run["jobs"], run["failed"], identical and replay["failed"] == 0, details, {
        name: {"value": layers[name], "unit": units[name]} for name in units
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="expect a wrong verdict for the first job, to test the failure path")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "operadics" / "__init__.py").is_file():
        print(f"error: no operadics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    try:
        attempted, failed, consistent, details, metrics = measure(
            args.workload, args.seed, args.seconds, args.inject_wrong, deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and consistent
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **details, "provenance": provenance(attempted),
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
