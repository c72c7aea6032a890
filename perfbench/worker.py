"""
One benchmark process: set a workload up, run its jobs in a closed loop
with a single client, and print one JSON line of results.  `run.py`
starts it in a fresh process per measurement; it also runs alone:

    python3 perfbench/worker.py --workload interchange --seed 1312 --seconds 5

Set-up time runs from this module's first statement until the first job
is ready: the package import, input generation and the workload's
operads, documents and orientation.

Times are CPU time of this process (user plus system), scaled for the
machine's speed.  The jobs are single-threaded and compute-bound, so on an
idle machine CPU time equals wall time.  On a shared virtual machine the
speed drifts: a fixed pure-Python loop took between 45 and 98 ms over a few
seconds on a 2-vCPU Xeon guest.  So after every REFERENCE_EVERY_S of job
time the worker times a fixed pure-Python reference kernel, and each job's
time is multiplied by the kernel's nominal time over its time measured
around that job; set-up time is scaled by the kernel timed right after it.
Times are thus in seconds of a machine that runs the kernel in
NOMINAL_REFERENCE_S.  Raw CPU times are reported alongside.
"""

import time

START = time.process_time()

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"

NOMINAL_REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.025


def reference_kernel() -> int:
    """Fixed work of the kind the jobs do: small tuples, sorting, dictionary lookups."""
    seen: dict = {}
    total = 0
    for i in range(1500):
        key = tuple((i * 7 + k) % 13 for k in range(6))
        seen[key] = seen.get(key, 0) + 1
        total += sum(sorted(key))
    return total


def reference_time() -> float:
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start


class SpeedScale:
    """Scales job times by the reference kernel's speed measured before and after them."""

    def __init__(self):
        self.scaled: list[float] = []
        self.references: list[float] = []
        self._pending: list[float] = []
        self._pending_s = 0.0

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= REFERENCE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = reference_time()
        around = (self.references[-1] + now) / 2 if self.references else now
        self.references.append(now)
        self.scaled.extend(t * NOMINAL_REFERENCE_S / around for t in self._pending)
        self._pending.clear()
        self._pending_s = 0.0


def import_package() -> None:
    """Import operadics from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import operadics

    if Path(operadics.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"operadics was imported from {operadics.__file__}, not from {SRC}")


def jobs_until(workload, seconds: float, max_jobs: int | None):
    """Whole rounds until `seconds` have passed (hard stop at twice that), or exactly `max_jobs` jobs."""
    started = time.perf_counter()
    count = 0
    for batch in workload.rounds():
        for job in batch:
            if max_jobs is not None and count >= max_jobs:
                return
            if max_jobs is None and time.perf_counter() - started >= 2 * seconds:
                return
            count += 1
            yield job
        if max_jobs is None and time.perf_counter() - started >= seconds:
            return


def _wrong(expected):
    return (not expected) if isinstance(expected, bool) else ("wrong", expected)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest rank: at least `1 - fraction` of the samples lie at or above it."""
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def measure(workload, seconds: float, max_jobs: int | None, tracer, inject_wrong: bool) -> dict:
    raw: list[float] = []
    scale = SpeedScale()
    failures: list[str] = []
    digest = hashlib.sha256()
    for job_id, job in enumerate(jobs_until(workload, seconds, max_jobs)):
        expected = _wrong(job.expected) if inject_wrong and job_id == 0 else job.expected
        start = time.process_time()
        try:
            if tracer is None:
                verdict = job.call()
            else:
                with tracer.job(job_id, job.kind):
                    verdict = job.call()
        except Exception as exc:  # a raising job is a failed job; the run goes on
            verdict = f"raised {type(exc).__name__}: {exc}"
        raw.append(time.process_time() - start)
        scale.add(raw[-1])
        digest.update(repr(verdict).encode())
        if verdict != expected:
            failures.append(f"job {job_id} ({job.kind}): got {verdict!r}, expected {expected!r}")

    scale.flush()
    ordered = sorted(scale.scaled)
    jobs = len(ordered)
    tail_rank = max(jobs - 10, 1)  # the highest percentile with 10 samples beyond it
    return {
        "jobs": jobs,
        "failed": len(failures),
        "failures": failures[:5],
        "busy_s": sum(ordered),
        "raw_busy_s": sum(raw),
        "reference_s": statistics.median(scale.references),
        "p50_ms": 1000 * statistics.median(ordered),
        "p90_ms": 1000 * percentile(ordered, 0.9),
        "tail_percentile": 100 * tail_rank / jobs,
        "tail_ms": 1000 * ordered[tail_rank - 1],
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run exactly this many jobs instead of timing whole rounds")
    parser.add_argument("--trace", action="store_true", help="report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="expect a wrong verdict for the first job (tests the oracle path)")
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import operadics from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        workload = workloads.build(args.workload, args.seed, WORKDIR)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        raw_setup_s = time.process_time() - START
        reference_s = statistics.median(reference_time() for _ in range(5))
        result = {
            "setup_s": raw_setup_s * NOMINAL_REFERENCE_S / reference_s,
            "raw_setup_s": raw_setup_s,
        }
        if not args.setup_only:
            result.update(measure(workload, args.seconds, args.jobs, tracer, args.inject_wrong))
            if tracer is not None:
                result["layers"] = tracer.metrics()
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
