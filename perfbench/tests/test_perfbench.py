"""
Tests of the benchmark itself:

    python3 -m pytest -q perfbench/tests

Workloads run in subprocesses, because tracing rebinds the package's
module attributes for the rest of the process.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from worker import percentile  # noqa: E402


def python(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def worker(*args):
    done = python(BENCH / "worker.py", *args)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_passes_at_a_tiny_size(workload):
    code, result = worker("--workload", workload, "--seed", run.HELD_OUT_SEED, "--jobs", 3)
    assert (code, result["jobs"], result["failed"]) == (0, 3, 0), result["failures"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_name(workload):
    code, result = worker("--workload", workload, "--seed", 7, "--jobs", 2, "--trace")
    assert code == 0 and result["failed"] == 0
    names = {name for name, _ in PER_LAYER} - {"trace.overhead_ratio"}
    assert set(result["layers"]) == names
    assert result["layers"]["trace.jobs"] == 2


def test_traced_and_untraced_runs_agree():
    done = python(BENCH / "run.py", "--workload", "word-problem", "--seconds", 1, "--trace", 1)
    details, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    assert done.returncode == 0 and result["correct"]
    assert details["traced_and_untraced_verdicts_identical"]
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    assert 0 < result["metrics"]["trace.overhead_ratio"]["value"] <= 1.5


def test_a_wrong_expected_answer_fails_the_run():
    code, result = worker("--workload", "word-problem", "--seed", 3, "--jobs", 2, "--inject-wrong")
    assert code == 1 and result["failed"] == 1
    done = python(BENCH / "run.py", "--workload", "word-problem", "--seconds", 1, "--inject-wrong")
    details, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    assert done.returncode == 1
    assert not result["correct"] and result["failed"] >= 1 and details["fail_ratio"] > 0


def test_a_flipped_word_pair_is_unequal_and_a_rewritten_one_equal():
    from operadics import braids
    from workloads import word_pair

    rng = random.Random(5)
    for equal in (True, False) * 10:
        strands = rng.randint(3, 6)
        w1, w2 = word_pair(rng, strands, rng.randint(16, 40), equal)
        assert braids.equal(braids.BraidWord(strands, tuple(w1)), braids.BraidWord(strands, tuple(w2))) is equal


def test_the_same_seed_gives_the_same_inputs():
    from workloads import WordProblem

    def words(seed):
        return [job.call.__defaults__ for job in next(WordProblem(seed).rounds())]

    assert words(11) == words(11) != words(12)


def test_p90_has_ten_samples_beyond_it_at_one_hundred_jobs():
    ordered = list(range(1, 101))
    assert percentile(ordered, 0.9) == 90
    assert percentile(ordered, 0.5) == 50


def test_a_directory_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = python("perfbench/run.py", "--workload", "interchange", "--seed", 1, "--seconds", 1, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
