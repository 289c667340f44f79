"""Tests of the benchmark's own gates.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import os
import random
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench          # noqa: E402
import workloads             # noqa: E402


def _lib():
    return {m: importlib.import_module("wordlab." + m) for m in workloads.MODULES}


def test_workload_passes_every_check():
    run = workloads.Run(time.perf_counter(), traced=True)
    workloads.xk_ergodic(run, _lib(), seed=5)
    assert run.failures == []
    assert run.attempted >= 8


def test_planted_wrong_value_fails_one_check(monkeypatch):
    want = dict(workloads.EXPECTED["xk-ergodic"], p_81=29194)
    monkeypatch.setitem(workloads.EXPECTED, "xk-ergodic", want)
    run = workloads.Run(time.perf_counter(), traced=False)
    workloads.xk_ergodic(run, _lib(), seed=5)
    assert len(run.failures) == 1
    assert run.failures[0].startswith("p(81)")


def test_window_counts_match_brute_force():
    rng = random.Random(3)
    for length, cap in ((1, 1), (40, 5), (300, 40), (500, 70)):
        text = "".join(rng.choice("0012") for _ in range(length))
        want = [len({text[i:i + n] for i in range(length - n + 1)})
                for n in range(1, cap + 1)]
        assert workloads._window_counts(text, cap) == want


def test_raising_call_fails_one_check():
    run = workloads.Run(time.perf_counter(), traced=False)
    with run.guard("boom"):
        raise ValueError("planted")
    run.check("after", True)
    assert run.attempted == 2 and len(run.failures) == 1


def test_optimized_child_fails_the_run():
    env = bench.child_env(ROOT)
    env["PYTHONOPTIMIZE"] = "1"
    proc = subprocess.run(
        [sys.executable, bench.CHILD, "--workload", "xk-ergodic", "--seed", "1",
         "--t0", "0", "--trace", "0"], env=env, capture_output=True, timeout=60)
    assert proc.returncode == workloads.OPTIMIZE_EXIT and proc.stdout == b""
    with pytest.raises(bench.RunFailed):
        bench.run_child("xk-ergodic", 1, False, env, timeout=60)


def test_without_library_no_result(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "xk-ergodic", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""


def test_child_env_is_pinned(monkeypatch):
    monkeypatch.setenv("WORDLAB_MAX_BYTES", "1")
    env = bench.child_env(ROOT)
    assert "WORDLAB_MAX_BYTES" not in env
    assert env["PYTHONHASHSEED"] == "0"


def test_self_times_subtract_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 9.0, "parent": 0}]
    assert bench.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
