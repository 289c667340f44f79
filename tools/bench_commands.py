"""Wall time and peak RSS of the README's commands, one fresh process each.

    python3 tools/bench_commands.py > BENCH_<commit>.json

Each case runs as `python -m wordlab.cli ARGS` with the checkout's src on
PYTHONPATH and the library's default byte budget.  The parent reads the
child's wall time and ru_maxrss through os.wait4, so each case reports its
own peak (RUSAGE_CHILDREN would be a maximum over every case so far).
Stdout is a JSON list with one record per case: the command, its exit
code, wall_s, peak_rss_mb and the sha256 of its stdout.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# past the README: the deepest r = 3 structure check, and a census that the
# byte budget refuses after the word lists and the search host are built
EXTRA = [
    "xk --r 3 --max-level 9 verify-structure",
    "xk --r 3 --max-level 6 complexity --n 82..243 --max-bytes 67108864",
]


def commands():
    """The README's `wordlab ...` lines, then EXTRA, as argument lists."""
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = [line.split()[1:] for line in f if line.startswith("wordlab ")]
    return readme + [line.split() for line in EXTRA]


def run_case(args):
    """One command in its own process; its record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("WORDLAB_MAX_BYTES", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "wordlab.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"command": " ".join(args), "exit_code": code,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "stdout_sha256": hashlib.sha256(out).hexdigest()}


def main():
    records = [run_case(args) for args in commands()]
    print("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]")


if __name__ == "__main__":
    main()
