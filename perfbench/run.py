"""wordlab benchmark: time to a checked verdict, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wordlab checkout; the library is imported from
./src.  The run spawns one fresh, single-threaded python process per
iteration of the workload (perfbench/workloads.py), one at a time, until
the next iteration would end after S seconds (at least MIN_ITERATIONS
iterations).  The parent measures each process from spawn to exit: wall
time, user plus system CPU time and ru_maxrss, through os.wait4.

With --trace 0 the last stdout line reports the medians over iterations
of wall_s, setup_s, cpu_s and peak_rss_mb.  With --trace 1 traced and
untraced iterations alternate; the last line reports the per-layer
metrics (medians over traced iterations) and the tracing overhead, traced
minus untraced median wall time.  Either way the last line is
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
where attempted and failed count the exact checks of every iteration.
Earlier lines give the run context and a summary; the full record, spans
included, goes to perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "workloads.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_ITERATIONS = 3                  # plus one with --trace 1: two of each kind
RUN_LIMIT_S = 170.0                 # a run must end within 180 s


class RunFailed(Exception):
    """The run cannot give a result; nothing is printed on stdout."""


def child_env(root):
    """The environment every workload process gets."""
    env = dict(os.environ)
    # the library's own 2 GiB default budget applies, not a caller's
    env.pop("WORDLAB_MAX_BYTES", None)
    env["PYTHONHASHSEED"] = "0"
    # cached bytecode, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(workload, seed, traced, env, timeout):
    """One workload process: its own report plus wall, CPU and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--t0", repr(t0), "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, env=env)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise RunFailed("%s iteration exceeded %.0f s" % (workload, timeout))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code == workloads.OPTIMIZE_EXIT:
        raise RunFailed("workload process runs with python -O")
    lines = out.decode().splitlines()
    report = None
    if code == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    if report is None:
        # a crash loses every verdict of the iteration: one failed check
        report = {"attempted": 1, "failures": ["process exited %d" % code],
                  "setup_s": wall, "counts": {}, "versions": {}}
    report.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=code,
                  traced=traced)
    return report


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(it):
    """Per-layer numbers of one traced iteration."""
    spans = it["spans"]
    own = self_times(spans)
    m = {"startup_s": it["startup_s"], "uncovered_s": own[0]}
    for mod in workloads.MODULES:
        mine = [i for i, s in enumerate(spans) if s["name"].split(".")[0] == mod]
        m[mod + ".self_s"] = sum(own[i] for i in mine)
        m[mod + ".rss_mb"] = spans[mine[-1]]["rss_mb"]
    for name in workloads.COUNTS:
        m[name] = it["counts"].get(name, 0)
    return m


def declared_units(root, trace):
    """Unit of each metric BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_context(root, args, iterations):
    commit = ""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # MemTotal, as /proc/meminfo gives it
    mem_mb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    versions = next((it["versions"] for it in iterations if it["versions"]), {})
    return {"commit": commit or "unknown", "python": versions.get("python"),
            "numpy": versions.get("numpy"), "nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": mem_mb,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "iterations": len(iterations)}


def measure(args, root):
    env = child_env(root)
    start = time.perf_counter()
    iterations = []
    traced = False
    while True:
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS + args.trace:
            typical = statistics.median(it["wall_s"] for it in iterations)
            if elapsed + typical > args.seconds:
                break
        it = run_child(args.workload, args.seed, traced, env, RUN_LIMIT_S - elapsed)
        iterations.append(it)
        if args.trace:
            traced = not traced
    return iterations


def summarize(iterations, trace):
    plain = [it for it in iterations if not it["traced"]]
    med = lambda key, its: statistics.median(it[key] for it in its)
    if not trace:
        return {k: med(k, plain) for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    traced = [it for it in iterations if it["traced"]]
    rows = [layer_metrics(it) for it in traced if "spans" in it]
    if not rows:
        raise RunFailed("no traced iteration returned spans")
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace_overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
    return metrics


def span_table(iterations):
    """Median self time and last RSS high-water mark per span name."""
    table = {}
    for it in iterations:
        if "spans" not in it:
            continue
        for s, own in zip(it["spans"], self_times(it["spans"])):
            row = table.setdefault(s["name"], {"self_s": [], "rss_mb": []})
            row["self_s"].append(own)
            row["rss_mb"].append(s["rss_mb"])
    return {name: {"self_s": statistics.median(r["self_s"]),
                   "rss_mb": statistics.median(r["rss_mb"])}
            for name, r in table.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wordlab", "__init__.py")):
        sys.stderr.write("perfbench: no src/wordlab under %s; run from the root "
                         "of a wordlab checkout\n" % root)
        return 2
    try:
        units = declared_units(root, args.trace)
        iterations = measure(args, root)
        metrics = summarize(iterations, args.trace)
        if set(metrics) != set(units):
            raise RunFailed("metrics %s differ from those BENCHMARK.json declares"
                            % sorted(set(metrics) ^ set(units)))
    except RunFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2

    attempted = sum(it["attempted"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    context = run_context(root, args, iterations)
    record = {"context": context, "metrics": metrics,
              "attempted": attempted, "failures": failures,
              "spans": span_table(iterations), "iterations": iterations}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("context " + json.dumps(context))
    for i, it in enumerate(iterations):
        print("iteration %d%s: wall %.3f s, setup %.3f s, cpu %.3f s, peak %.1f MB, "
              "%d checks, %d failed" % (i, " traced" if it["traced"] else "",
                                        it["wall_s"], it["setup_s"], it["cpu_s"],
                                        it["peak_rss_mb"], it["attempted"],
                                        len(it["failures"])))
    for name, row in record["spans"].items():
        print("span %-40s self %8.3f s  rss %8.1f MB" % (name, row["self_s"], row["rss_mb"]))
    for f in failures:
        print("FAILED " + f)
    print("record " + os.path.relpath(path, root))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
