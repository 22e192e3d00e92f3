#!/usr/bin/env python3
"""Steadiness record for tintperf.

Runs two sets of untraced runs, each with one run per seed for every
workload of BENCHMARK.json and the workloads alternating within a set
(seeds 1-10 in set 1, 11-20 in set 2). It then prints two tables.

The first gives, for every end-to-end metric of every workload, each
set's median and interquartile range (as a share of the median, with
the quartiles of statistics.quantiles(values, n=4)), the shift of the
second median against the first, and whether both stay inside the
metric's bound in BENCHMARK.json.

The second compares, for every host-time metric, the spread of the
raw values with that of the values divided epoch by epoch by the
reference kernel's host speed, which the benchmark reports, so the
normalisation can be checked on every record.

Run it from the root of the checkout:

    python3 tintperf/steady.py > steady.md

Raw results go to .bench_build/steady/runs.jsonl, one JSON line per run.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

SEEDS = 10  # runs per workload in each set
SETS = 2

HOST_TIME = ["ops_per_s", "op_p50_us", "op_p95_us", "setup_s"]


def run_once(workload, seed, seconds):
    cmd = ["bash", "tintperf/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d exit %d\n%s\n%s" % (workload, seed, p.returncode, p.stdout[-3000:], p.stderr[-3000:]))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("incorrect run: %s seed %d: %s" % (workload, seed, lines[-1]))
    res["wall_s"] = time.time() - t0
    res["log"] = lines[:-1]
    return res


def log_values(res, kind):
    """The run's `raw:` or `normalised:` log line as a dict of floats."""
    line = next(l for l in res["log"] if l.startswith(kind + ":"))
    return {k: float(v) for k, v in re.findall(r"(\w+)=(\S+)", line)}


def spread(values):
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return m, (q[2] - q[0]) / m


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    os.makedirs(".bench_build/steady", exist_ok=True)
    raw = open(".bench_build/steady/runs.jsonl", "a")

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for w in names:
                res = run_once(w, seed, bench["run_seconds"])
                results.setdefault((s, w), []).append(res)
                raw.write(json.dumps({"set": s + 1, "workload": w, "seed": seed, "result": res}) + "\n")
                raw.flush()
                print("set %d %-12s seed %-3d %5.1fs  %s" % (s + 1, w, seed, res["wall_s"], " ".join(
                    "%s=%.5g" % (m["name"], res["metrics"][m["name"]]["value"]) for m in metrics)), file=sys.stderr, flush=True)

    print("nproc: %d; %d sets of %d seeds per workload, %d s runs, workloads alternating\n" % (
        os.cpu_count(), SETS, SEEDS, bench["run_seconds"]))
    header = "| workload | metric | bound |" + "".join(" set %d median | set %d IQR |" % (s + 1, s + 1) for s in range(SETS))
    header += " shift | verdict |"
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    worst = 0.0
    for w in names:
        for m in metrics:
            row = "| %s | %s | %.2f |" % (w, m["name"], m["bound"])
            meds = []
            ok = True
            for s in range(SETS):
                vals = [r["metrics"][m["name"]]["value"] for r in results[(s, w)]]
                med, iqr = spread(vals)
                meds.append(med)
                row += " %.5g | %.3f |" % (med, iqr)
                ok = ok and iqr <= m["bound"]
                worst = max(worst, iqr / m["bound"])
            # Worse means larger for "lower" metrics, smaller for "higher".
            shift = (meds[-1] - meds[0]) / meds[0]
            worse = shift if m["better"] == "lower" else -shift
            ok = ok and worse <= m["bound"]
            row += " %+.3f | %s |" % (shift, "ok" if ok else "OUT OF BOUND")
            print(row)
    print("\nlargest IQR as a share of its bound: %.2f" % worst)

    print("\nRaw against normalised (divided by the host speed, as reported).\n")
    header = "| workload | metric |" + "".join(
        " set %d IQR raw | set %d IQR norm |" % (s + 1, s + 1) for s in range(SETS)) + " shift raw | shift norm |"
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    for w in names:
        for name in HOST_TIME:
            row = "| %s | %s |" % (w, name)
            vals = {kind: [[log_values(r, kind)[name] for r in results[(s, w)]] for s in range(SETS)]
                    for kind in ("raw", "normalised")}
            for s in range(SETS):
                row += " %.3f | %.3f |" % (spread(vals["raw"][s])[1], spread(vals["normalised"][s])[1])
            for kind in ("raw", "normalised"):
                meds = [statistics.median(v) for v in vals[kind]]
                row += " %+.3f |" % ((meds[-1] - meds[0]) / meds[0])
            print(row)


if __name__ == "__main__":
    main()
