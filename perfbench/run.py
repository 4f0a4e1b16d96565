#!/usr/bin/env python3
"""End-to-end benchmark of dmc: builds perfbench/ and runs one workload.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the workload's report lines, then as its last line one JSON object
with the keys correct, attempted, failed and metrics: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. The seconds size the run's fixed operation count; they are
never a deadline.

Two more modes, for the benchmark's own checks:

    python3 perfbench/run.py --smoke
        runs every workload at a tiny size, untraced and traced, and
        asserts that every metric is emitted with its unit and that every
        answer was checked.

    python3 perfbench/run.py --selfcheck N [--workload NAME] [--seed N]
        runs each workload N times with one seed and prints each
        end-to-end metric's median, quartiles and quartile spread over
        median; flags spreads above the metric's bound, asserts that the
        exact counts repeat in every run, and prints one traced run's
        per-layer metrics and its overhead against the untraced runs.

The C++ benchmark program is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["deeppath-decide", "serve-mix", "churn-edges"]
EXACT = ["rounds", "messages", "bits", "max_msg_bits"]
# Wall-clock metrics printed as report lines: the self-check shows their
# spread too, but they carry no bound (README.md, "Steadiness").
UNGATED = ["latency_p50_ms", "ops_per_s", "latency_p90_ms"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark program once; returns (report lines, result).

    A traced run also leaves its spans, one JSON object per line, in
    <build dir>/spans/<workload>-seed<N>.jsonl."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # relative: unix socket paths must stay short
           "--work-dir", os.path.relpath(work, ROOT)]
    if smoke:
        cmd.append("--smoke")
    spans = os.path.join(build_dir(), "spans", f"{workload}-seed{seed}.jsonl")
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {lines[-1]!r}")
    report = lines[:-1]
    if trace:
        report.append(f"# spans: {os.path.relpath(spans, ROOT)}")
    return report, result


def check_metrics(result, wanted, where):
    """Asserts that `result` carries exactly the metrics `wanted`."""
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            fail(f"{where}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{where}: metric {m['name']} has unit "
                 f"{got[m['name']]['unit']}, expected {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        fail(f"{where}: unlisted metrics {sorted(extra)}")


def report_value(lines, name):
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "#" and parts[1] == name:
            return float(parts[3])
    return None


def smoke(binary):
    s = spec()
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w} --trace {trace}"
            lines, result = run_once(binary, w, 1, 1, trace, smoke=True)
            check_metrics(result, s[key], where)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{where}: answers failed: {lines}")
            checked = report_value(lines, "answers_checked")
            if checked is None or checked < result["attempted"]:
                fail(f"{where}: {checked} of {result['attempted']} answers "
                     "checked")
            print(f"smoke ok: {where}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics")


def selfcheck(binary, workloads, runs, seed, seconds):
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    ok = True
    for w in workloads:
        rows, wall = [], []
        for i in range(runs):
            lines, result = run_once(binary, w, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{w}: run {i} failed {result['failed']} of "
                      f"{result['attempted']}")
                ok = False
            rows.append({k: v["value"] for k, v in result["metrics"].items()})
            wall.append({k: report_value(lines, k) for k in UNGATED})
        print(f"\n{w}: {runs} runs, seed {seed}")
        print(f"  {'metric':16s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in rows[0]:
            values = [r[name] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if runs > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            if name in EXACT and len(set(values)) != 1:
                flag, ok = "  NOT EXACT", False
            print(f"  {name:16s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f}{flag}")
        for name in UNGATED:
            values = [r[name] for r in wall if r[name] is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:16s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{(q3 - q1) / med:8.4f}   (wall clock, not gated)")
        lines, traced = run_once(binary, w, seed, seconds, 1)
        print(f"  traced run, per-layer metrics:")
        for name, v in traced["metrics"].items():
            print(f"    {name:28s} {v['value']:14.6g} {v['unit']}")
        for line in lines:
            print(f"    {line}")
        traced_p50 = report_value(lines, "traced.latency_p50_ms")
        untraced_p50 = statistics.median(r["latency_p50_ms"] for r in wall)
        if traced_p50 is not None and untraced_p50 > 0:
            print(f"  tracing overhead: traced p50 {traced_p50:.4g} ms vs "
                  f"untraced {untraced_p50:.4g} ms "
                  f"({traced_p50 / untraced_p50 - 1:+.1%})")
    if not ok:
        fail("self-check found problems (see above)")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selfcheck", type=int, metavar="N")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    seconds = args.seconds or spec()["run_seconds"]
    binary = build()
    if args.smoke:
        smoke(binary)
    elif args.selfcheck:
        selfcheck(binary, [args.workload] if args.workload else WORKLOADS,
                  args.selfcheck, args.seed, seconds)
    else:
        if args.workload is None:
            p.error("--workload is required")
        lines, result = run_once(binary, args.workload, args.seed, seconds,
                                 args.trace)
        check_metrics(result, spec()["per_layer" if args.trace else
                                     "end_to_end"], args.workload)
        for line in lines:
            print(line)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
