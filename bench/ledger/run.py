#!/usr/bin/env python3
"""Builds and runs bench_ledger, the repository's benchmark.

One workload, one run (the form BENCHMARK.json's command takes):

  python3 bench/ledger/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.

Every workload, untraced `--runs` times plus one traced pass:

  python3 bench/ledger/run.py --workload all --runs 5 --out ledger.json
  python3 bench/ledger/run.py --workload all --compare OLD.json

--out writes medians, spreads and every run (the format of
reference/BENCH_*.json) and, per workload, the traced run's per-request
spans as Chrome trace JSON (<out>.<workload>.spans.json). --compare prints
old, new and the change for every (metric, workload) pair and exits 1 when
an end-to-end metric got worse by more than its BENCHMARK.json bound.
--smoke runs tiny tables for one second (the ctest bench_ledger_smoke).

The binary is built from source with CMake into .bench_build/ledger at the
root of the checkout (--build-dir overrides). Exit status: 0 success, 1 a
failed build, run or correctness check, 2 a malformed command line or a set
PDB_FAULT.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LEDGER_DIR = os.path.join(ROOT, "bench", "ledger")
WORKLOADS = ["paper_mix", "wire_mixed", "lp_bigtable", "wire_durable"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds bench_ledger; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("src/ is missing: bench_ledger builds from source")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", LEDGER_DIR, "-B", build_dir],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_ledger",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bench_ledger")


def run_once(binary, args, workload, seed, trace, spans=None):
    """One child process, one workload; returns its parsed report."""
    scratch = os.path.join(os.path.dirname(binary), "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % trace,
           "--scratch=" + scratch]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd.append("--spans=" + spans)
    log("# " + " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no report (exit %d)"
                           % (workload, proc.returncode))
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise RuntimeError("%s exited %d" % (workload, proc.returncode))
    return report


def select(spec, report, trace):
    """The BENCHMARK.json metrics of one pass, checked for presence, unit and
    finiteness; returns (metrics, problems)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        row = report["metrics"].get(m["name"])
        if row is None:
            problems.append("missing metric " + m["name"])
        elif row["unit"] != m["unit"]:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (m["name"], row["unit"], m["unit"]))
        elif not math.isfinite(row["value"]):
            problems.append("%s is not finite" % m["name"])
        else:
            metrics[m["name"]] = {"value": row["value"], "unit": row["unit"]}
    return metrics, problems


def print_rows(workload, metrics):
    for name, row in metrics.items():
        print("%-14s %-36s %16.4f %s" % (workload, name, row["value"], row["unit"]))


def spread(values):
    """Inter-quartile distance as a share of the median, and max/min."""
    med = statistics.median(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = (q[2] - q[0]) / med if med else 0.0
    else:
        iqr = 0.0
    lo = min(values)
    return iqr, (max(values) / lo if lo else 0.0)


def summarize(runs):
    """Per-metric median and spread over a list of run metric dicts, plus
    the medians of the even- and odd-numbered runs: two interleaved sets of
    the same commit, whose agreement shows the bounds are wide enough."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs if name in r]
        iqr, ratio = spread(values)
        out[name] = {"unit": runs[0][name]["unit"],
                     "median": statistics.median(values),
                     "iqr_share": iqr, "max_over_min": ratio,
                     "runs": values}
        if len(values) >= 2:
            out[name]["set_medians"] = [statistics.median(values[0::2]),
                                        statistics.median(values[1::2])]
    return out


def env_block(build_dir):
    """Where the numbers came from (--out only: reads the host's files)."""
    def read(path, default="unknown"):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return default
    model = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    fs, best = "unknown", ""
    scratch = os.path.realpath(build_dir)
    for line in read("/proc/mounts", "").splitlines():
        parts = line.split()
        if len(parts) >= 3 and scratch.startswith(parts[1]) and \
                len(parts[1]) > len(best):
            fs, best = parts[2], parts[1]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": model,
            "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "uintr": "simulated", "log_filesystem": fs}


def compare(spec, old, new):
    """Prints one row per (metric, workload); returns True if an end-to-end
    metric regressed past its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print("%-14s %-36s %14s %14s %9s" % ("workload", "metric", "old", "new",
                                         "delta%"))
    for wl, metrics in sorted(new.items()):
        for name, row in metrics.items():
            before = old.get(wl, {}).get(name)
            if before is None:
                continue
            o, n = before["median"], row["median"]
            delta = (n - o) / o * 100 if o else 0.0
            flag = ""
            m = bounds.get(name)
            if m is not None and o:
                worse = (n - o) / o if m["better"] == "lower" else (o - n) / o
                if worse > m["bound"]:
                    flag = "  REGRESSED (bound %g%%)" % (m["bound"] * 100)
                    regressed = True
            print("%-14s %-36s %14.4f %14.4f %+8.2f%%%s"
                  % (wl, name, o, n, delta, flag))
    return regressed


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Build and run bench_ledger.", allow_abbrev=False)
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window per run (default 10, smoke 1)")
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="single workload: 1 runs the traced pass (default 0)")
    p.add_argument("--runs", type=int, default=1,
                   help="--workload all: untraced runs per workload")
    p.add_argument("--out", help="--workload all: write the results here")
    p.add_argument("--compare", metavar="OLD.json",
                   help="--workload all: compare against an --out file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir",
                   default=os.path.join(ROOT, ".bench_build", "ledger"))
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 10.0
    if args.seconds <= 0 or args.runs < 1 or args.seed < 0:
        p.error("--seconds and --runs must be positive, --seed non-negative")
    if args.workload != "all" and (args.out or args.compare or args.runs > 1):
        p.error("--out, --compare and --runs need --workload all")
    if args.workload == "all" and args.trace is not None:
        p.error("--trace selects one pass of one workload; --workload all "
                "runs both")
    args.trace = args.trace or 0
    return args


def main(argv):
    args = parse_args(argv)
    if "PDB_FAULT" in os.environ:
        log("run.py: PDB_FAULT is set; a fault-armed run is not a baseline")
        return 2
    try:
        spec = load_spec()
        binary = build(args.build_dir)
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    if args.workload != "all":
        try:
            report = run_once(binary, args, args.workload, args.seed, args.trace)
        except (OSError, ValueError, RuntimeError,
                subprocess.SubprocessError) as e:
            log("run.py: %s" % e)
            return 1
        metrics, problems = select(spec, report, args.trace)
        for msg in problems + report.get("failed_checks", []):
            log("run.py: " + msg)
        correct = report["correct"] and not problems
        print_rows(args.workload, report["metrics"])
        print(json.dumps({"correct": correct, "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": metrics}))
        return 0 if correct else 1

    results, correct, attempted, failed = {}, True, 0, 0
    for wl in WORKLOADS:
        untraced, traced = [], None
        try:
            for i in range(args.runs):
                untraced.append(run_once(binary, args, wl, args.seed + i, 0))
            spans = "%s.%s.spans.json" % (args.out, wl) if args.out else None
            traced = run_once(binary, args, wl, args.seed, 1, spans)
        except (OSError, ValueError, RuntimeError,
                subprocess.SubprocessError) as e:
            log("run.py: %s" % e)
            return 1
        rows = []
        for report, trace in [(r, 0) for r in untraced] + [(traced, 1)]:
            metrics, problems = select(spec, report, trace)
            for msg in problems + report.get("failed_checks", []):
                log("run.py: %s: %s" % (wl, msg))
            correct = correct and report["correct"] and not problems
            attempted += report["attempted"]
            failed += report["failed"]
            rows.append(metrics)
        summary = summarize(rows[:-1])
        for name, row in traced["metrics"].items():
            summary.setdefault(name, {"unit": row["unit"],
                                      "median": row["value"], "traced": True})
        base = summary["hp_p50_us"]["median"]
        traced_p50 = traced["metrics"]["hp_p50_us"]["value"]
        summary["obs.trace_overhead"] = {
            "unit": "ratio", "median": traced_p50 / base - 1 if base else 0.0,
            "traced": True}
        results[wl] = summary
        print_rows(wl, {n: {"value": s["median"], "unit": s["unit"]}
                        for n, s in summary.items()})

    regressed = False
    if args.compare:
        with open(args.compare) as f:
            regressed = compare(spec, json.load(f)["workloads"], results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"env": env_block(args.build_dir), "runs": args.runs,
                       "seconds": args.seconds, "seed": args.seed,
                       "workloads": results}, f, indent=1)
            f.write("\n")
    flat = {"%s.%s" % (wl, n): {"value": s["median"], "unit": s["unit"]}
            for wl, summary in results.items() for n, s in summary.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if correct and not regressed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
