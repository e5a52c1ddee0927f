#!/usr/bin/env python3
"""End-to-end DiVE benchmark: builds the benchmark from source, then runs it.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --digest --workload <name> --seed <n>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --steadiness <runs> [--workloads a,b] [--seconds <s>]

The build tree is .bench_build/perfbench at the repository root (Release).
Everything but the steadiness report is forwarded to the dive_perfbench
binary, whose last stdout line is the JSON result.
"""
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dive_perfbench")
RUN_TIMEOUT_S = 170


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs()),
                  "--target", "dive_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def revision():
    """Git revision when the checkout is a repository, and always a digest
    of the program and benchmark sources."""
    git = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            git = out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "git:%s,sources:%s" % (git, h.hexdigest()[:12])


def run_binary(args, capture=False):
    cmd = [BINARY] + args
    if "--selftest" not in args and "--digest" not in args:
        cmd += ["--revision", revision()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("dive_perfbench timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def steadiness(argv):
    """Runs each workload N times on seeds 1..N and prints, per end-to-end
    metric, the median, quartiles and quartile spread as a share of the
    metric's bound in BENCHMARK.json."""
    runs = int(argv[argv.index("--steadiness") + 1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = str(spec["run_seconds"])
    if "--seconds" in argv:
        seconds = argv[argv.index("--seconds") + 1]
    names = [w["name"] for w in spec["workloads"]]
    if "--workloads" in argv:
        names = argv[argv.index("--workloads") + 1].split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {}
        shares = set()
        for seed in range(1, runs + 1):
            code, out = run_binary(["--workload", name, "--seed", str(seed),
                                    "--seconds", seconds, "--trace", "0"],
                                   capture=True)
            if code != 0:
                print("%s seed %d: exit %d" % (name, seed, code))
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: checks failed" % (name, seed))
                return 1
            shares.add(result["failed"] / result["attempted"])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print("%s: %d runs, failed share %s" % (name, runs, sorted(shares)))
        print("  %-22s %14s %14s %14s %8s %8s" % (
            "metric", "q1", "median", "q3", "spread", "/bound"))
        for metric, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print("  %-22s %14.6g %14.6g %14.6g %7.2f%% %7.2f" % (
                metric, q1, med, q3, 100 * spread, share))
            print("  %-22s %s" % ("", " ".join("%.5g" % x for x in v)))
        sys.stdout.flush()
    print("largest spread / bound (setup_s aside): %.2f" % worst)
    return 0


def main():
    argv = sys.argv[1:]
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    if "--steadiness" in argv:
        return steadiness(argv)
    code, _ = run_binary(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
