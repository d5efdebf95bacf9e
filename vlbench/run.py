#!/usr/bin/env python3
"""Build the vlbench benchmark from source and run it.

Usage, from the root of a checkout:

  python3 vlbench/run.py --workload live_stream --seed 1 --seconds 20 --trace 0
  python3 vlbench/run.py --aa 10 --workload kgdb_link --seconds 20

The first form builds vlbench (a Go module of its own that uses the
repository through a replace directive) into .bench_build/ and runs it with
the given flags; its last line of output is the result. The second form is
the A/A steadiness report: it runs the workload once per seed 1..N and
prints, for every metric, the median, the quartiles, the spread between the
quartiles as a share of the median, and the max/min spread.

Everything the build writes (Go build cache, telemetry, the binary) stays in
.bench_build/ inside the checkout.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "vlbench")


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BIN, "."], cwd=SRC, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("vlbench: build failed")


def flag(args, name, default):
    for i, a in enumerate(args):
        if a in ("--" + name, "-" + name) and i + 1 < len(args):
            return args[i + 1]
    return default


def without(args, name):
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a in ("--" + name, "-" + name):
            skip = True
        else:
            out.append(a)
    return out


def steadiness(n, args):
    """Run the workload for seeds 1..n and report each metric's spread."""
    args = without(args, "seed")
    values, failed = {}, 0
    for seed in range(1, n + 1):
        r = subprocess.run([BIN] + args + ["--seed", str(seed)], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.exit("vlbench: seed %d exited %d" % (seed, r.returncode))
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            failed += 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-34s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "rng/med"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        print("%-34s %12.4f %12.4f %12.4f %8.3f %8.3f" % (name, med, q1, q3, iqr, rng))
    print("runs: %d, incorrect or with failed operations: %d" % (n, failed))
    return 1 if failed else 0


def main():
    args = sys.argv[1:]
    aa = flag(args, "aa", None)
    build()
    if aa is not None:
        return steadiness(int(aa), without(args, "aa"))
    return subprocess.run([BIN] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
