#!/usr/bin/env python3
"""Data-plane benchmark for `xmlstore serve`.

Run from the root of the source tree:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
  python3 perfbench/run.py compare RESULTS_A RESULTS_B
  python3 perfbench/run.py selftest

A run builds the server and the benchmark runner from source with dune,
then runs the runner, which prints one line per metric and, as the last
line of stdout, the result object. Per-run files (with a header naming
the seed, git rev, host cores, OCaml version, server command line, flush
policy and document sizes) go to perfbench/results/; scratch files go to
perfbench/work/ and are removed at the end of the run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import compare  # noqa: E402

WORKLOADS = ["query_steady", "load_grow", "mixed_rw"]
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVER = os.path.join("_build", "default", "bin", "xmlstore_cli.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "xmlstore_cli.ml"))):
        fail("run this from the root of the xmlstore source tree (no dune-project or bin/ here)")
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", SERVER, RUNNER],
                       stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(workload, seed, seconds, trace):
    r = subprocess.run([RUNNER, "run", "--workload", workload, "--seed", seed,
                        "--seconds", seconds, "--trace", trace,
                        "--server", SERVER, "--rev", git_rev(),
                        "--out", os.path.relpath(os.path.join(HERE, "results")),
                        "--work", os.path.relpath(os.path.join(HERE, "work"))])
    return r.returncode


def parse_run_args(argv):
    opts = {"workload": None, "seed": None, "seconds": None, "trace": "0"}
    it = iter(argv)
    for key in it:
        name = key[2:] if key.startswith("--") else None
        if name not in opts:
            fail("unknown argument %s" % key)
        opts[name] = next(it, None)
    if None in opts.values():
        fail("usage: run.py --workload W|all --seed N --seconds S --trace 0|1")
    if opts["workload"] not in WORKLOADS + ["all"]:
        fail("unknown workload %s (choose from %s, all)" % (opts["workload"], ", ".join(WORKLOADS)))
    if opts["trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    try:
        int(opts["seed"])
        if float(opts["seconds"]) <= 0:
            raise ValueError
    except ValueError:
        fail("--seed takes an integer and --seconds a positive number")
    return opts


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare RESULTS_A RESULTS_B")
        with open("BENCHMARK.json") as f:
            benchmark = json.load(f)
        print(compare.render(compare.compare(argv[1], argv[2], benchmark)))
        return 0
    if argv[:1] == ["selftest"]:
        build()
        code = subprocess.run([RUNNER, "selftest"]).returncode
        return 1 if code != 0 or compare.selftest() else 0
    opts = parse_run_args(argv)
    build()
    workloads = WORKLOADS if opts["workload"] == "all" else [opts["workload"]]
    codes = [run_one(w, opts["seed"], opts["seconds"], opts["trace"]) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
