#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload study|serve_daily|serve_query \
        --seed N --seconds T --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build, generates the workload's inputs from the seed into a fresh
directory under .bench_run in a separate process, runs the workload, removes
the directory, and exits nonzero if any output check failed. The last line
of standard output is the JSON result.

An untraced run measures in PROCESSES fresh processes, each for an equal
share of --seconds, and reports the mean of their metrics (the median for
setup_s): on identical inputs one process's advance_day median sat steadily
near 290 ms while the next one's wandered around 255 ms, so a single process
is one draw from a bimodal distribution. A traced run is one process.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("study", "serve_daily", "serve_query")
PROCESSES = 3
# Together the steps stay under three minutes.
GEN_TIMEOUT_S = 40
RUN_TIMEOUT_S = 130


def build():
    """Configure (once) and build the harness; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "plbench")


def run_step(argv, timeout, capture=False):
    """Run one harness step in its own process group; on timeout the whole
    group (cold-study children included) is killed and reaped. Returns the
    exit code and, when captured, the standard output."""
    proc = subprocess.Popen(argv, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def combine(results):
    """One result from the per-process ones."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = (statistics.median(values) if name == "setup_s"
                 else statistics.fmean(values))
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", run_dir]
    try:
        if run_step([binary, "gen", *common], GEN_TIMEOUT_S)[0]:
            sys.exit("perfbench: input generation failed")
        processes = 1 if args.trace == "1" else PROCESSES
        deadline = time.monotonic() + RUN_TIMEOUT_S
        results, status = [], 0
        for _ in range(processes):
            code, out = run_step(
                [binary, "run", *common, "--seconds",
                 str(args.seconds / processes), "--trace", args.trace],
                deadline - time.monotonic(), capture=True)
            lines = out.strip().splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            try:
                results.append(json.loads(lines[-1]))
            except ValueError:
                sys.exit(f"perfbench: the run printed no result (exit {code})")
            status = status or code
        print(json.dumps(combine(results)), flush=True)
        return status
    except subprocess.TimeoutExpired as err:
        sys.exit(f"perfbench: timed out: {err}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
