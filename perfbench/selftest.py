#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a small world scale.

    python3 perfbench/selftest.py

Builds the harness like run.py does, then for each workload generates
inputs and runs it untraced and traced, asserting that the run passes its
checks and prints every metric BENCHMARK.json names, with its unit. Then it
proves the output checks bite: a wrong expected study fingerprint and a
wrong expected serve_daily end state must each make the run fail.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (perfbench/run.py)

SCALE = "0.05"
SECONDS = "1"
# Lines each workload prints by the names the metric map in README.md uses.
TEXT_METRICS = {
    "study": ["setup_s", "run_p50_ms", "open_snapshot_p50_ms", "peak_rss_mb"],
    "serve_daily": ["setup_s", "advance_p50_ms", "asof_p50_ms",
                    "wal_kb_per_day", "peak_rss_mb"],
    "serve_query": ["setup_s", "lookup_p50_us", "lookup_hot_p50_us",
                    "lookup_p99_us", "scan_p50_ms", "peak_rss_mb"],
}


def harness(binary, mode, workload, run_dir, *extra):
    argv = [binary, mode, "--workload", workload, "--seed", "7", "--dir",
            run_dir, "--scale", SCALE, *extra]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def small_fingerprint(binary, run_dir):
    """The study fingerprint at SCALE, which has no pinned reference: the
    one a cold-study process prints."""
    os.makedirs(run_dir, exist_ok=True)
    out = subprocess.run([binary, "cold-study", "--dir", run_dir, "--scale",
                          SCALE], capture_output=True, text=True, timeout=170)
    check(out.returncode == 0 and out.stdout.startswith("saved 0x"),
          f"cold-study failed: {out.stdout}{out.stderr}")
    return out.stdout.split()[1]


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    run_dir = os.path.join(run.RUNS, f"selftest-{os.getpid()}")
    try:
        expect = ["--expect-fingerprint", small_fingerprint(binary, run_dir)]
        for workload in TEXT_METRICS:
            for trace, specs in (("0", bench["end_to_end"]),
                                 ("1", bench["per_layer"])):
                shutil.rmtree(run_dir, ignore_errors=True)
                gen = harness(binary, "gen", workload, run_dir)
                check(gen.returncode == 0, f"{workload}: gen failed")
                out = harness(binary, "run", workload, run_dir,
                              "--seconds", SECONDS, "--trace", trace,
                              *(expect if workload == "study" else []))
                check(out.returncode == 0,
                      f"{workload} trace={trace} exited {out.returncode}:\n"
                      f"{out.stdout}{out.stderr}")
                result = json.loads(out.stdout.strip().splitlines()[-1])
                check(result["correct"] and result["failed"] == 0 and
                      result["attempted"] >= 1,
                      f"{workload} trace={trace}: {result}")
                printed = result["metrics"]
                want = {m["name"]: m["unit"] for m in specs}
                check(set(printed) == set(want),
                      f"{workload} trace={trace}: metrics {sorted(printed)}")
                for name, unit in want.items():
                    check(printed[name]["unit"] == unit,
                          f"{workload}: {name} unit {printed[name]['unit']}")
                if trace == "0":
                    for name in want:
                        check(printed[name]["value"] > 0,
                              f"{workload}: {name} reads 0")
                    for name in TEXT_METRICS[workload]:
                        check(f"{name} = " in out.stdout,
                              f"{workload}: no '{name} = ' line")
                print(f"ok  {workload} trace={trace}")

        shutil.rmtree(run_dir, ignore_errors=True)
        harness(binary, "gen", "study", run_dir)
        out = harness(binary, "run", "study", run_dir, "--seconds", SECONDS,
                      "--trace", "0", "--expect-fingerprint", "0x1")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        check(out.returncode != 0 and not result["correct"] and
              result["failed"] > 0,
              "a wrong expected fingerprint did not fail the study run")
        print("ok  study fails on a wrong expected fingerprint")

        shutil.rmtree(run_dir, ignore_errors=True)
        harness(binary, "gen", "serve_daily", run_dir, "--corrupt-expected")
        out = harness(binary, "run", "serve_daily", run_dir, "--seconds",
                      SECONDS, "--trace", "0")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        check(out.returncode != 0 and not result["correct"] and
              "end state differs" in out.stdout,
              "a wrong expected end state did not fail serve_daily")
        print("ok  serve_daily fails on a wrong expected end state")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(run.RUNS)
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
