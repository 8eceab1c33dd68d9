#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dirty|clean --seed N --seconds S --trace 0|1

The benchmark is the Cargo package in this directory, a workspace of its own
over the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build) and run with the arguments
given. Its stdout is passed through; the last line is the JSON result,
printed only if its metric names and units are exactly the ones
BENCHMARK.json lists for the trace mode asked for. The exit code is the
benchmark's (nonzero when a check failed), or 1 when the build or the
result itself is unusable.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first build compiles the workspace from scratch; later ones are
# no-ops. A run itself takes well under a minute.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 1


def expected_units(argv):
    """Metric name -> unit that BENCHMARK.json promises for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    section = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(line, units):
    """Why `line` is not a valid result for `units`, or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON ({e}): {line[:200]!r}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"result keys are not {sorted(RESULT_KEYS)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(units) & set(got) if units[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}"
    return None


def main(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        return fail("the workspace crates are missing; run from a full checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if built.returncode != 0:
        return fail(f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"benchmark did not finish: {e}")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        if lines:
            print(lines[-1])
        return run.returncode
    if not lines:
        return fail("the benchmark printed nothing")
    problem = check_result(lines[-1], expected_units(argv))
    if problem:
        return fail(problem)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
