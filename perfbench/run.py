#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <formation|trading> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark binary prints human-readable lines and then a JSON result
with every metric it measured. This script passes the lines through and
prints, as its last line, the result restricted to the metrics that
BENCHMARK.json names for the mode: `end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`. A per-layer metric of a layer the workload
does not exercise reads 0. An end-to-end metric that is missing or 0, a
unit that disagrees with BENCHMARK.json, a failed build or a failed output
check exits non-zero without a result line.
"""

import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def trace_flag(argv):
    for flag, val in zip(argv, argv[1:]):
        if flag == "--trace":
            return val != "0"
    return False


def main():
    argv = sys.argv[1:]
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace_flag(argv) else spec["end_to_end"]
    for m in wanted:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail(f"invalid metric name or unit in BENCHMARK.json: {m}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    run = subprocess.run([exe] + argv, env=env, stdout=subprocess.PIPE,
                         text=True, check=False)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if wanted is spec["end_to_end"]:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
        if wanted is spec["end_to_end"] and not got["value"] > 0:
            fail(f"end-to-end metric {m['name']} read {got['value']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
