#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at its tiny size, untraced
and traced, and checks that each run succeeds with zero failed operations and
prints every metric BENCHMARK.json names, with its unit, both in the report
and in the result line.  The traced runs must also print the layer table with
its `unattributed` row and the tracing overhead.

    python3 perfbench/selftest.py

Takes about a minute after the build.  Exits non-zero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"selftest: {workload} trace={trace}: exit code {proc.returncode}")
    return proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, trace)
            lines = out.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            report = "\n".join(lines[:-1])
            tag = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: result lacks {m['name']} [{m['unit']}]")
                if not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                           for line in report.split("\n") if line.strip()):
                    problems.append(f"{tag}: report does not print {m['name']} [{m['unit']}]")
            if trace and ("unattributed" not in report or "tracing overhead" not in report):
                problems.append(f"{tag}: layer table or tracing overhead missing")
            print(f"selftest: {tag}: {result['attempted']} operations, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
