#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  Builds `qoc_perfbench` (Release) into
`.bench_build/` from the tree's own sources, runs one workload with the
thread count that workload is pinned to, and prints the program's report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones (and writes the spans to .bench_build/).  `--tiny` runs
the self-test size.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CLAIMS = ROOT / "perfbench" / "paper_claims.tsv"

# Task-pool width each workload is pinned to (the machine has 4 CPUs; the
# fleet's two client threads come on top of its pool).
THREADS = {"paper_gates": 1, "design_sweep": 2, "fleet_service": 2}

INSTRUMENTED_FLAGS = ("QOC_SANITIZE", "QOC_SANITIZE_THREAD", "QOC_SANITIZE_UNDEFINED",
                      "QOC_CONTRACTS")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cache_value(cache, name):
    for line in cache.splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configures (once) and builds the Release benchmark program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no qoc sources under {ROOT}; run from the root of a source tree", 2)
    cache_file = BUILD / "CMakeCache.txt"
    if cache_file.is_file():
        cache = cache_file.read_text()
        for flag in INSTRUMENTED_FLAGS:
            if cache_value(cache, flag).upper() in ("ON", "TRUE", "1"):
                fail(f"{BUILD} is configured with {flag}; instrumented builds are not "
                     "benchmarks. Remove it to rebuild as Release.", 3)
        if cache_value(cache, "CMAKE_BUILD_TYPE") != "Release":
            fail(f"{BUILD} is not a Release build; remove it to rebuild.", 3)
    else:
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "qoc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "qoc_perfbench"


def source_id():
    """Git commit when the tree is a checkout, plus a digest of the sources."""
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return f"{commit[:12]}+src:{h.hexdigest()[:12]}"


def check_result(line, trace):
    """Validates the program's result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args()

    exe = build()
    env = {k: v for k, v in os.environ.items()
           if k not in ("QOC_TRACE", "QOC_METRICS", "QOC_SNAPSHOT_MS")}
    env["QOC_THREADS"] = env["OMP_NUM_THREADS"] = str(THREADS[args.workload])
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--claims", str(CLAIMS), "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(120.0, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark program exited with {proc.returncode}", proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = check_result(lines[-1], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
