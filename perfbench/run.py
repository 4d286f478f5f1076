#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 15 --trace 0

It builds the `dsf` library and CLI with the repository's own CMake
(Release, into .bench_build/dsf), builds the C++ package in perfbench/
against them (.bench_build/perfbench), stamps provenance, runs one workload
for --seconds and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-mix", "batch-central", "congest-paper")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        fail(2, f"command failed ({' '.join(cmd)}); see {log}")


def build(root):
    """Builds dsf and perfbench; returns (perfbench, dsf binary, cmake cache)."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(2, f"{root} is not a dsf source tree (no CMakeLists.txt / src)")
    out = root / ".bench_build"
    out.mkdir(exist_ok=True)
    log = out / "build.log"
    jobs = str(os.cpu_count() or 1)
    dsf_build = out / "dsf"
    if not (dsf_build / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(root), "-B", str(dsf_build),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", str(dsf_build), "--target", "dsf", "dsf_cli",
                "-j", jobs], log)
    bench_build = out / "perfbench"
    if not (bench_build / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(root / "perfbench"), "-B", str(bench_build),
                    "-DCMAKE_BUILD_TYPE=Release", f"-DDSF_SOURCE_DIR={root}",
                    f"-DDSF_LIBRARY={dsf_build / 'libdsf.a'}"], log)
    run_logged(["cmake", "--build", str(bench_build), "--target", "perfbench",
                "perfbench_selftest", "-j", jobs], log)
    return bench_build / "perfbench", dsf_build / "dsf", dsf_build / "CMakeCache.txt"


def cmake_cache(path):
    values = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith(("#", "//")) and "=" in line:
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def source_digest(root):
    """sha256 over the library sources and build file: the commit stamp
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"] + sorted((root / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def provenance(root, cache):
    """Stamps the build and host; refuses Debug and sanitizer builds."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", f"CMAKE_CXX_FLAGS_{build_type.upper()}"))
    sanitize = cache.get("DSF_SANITIZE", "OFF")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(3, f"refusing to measure a '{build_type}' build")
    if sanitize not in ("", "OFF") or "-fsanitize" in flags:
        fail(3, "refusing to measure a sanitizer build")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else "none",
        "source_digest": source_digest(root),
        "compiler": version,
        "cmake_build_type": build_type,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def select_metrics(wanted, result):
    """The metrics of `wanted` (BENCHMARK.json entries) from perfbench's
    result. A metric of a layer the workload names as bypassed is 0; any
    other metric must be reported, in its unit."""
    names = {m["name"] for m in wanted}
    bypassed = set(result["bypassed"])
    if bypassed - names:
        fail(4, f"perfbench bypassed unknown metrics {sorted(bypassed - names)}")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if m["name"] in bypassed:
            if got is not None:
                fail(4, f"perfbench both reported and bypassed {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            fail(4, f"perfbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        fail(2, "--seed must be >= 1 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(2, "run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    perfbench, dsf, cache = build(root)
    stamp = provenance(root, cmake_cache(cache))

    cmd = [str(perfbench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--dsf", str(dsf)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(4, f"perfbench exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = select_metrics(wanted, result)

    print(json.dumps({"provenance": stamp, "workload": args.workload,
                      "seed": args.seed, "trace": int(args.trace)}))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for name, value in sorted(result["info"].items()):
        print(f"  info.{name:23s} {value:>16.6g}")
    for why in result["failures"]:
        print(f"  FAILED {why}")
    if not result["correct"]:
        sys.stderr.write(done.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
