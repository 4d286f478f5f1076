#!/usr/bin/env python3
"""Asserts the acceptance ratios of the serve, router and portfolio series.

    python3 bench/check_acceptance.py DIR

Reads DIR/BENCH_serve.json, DIR/BENCH_router.json and DIR/BENCH_portfolio.json
(Google Benchmark JSON, as bench/run_benchmarks.sh writes them), prints one
line per assertion and exits 1 when any fails or a series is missing. Each
ratio compares two configurations measured in the same run on the same host,
so it holds where absolute milliseconds drift:

  BM_ServeLoad/8/50         hit_speedup >= 10      cache hit vs miss, p50
  BM_ChurnRevise            p95_speedup >= 2       warm revise vs cold solve
                            cost_ratio_worst <= 1.05
  BM_PortfolioMixedSweep/4  p95_speedup >= 1.3     mode=first vs best single
                            (only when the stamped nproc >= 4: a narrower
                            host cannot race four members; "skipped" then)
  every serve and router series: errors == 0
"""
import json
import operator
import os
import sys

CHECKS = [
    # (file, series, counter, comparison, bound, minimum stamped nproc)
    ("BENCH_serve.json", "BM_ServeLoad/8/50", "hit_speedup", ">=", 10.0, 0),
    ("BENCH_serve.json", "BM_ChurnRevise", "p95_speedup", ">=", 2.0, 0),
    ("BENCH_serve.json", "BM_ChurnRevise", "cost_ratio_worst", "<=", 1.05, 0),
    ("BENCH_portfolio.json", "BM_PortfolioMixedSweep/4", "p95_speedup", ">=",
     1.3, 4),
]
ERROR_FILES = ["BENCH_serve.json", "BENCH_router.json"]
OPS = {">=": operator.ge, "<=": operator.le}


def series(doc, name):
    """The benchmark run named `name` (Google Benchmark appends
    /iterations:N and similar suffixes after a '/')."""
    for bench in doc.get("benchmarks", []):
        full = bench.get("name", "")
        if full == name or full.startswith(name + "/"):
            return bench
    return None


def main(argv):
    if len(argv) != 2:
        print("usage: check_acceptance.py DIR", file=sys.stderr)
        return 2
    out_dir = argv[1]
    docs = {}
    failures = 0

    def load(name):
        if name not in docs:
            try:
                with open(os.path.join(out_dir, name)) as f:
                    docs[name] = json.load(f)
            except (OSError, ValueError) as e:
                report(False, f"{name}: unreadable ({e})")
                docs[name] = {}
        return docs[name]

    def report(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures += 1

    for fname, name, counter, op, bound, min_nproc in CHECKS:
        doc = load(fname)
        bench = series(doc, name)
        label = f"{fname} {name} {counter} {op} {bound}"
        if bench is None or counter not in bench:
            report(False, f"{label}: series or counter missing")
            continue
        nproc = doc.get("context", {}).get("nproc", 0)
        if nproc < min_nproc:
            print(f"skip  {label}: skipped (stamped nproc {nproc} < "
                  f"{min_nproc})")
            continue
        value = bench[counter]
        report(OPS[op](value, bound), f"{label}: {value:g}")

    for fname in ERROR_FILES:
        runs = load(fname).get("benchmarks", [])
        if not runs:
            report(False, f"{fname}: no series")
        for bench in runs:
            value = bench.get("errors")
            report(value == 0, f"{fname} {bench.get('name')} errors == 0: "
                   f"{value}")

    if failures:
        print(f"{failures} acceptance check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
