#!/usr/bin/env python3
"""Run the benchmark over several seeds and judge its spread against its bounds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--out runs.json] [--compare earlier.json]

For each workload in BENCHMARK.json it runs perfbench/run.py once per seed
(seeds 1..10) with BENCHMARK.json's run_seconds and reports, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartile as a share of the median. A spread above a third of
the metric's bound is flagged, setup_s included. With --compare, the medians
are also checked against an earlier --out file: no metric may be worse by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread, steady, within_bound

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def collect(workload: str, seconds: int) -> list[dict]:
    results = []
    for seed in range(1, SEEDS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        results.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"{workload} seed {seed}: {results[-1]}", file=sys.stderr)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {w["name"]: collect(w["name"], spec["run_seconds"]) for w in spec["workloads"]}
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    ok = True
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in results]
            median = statistics.median(values)
            spread = relative_spread(values)
            verdict = "ok" if steady(values, bound) else "WIDE"
            line = (f"{workload:18} {name:12} median {median:.6g} spread {spread:.4f} "
                    f"bound {bound} {verdict}")
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                held = within_bound(before, median, metric["better"], bound)
                line += f" | earlier {before:.6g} {'ok' if held else 'WORSE'}"
                ok = ok and held
            ok = ok and verdict == "ok"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
