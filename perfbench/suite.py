"""Run every workload over several seeds, one process per run.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/suite.py --workloads serve-zipf --seeds 1 2 3 --trace 1
    python3 perfbench/suite.py --write-json     # only render BENCHMARK.json

For each workload and metric it prints the median over seeds, its unit
and clock, and the spread (inter-quartile distance / median), marking a
spread above a third of the metric's bound; then it (re)writes
``BENCHMARK.json`` from ``spec.py``.  The exit code is non-zero if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from stats import spread  # noqa: E402


def write_benchmark_json() -> pathlib.Path:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return path


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    result["wall_s"] = wall
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(spec.WORKLOAD_NAMES),
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-json", action="store_true",
                        help="render BENCHMARK.json from spec.py and exit")
    parser.add_argument("--out", type=pathlib.Path,
                        help="also save every run's result line here (JSON)")
    args = parser.parse_args(argv)
    if args.write_json:
        print(f"wrote {write_benchmark_json()}")
        return 0

    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    bounds = {m.name: m.bound for m in table}
    ok = True
    saved: Dict[str, List[dict]] = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            good = result["returncode"] == 0 and result.get("correct")
            ok &= bool(good)
            print(f"{workload} seed {seed}: {'ok' if good else 'FAILED'} "
                  f"({result['wall_s']:.1f} s)", flush=True)
            runs.append(result)
        saved[workload] = runs
        print(f"\n{workload}: {len(runs)} seeds")
        print(f"  {'metric':<28} {'median':>14} {'unit':<8} {'clock':<5} "
              f"{'spread':>8} {'bound':>6}")
        for metric in table:
            values = [r["metrics"][metric.name]["value"] for r in runs
                      if metric.name in r.get("metrics", {})]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            sp = spread(values) if med else 0.0
            bound = bounds[metric.name]
            flag = ""
            if bound is not None and metric.name != "setup_s" and sp > bound / 3:
                flag = "  > bound/3"
            print(f"  {metric.name:<28} {med:>14.6g} {metric.unit:<8} "
                  f"{metric.clock:<5} {sp:>8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(saved, indent=1))
    print(f"wrote {write_benchmark_json()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
