"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workloads chiral-small circle-grid \\
        --seeds 1 2 3 4 5 [--seconds 15]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median over the seeds and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.  Run from the root of the
repository.  Exits 1 when a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    summary = {}
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed  " +
                  " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
                  flush=True)
        summary[wl] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            summary[wl][name] = {"median": statistics.median(vals),
                                 "spread": s, "values": vals}
            flag = "" if s < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {wl:<13} {name:<16} median "
                  f"{statistics.median(vals):<12.5g} spread {s:7.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}{flag}", flush=True)
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
