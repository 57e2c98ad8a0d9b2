"""Run workloads over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py                       # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads serve --seeds 1-5 --trace 1

Each run is its own ``run.py`` process, one after another.  For every
metric the table gives the median, the quartiles and the spread, which is
the distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  The runs' results are also written to
``perfbench/out/spread-<workload>-t<trace>.json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        if not results:
            continue
        (BENCH / "out").mkdir(exist_ok=True)
        (BENCH / "out" / f"spread-{workload}-t{args.trace}.json").write_text(
            json.dumps(results, indent=1) + "\n"
        )
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                print(f"  {name:<36} missing in some runs")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share per run: {sorted(shares)}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
