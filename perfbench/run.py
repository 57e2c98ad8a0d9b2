"""Run one benchmark workload of loadcast and print its metrics.

    python3 perfbench/run.py --workload train-svd --seed 1 --seconds 30 --trace 0

Run it from the root of a loadcast checkout: it imports the package from
``src/`` there, and exits with an error when there is none.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The same object,
and with tracing the spans, is also written under ``perfbench/out/``.
"""
import os

# one BLAS thread, set before numpy loads: every run is then a single-threaded
# process whatever the machine's core count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    package = ROOT / "src" / "loadcast"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no loadcast sources at {package}; run from a loadcast checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import loadcast

    if Path(loadcast.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported loadcast from {loadcast.__file__}, not {package}")


def main(argv=None) -> int:
    _import_program()
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, str(work), tracer)
    try:
        run.setup()
        undo = spans.install(tracer) if args.trace else []
        try:
            run.measure(args.seconds)
        finally:
            spans.uninstall(undo)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    e2e = run.end_to_end()
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "rounds": run.rounds, "end_to_end": e2e, "samples": run.samples(), "failures": run.failures}
    if args.trace:
        layers = run.per_layer()
        doc["per_layer"] = layers
        doc["timed_s_per_round"] = run.timed_seconds_per_round()
        units = {k: v[0] for k, v in workloads.PER_LAYER.items()}
        metrics = layers
    else:
        units = workloads.E2E_UNITS
        metrics = e2e
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    doc["result"] = result

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        trace = {"names": names, "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans]}
        (OUT / f"trace-{tag}.json").write_text(json.dumps(trace) + "\n")

    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{run.attempted} operations, {len(run.failures)} failed")
    for name, value in e2e.items():
        print(f"  {name:<36} {value!r:>24} {workloads.E2E_UNITS[name]}")
    if args.trace:
        print(f"  traced time per round {doc['timed_s_per_round']!r} s")
        for name, value in layers.items():
            print(f"  {name:<36} {value!r:>24} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
