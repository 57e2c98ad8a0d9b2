"""test_mape_pct of each workload under several training seeds.

    python3 perfbench/train_seeds.py              # training seeds 0-4

The benchmark trains with ``train.seed`` 0.  A change that only alters the
random stream (initial weights, dropout masks) moves ``test_mape_pct``
about as far as another training seed does; this script measures that
spread.  Each line is one full benchmark round with the given seed.
"""
import argparse
import shutil
import statistics
import sys
from dataclasses import replace

import run


def main(argv=None) -> int:
    run._import_program()
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)
    for name, w in workloads.WORKLOADS.items():
        values = []
        for seed in range(args.seeds):
            seeded = replace(w, train=replace(w.train, seed=seed))
            work = run.OUT / f"work-train-seeds-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                bench = workloads.Run(seeded, 1, str(work), spans.Tracer())
                bench.setup()
                bench.round()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failures:
                print(f"{name} train seed {seed}: {bench.failures}")
                return 1
            values.append(bench.mapes[0])
            print(f"{name} train seed {seed}: test_mape_pct {values[-1]:.4f}", flush=True)
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {med:.4f}, min {min(values):.4f}, max {max(values):.4f}, "
              f"quartile spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
