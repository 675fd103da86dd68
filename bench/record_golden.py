"""Record the golden outputs every benchmark pass is checked against.

    python3 bench/record_golden.py [--seeds 32] [--workload NAME ...]

For seeds 0 .. N-1 of each workload, this generates the inputs, runs one pass
of the current code and writes the input digests and the pass's artifacts to
``bench/golden/<workload>.json``.  Run it only on code whose outputs are
known to be right: from then on, any other output fails the benchmark.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import golden
import run
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--workload", nargs="*", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    vd = run.import_votedecode()
    for name in args.workload:
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(args.seeds):
            work = run.ROOT / ".bench_run" / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            inputs = work / "inputs"
            inputs.mkdir(parents=True)
            try:
                workload.generate(seed, inputs)
                _, error, artifacts = run.run_pass(vd, workload, inputs, work / "out", seed, None)
                if error is not None:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                seeds[seed] = {"inputs": run.read_inputs(inputs), "outputs": golden.record(artifacts)}
            finally:
                shutil.rmtree(work, ignore_errors=True)
        golden.save(run.BENCH_DIR / "golden" / f"{name}.json", seeds)
        print(f"{name}: recorded seeds 0..{args.seeds - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
