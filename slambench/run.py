"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 slambench/run.py --workload slam-tum --seed 1 --seconds 20 --trace 0

The launcher derives the dataset seed and ``PYTHONHASHSEED`` from ``--seed``,
pins BLAS to one thread per process (the parent plus ``nproc`` shard workers
then never oversubscribe the cores), clears ``REPRO_*`` knobs so the program
runs at its defaults, and starts ``measure.py`` in a fresh interpreter with
that environment.  It exits non-zero without a result when the checkout has
no program to measure.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("slam-tum", "slam-tum-rtgs", "tenants-mapping")
# The measured process may take a set-up allowance plus a multiple of
# --seconds, and never so long that the launcher overruns 180 s.
SETUP_ALLOWANCE_S = 90
MAX_CHILD_S = 170


def derived_seeds(seed: int) -> tuple[int, int]:
    """(dataset seed, PYTHONHASHSEED) drawn from the workload seed."""
    state = np.random.SeedSequence([int(seed), 0x5EED]).generate_state(2, dtype=np.uint32)
    return int(state[0] % 2**31), int(state[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test size"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    dataset_seed, hash_seed = derived_seeds(args.seed)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env["SLAMBENCH_LAUNCHED"] = repr(time.monotonic())
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--dataset-seed", str(dataset_seed),
        "--root", str(ROOT),
    ]  # fmt: skip
    timeout = min(MAX_CHILD_S, SETUP_ALLOWANCE_S + 2.5 * args.seconds)
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"measured process exceeded {timeout:.0f} s; killed", file=sys.stderr)
        return 3
    finally:
        # The measured process leads its own process group: this also stops
        # any shard worker it left behind.
        try:
            os.killpg(child.pid, 9)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
