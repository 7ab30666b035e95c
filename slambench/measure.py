"""The measured process: set up, run the passes, check, print one JSON line.

Started by ``run.py`` with ``PYTHONHASHSEED`` and BLAS threads pinned; do not
run it directly.  The last line of standard output is the result object;
the lines before it are the human-readable report.
"""

from __future__ import annotations

import os
import time

LAUNCHED = float(os.environ.get("SLAMBENCH_LAUNCHED", time.monotonic()))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import NOMINAL_PASS_SECONDS, PassResult, make_workload, usable_cpus  # noqa: E402

IMPORTED = time.monotonic()

SETUPS = 3  # set-up repetitions per run; setup_s reports their median
TAIL_MIN_BEYOND = 10  # the tail percentile keeps >= 10 samples beyond it

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "map_ms_p50": "ms",
    "psnr_db": "dB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "slam.track.calls": "count",
    "slam.track.ms_p50": "ms",
    "slam.track.busy_s": "s",
    "slam.track.iterations": "count",
    "slam.map.calls": "count",
    "slam.map.ms_p50": "ms",
    "slam.map.busy_s": "s",
    "slam.map.iterations": "count",
    "slam.map.views_per_iter": "count",
    "slam.optimizer.busy_s": "s",
    "slam.loss.busy_s": "s",
    "slam.gaussians_peak": "count",
    "slam.gaussians_final": "count",
    "slam.ate_cm": "cm",
    "engine.render.calls": "count",
    "engine.render.busy_s": "s",
    "engine.backward.calls": "count",
    "engine.backward.busy_s": "s",
    "engine.render_batch.calls": "count",
    "engine.render_batch.busy_s": "s",
    "engine.backward_batch.calls": "count",
    "engine.backward_batch.busy_s": "s",
    "engine.pixels": "count",
    "gaussians.step1.busy_s": "s",
    "gaussians.step2.busy_s": "s",
    "gaussians.step3.busy_s": "s",
    "gaussians.step4.busy_s": "s",
    "gaussians.step5.busy_s": "s",
    "gaussians.fragments": "count",
    "gaussians.geom_cache.hit_ratio": "ratio",
    "core.prune.busy_s": "s",
    "core.prune.removed": "count",
    "core.downsample.pixel_fraction": "ratio",
    "service.rounds": "count",
    "service.queue_wait_ms_p50": "ms",
    "service.round.busy_s": "s",
    "engine.sharded.worker_views": "count",
    "engine.sharded.parent_views": "count",
    "engine.sharded.dispatch_s": "s",
    "engine.sharded.stitch_s": "s",
    "engine.sharded.fault_retries": "count",
    "datasets.synth_s": "s",
    "hardware.edge_gpu_frame_ms": "ms",
    "trace.overhead": "ratio",
}



# -- host facts ----------------------------------------------------------------
def _blas_threads() -> int | None:
    """Live OpenBLAS thread count, queried from numpy's bundled library."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes, query.restype = [], ctypes.c_int
                return int(query())
    return None


def _git_sha(root: Path) -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unavailable (not a git checkout)"
    return lines[1]


def code_identity(root: Path) -> str:
    """Digest of the program (``src/``) and of the benchmark itself.

    Work records are keyed by it, so a run is only ever compared with earlier
    runs of the same code: a change that legitimately alters the numerics
    starts fresh records instead of failing against another version's.
    """
    sha = hashlib.sha1()
    for directory in (root / "src", HERE):
        for path in sorted(directory.rglob("*")):
            parts = path.relative_to(directory).parts
            generated = "__pycache__" in parts or any(p.endswith(".egg-info") for p in parts)
            if generated or parts[0] == "out" or not path.is_file():
                continue  # out/ holds the records themselves
            sha.update(f"{directory.name}/{path.relative_to(directory)}".encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _line_count(directory: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in directory.rglob("*.py"))


def host_facts(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cpus(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
        "src_lines": _line_count(root / "src"),
        "tests_lines": _line_count(root / "tests"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children (VmHWM)."""
    pids = ["self"] + [str(child.pid) for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# -- statistics ------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile with >= 10 samples beyond."""
    n = len(values)
    percentile = max(50, math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / n)))
    return float(np.percentile(values, percentile)), percentile


# -- the run ---------------------------------------------------------------------
def work_check(state_dir: Path, key: str, passes: list[tuple[int, object]]) -> list[str]:
    """Work counts of one realisation must repeat in a run and across runs at one seed.

    ``key`` names the workload, size, seed and code identity.
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"work-{key}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for realisation, outcome in passes:
        reference = recorded.setdefault(str(realisation), outcome.work)
        if outcome.work != reference:
            problems.append(
                f"realisation {realisation}: work {outcome.work} != earlier {reference}"
            )
    path.write_text(json.dumps(recorded, sort_keys=True))
    return problems


def run_pass(workload, realisation: int, trace: bool = False) -> PassResult | None:
    """One pass on a freshly collected heap, so no pass pays for another's garbage.

    A pass that raises is reported on stderr and returns ``None``; the runner
    counts all of its operations as failed.
    """
    gc.collect()
    try:
        return workload.run_pass(realisation, trace)
    except Exception:
        traceback.print_exc()
        return None


def quality_check(name: str, samples: dict, quality: dict, compare: bool) -> list[str]:
    """Every quality sample is finite; the reported mean is near the reference.

    The reference tolerances hold for the mean over a timed run's noise
    realisations, so ``compare`` is off for tiny runs and for traced runs,
    whose samples all come from realisation 0.
    """
    problems = [
        f"a {key} sample is not finite"
        for key, values in samples.items()
        if not all(math.isfinite(v) for v in values)
    ]
    if not compare or problems:
        return problems
    reference = json.loads((HERE / "reference.json").read_text())[name]
    for key, spec in reference.items():
        value = quality[key]
        if abs(value - spec["value"]) > spec["tolerance"]:
            problems.append(
                f"{key}={value:.4f} outside {spec['value']} +/- {spec['tolerance']}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    out_dir = HERE / "out"
    trace = bool(args.trace)

    count = 1 if args.size == "tiny" else round(args.seconds / NOMINAL_PASS_SECONDS[args.workload])
    realisations = 1 if trace else max(1, count)
    workload = make_workload(args.workload, args.size, args.dataset_seed, realisations)
    setups, synths = [], []
    for _ in range(SETUPS):
        gc.collect()
        started = time.perf_counter()
        synths.append(workload.setup())
        setups.append(time.perf_counter() - started)
    setup_s = (IMPORTED - LAUNCHED) + statistics.median(setups)

    layer: dict[str, float] = {}
    unrestored: list[str] = []
    if trace:
        # Untraced passes bracket the traced one, so trace.overhead compares
        # it with passes on either side.  Every wrapper is restored, and
        # checked by identity, before the second untraced pass runs.
        before = run_pass(workload, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, 0, trace=True)
        finally:
            tracer.restore()
        unrestored = tracer.unrestored()
        timed = [before, run_pass(workload, 0)]
        runs = [(0, before), (0, traced), (0, timed[1])]
    else:
        runs = [(k, run_pass(workload, k)) for k in range(realisations)]
        timed = [outcome for _, outcome in runs]
    crashed = sum(outcome is None for _, outcome in runs)
    runs = [(k, outcome) for k, outcome in runs if outcome is not None]
    timed = [outcome for outcome in timed if outcome is not None]
    rss = peak_rss_mb()
    workload.close()
    if not timed or (trace and traced is None):
        print(f"no {args.workload} pass completed; nothing to report", file=sys.stderr)
        return 1
    passes = [outcome for _, outcome in runs]
    samples = {key: [v for p in timed for v in p.quality[key]] for key in timed[0].quality}
    quality = {key: statistics.fmean(values) for key, values in samples.items()}

    code = code_identity(root)
    problems = work_check(out_dir, f"{args.workload}-{args.size}-{args.seed}-{code}", runs)
    problems += quality_check(
        args.workload, samples, quality, compare=args.size == "full" and not trace
    )
    problems += [f"wrapper not restored: {site}" for site in unrestored]
    attempted = sum(p.attempted for p in passes) + crashed * workload.ops_per_pass
    failed = sum(p.failed for p in passes) + crashed * workload.ops_per_pass

    op_ms = [ms for p in timed for ms in p.op_ms]
    map_ms = [ms for p in timed for ms in p.map_ms]
    op_tail, tail_percentile = tail(op_ms)
    values = {
        "ops_per_s": statistics.median(p.attempted / p.wall_s for p in timed),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": op_tail,
        "map_ms_p50": statistics.median(map_ms),
        "psnr_db": quality["psnr_db"],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    if trace:
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(traced.layer)
        for span, figures in tracer.summary().items():
            for key, value in figures.items():
                if f"{span}.{key}" in PER_LAYER:
                    layer[f"{span}.{key}"] = value
        layer["engine.pixels"] = tracer.pixels
        layer["gaussians.fragments"] = tracer.fragments
        layer["datasets.synth_s"] = statistics.median(synths)
        layer["slam.ate_cm"] = quality.get("ate_cm", 0.0)
        layer["trace.overhead"] = (traced.wall_s - traced.aux_s) / statistics.fmean(
            p.wall_s - p.aux_s for p in timed
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(
            out_dir / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed},
        )

    facts = host_facts(root)
    print(f"workload {args.workload}  size {args.size}  seed {args.seed}")
    print(
        f"seeds: dataset {args.dataset_seed}, PYTHONHASHSEED "
        f"{os.environ.get('PYTHONHASHSEED')} (pinned because repro.utils.random.derive_rng "
        "salts its keys with hash(); that fix is ROADMAP item 1, not this benchmark's)"
    )
    print("host: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"passes: {len(passes)} ({'untraced, traced, untraced' if trace else 'untraced'})")
    for realisation, outcome in runs:
        print(f"work of realisation {realisation}: " + json.dumps(outcome.work, sort_keys=True))
    print(f"code identity (src/ + slambench/): {code}")
    print("quality (mean of samples): " + ", ".join(
        f"{k} {quality[k]:.4f} ({len(v)})" for k, v in samples.items()
    ))
    print(
        f"samples: op {len(op_ms)}, map {len(map_ms)}; op_ms_tail is p{tail_percentile} "
        f"({len(op_ms)} samples, >= {TAIL_MIN_BEYOND} beyond)"
    )
    print(
        f"setup: imports {IMPORTED - LAUNCHED:.3f} s + median of "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " s (synthesis " + ", ".join(f"{s:.3f}" for s in synths) + " s)"
    )
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.4f} {END_TO_END[name]}")
    for name, value in layer.items():
        print(f"  {name:<36} {value:>14.6g} {PER_LAYER[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"operations: attempted {attempted}, failed {failed}")

    reported = layer if trace else values
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in reported.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
