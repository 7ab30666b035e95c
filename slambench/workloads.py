"""The benchmark's three workloads, driven only through the public API.

Each workload has a ``setup()`` that builds its inputs from the dataset seed
(every frame is synthesised here, before any timing) plus the engine, pool
and a warm-up, and a ``run_pass(realisation)`` that does one fixed amount of
work and returns a :class:`PassResult`.  A pass of one realisation at one
seed repeats the same work exactly: ``PassResult.work`` holds the counts (and
a digest of the trajectory or losses) that the runner compares within a run
and across runs.

* ``slam-tum`` — base MonoGS (default profile) over synthetic TUM fr1_desk.
* ``slam-tum-rtgs`` — the same frames through the RTGS pipeline (adaptive
  pruning + dynamic downsampling).
* ``tenants-mapping`` — a closed loop of 3-view mapping windows from several
  render-service sessions over the shared sharded pool.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core import RTGSAlgorithmConfig, build_pipeline
from repro.datasets import make_sequence
from repro.datasets.rgbd import RGBDSequence
from repro.engine import EngineConfig, shutdown_shard_pools
from repro.gaussians.gaussian_model import GaussianCloud
from repro.hardware.gpu_model import EdgeGPUModel
from repro.metrics.image import psnr
from repro.service import RenderService
from repro.slam import SLAMPipeline, losses
from repro.slam.algorithms import mono_gs
from repro.slam.frame import Frame
from repro.slam.mapping import MappingConfig
from repro.slam.optimizer import Adam

clock = time.perf_counter

# Sizes: "full" is the benchmark; "tiny" runs the same code path in seconds
# for the benchmark's own smoke test.
SLAM_FRAMES = {"full": 16, "tiny": 5}
TENANT_CYCLES = {"full": 12, "tiny": 2}
# Seconds one pass took on the reference host (2-core Xeon, Python 3.11,
# NumPy 2.4); the runner turns --seconds into a fixed pass count with them,
# so the amount of work depends on --seconds only, never on host speed.
NOMINAL_PASS_SECONDS = {"slam-tum": 17.0, "slam-tum-rtgs": 7.0, "tenants-mapping": 9.0}

WINDOW_VIEWS = 3
WINDOW_FRAMES = (0, 2, 4)
TENANT_SCENES = (("tum", "fr1_desk"), ("replica", "room0"))
_LEARNING_RATES = {
    "positions": MappingConfig.position_learning_rate,
    "log_scales": MappingConfig.scale_learning_rate,
    "opacity_logits": MappingConfig.opacity_learning_rate,
    "colors": MappingConfig.color_learning_rate,
}


@dataclass
class PassResult:
    """One pass: timings, work counts, failures and quality samples."""

    wall_s: float
    op_ms: list[float]  # the common operation's latencies
    map_ms: list[float]  # latencies of the blocking mapping step
    attempted: int
    failed: int
    work: dict
    layer: dict = field(default_factory=dict)  # per-layer figures known without tracing
    # Quality samples (psnr_db, and ate_cm for SLAM) taken after the pass's
    # timing stopped; empty for a traced pass.
    quality: dict = field(default_factory=dict)
    aux_s: float = 0.0  # time inside the pass spent on benchmark bookkeeping


def realisation_seed(dataset_seed: int, realisation: int) -> int:
    """Sensor-noise seed of one noise realisation of the dataset."""
    state = np.random.SeedSequence([dataset_seed, realisation]).generate_state(1)
    return int(state[0] % 2**31)


def _digest(arrays) -> str:
    sha = hashlib.sha1()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()[:16]


class PinnedSequence(RGBDSequence):
    """An RGB-D sequence whose frames are all synthesised up front.

    ``frame()`` timestamps every call: the pipeline asks for frame ``i`` at
    the start of its loop iteration ``i``, so consecutive stamps bracket each
    frame's latency without wrapping any program function.
    """

    stamps: list[float]

    @classmethod
    def build(cls, dataset: str, scene: str, n_frames: int, noise_seed: int) -> "PinnedSequence":
        base = make_sequence(dataset, scene=scene, n_frames=n_frames)
        values = {f.name: getattr(base, f.name) for f in fields(base)}
        values.update(seed=noise_seed, _frame_cache={})
        sequence = cls(**values)
        for index in range(len(sequence)):
            RGBDSequence.frame(sequence, index)
        sequence.stamps = []
        return sequence

    def frame(self, index: int):
        self.stamps.append(clock())
        return super().frame(index)


class SlamWorkload:
    """MonoGS (optionally RTGS-enhanced) over synthetic TUM fr1_desk.

    Pass ``k`` runs a fresh pipeline over noise realisation ``k`` of the same
    frames, so quality is a mean over realisations rather than one draw.
    """

    dataset = ("tum", "fr1_desk")

    def __init__(self, rtgs: bool, size: str, dataset_seed: int, realisations: int):
        self.rtgs = rtgs
        self.n_frames = SLAM_FRAMES[size]
        self.ops_per_pass = self.n_frames
        self.dataset_seed = dataset_seed
        self.realisations = realisations
        self.sequences: list[PinnedSequence] = []

    def _pipeline(self) -> SLAMPipeline:
        if self.rtgs:
            return build_pipeline(mono_gs(), RTGSAlgorithmConfig())
        return SLAMPipeline(mono_gs())

    def setup(self) -> float:
        """Synthesise the frames and warm up; returns the synthesis seconds."""
        self.sequences = []  # every set-up starts without an earlier one's inputs
        started = clock()
        sequences = [
            PinnedSequence.build(
                *self.dataset, self.n_frames, realisation_seed(self.dataset_seed, k)
            )
            for k in range(self.realisations)
        ]
        synth_s = clock() - started
        # Warm-up: bootstrap plus one tracked frame at the fast profile touches
        # every code path a pass takes, at a fraction of the cost.
        fast = mono_gs(fast=True)
        warm = build_pipeline(fast, RTGSAlgorithmConfig()) if self.rtgs else SLAMPipeline(fast)
        warm.run(sequences[0], n_frames=2)
        self.sequences = sequences
        return synth_s

    def run_pass(self, realisation: int, trace: bool = False) -> PassResult:
        sequence = self.sequences[realisation]
        pipeline = self._pipeline()
        sequence.stamps = []
        started = clock()
        result = pipeline.run(sequence)
        wall = clock() - started
        stamps = sequence.stamps[: self.n_frames] + [started + wall]
        frame_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        records = result.frame_records
        # Frame 0 is the bootstrap (map seeding, no tracking): in fps only.
        op_ms = [ms for ms, r in zip(frame_ms, records) if r.frame_index and not r.is_keyframe]
        map_ms = [ms for ms, r in zip(frame_ms, records) if r.frame_index and r.is_keyframe]
        poses = result.estimated_trajectory
        failed = sum(
            not (np.all(np.isfinite(p.rotation)) and np.all(np.isfinite(p.translation)))
            for p in poses
        )
        snapshots = result.all_snapshots()
        work = {
            "frames": len(poses),
            "keyframes": len(result.keyframe_indices),
            "tracking_iterations": sum(r.tracking_iterations for r in records),
            "mapping_iterations": sum(r.mapping_iterations for r in records),
            "mapping_views": sum(1 for s in snapshots if s.stage == "mapping"),
            "gaussians_peak": result.peak_gaussian_count,
            "gaussians_final": result.cloud.n_total,
            "fragments": int(sum(int(s.fragments_per_pixel.sum()) for s in snapshots)),
            "trajectory": _digest([m for p in poses for m in (p.rotation, p.translation)]),
        }
        hook = pipeline.tracking_hook
        policy = pipeline.resolution_policy
        layer = {
            "slam.track.iterations": work["tracking_iterations"],
            "slam.map.iterations": work["mapping_iterations"],
            "slam.map.views_per_iter": work["mapping_views"] / max(work["mapping_iterations"], 1),
            "slam.gaussians_peak": work["gaussians_peak"],
            "slam.gaussians_final": work["gaussians_final"],
            "core.prune.removed": hook.stats.removed_total if hook is not None else 0,
            "core.downsample.pixel_fraction": (
                policy.average_fraction() if policy is not None else 0.0
            ),
        }
        quality = {}
        if trace:
            model = EdgeGPUModel("onx")
            per_frame = [model.frame_latency(r.snapshots).total for r in records]
            layer["hardware.edge_gpu_frame_ms"] = 1e3 * statistics.fmean(per_frame)
            geom = pipeline.engine.cache_stats()
            layer["gaussians.geom_cache.hit_ratio"] = geom.reuse_fraction if geom else 0.0
        else:
            quality = {"psnr_db": [result.evaluate_psnr(sequence)], "ate_cm": [result.ate()]}
        return PassResult(wall, op_ms, map_ms, len(poses), int(failed), work, layer, quality)

    def close(self) -> None:
        pass


@dataclass
class _Tenant:
    """One service session's inputs: its window frames and initial map."""

    frames: list[Frame]
    cloud: GaussianCloud
    cache_on: bool


class TenantsWorkload:
    """Closed-loop 3-view mapping windows from many service sessions."""

    def __init__(self, size: str, dataset_seed: int, workers: int):
        self.cycles = TENANT_CYCLES[size]
        self.dataset_seed = dataset_seed
        self.workers = workers
        self.n_sessions = max(3, 2 * workers)  # more sessions than workers
        self.ops_per_pass = self.cycles * self.n_sessions
        self.tenants: list[_Tenant] = []
        self.service: RenderService | None = None
        self._pass = 0

    def setup(self) -> float:
        """Synthesise windows, start the pool, warm up; returns synthesis seconds."""
        if self.service is not None:
            self.service.close()
        shutdown_shard_pools()  # every setup pays the pool start
        self.tenants = []
        started = clock()
        tenants = []
        for index in range(self.n_sessions):
            dataset, scene = TENANT_SCENES[(index // 2) % len(TENANT_SCENES)]
            noise_seed = realisation_seed(self.dataset_seed, index)
            sequence = PinnedSequence.build(dataset, scene, max(WINDOW_FRAMES) + 1, noise_seed)
            frames = [Frame.from_rgbd(sequence.frame(i)) for i in WINDOW_FRAMES]
            cloud = GaussianCloud.empty()
            for frame in frames:
                cloud.extend(
                    GaussianCloud.from_rgbd(
                        frame.image, frame.depth, frame.camera, frame.gt_pose_cw, stride=4
                    )
                )
            tenants.append(_Tenant(frames, cloud, cache_on=index % 2 == 1))
        synth_s = clock() - started
        self.tenants = tenants
        config = EngineConfig(backend="sharded", geom_cache=True, shard_workers=self.workers)
        self.service = RenderService(
            config, max_sessions=self.n_sessions, round_quantum=WINDOW_VIEWS
        )
        self._loop(cycles=1)
        return synth_s

    def run_pass(self, realisation: int, trace: bool = False) -> PassResult:
        """Every pass repeats the same windows: quality does not vary by draw."""
        return self._loop(self.cycles, trace)

    def _loop(self, cycles: int, trace: bool = False) -> PassResult:
        service = self.service
        self._pass += 1
        rounds_before = len(service.dispatch_log)
        sessions, clouds, optimizers = [], [], []
        for index, tenant in enumerate(self.tenants):
            sessions.append(
                service.open_session(f"p{self._pass}-t{index}", geom_cache=tenant.cache_on)
            )
            clouds.append(tenant.cloud.copy())
            optimizers.append(Adam())
        op_ms, map_ms, loss_values, snapshots = [], [], [], []
        last_batches = [None] * len(sessions)
        failed = fragments = worker_views = parent_views = retries = 0
        dispatch_s = stitch_s = aux_s = 0.0
        queue_waits = []

        def submit(index):
            # Stamped before submit: cache-on sessions plan Steps 1-2 in it.
            submitted[index] = clock()
            frames = self.tenants[index].frames
            jobs[index] = sessions[index].submit(
                clouds[index], [f.camera for f in frames], [f.gt_pose_cw for f in frames]
            )

        jobs = [None] * len(sessions)
        submitted = [0.0] * len(sessions)
        started = clock()
        for index in range(len(sessions)):
            submit(index)
        for cycle in range(cycles):
            for index, session in enumerate(sessions):
                tenant = self.tenants[index]
                cloud = clouds[index]
                batch = jobs[index].result()
                rendered = clock()
                window_losses = [
                    losses.photometric_geometric_loss(view, frame)
                    for view, frame in zip(batch.views, tenant.frames)
                ]
                gradients = session.backward_batch(
                    batch,
                    cloud,
                    [loss.dL_dimage for loss in window_losses],
                    [loss.dL_ddepth for loss in window_losses],
                )
                scale = 1.0 / len(batch.views)
                updates = {
                    name: optimizers[index].step(
                        name, scale * np.asarray(getattr(gradients.cloud, name)), rate
                    )
                    for name, rate in _LEARNING_RATES.items()
                }
                cloud.apply_parameter_step(
                    d_positions=updates["positions"],
                    d_log_scales=updates["log_scales"],
                    d_opacity_logits=updates["opacity_logits"],
                    d_colors=updates["colors"],
                )
                done = clock()
                op_ms.append(1e3 * (done - submitted[index]))
                map_ms.append(1e3 * (done - rendered))
                if cycle + 1 < cycles:
                    submit(index)
                # -- bookkeeping (not part of any latency above) -------------
                mark = clock()
                totals = [loss.total for loss in window_losses]
                loss_values.extend(totals)
                fragments += batch.n_fragments_total
                sharding = batch.sharding
                if sharding is not None:
                    queue_waits.extend(sharding.view_queue_wait_seconds)
                    dispatch_s += sharding.dispatch_seconds
                    stitch_s += sharding.stitch_seconds
                    retries += sharding.fault_retries
                bad = not all(np.isfinite(totals))
                if not tenant.cache_on:
                    on_worker = (
                        0
                        if sharding is None
                        else sum(
                            w >= 0 and v not in sharding.escalated_views
                            for v, w in enumerate(sharding.worker_ids)
                        )
                    )
                    worker_views += on_worker
                    parent_views += len(batch.views) - on_worker
                    bad |= on_worker < len(batch.views)
                    bad |= sharding is not None and sharding.fault_retries > 0
                failed += bool(bad)
                last_batches[index] = batch
                if trace:
                    for view_index, view in enumerate(batch.views):
                        snapshots.append(
                            session.snapshot(
                                view,
                                view_index=view_index,
                                batch=batch,
                                stage="mapping",
                                frame_index=cycle,
                                iteration=cycle,
                                is_keyframe=True,
                                loss=totals[view_index],
                                n_gaussians_total=cloud.n_total,
                                n_gaussians_active=cloud.n_active,
                                batch_size=len(batch.views),
                            )
                        )
                aux_s += clock() - mark
        wall = clock() - started
        quality = {} if trace else self._window_quality(last_batches)
        cache_lookups = cache_reuses = 0
        for session in sessions:
            stats = session.cache_stats()
            if stats is not None:
                cache_lookups += stats.lookups
                cache_reuses += stats.hits + stats.refreshes + stats.incremental
        for session in sessions:
            session.close()
        windows = len(op_ms)
        work = {
            "windows": windows,
            "views": windows * WINDOW_VIEWS,
            "rounds": len(service.dispatch_log) - rounds_before,
            "fragments": int(fragments),
            "gaussians": sum(c.n_total for c in clouds),
            "losses": _digest([np.array(loss_values)]),
        }
        layer = {
            "slam.gaussians_peak": work["gaussians"],
            "slam.gaussians_final": work["gaussians"],
            "service.rounds": work["rounds"],
            "service.queue_wait_ms_p50": (
                1e3 * statistics.median(queue_waits) if queue_waits else 0.0
            ),
            "engine.sharded.worker_views": worker_views,
            "engine.sharded.parent_views": parent_views,
            "engine.sharded.dispatch_s": dispatch_s,
            "engine.sharded.stitch_s": stitch_s,
            "engine.sharded.fault_retries": retries,
            "gaussians.geom_cache.hit_ratio": cache_reuses / max(cache_lookups, 1),
        }
        if trace:
            model = EdgeGPUModel("onx")
            per_window = [
                model.frame_latency(snapshots[i : i + WINDOW_VIEWS]).total
                for i in range(0, len(snapshots), WINDOW_VIEWS)
            ]
            layer["hardware.edge_gpu_frame_ms"] = 1e3 * statistics.fmean(per_window)
        outcome = PassResult(wall, op_ms, map_ms, windows, failed, work, layer, quality, aux_s)
        return outcome

    def _window_quality(self, batches) -> dict[str, list[float]]:
        """PSNR of every view of every session's last window."""
        return {
            "psnr_db": [
                psnr(view.image, frame.image)
                for tenant, batch in zip(self.tenants, batches)
                for view, frame in zip(batch.views, tenant.frames)
            ]
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        shutdown_shard_pools()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), not the machine's count."""
    return len(os.sched_getaffinity(0))


def make_workload(name: str, size: str, dataset_seed: int, realisations: int = 1):
    if name in ("slam-tum", "slam-tum-rtgs"):
        return SlamWorkload(name == "slam-tum-rtgs", size, dataset_seed, realisations)
    if name == "tenants-mapping":
        return TenantsWorkload(size, dataset_seed, workers=usable_cpus())
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("slam-tum", "slam-tum-rtgs", "tenants-mapping")
