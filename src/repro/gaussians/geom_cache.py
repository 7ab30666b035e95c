"""Cross-iteration geometry cache: RTGS-style Step 1-2 reuse across renders.

Consecutive SLAM mapping iterations re-render the *same* keyframe window
against a cloud that moves only slightly per Adam step, so the view-dependent
preprocessing — Step 1 projection and Step 2 tile intersection / sorting /
flat fragment build — is largely redundant work (the reuse the paper applies
across the iterations of one pruning window, Sec. 4.1).  This module memoises
that pipeline per view, keyed by the cloud's mutation epoch
(:attr:`repro.gaussians.gaussian_model.GaussianCloud.epoch`), with four reuse
tiers ordered from exact to approximate:

``hit``
    The cloud has not mutated since the entry was built: every Step 1-2
    product (:class:`ProjectedGaussians`, :class:`TileIntersections`,
    :class:`FlatFragments`) is reused as-is.  Bit-identical.
``refresh``
    Only colours and/or opacities changed.  Geometry (means, covariances,
    culling, tile lists, depth order) is untouched by those parameters, so
    the cached entry is reused with the fresh appearance values gathered from
    the cloud.  Bit-identical to a full rebuild.
``incremental``
    Means and/or scales also moved, but the cloud's cumulative per-epoch
    movement bounds (:attr:`GaussianCloud.cum_position_delta` /
    ``cum_log_scale_delta`` — the per-epoch dirty flags) translate to a
    screen-space drift below ``tolerance_px``.  Tile assignment and fragment
    ordering are reused with the stale geometry; only the per-fragment
    alpha/colour inputs (opacities, colours) are recomputed.  Approximate,
    bounded by the tolerance; ``tolerance_px=0`` disables this tier.
``miss``
    Anything else — in particular any structural change (densify, prune,
    masking, ``notify_removed``) — rebuilds the full Step 1-2 pipeline and
    replaces the entry.

On top of tier reuse the cache recycles two render-to-render artefacts:

* the **flat fragment arena** is shared grow-only across *all* renders and
  batches served by one cache (``ensure_flat_arena`` keeps the high-water
  mark), not just within one ``rasterize_batch`` call;
* the previous render's per-subtile alphas and transmittances (the software
  analogue of reading the R&B Buffer back) refine the **fragment schedule**
  of the next render of the same view two ways:

  - *contributing-pair refinement*: Gaussians kept for a subtile whose alpha
    stayed below ``ALPHA_CUTOFF / refine_margin`` for every pixel of that
    subtile are dropped — fragments below the cutoff are exactly zero in the
    compositor, so this is exact at the epoch it was measured and drifts
    only as far as the tolerance allows between rebuilds
    (``refine_margin=0`` disables it);
  - *termination-depth truncation*: each subtile's depth-sorted list is
    capped at the deepest fragment any pixel of its tile actually processed
    before early termination, plus ``termination_margin`` headroom.  Every
    cached render verifies the cap — a capped subtile where any pixel's
    final transmittance is still above the termination threshold triggers a
    dense re-render of the view — so surviving renders are exact, including
    the per-pixel fragment counts (``termination_margin=0`` disables it).

The Step 2 subtile cull (:func:`build_flat_fragments`) depends on opacities,
so an appearance splice that changes them drops the entry's culled layout;
it is rebuilt from the cached tile lists when next needed, which keeps the
``refresh`` tier bit-identical to a full rebuild.  With refinement on, the
cull runs with the refine margin as opacity headroom: pairs it drops are then
below ``ALPHA_CUTOFF / refine_margin`` like refined-away ones, so the same
opacity-drift check guards both.

Because cached renders share one arena, a render must be fully consumed
(backward pass included) before the next render is requested from the same
cache.  The batched rasterizer gives every view of a batch its own base
offset, so all views of one batch coexist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.fast_raster import (
    FlatArena,
    FlatFragments,
    assemble_fragments,
    build_flat_fragments,
    ensure_flat_arena,
    rasterize_flat_into,
)
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import (
    ProjectedGaussians,
    SharedGaussianData,
    project_gaussians,
)
from repro.gaussians.rasterizer import ALPHA_CUTOFF, TRANSMITTANCE_EPS, RenderResult
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import TileIntersections, build_tile_lists
from repro.gaussians.tiling import TileGrid

CACHE_STATUSES = ("uncached", "miss", "hit", "refresh", "incremental")


def geom_cache_enabled() -> bool:
    """True unless the ``REPRO_GEOM_CACHE=0`` escape hatch disables caching.

    The environment parsing itself is consolidated in
    :meth:`repro.engine.EngineConfig.from_env`; this wrapper survives for
    callers that only need the boolean (engines read the full config).
    """
    from repro.engine.config import geom_cache_enabled_from_env

    return geom_cache_enabled_from_env()


@dataclass(frozen=True)
class GeomCacheConfig:
    """Knobs of the geometry cache.

    ``tolerance_px`` bounds the screen-space drift (pixels) under which stale
    geometry may be reused; 0 restricts the cache to its exact tiers.
    ``refine_margin`` is the headroom factor on the alpha cutoff for
    contributing-pair refinement (a pair is kept while its best per-pixel
    alpha is at least ``ALPHA_CUTOFF / refine_margin``); 0 disables
    refinement, keeping cached renders bit-identical to uncached ones on the
    exact tiers.  ``termination_margin`` is the fractional headroom on the
    per-tile termination depth used to truncate fragment lists (0 disables
    truncation); truncated renders self-verify and fall back to a dense
    re-render when the headroom was exceeded.  ``max_entries`` caps the
    number of cached views (LRU).
    """

    tolerance_px: float = 0.5
    refine_margin: float = 8.0
    termination_margin: float = 0.25
    max_entries: int = 8
    # Pose quantisation step for view keys (0 disables).  When > 0, the key
    # uses the pose rounded to this step, so a lookup from a *nearby* pose
    # (tracking drift across windows) lands on the existing entry and is
    # served through the toleranced stale-geometry tier — the pose-induced
    # screen drift is added to the entry's staleness bound, and cross-pose
    # reuse never reports the exact tiers.  Requires ``tolerance_px > 0``.
    pose_quantum: float = 0.0

    def __post_init__(self) -> None:
        if self.tolerance_px < 0:
            raise ValueError(f"tolerance_px must be >= 0, got {self.tolerance_px}")
        if self.pose_quantum < 0:
            raise ValueError(f"pose_quantum must be >= 0, got {self.pose_quantum}")
        if self.pose_quantum > 0 and self.tolerance_px == 0:
            raise ValueError(
                "pose_quantum > 0 requires a non-zero tolerance_px: cross-pose "
                "reuse is served through the toleranced stale-geometry tier, "
                "which tolerance_px=0 disables — raise tolerance_px or set "
                "pose_quantum=0"
            )
        # A margin below 1 would raise the keep threshold above ALPHA_CUTOFF
        # and silently drop fragments that DO contribute (alpha drops are not
        # verified at render time the way truncation is).
        if self.refine_margin != 0 and self.refine_margin < 1:
            raise ValueError(
                "refine_margin must be 0 (disabled) or >= 1 (cutoff headroom), "
                f"got {self.refine_margin}"
            )
        if self.termination_margin < 0:
            raise ValueError(
                f"termination_margin must be >= 0, got {self.termination_margin}"
            )
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache (consumed by profiling/benchmarks)."""

    hits: int = 0
    refreshes: int = 0
    incremental: int = 0
    misses: int = 0
    evictions: int = 0
    budget_evictions: int = 0  # entries evicted to satisfy a byte budget
    truncation_fallbacks: int = 0  # capped renders that re-ran dense

    def count(self, status: str) -> None:
        if status == "hit":
            self.hits += 1
        elif status == "refresh":
            self.refreshes += 1
        elif status == "incremental":
            self.incremental += 1
        elif status == "miss":
            self.misses += 1
        else:
            raise ValueError(f"unknown cache status {status!r}")

    @property
    def lookups(self) -> int:
        return self.hits + self.refreshes + self.incremental + self.misses

    @property
    def reuse_fraction(self) -> float:
        """Fraction of lookups that skipped the Step 2 rebuild."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.refreshes + self.incremental) / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "refreshes": self.refreshes,
            "incremental": self.incremental,
            "misses": self.misses,
            "evictions": self.evictions,
            "budget_evictions": self.budget_evictions,
            "truncation_fallbacks": self.truncation_fallbacks,
            "reuse_fraction": self.reuse_fraction,
        }


class CacheClock:
    """A shared recency counter several caches can tick together.

    Per-cache ``last_used`` stamps are only comparable across caches when
    they come from one monotonic source; the render service installs one
    ``CacheClock`` into every session's cache (``GeometryCache.set_clock``)
    so the global cross-session LRU can compare entries from different
    tenants.
    """

    def __init__(self, value: int = 0):
        self.value = value

    def tick(self) -> int:
        self.value += 1
        return self.value


def view_key(
    camera: Camera,
    pose_cw: SE3,
    tile_size: int,
    subtile_size: int,
    active_only: bool,
    pose_quantum: float = 0.0,
) -> tuple:
    """Cache key of one view; shared with the sharded parent-side mirror.

    With ``pose_quantum > 0`` the pose enters the key as integer buckets
    (``round(value / quantum)``), so any two poses inside the same bucket —
    e.g. consecutive tracking estimates of one keyframe across windows — map
    to the same key and the lookup lands on the existing entry, which
    classification then serves through the toleranced stale-geometry tier.
    """
    if pose_quantum > 0.0:
        rotation = np.round(pose_cw.rotation / pose_quantum).astype(np.int64).tobytes()
        translation = np.round(pose_cw.translation / pose_quantum).astype(np.int64).tobytes()
    else:
        rotation = pose_cw.rotation.tobytes()
        translation = pose_cw.translation.tobytes()
    return (
        camera.width,
        camera.height,
        float(camera.fx),
        float(camera.fy),
        float(camera.cx),
        float(camera.cy),
        rotation,
        translation,
        int(tile_size),
        int(subtile_size),
        bool(active_only),
    )


@dataclass
class _CacheEntry:
    """Step 1-2 products of one view at one cloud epoch."""

    key: tuple
    cloud_uid: int
    structure_epoch: int
    # Epoch and cumulative movement bounds at *build* time: staleness of the
    # geometry is always measured against these, not against later splices.
    built_epoch: int
    built_position_delta: float
    built_log_scale_delta: float
    built_opacity_delta: float
    # Screen-space conversion factors captured at build time.
    min_depth: float
    max_radius: float
    px_per_unit: float
    # Exact pose the geometry was built at (the key may be pose-quantised)
    # and the largest camera-frame point norm, which converts a rotation
    # delta into a worst-case point displacement for cross-pose reuse.
    build_rotation: np.ndarray
    build_translation: np.ndarray
    max_cam_norm: float
    projected: ProjectedGaussians
    intersections: TileIntersections
    # Subtile-culled layout of the full tile lists at the current opacities;
    # None after a splice changed them (see base_fragments).
    fragments: FlatFragments | None
    # Opacity headroom of the cull (the refine margin, or 1 without
    # refinement).
    cull_headroom: float = 1.0
    # Epoch the appearance (colours/opacities) of ``projected`` reflects, so
    # repeated lookups at one epoch splice at most once.
    current_epoch: int = 0
    # Refined fragment schedule measured from the last render of this entry:
    # contributing-pair subtile lists, the global ids of the subtiles whose
    # lists were additionally truncated at their termination depth (those
    # need per-render verification), and the cloud's cumulative opacity
    # movement at measurement time (a later opacity swing past the refine
    # margin's headroom voids the lists).
    refined: FlatFragments | None = field(default=None, repr=False)
    capped_subtiles: frozenset[int] = frozenset()
    refined_opacity_delta: float = 0.0
    last_used: int = 0

    def base_fragments(self) -> FlatFragments:
        """The culled full-list layout, rebuilt if a splice invalidated it."""
        if self.fragments is None:
            self.fragments = build_flat_fragments(self.intersections, self.cull_headroom)
        return self.fragments

    @property
    def n_fragments(self) -> int:
        return self.base_fragments().n_fragments


@dataclass(frozen=True)
class EntryMeta:
    """Classification-relevant metadata of one cache entry.

    Everything :func:`classify_reuse` reads, and nothing heavy — shard
    workers report one of these per built entry so the parent can mirror
    worker-cache classification (predicting which views of the next batch
    will miss and therefore need the shared preprocessing payload) without
    holding the entries themselves.
    """

    cloud_uid: int
    structure_epoch: int
    built_epoch: int
    built_position_delta: float
    built_log_scale_delta: float
    built_opacity_delta: float
    min_depth: float
    max_radius: float
    px_per_unit: float
    build_rotation: np.ndarray
    build_translation: np.ndarray
    max_cam_norm: float


def entry_meta(entry: "_CacheEntry") -> EntryMeta:
    """Extract the classification metadata of a cache entry."""
    return EntryMeta(
        cloud_uid=entry.cloud_uid,
        structure_epoch=entry.structure_epoch,
        built_epoch=entry.built_epoch,
        built_position_delta=entry.built_position_delta,
        built_log_scale_delta=entry.built_log_scale_delta,
        built_opacity_delta=entry.built_opacity_delta,
        min_depth=entry.min_depth,
        max_radius=entry.max_radius,
        px_per_unit=entry.px_per_unit,
        build_rotation=entry.build_rotation,
        build_translation=entry.build_translation,
        max_cam_norm=entry.max_cam_norm,
    )


def pose_drift(entry, pose_cw: SE3) -> float:
    """Worst-case camera-frame point displacement (world units) between the
    entry's build pose and ``pose_cw``.

    For relative rotation ``Q = R' R^T`` with angle ``theta`` and relative
    translation ``dt = t' - Q t``, a point at camera-frame distance ``r``
    moves by at most ``|dt| + 2 sin(theta/2) r``; the entry's largest build
    distance bounds ``r``.  Exactly equal poses return 0.0, keeping the
    bitwise tiers reachable only for same-pose lookups.
    """
    rotation = entry.build_rotation
    translation = entry.build_translation
    if np.array_equal(rotation, pose_cw.rotation) and np.array_equal(
        translation, pose_cw.translation
    ):
        return 0.0
    relative = pose_cw.rotation @ rotation.T
    cos_theta = float(np.clip((np.trace(relative) - 1.0) / 2.0, -1.0, 1.0))
    half_sine = float(np.sqrt(max(0.0, (1.0 - cos_theta) / 2.0)))
    delta_t = pose_cw.translation - relative @ translation
    return float(np.linalg.norm(delta_t)) + 2.0 * half_sine * entry.max_cam_norm


def screen_drift(
    entry, moved_position: float, moved_log_scale: float, pose_moved: float = 0.0
) -> float:
    """Conservative screen-space bound (pixels) on the entry's staleness.

    A position shift of ``d`` world units moves a splat centre by at most
    ``d * focal / depth`` pixels; the nearest cached depth (shrunk by the
    shift itself, since points may have moved toward the camera) gives the
    worst case.  A log-scale shift of ``s`` grows every splat radius by at
    most a factor ``e^s``.  ``pose_moved`` (camera motion expressed as an
    equivalent point displacement, see :func:`pose_drift`) adds to the
    position shift.
    """
    if (
        not np.isfinite(moved_position)
        or not np.isfinite(moved_log_scale)
        or not np.isfinite(pose_moved)
    ):
        return float("inf")
    total_shift = moved_position + pose_moved
    depth = entry.min_depth - total_shift
    if depth <= 1e-3:
        return float("inf")
    shift = total_shift * entry.px_per_unit / depth
    growth = entry.max_radius * float(np.expm1(moved_log_scale))
    return shift + growth


def classify_reuse(config: GeomCacheConfig, entry, cloud, pose_cw: SE3) -> str:
    """Classify one lookup against an entry (or :class:`EntryMeta` mirror).

    ``entry`` is duck-typed over the :class:`EntryMeta` fields and ``cloud``
    over the mutation-epoch attributes of :class:`GaussianCloud`, so the
    sharded parent can run the *same* decision procedure over its metadata
    mirror that workers run over their resident entries.  A lookup whose pose
    differs from the entry's build pose (possible only under pose-quantised
    keys) is capped at the ``incremental`` tier: the cached geometry belongs
    to another pose, so the exact tiers are unreachable by construction.
    """
    if (
        entry is None
        or entry.cloud_uid != cloud.uid
        or entry.structure_epoch != cloud.structure_epoch
        # Direct array edits (bump_epoch) carry no movement bound, so an
        # entry predating one cannot be trusted for any reuse tier.
        or entry.built_epoch < cloud.unbounded_epoch
    ):
        return "miss"
    pose_moved = pose_drift(entry, pose_cw)
    moved_position = cloud.cum_position_delta - entry.built_position_delta
    moved_log_scale = cloud.cum_log_scale_delta - entry.built_log_scale_delta
    if pose_moved == 0.0:
        if entry.built_epoch == cloud.epoch:
            return "hit"
        if moved_position == 0.0 and moved_log_scale == 0.0:
            return "refresh"
    tolerance = config.tolerance_px
    if tolerance <= 0.0:
        return "miss"
    if screen_drift(entry, moved_position, moved_log_scale, pose_moved) <= tolerance:
        return "incremental"
    return "miss"


@dataclass
class _ViewPlan:
    """Outcome of planning one view's render against the cache."""

    key: tuple
    status: str  # "hit" | "refresh" | "incremental" | "miss"
    entry: _CacheEntry | None  # None until a miss is built
    opacity_delta: float = 0.0  # cloud.cum_opacity_delta at plan time

    @property
    def fragments_used(self) -> FlatFragments:
        if self.entry.refined is not None and self.status != "miss":
            return self.entry.refined
        return self.entry.base_fragments()


class GeometryCache:
    """Memoises the Step 1-2 pipeline per view with epoch-based invalidation."""

    def __init__(self, config: GeomCacheConfig | None = None):
        self.config = config or GeomCacheConfig()
        self.stats = CacheStats()
        self._entries: dict[tuple, _CacheEntry] = {}
        self._arena: FlatArena | None = None
        self._clock = 0
        self._shared_clock: CacheClock | None = None

    # -- public API ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def set_clock(self, clock: CacheClock) -> None:
        """Stamp recency from a shared :class:`CacheClock` from now on.

        The shared counter is advanced past this cache's private clock first,
        so entries touched before the hand-over stay older than everything
        touched after it — on this cache and on every other cache sharing the
        clock.
        """
        clock.value = max(clock.value, self._clock)
        self._shared_clock = clock

    def clear(self) -> None:
        """Drop every cached entry (the arena's high-water mark is kept)."""
        self._entries.clear()

    def entry_keys(self) -> set[tuple]:
        """The view keys currently resident (shard workers diff these across
        a batch to report LRU evictions back to the parent's mirror)."""
        return set(self._entries)

    def ensure_arena(self, n_fragments: int) -> FlatArena:
        """Return the shared grow-only arena, grown to at least ``n_fragments``."""
        self._arena = ensure_flat_arena(self._arena, n_fragments)
        return self._arena

    def render_single(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        background: np.ndarray | None = None,
        tile_size: int = 16,
        subtile_size: int = 4,
        active_only: bool = True,
    ) -> RenderResult:
        """One cached flat render; the entry point used by ``rasterize_flat``."""
        plan = self.plan_view(cloud, camera, pose_cw, tile_size, subtile_size, active_only)
        if plan.status == "miss":
            self.build_view(plan, cloud, camera, pose_cw, tile_size, subtile_size, active_only)
        arena = self.ensure_arena(plan.fragments_used.n_fragments)
        return self.render_view(plan, background, arena, 0)

    def plan_view(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        tile_size: int,
        subtile_size: int,
        active_only: bool,
    ) -> _ViewPlan:
        """Classify one view's lookup and splice fresh appearance on reuse.

        Returns a plan whose ``status`` is ``"miss"`` (caller must invoke
        :meth:`build_view`, optionally donating shared preprocessing) or one
        of the reuse tiers, in which case ``entry`` is ready to render.
        """
        key = view_key(
            camera, pose_cw, tile_size, subtile_size, active_only,
            pose_quantum=self.config.pose_quantum,
        )
        entry = self._entries.get(key)
        status = classify_reuse(self.config, entry, cloud, pose_cw)
        if status == "miss":
            return _ViewPlan(
                key=key, status=status, entry=None, opacity_delta=cloud.cum_opacity_delta
            )
        self._touch(entry)
        if entry.current_epoch != cloud.epoch:
            self._splice_appearance(entry, cloud)
        if entry.refined is not None and self.config.refine_margin > 0:
            # Refinement masks were measured under older opacities; once the
            # cumulative logit movement exceeds the margin's headroom
            # (sigmoid(x + d) <= sigmoid(x) * e^d), a dropped pair could have
            # crossed the cutoff, so fall back to the full tile lists.
            headroom = float(np.log(max(self.config.refine_margin, 1.0)))
            if cloud.cum_opacity_delta - entry.refined_opacity_delta > headroom:
                entry.refined = None
                entry.capped_subtiles = frozenset()
        return _ViewPlan(
            key=key, status=status, entry=entry, opacity_delta=cloud.cum_opacity_delta
        )

    def build_view(
        self,
        plan: _ViewPlan,
        cloud: GaussianCloud,
        camera: Camera,
        pose_cw: SE3,
        tile_size: int,
        subtile_size: int,
        active_only: bool,
        shared: SharedGaussianData | None = None,
    ) -> _CacheEntry:
        """Run the full Step 1-2 pipeline for a missed view and cache it."""
        projected = project_gaussians(
            cloud, camera, pose_cw, active_only=active_only, shared=shared
        )
        grid = TileGrid(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)
        cull_headroom = max(self.config.refine_margin, 1.0)
        fragments = build_flat_fragments(intersections, cull_headroom)
        entry = _CacheEntry(
            key=plan.key,
            cloud_uid=cloud.uid,
            structure_epoch=cloud.structure_epoch,
            built_epoch=cloud.epoch,
            built_position_delta=cloud.cum_position_delta,
            built_log_scale_delta=cloud.cum_log_scale_delta,
            built_opacity_delta=cloud.cum_opacity_delta,
            min_depth=float(projected.depths.min()) if projected.n_visible else float("inf"),
            max_radius=float(projected.radii.max()) if projected.n_visible else 0.0,
            px_per_unit=float(max(camera.fx, camera.fy)),
            build_rotation=pose_cw.rotation.copy(),
            build_translation=pose_cw.translation.copy(),
            max_cam_norm=(
                float(np.linalg.norm(projected.points_cam, axis=1).max())
                if projected.n_visible
                else 0.0
            ),
            projected=projected,
            intersections=intersections,
            fragments=fragments,
            cull_headroom=cull_headroom,
            current_epoch=cloud.epoch,
        )
        self._entries[plan.key] = entry
        self._touch(entry)
        self._evict()
        plan.entry = entry
        return entry

    def render_view(
        self,
        plan: _ViewPlan,
        background: np.ndarray | None,
        arena: FlatArena,
        base: int,
    ) -> RenderResult:
        """Render one planned view into ``arena[base:]`` with verified reuse.

        Runs the flat forward on the entry's (possibly refined/truncated)
        fragment schedule; if the truncation verification fails — some pixel
        of a capped tile did not terminate within the cap — the view is
        re-rendered densely into a private arena, so the returned result is
        always exact up to the reuse tier's own contract.  Records cache
        accounting and refreshes the fragment schedule for the next render.
        """
        entry = plan.entry
        fragments = plan.fragments_used
        result = rasterize_flat_into(
            entry.projected, entry.intersections, fragments, background, arena, base
        )
        if self._under_terminated(entry, fragments, result):
            self.stats.truncation_fallbacks += 1
            fragments = entry.base_fragments()
            result = rasterize_flat_into(
                entry.projected,
                entry.intersections,
                fragments,
                background,
                ensure_flat_arena(None, fragments.n_fragments),
                0,
            )
        result.cache_status = plan.status
        self.stats.count(plan.status)
        if self.config.refine_margin > 0 or self.config.termination_margin > 0:
            self._refine(entry, fragments, result)
            entry.refined_opacity_delta = plan.opacity_delta
        return result

    # -- internals ----------------------------------------------------------
    def _splice_appearance(self, entry: _CacheEntry, cloud: GaussianCloud) -> None:
        """Adopt the cloud's current colours/opacities onto the cached entry.

        Colours and opacities do not feed projection geometry, tile
        assignment or depth order, so gathering them fresh is exactly what a
        full rebuild would produce for those fields.
        """
        rows = entry.projected.indices
        projected = replace(
            entry.projected,
            colors=cloud.colors[rows],
            opacities=cloud.opacities(rows=rows),
        )
        if not np.array_equal(projected.opacities, entry.projected.opacities):
            entry.fragments = None
        entry.projected = projected
        entry.intersections = TileIntersections(
            grid=entry.intersections.grid,
            per_tile=entry.intersections.per_tile,
            projected=projected,
        )
        entry.current_epoch = cloud.epoch

    def _under_terminated(
        self, entry: _CacheEntry, rendered: FlatFragments, result: RenderResult
    ) -> bool:
        """True when a truncated subtile left some pixel's compositing unfinished.

        Only subtiles whose lists were capped at a termination depth need the
        check (contributing-pair drops have zero alpha and cannot absorb
        transmittance); for those, any pixel whose transmittance after the
        last rendered fragment is still at or above the termination threshold
        would have processed more fragments in a dense render.
        """
        if not entry.capped_subtiles or rendered is entry.fragments:
            return False
        capped = np.fromiter(entry.capped_subtiles, dtype=np.int64)
        for cache in result.tile_caches:
            n_blocks, n_pixels, _ = cache.shape
            blocks = np.isin(cache.subtiles, capped)
            if not blocks.any():
                continue
            pixel_rows = np.repeat(blocks, n_pixels)
            trans_end = cache.transmittance_before[pixel_rows, -1] * (
                1.0 - cache.alphas[pixel_rows, -1]
            )
            if np.any(trans_end >= TRANSMITTANCE_EPS):
                return True
        return False

    def _refine(
        self, entry: _CacheEntry, rendered: FlatFragments, result: RenderResult
    ) -> None:
        """Rebuild the entry's fragment schedule from the render's buffers.

        Two reductions over the subtile blocks (the software analogue of
        reading the R&B Buffer back):

        * a pair whose best per-pixel raw alpha stays below ``ALPHA_CUTOFF /
          refine_margin`` composites to exactly zero everywhere in the
          subtile, so dropping it leaves the output unchanged at this epoch,
          and the margin's headroom covers the drift the tolerance admits
          before the next full rebuild;
        * fragments deeper than the tile's termination depth (the deepest
          per-pixel processed count, in dense list ranks) were visited by no
          pixel of the tile; each subtile's kept list is capped there plus
          ``termination_margin`` headroom, and capped subtiles are recorded
          for the per-render verification.  The depth is taken per tile, not
          per subtile: a 16-pixel maximum leaves too little headroom for the
          next parameter step, and every miss costs a dense re-render.

        Schedules measured on an already-refined render only refine further;
        a miss resets the schedule to the full lists.
        """
        refine_margin = self.config.refine_margin
        termination_margin = self.config.termination_margin
        cutoff = ALPHA_CUTOFF / refine_margin if refine_margin > 0 else 0.0
        opacities = np.append(result.projected.opacities, 0.0)  # sentinel row
        spt = rendered.grid.subtiles_per_tile
        tile_depth = np.zeros(rendered.grid.n_tiles, dtype=np.int64)
        for cache in result.tile_caches:
            block_depth = cache.dense_counts.reshape(cache.shape[:2]).max(axis=1)
            np.maximum.at(tile_depth, cache.subtiles // spt, block_depth)
        subtiles: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        ranks: list[np.ndarray] = []
        capped: list[np.ndarray] = []
        for cache in result.tile_caches:
            shape = cache.shape
            keep = cache.rows != rendered.sentinel
            if refine_margin > 0:
                best_alpha = cache.gauss_values.reshape(shape).max(axis=1)
                keep &= best_alpha * opacities[cache.rows] >= cutoff
            if termination_margin > 0:
                depth = tile_depth[cache.subtiles // spt]
                kept_so_far = np.cumsum(keep, axis=1)
                in_prefix = (keep & (cache.ranks < depth[:, None])).sum(axis=1)
                cap = in_prefix + np.maximum(4, np.ceil(termination_margin * in_prefix))
                is_capped = cap < kept_so_far[:, -1]
                keep &= kept_so_far <= cap[:, None]
                capped.append(cache.subtiles[is_capped])
            block, column = np.nonzero(keep)
            subtiles.append(cache.subtiles[block])
            rows.append(cache.rows[block, column])
            ranks.append(cache.ranks[block, column])
        empty = np.zeros(0, dtype=np.int64)
        entry.refined = assemble_fragments(
            rendered.grid,
            rendered.sentinel,
            rendered.list_offsets,
            np.concatenate(subtiles) if subtiles else empty,
            np.concatenate(rows) if rows else empty,
            np.concatenate(ranks) if ranks else empty,
            rendered.dense_fragments,
        )
        entry.capped_subtiles = frozenset(
            np.concatenate(capped).tolist() if capped else ()
        )

    def _touch(self, entry: _CacheEntry) -> None:
        if self._shared_clock is not None:
            self._clock = self._shared_clock.tick()
        else:
            self._clock += 1
        entry.last_used = self._clock

    def _evict(self) -> None:
        while len(self._entries) > max(1, self.config.max_entries):
            oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
            del self._entries[oldest.key]
            self.stats.evictions += 1

    # -- byte accounting / budgeted eviction --------------------------------
    def total_bytes(self) -> int:
        """Resident bytes of every cached entry (shared buffers counted once)."""
        seen: set[int] = set()
        return sum(
            _entry_nbytes(entry, seen) for entry in self._entries.values()
        )

    def oldest_entry(self) -> "tuple[int, tuple] | None":
        """``(last_used, key)`` of the least-recently-used entry, or ``None``.

        ``last_used`` stamps are comparable across caches sharing one
        :class:`CacheClock`; the render service uses this to pick the global
        LRU victim among all open sessions.
        """
        if not self._entries:
            return None
        oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
        return oldest.last_used, oldest.key

    def evict_lru(self) -> "tuple | None":
        """Evict the least-recently-used entry for a byte budget; its key.

        Unlike capacity eviction this may empty the cache entirely.  Work
        units already planned against the evicted entry stay valid — they
        hold a direct reference — and the next lookup of the evicted view
        simply rebuilds as a miss, so budget pressure can never corrupt an
        in-flight batch, only cost a rebuild.
        """
        if not self._entries:
            return None
        oldest = min(self._entries.values(), key=lambda entry: entry.last_used)
        del self._entries[oldest.key]
        self.stats.evictions += 1
        self.stats.budget_evictions += 1
        return oldest.key


def _entry_nbytes(obj, seen: set[int]) -> int:
    """Recursively sum ndarray bytes under ``obj``, deduplicating buffers.

    Cached products alias each other aggressively (refined fragment
    schedules share the builder's arrays, ``intersections.projected`` *is*
    the entry's ``projected``), so every array is resolved to its owning
    base buffer and each buffer is counted once per ``seen`` set — pass one
    set across all entries of a cache for resident-set semantics.
    """
    import dataclasses as _dc

    if obj is None or isinstance(obj, (bool, int, float, str, bytes, frozenset)):
        return 0
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) in seen:
            return 0
        seen.add(id(root))
        return int(root.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_entry_nbytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_entry_nbytes(item, seen) for item in obj.values())
    if _dc.is_dataclass(obj) and not isinstance(obj, type):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sum(
            _entry_nbytes(getattr(obj, field.name), seen)
            for field in _dc.fields(obj)
        )
    return 0
