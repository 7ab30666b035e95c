"""Subtile-culled flat fast path for Step 3 *Rendering* and Step 4 *Rendering BP*.

The reference rasterizer (:mod:`repro.gaussians.rasterizer`) composites every
tile as a dense ``(P, M)`` grid: each of the tile's ``P`` pixels against each
of the ``M`` Gaussians whose bounding box touches the tile.  On SLAM frames
most of those fragments sit outside the Gaussian's alpha-cutoff footprint —
their alpha is exactly zero (below 1/255) and they contribute nothing — so
the dense grid is mostly arithmetic on zeros.

This module makes RTGS's 4x4 *subtile* (Sec. 5.2, ``TileGrid.subtile_size``)
the unit of work instead:

* **Step 2** (:func:`build_flat_fragments`) keeps, per subtile, only the
  Gaussians whose cutoff footprint — the ellipse ``d^T A d <= 2 ln(255 o)`` —
  can reach one of the subtile's pixel centres, tested by the ellipse's
  axis-aligned bounding box inflated so rounding can never cull a
  contributing pair.  Gaussians with opacity below the cutoff are dropped.
  The kept list of a subtile stays in depth order and records each
  fragment's rank in the dense tile list.  One (subtile, Gaussian) *block*
  is ``(pixels of the subtile) x (kept Gaussians)``.
* Blocks are grouped into **buckets** of equal pixel count and similar kept
  count, and every block of a bucket is padded to the bucket's width with a
  sentinel Gaussian of opacity 0 (:class:`FragmentBucket`).  A sentinel
  column has alpha 0 and ``1 - alpha == 1`` exactly, so the exclusive
  transmittance cumprod of the real columns is unchanged, and culled
  fragments — alpha 0 in the dense grid — are exactly the factors of 1 the
  dense cumprod multiplies by.  Transmittances, alphas and weights of kept
  fragments are therefore bit-identical to the dense grid's; only the
  per-pixel sums regroup.
* **Step 3** (:func:`rasterize_flat_into`) runs the alpha / cumprod / blend
  op chain once per bucket as ``(blocks, pixels, width)`` arrays written in
  place into one preallocated flat arena (:class:`FlatArena`), so the caches
  the backward pass reads are free views of it (:class:`SubtileBlockCache`).
* **Step 4** (:func:`rasterize_backward_flat`) folds the colour and depth
  suffix terms into one blend matrix per bucket, reduces every gradient
  within its block first and scatters per Gaussian with one ``bincount``,
  dropping the sentinel row.

Workload counts stay those of the dense grid: a pixel's
``fragments_per_pixel`` is its tile-list length when it never terminates,
otherwise the dense rank of the fragment that terminates it plus one, and the
backward :class:`~repro.gaussians.backward.GradientTrace` is reassembled per
tile in dense order.  The goldens, the tile==flat count checks and the
hardware model therefore see the same numbers as the tile backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.rasterizer import (
    ALPHA_CLAMP,
    ALPHA_CUTOFF,
    TRANSMITTANCE_EPS,
    RenderResult,
)
from repro.gaussians.se3 import SE3
from repro.gaussians.sorting import TileIntersections, build_tile_lists
from repro.gaussians.tiling import TileGrid

if TYPE_CHECKING:
    from repro.gaussians.geom_cache import GeometryCache

# Blocks whose kept counts share floor(log(count) / log(BUCKET_RATIO)) share a
# bucket, so padding stays below BUCKET_RATIO - 1 of a bucket's slots while
# the number of buckets (one op chain each) stays logarithmic in the longest
# subtile list.
BUCKET_RATIO = 1.25

# Rounding guard of the cull test (see _cutoff_extents).
_CULL_SLACK = 1e-6
_EPS = np.finfo(np.float64).eps


@dataclass
class FragmentBucket:
    """Subtile blocks sharing a pixel count, padded to one Gaussian width.

    Block ``b`` covers the ``n_pixels`` pixels of global subtile
    ``subtiles[b]`` against the Gaussians ``rows[b]`` (depth order, padded
    with the sentinel row).  Its fragments occupy arena rows
    ``start + b * n_pixels * width`` onward, pixel-major.
    """

    start: int  # arena offset of the bucket (relative to the view's base)
    subtiles: np.ndarray  # (B,) global subtile ids
    rows: np.ndarray  # (B, w) projected rows; padding columns hold the sentinel
    ranks: np.ndarray  # (B, w) rank in the dense tile list (padding: 0)
    list_start: np.ndarray  # (B,) offset of the block's tile list in the dense order
    list_len: np.ndarray  # (B,) length of the block's dense tile list
    pixels: np.ndarray  # (B, p) linear pixel ids, row-major within the subtile
    coords: np.ndarray  # (B, p, 2) pixel-centre (u, v) coordinates

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(blocks, pixels per block, width)``."""
        return self.rows.shape[0], self.pixels.shape[1], self.rows.shape[1]

    @property
    def size(self) -> int:
        n_blocks, n_pixels, width = self.shape
        return n_blocks * n_pixels * width

    @property
    def stop(self) -> int:
        return self.start + self.size


@dataclass
class FlatFragments:
    """The subtile-block fragment layout of one render.

    ``n_fragments`` is the number of fragment slots the forward pass computes
    (arena rows, padding included); ``dense_fragments`` is the size of the
    dense per-tile grid the reference backend computes.  The per-fragment
    index arrays (``rows`` / ``pixel_ids`` / ``pos_in_pixel``, arena order)
    are built lazily on first access.
    """

    grid: TileGrid
    buckets: list[FragmentBucket]
    sentinel: int  # projected row of the padding Gaussian (== n_visible)
    list_offsets: np.ndarray  # (n_tiles + 1,) offsets of the dense tile lists
    n_fragments: int
    dense_fragments: int
    _rows: np.ndarray | None = field(default=None, repr=False)
    _pixel_ids: np.ndarray | None = field(default=None, repr=False)
    _pos_in_pixel: np.ndarray | None = field(default=None, repr=False)

    @property
    def max_per_pixel(self) -> int:
        """Longest per-pixel segment (the widest bucket; bounds the scan depth)."""
        return max((bucket.rows.shape[1] for bucket in self.buckets), default=0)

    @property
    def rows(self) -> np.ndarray:
        """(F,) projected-Gaussian row of each fragment slot (sentinel on padding)."""
        if self._rows is None:
            self._rows = _concat_or_empty(
                [np.repeat(b.rows, b.shape[1], axis=0).ravel() for b in self.buckets]
            )
        return self._rows

    @property
    def pixel_ids(self) -> np.ndarray:
        """(F,) linear pixel id (``v * width + u``) of each fragment slot."""
        if self._pixel_ids is None:
            self._pixel_ids = _concat_or_empty(
                [np.repeat(b.pixels.ravel(), b.shape[2]) for b in self.buckets]
            )
        return self._pixel_ids

    @property
    def pos_in_pixel(self) -> np.ndarray:
        """(F,) position of each fragment slot within its pixel's segment."""
        if self._pos_in_pixel is None:
            self._pos_in_pixel = _concat_or_empty(
                [
                    np.tile(np.arange(b.shape[2], dtype=np.int64), b.shape[0] * b.shape[1])
                    for b in self.buckets
                ]
            )
        return self._pos_in_pixel


def _concat_or_empty(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def _cutoff_extents(
    projected: ProjectedGaussians, opacity_headroom: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Half-extents (pixels) of each Gaussian's alpha-cutoff footprint box.

    A pixel centre at offset ``d`` from the mean composites a non-zero alpha
    only if ``o * exp(-d^T A d / 2) >= 1/255``, i.e. inside the ellipse
    ``d^T A d <= tau = 2 ln(255 o)``, whose bounding box has half-extents
    ``sqrt(tau * c / det)`` and ``sqrt(tau * a / det)`` for the conic
    ``A = [[a, b], [b, c]]``.  The computed quadratic form can undershoot the
    exact one by a relative ``~8 eps * kappa`` with
    ``kappa = (sqrt(ac) + |b|)^2 / det`` (cancellation in strongly
    anisotropic conics), so ``tau`` is inflated by that bound plus a fixed
    slack.  Returns ``+inf`` extents for Gaussians that must never be culled
    (non-finite parameters, a conic that is not positive definite, or one too
    ill-conditioned to bound) and ``-inf`` for Gaussians whose opacity is
    below the cutoff (their alpha is zero everywhere).  Opacities are scaled
    by ``opacity_headroom`` first, so a culled pair stays below the cutoff
    until its opacity grows by that factor.
    """
    conics = projected.conics
    a = conics[:, 0, 0]
    b = conics[:, 0, 1]
    c = conics[:, 1, 1]
    opacities = projected.opacities * opacity_headroom
    means = projected.means2d
    with np.errstate(all="ignore"):
        det = a * c - b * b
        finite = (
            np.isfinite(means).all(axis=1)
            & np.isfinite(a)
            & np.isfinite(b)
            & np.isfinite(c)
            & np.isfinite(opacities)
            & np.isfinite(det)
        )
        kappa = (np.sqrt(a * c) + np.abs(b)) ** 2 / det
        rounding = 64.0 * _EPS * kappa
        bounded = finite & (a > 0.0) & (c > 0.0) & (det > 0.0) & (rounding < 0.25)
        tau = 2.0 * np.log(np.maximum(255.0 * opacities, 1.0))
        tau = (tau + _CULL_SLACK) * (1.0 + _CULL_SLACK) / (1.0 - rounding) ** 2
        abs_pad = _CULL_SLACK + 1e-12 * np.abs(means)
        half_x = np.sqrt(tau * c / det) * (1.0 + _CULL_SLACK) + abs_pad[:, 0]
        half_y = np.sqrt(tau * a / det) * (1.0 + _CULL_SLACK) + abs_pad[:, 1]
    dead = finite & (opacities < ALPHA_CUTOFF)
    never_cull = ~bounded & ~dead
    half_x[never_cull] = np.inf
    half_y[never_cull] = np.inf
    half_x[dead] = -np.inf
    half_y[dead] = -np.inf
    return half_x, half_y


def build_flat_fragments(
    intersections: TileIntersections, opacity_headroom: float = 1.0
) -> FlatFragments:
    """Step 2: cull every tile list per subtile and lay out the kept blocks.

    One vectorised test over all (dense list entry, subtile of its tile)
    pairs keeps a Gaussian for a subtile when its inflated cutoff box meets
    the rectangle of the subtile's pixel centres.  Culled pairs composite to
    exactly zero alpha at every pixel of the subtile, and keep doing so while
    no opacity grows by more than ``opacity_headroom`` (the geometry cache's
    refined schedules rely on that margin).
    """
    grid = intersections.grid
    projected = intersections.projected
    per_tile = intersections.per_tile
    lengths = np.fromiter((rows.size for rows in per_tile), dtype=np.int64, count=len(per_tile))
    list_offsets = np.zeros(len(per_tile) + 1, dtype=np.int64)
    np.cumsum(lengths, out=list_offsets[1:])
    layout = grid.subtile_layout()
    tile_pixels = layout.n_pixels.reshape(grid.n_tiles, grid.subtiles_per_tile).sum(axis=1)
    dense_fragments = int(tile_pixels @ lengths)
    total = int(list_offsets[-1])
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return assemble_fragments(
            grid, projected.n_visible, list_offsets, empty, empty, empty, dense_fragments
        )

    rows = np.concatenate(per_tile)
    tiles = np.repeat(np.arange(grid.n_tiles), lengths)
    ranks = np.arange(total) - list_offsets[tiles]
    half_x, half_y = _cutoff_extents(projected, opacity_headroom)
    mean_x = projected.means2d[rows, 0]
    mean_y = projected.means2d[rows, 1]
    reach_x, reach_y = half_x[rows], half_y[rows]
    tile_y, tile_x = np.divmod(tiles, grid.n_tiles_x)
    # Separable box test: subtile columns of the entry's tile against the x
    # extent, subtile rows against the y extent, laid out subtile-major.
    # Non-finite extents of never-cull Gaussians keep every subtile,
    # including under NaN means.
    never_cull = np.isposinf(reach_x)
    keep_x = mean_x + reach_x >= layout.x_lo[:, tile_x]
    keep_x &= mean_x - reach_x <= layout.x_hi[:, tile_x]
    keep_x |= never_cull
    keep_y = mean_y + reach_y >= layout.y_lo[:, tile_y]
    keep_y &= mean_y - reach_y <= layout.y_hi[:, tile_y]
    keep_y |= never_cull
    keep = (keep_y[:, None, :] & keep_x[None, :, :]).reshape(-1, total)
    # Subtile-major scan: within one subtile the entries come out tile by
    # tile in dense (depth) order, so every block is contiguous and sorted.
    local, entry = np.nonzero(keep)
    subtiles = tiles[entry] * grid.subtiles_per_tile + local
    return assemble_fragments(
        grid,
        projected.n_visible,
        list_offsets,
        subtiles,
        rows[entry],
        ranks[entry],
        dense_fragments,
    )


def assemble_fragments(
    grid: TileGrid,
    sentinel: int,
    list_offsets: np.ndarray,
    subtiles: np.ndarray,
    rows: np.ndarray,
    ranks: np.ndarray,
    dense_fragments: int,
) -> FlatFragments:
    """Bucket kept (subtile, Gaussian) entries into padded subtile blocks.

    ``subtiles`` / ``rows`` / ``ranks`` list the kept entries with every
    subtile's entries contiguous and in depth order.  Blocks are grouped by
    pixel count and by ``floor(log(kept) / log(BUCKET_RATIO))``; each bucket
    is padded to its longest block with the ``sentinel`` row.
    """
    buckets: list[FragmentBucket] = []
    offset = 0
    if subtiles.size:
        layout = grid.subtile_layout()
        first = np.flatnonzero(np.concatenate([[True], subtiles[1:] != subtiles[:-1]]))
        counts = np.diff(np.append(first, subtiles.size))
        blocks = subtiles[first]
        n_pixels = layout.n_pixels[blocks]
        tile_of_block = blocks // grid.subtiles_per_tile
        width_class = np.floor(np.log(counts) / np.log(BUCKET_RATIO)).astype(np.int64)
        order = np.lexsort((width_class, n_pixels))
        order = order[n_pixels[order] > 0]  # subtiles outside a ragged image edge
        key_p, key_w = n_pixels[order], width_class[order]
        cuts = np.flatnonzero((key_p[1:] != key_p[:-1]) | (key_w[1:] != key_w[:-1])) + 1
        # One trailing padding entry: out-of-block columns gather it.
        rows = np.append(rows, sentinel)
        ranks = np.append(ranks, 0)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, order.size]):
            group = order[lo:hi]
            group_counts = counts[group]
            columns = np.arange(group_counts.max())
            index = first[group][:, None] + columns
            index[columns >= group_counts[:, None]] = subtiles.size
            group_blocks = blocks[group]
            tile_ids = tile_of_block[group]
            n_pix = int(n_pixels[group[0]])
            bucket = FragmentBucket(
                start=offset,
                subtiles=group_blocks,
                rows=rows[index],
                ranks=ranks[index],
                list_start=list_offsets[tile_ids],
                list_len=list_offsets[tile_ids + 1] - list_offsets[tile_ids],
                pixels=layout.pixels[group_blocks, :n_pix],
                coords=layout.coords[group_blocks, :n_pix],
            )
            buckets.append(bucket)
            offset += bucket.size
    return FlatFragments(
        grid=grid,
        buckets=buckets,
        sentinel=sentinel,
        list_offsets=list_offsets,
        n_fragments=offset,
        dense_fragments=dense_fragments,
    )


def segmented_exclusive_cumprod(
    values: np.ndarray, pos_in_segment: np.ndarray, max_segment: int
) -> np.ndarray:
    """Exclusive cumulative product within contiguous segments.

    ``pos_in_segment`` gives each element's rank inside its segment; segments
    must be contiguous.  Uses Hillis-Steele doubling: ``ceil(log2(max_segment))``
    fully vectorised passes over the array instead of one sequential
    ``np.cumprod`` per segment.  The production forward pass uses the
    bit-exact blocked variant (one ``cumprod`` per bucket, possible because
    the pixels of one bucket share their segment length); this general scan
    handles arbitrary segment layouts and cross-checks the blocked one in the
    property tests.
    """
    n = values.shape[0]
    if n == 0:
        return values.copy()
    inclusive = values.copy()
    shift = 1
    while shift < max_segment:
        shifted = np.empty_like(inclusive)
        shifted[:shift] = 1.0
        shifted[shift:] = inclusive[:-shift]
        # Elements fewer than `shift` steps into their segment would read
        # across the segment boundary; multiply by the identity instead.
        np.copyto(shifted, 1.0, where=pos_in_segment < shift)
        inclusive = inclusive * shifted
        shift <<= 1
    exclusive = np.empty_like(inclusive)
    exclusive[0] = 1.0
    exclusive[1:] = inclusive[:-1]
    exclusive[pos_in_segment == 0] = 1.0
    return exclusive


@dataclass
class FlatArena:
    """Preallocated flat storage for every per-fragment forward intermediate.

    A single-view render owns an arena sized to its own fragment count; the
    batched rasterizer (:mod:`repro.gaussians.batch`) allocates one arena for
    the *sum* of all views' fragments and hands each view a base offset, so
    the whole multi-view forward pass shares one set of allocations.
    """

    dx: np.ndarray  # (F,) pixel u - mean u
    dy: np.ndarray  # (F,) pixel v - mean v
    gauss: np.ndarray  # (F,)
    alphas: np.ndarray  # (F,)
    trans: np.ndarray  # (F,)
    weights: np.ndarray  # (F,)
    processed: np.ndarray  # (F,) bool
    clamp: np.ndarray  # (F,) bool
    # (3, F) work rows for the per-bucket temporaries of Steps 3 and 4:
    # recycled with the arena, so steady-state renders allocate (and page
    # fault) no fragment-sized temporaries.  Contents are undefined.
    work: np.ndarray

    @property
    def n_fragments(self) -> int:
        return int(self.gauss.shape[0])


def allocate_flat_arena(n_fragments: int) -> FlatArena:
    """Allocate an uninitialised arena for ``n_fragments`` fragments."""
    return FlatArena(
        dx=np.empty(n_fragments),
        dy=np.empty(n_fragments),
        gauss=np.empty(n_fragments),
        alphas=np.empty(n_fragments),
        trans=np.empty(n_fragments),
        weights=np.empty(n_fragments),
        processed=np.empty(n_fragments, dtype=bool),
        clamp=np.empty(n_fragments, dtype=bool),
        work=np.empty((3, n_fragments)),
    )


# Headroom factor applied when a recycled arena must grow: mapping windows
# densify a little every call, so growing to the exact new size would
# reallocate (and re-fault) on every window.  25% slack amortises that.
ARENA_GROWTH = 1.25


def ensure_flat_arena(arena: FlatArena | None, n_fragments: int) -> FlatArena:
    """Grow-only arena recycling: reuse ``arena`` when it fits, else grow it.

    The returned arena holds *at least* ``n_fragments`` rows; renders slice
    base-offset views into it, so extra capacity is free.  Growth keeps the
    high-water mark: the new capacity is the larger of the request and
    ``ARENA_GROWTH`` times the previous capacity, so a sequence of slowly
    growing windows reallocates O(log) times instead of every call.
    """
    if arena is not None and arena.n_fragments >= n_fragments:
        return arena
    capacity = n_fragments
    if arena is not None:
        capacity = max(capacity, int(arena.n_fragments * ARENA_GROWTH) + 1)
    return allocate_flat_arena(capacity)


@dataclass
class SubtileBlockCache:
    """Forward intermediates of one :class:`FragmentBucket`, reused in BP.

    The per-fragment arrays are ``(B * p, w)`` views of the arena — one row
    per pixel of every block, one column per (padded) kept Gaussian — with
    ``rows`` / ``ranks`` giving each block's columns.  ``dense_counts`` holds
    the dense-equivalent fragment count of every row's pixel.
    """

    subtiles: np.ndarray  # (B,) global subtile ids
    rows: np.ndarray  # (B, w) projected rows, sentinel on padding
    ranks: np.ndarray  # (B, w) dense tile-list ranks
    list_start: np.ndarray  # (B,) dense tile-list offset of each block's tile
    pixels: np.ndarray  # (B * p,) linear pixel ids
    pixel_indices: tuple[np.ndarray, np.ndarray]  # (v_idx, u_idx) into the image
    dx: np.ndarray  # (B * p, w) pixel u - mean u
    dy: np.ndarray  # (B * p, w) pixel v - mean v
    gauss_values: np.ndarray  # (B * p, w)
    alphas: np.ndarray  # (B * p, w)
    transmittance_before: np.ndarray  # (B * p, w)
    weights: np.ndarray  # (B * p, w)
    processed: np.ndarray  # (B * p, w) bool
    clamp_mask: np.ndarray  # (B * p, w) bool
    dense_counts: np.ndarray  # (B * p,) dense-equivalent fragments per pixel
    work: np.ndarray  # (3, B * p, w) arena work rows for Step 4's temporaries

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(blocks, pixels per block, width)``."""
        n_blocks, width = self.rows.shape
        return n_blocks, self.weights.shape[0] // n_blocks, width

    def fragments_per_pixel(self) -> np.ndarray:
        """Dense-equivalent fragments processed for each row's pixel."""
        return self.dense_counts

    def column_rows(self) -> np.ndarray:
        """Projected row of every (block, column) pair, block-major."""
        return self.rows.ravel()

    def sum_over_pixels(self, values: np.ndarray) -> np.ndarray:
        """Sum a per-fragment ``(B * p, w)`` array over each block's pixels."""
        return values.reshape(self.shape).sum(axis=1).ravel()


@dataclass(frozen=True)
class _PaddedParameters:
    """Projected per-Gaussian parameters plus one all-zero sentinel row."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    conic_a: np.ndarray
    conic_b: np.ndarray
    conic_c: np.ndarray
    opacities: np.ndarray
    blend_inputs: np.ndarray  # (n + 1, 5): colour, depth, 1 (accumulates alpha)

    @classmethod
    def of(cls, projected: ProjectedGaussians) -> "_PaddedParameters":
        def pad(values: np.ndarray) -> np.ndarray:
            return np.concatenate([values, np.zeros((1,) + values.shape[1:])])

        n_visible = projected.n_visible
        return cls(
            mean_x=pad(projected.means2d[:, 0]),
            mean_y=pad(projected.means2d[:, 1]),
            conic_a=pad(projected.conics[:, 0, 0]),
            conic_b=pad(projected.conics[:, 0, 1]),
            conic_c=pad(projected.conics[:, 1, 1]),
            opacities=pad(projected.opacities),
            blend_inputs=pad(
                np.column_stack([projected.colors, projected.depths, np.ones(n_visible)])
            ),
        )


def rasterize_flat(
    cloud: GaussianCloud,
    camera: Camera,
    pose_cw: SE3,
    background: np.ndarray | None = None,
    tile_size: int = 16,
    subtile_size: int = 4,
    active_only: bool = True,
    precomputed: tuple[ProjectedGaussians, TileIntersections] | None = None,
    cache: "GeometryCache | None" = None,
) -> RenderResult:
    """Flat-arena render; drop-in equivalent of ``rasterize(backend="tile")``.

    Passing a :class:`repro.gaussians.geom_cache.GeometryCache` as ``cache``
    memoises the Step 1-2 pipeline across calls keyed by ``(view, cloud
    epoch)``; the cache also owns the fragment arena, so consume each render
    before requesting the next one from the same cache.
    """
    if cache is not None and precomputed is None:
        return cache.render_single(
            cloud,
            camera,
            pose_cw,
            background=background,
            tile_size=tile_size,
            subtile_size=subtile_size,
            active_only=active_only,
        )
    if precomputed is not None:
        projected, intersections = precomputed
    else:
        projected = project_gaussians(cloud, camera, pose_cw, active_only=active_only)
        grid = TileGrid(camera.width, camera.height, tile_size, subtile_size)
        intersections = build_tile_lists(projected, grid)
    fragments = build_flat_fragments(intersections)
    arena = allocate_flat_arena(fragments.n_fragments)
    return rasterize_flat_into(projected, intersections, fragments, background, arena, base=0)


def rasterize_flat_into(
    projected: ProjectedGaussians,
    intersections: TileIntersections,
    fragments: FlatFragments,
    background: np.ndarray | None,
    arena: FlatArena,
    base: int,
) -> RenderResult:
    """Step 3: run the bucketed forward pass, writing into ``arena[base:]``.

    ``fragments`` must describe ``intersections`` (see
    :func:`build_flat_fragments`) and ``arena`` must have at least
    ``base + fragments.n_fragments`` rows.  Single-view rendering passes a
    private arena with ``base=0``; the batch path shares one arena across all
    views.
    """
    if background is None:
        background = np.zeros(3)
    background = np.asarray(background, dtype=np.float64).reshape(3)
    grid = intersections.grid
    camera = projected.camera
    height, width = camera.height, camera.width
    if arena.n_fragments < base + fragments.n_fragments:
        raise ValueError(
            f"arena holds {arena.n_fragments} fragments but view needs "
            f"[{base}, {base + fragments.n_fragments})"
        )

    n_pix = height * width
    image = np.tile(background, (n_pix, 1))
    depth = np.zeros(n_pix)
    alpha_map = np.zeros(n_pix)
    # Pixels no kept fragment reaches never terminate: they process their
    # whole dense tile list (zero where the tile is empty).
    list_len = np.diff(fragments.list_offsets)
    frag_counts = list_len[grid.subtile_layout().tile_of_pixel]

    params = _PaddedParameters.of(projected)
    tile_caches: list[SubtileBlockCache] = []
    for bucket in fragments.buckets:
        n_blocks, p_count, m_count = shape = bucket.shape
        lo, hi = base + bucket.start, base + bucket.stop
        rows = bucket.rows

        dx = arena.dx[lo:hi].reshape(shape)
        dy = arena.dy[lo:hi].reshape(shape)
        gauss = arena.gauss[lo:hi].reshape(shape)
        alphas = arena.alphas[lo:hi].reshape(shape)
        trans_before = arena.trans[lo:hi].reshape(shape)
        weights = arena.weights[lo:hi].reshape(shape)
        processed = arena.processed[lo:hi].reshape(shape)
        clamp_mask = arena.clamp[lo:hi].reshape(shape)
        work = arena.work[:, lo:hi]
        temp = work[0].reshape(shape)

        # Step 3-1 Alpha computing (in place into the arena views), with the
        # tile backend's association order so kept fragments match it:
        # a dx^2 + 2b dx dy + c dy^2, summed left to right.
        np.subtract(bucket.coords[:, :, :1], params.mean_x[rows][:, None, :], out=dx)
        np.subtract(bucket.coords[:, :, 1:], params.mean_y[rows][:, None, :], out=dy)
        np.square(dx, out=temp)
        np.multiply(params.conic_a[rows][:, None, :], temp, out=gauss)
        np.multiply((2.0 * params.conic_b[rows])[:, None, :], dx, out=temp)
        temp *= dy
        gauss += temp
        np.square(dy, out=temp)
        np.multiply(params.conic_c[rows][:, None, :], temp, out=temp)
        gauss += temp
        gauss *= -0.5
        np.minimum(gauss, 0.0, out=gauss)
        np.exp(gauss, out=gauss)

        np.multiply(params.opacities[rows][:, None, :], gauss, out=alphas)
        np.greater(alphas, ALPHA_CLAMP, out=clamp_mask)
        np.minimum(alphas, ALPHA_CLAMP, out=alphas)
        np.greater_equal(alphas, ALPHA_CUTOFF, out=temp)
        alphas *= temp

        # Step 3-2 Alpha blending: exclusive cumprod along each pixel's kept
        # columns, then termination masking.
        one_minus = np.subtract(1.0, alphas, out=temp)
        trans_before[..., 0] = 1.0
        if m_count > 1:
            np.cumprod(one_minus[..., :-1], axis=2, out=trans_before[..., 1:])
        np.greater_equal(trans_before, TRANSMITTANCE_EPS, out=processed)
        np.multiply(trans_before, alphas, out=weights)
        weights *= processed

        # Colour, depth and accumulated alpha in one batched product.
        blended = np.matmul(weights, params.blend_inputs[rows]).reshape(-1, 5)
        pixel_color = blended[:, :3]
        pixel_depth = blended[:, 3]
        pixel_alpha = blended[:, 4]

        # Dense-equivalent counts: a pixel whose transmittance after its last
        # column (padding passes it through) fell below the threshold stopped
        # at its last processed column — the column before the first
        # unprocessed one, or the last column when it terminates there — and
        # the dense grid processed every list entry up to that fragment.
        trans_end = trans_before[..., -1] * one_minus[..., -1]
        last = (np.argmin(processed, axis=2) + (m_count - 1)) % m_count
        stop_rank = np.take_along_axis(bucket.ranks, last, axis=1)
        counts = np.where(
            trans_end < TRANSMITTANCE_EPS, stop_rank + 1, bucket.list_len[:, None]
        ).reshape(-1)

        pixels = bucket.pixels.reshape(-1)
        image[pixels] = pixel_color + (1.0 - pixel_alpha)[:, None] * background
        depth[pixels] = pixel_depth
        alpha_map[pixels] = pixel_alpha
        frag_counts[pixels] = counts

        rows_2d = (n_blocks * p_count, m_count)
        tile_caches.append(
            SubtileBlockCache(
                subtiles=bucket.subtiles,
                rows=rows,
                ranks=bucket.ranks,
                list_start=bucket.list_start,
                pixels=pixels,
                pixel_indices=np.divmod(pixels, width),
                dx=dx.reshape(rows_2d),
                dy=dy.reshape(rows_2d),
                gauss_values=gauss.reshape(rows_2d),
                alphas=alphas.reshape(rows_2d),
                transmittance_before=trans_before.reshape(rows_2d),
                weights=weights.reshape(rows_2d),
                processed=processed.reshape(rows_2d),
                clamp_mask=clamp_mask.reshape(rows_2d),
                dense_counts=counts,
                work=work.reshape((3,) + rows_2d),
            )
        )

    return RenderResult(
        image=np.clip(image.reshape(height, width, 3), 0.0, 1.0),
        depth=depth.reshape(height, width),
        alpha=alpha_map.reshape(height, width),
        fragments_per_pixel=frag_counts.reshape(height, width),
        projected=projected,
        intersections=intersections,
        tile_caches=tile_caches,
        camera=camera,
        pose_cw=projected.pose_cw,
        background=background,
        backend="flat",
    )


# Columns of the per-(block, Gaussian) gradient matrix scattered in Step 4.
_GRAD_COLUMNS = 10  # colour (3), depth, opacity, mean2d (2), conic xx / xy / yy


def rasterize_backward_flat(
    result: RenderResult,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
):
    """Step 4 Rendering BP over the subtile buckets of a flat render.

    Produces the same :class:`~repro.gaussians.backward.ScreenSpaceGradients`
    as the reference ``rasterize_backward`` (the differential harness pins
    agreement to 1e-8) while avoiding its large temporaries:

    * the colour *and* depth suffix terms are folded into one blend matrix
      ``B[p, k] = dL/dC_p . c_k + dL/dD_p * d_k`` per block (one batched
      product), so ``dL/dalpha = T * B - suffix(w * B) / (1 - alpha)`` needs
      one suffix scan instead of a ``(P, M, 3)`` stack;
    * the conic gradient is reduced component-wise instead of materialising
      the ``(P, M, 2, 2)`` outer tensor;
    * every gradient is summed over its block's pixels first, then all
      buckets scatter per Gaussian with a single ``bincount``; the sentinel
      row collects the (zero) padding columns and is dropped.
    """
    from repro.gaussians.backward import GradientTrace, ScreenSpaceGradients

    projected = result.projected
    n_visible = projected.n_visible
    trace = GradientTrace(fragments_per_pixel=result.fragments_per_pixel.copy())

    dL_dimage = np.asarray(dL_dimage, dtype=np.float64)
    if dL_dimage.shape != result.image.shape:
        raise ValueError(
            f"dL_dimage shape {dL_dimage.shape} does not match image {result.image.shape}"
        )
    if dL_ddepth is not None:
        dL_ddepth = np.asarray(dL_ddepth, dtype=np.float64)
        if dL_ddepth.shape != result.depth.shape:
            raise ValueError(
                f"dL_ddepth shape {dL_ddepth.shape} does not match depth {result.depth.shape}"
            )
    image_grad = dL_dimage.reshape(-1, 3)
    depth_grad = None if dL_ddepth is None else dL_ddepth.reshape(-1)

    params = _PaddedParameters.of(projected)
    # With a depth loss, colour and depth share one blend / gradient product.
    n_blend = 3 if depth_grad is None else 4
    pixel_grad = image_grad if depth_grad is None else np.column_stack([image_grad, depth_grad])
    grad_rows: list[np.ndarray] = []
    grad_blocks: list[np.ndarray] = []
    trace_keys: list[np.ndarray] = []
    trace_counts: list[np.ndarray] = []
    for cache in result.tile_caches:
        n_blocks, n_pixels, width = shape = cache.shape
        rows = cache.rows
        weights = cache.weights.reshape(shape)
        alphas = cache.alphas.reshape(shape)
        gauss = cache.gauss_values.reshape(shape)
        dx = cache.dx.reshape(shape)
        dy = cache.dy.reshape(shape)
        block_grad = pixel_grad[cache.pixels].reshape(n_blocks, n_pixels, n_blend)
        inputs = params.blend_inputs[rows][:, :, :n_blend]  # (B, w, 3 or 4)

        parts = np.zeros((n_blocks, width, _GRAD_COLUMNS))
        # Direct colour / depth gradients: dL/dc_k = w_k * dL/dC_P.
        parts[..., :n_blend] = np.matmul(weights.transpose(0, 2, 1), block_grad)
        # Temporaries live in the bucket's arena work rows.
        blend, suffix, temp = (buffer.reshape(shape) for buffer in cache.work)
        np.matmul(block_grad, inputs.transpose(0, 2, 1), out=blend)

        # dL/dalpha_k = T_k * B_k - (sum_{n>k} w_n B_n) / (1 - alpha_k); the
        # suffix sum is the row total minus the inclusive prefix.
        np.multiply(weights, blend, out=suffix)
        np.cumsum(suffix, axis=2, out=suffix)
        np.subtract(suffix[..., -1:], suffix, out=suffix)
        np.subtract(1.0, alphas, out=temp)
        np.maximum(temp, 1.0 - 0.995, out=temp)
        suffix /= temp
        dL_dalpha = np.multiply(cache.transmittance_before.reshape(shape), blend, out=blend)
        dL_dalpha -= suffix
        # Gradients flow only through processed, unclamped, non-zero alphas
        # (a clamped alpha is non-zero, so the difference is the mask).
        valid = np.greater(alphas, 0.0, out=temp)
        valid -= cache.clamp_mask.reshape(shape)
        valid *= cache.processed.reshape(shape)
        dL_dalpha *= valid

        # alpha = opacity * G: dL/dopacity = sum_p dL/dalpha * G, and
        # dL/dG * G = opacity * common with common = dL/dalpha * G.  Every
        # remaining gradient is linear in common, so the per-column opacity
        # factor is applied after the pixel reduction.
        common = np.multiply(dL_dalpha, gauss, out=dL_dalpha)
        parts[..., 4] = common.sum(axis=1)
        # G = exp(-0.5 d^T A d): dG/dmu = G * (A d), dG/dA = -0.5 * G * d d^T.
        common_dx = np.multiply(common, dx, out=suffix)
        common_dy = np.multiply(common, dy, out=common)
        sum_dx = common_dx.sum(axis=1)
        sum_dy = common_dy.sum(axis=1)
        opacity = params.opacities[rows]
        a = params.conic_a[rows]
        b = params.conic_b[rows]
        c = params.conic_c[rows]
        parts[..., 5] = opacity * (a * sum_dx + b * sum_dy)
        parts[..., 6] = opacity * (b * sum_dx + c * sum_dy)
        parts[..., 7] = -0.5 * opacity * np.einsum("bpm,bpm->bm", common_dx, dx)
        parts[..., 8] = -0.5 * opacity * np.einsum("bpm,bpm->bm", common_dx, dy)
        parts[..., 9] = -0.5 * opacity * np.einsum("bpm,bpm->bm", common_dy, dy)
        grad_rows.append(rows.ravel())
        grad_blocks.append(parts.reshape(-1, _GRAD_COLUMNS))

        # Pixel-level contributions per (tile, Gaussian), keyed by the dense
        # tile-list position so the trace reassembles in dense order.
        trace_keys.append((cache.list_start[:, None] + cache.ranks).ravel())
        trace_counts.append(np.greater(weights, 0.0, out=temp).sum(axis=1).ravel())

    grads = np.zeros((n_visible, _GRAD_COLUMNS))
    if grad_rows:
        keys = np.concatenate(grad_rows)[:, None] * _GRAD_COLUMNS + np.arange(_GRAD_COLUMNS)
        grads = np.bincount(
            keys.ravel(),
            weights=np.concatenate(grad_blocks).ravel(),
            minlength=(n_visible + 1) * _GRAD_COLUMNS,
        ).reshape(n_visible + 1, _GRAD_COLUMNS)[:n_visible]
        _fill_trace(trace, result, np.concatenate(trace_keys), np.concatenate(trace_counts))

    grads_conics = np.empty((n_visible, 2, 2))
    grads_conics[:, 0, 0] = grads[:, 7]
    grads_conics[:, 0, 1] = grads[:, 8]
    grads_conics[:, 1, 0] = grads[:, 8]
    grads_conics[:, 1, 1] = grads[:, 9]
    return ScreenSpaceGradients(
        projected=projected,
        colors=np.ascontiguousarray(grads[:, 0:3]),
        opacities=np.ascontiguousarray(grads[:, 4]),
        means2d=np.ascontiguousarray(grads[:, 5:7]),
        conics=grads_conics,
        depths=np.ascontiguousarray(grads[:, 3]),
        trace=trace,
    )


def _fill_trace(trace, result: RenderResult, keys: np.ndarray, counts: np.ndarray) -> None:
    """Per-tile (Gaussian, pixel-count) lists of the gradient trace, dense order."""
    per_tile = result.intersections.per_tile
    offsets = np.zeros(len(per_tile) + 1, dtype=np.int64)
    np.cumsum([rows.size for rows in per_tile], out=offsets[1:])
    per_entry = np.bincount(keys, weights=counts, minlength=int(offsets[-1])).astype(np.int64)
    source_indices = result.projected.indices
    for tile_id in np.unique(np.searchsorted(offsets, np.flatnonzero(per_entry), "right") - 1):
        entries = per_entry[offsets[tile_id] : offsets[tile_id + 1]]
        has_grad = entries > 0
        trace.tile_ids.append(int(tile_id))
        trace.per_tile_source_indices.append(source_indices[per_tile[tile_id][has_grad]])
        trace.per_tile_pixel_counts.append(entries[has_grad])
