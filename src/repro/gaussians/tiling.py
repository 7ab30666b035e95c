"""Step 1-2 *Tile intersection*: assigning 2D Gaussians to image tiles.

The image is partitioned into 16x16-pixel tiles (the GPU rasterizer
convention followed by the paper).  RTGS further splits each tile into 4x4
*subtiles*, the unit of work dispatched to one Rendering Engine; the
:class:`TileGrid` exposes both granularities so the hardware model and the
rasterizer agree on the pixel-to-unit mapping.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.gaussians.projection import ProjectedGaussians

DEFAULT_TILE_SIZE = 16
DEFAULT_SUBTILE_SIZE = 4


@dataclass(frozen=True)
class SubtileLayout:
    """Whole-grid subtile geometry, indexed by global subtile id.

    The global id of subtile ``j`` (row-major within its tile) of tile ``t`` is
    ``t * subtiles_per_tile + j``.  Pixels of a subtile are listed row-major
    and packed to the front of each row of ``pixels`` / ``coords``; subtiles
    of ragged edge tiles hold fewer than ``subtile_size**2`` pixels and may be
    empty.  All arrays are read-only and shared by every grid of one shape.
    """

    n_pixels: np.ndarray  # (S,) pixel count of each subtile
    pixels: np.ndarray  # (S, s*s) linear pixel ids (v * width + u), packed
    coords: np.ndarray  # (S, s*s, 2) pixel-centre (u, v) coordinates, packed
    subtile_of_pixel: np.ndarray  # (H*W,) global subtile id of each pixel
    tile_of_pixel: np.ndarray  # (H*W,) tile id of each pixel
    # Pixel-centre extent of each subtile column / row of every tile column /
    # row, (per_side, n_tiles_x) and (per_side, n_tiles_y); +inf lower bounds
    # mark subtile columns / rows outside the image.
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray


class _GridGeometry:
    """Process-wide memo of one grid shape's pixel geometry (see ``_geometry``)."""

    def __init__(self) -> None:
        self.tile_coords: dict[int, np.ndarray] = {}
        self.subtile_offsets: dict[int, np.ndarray] = {}
        self.subtiles: SubtileLayout | None = None


# Keyed by (width, height, tile_size, subtile_size).  Tracking renders build a
# fresh TileGrid per call, so the memo must outlive the instances; the LRU cap
# bounds it when downsampled frames come in many sizes.
_GEOMETRY: OrderedDict[tuple[int, int, int, int], _GridGeometry] = OrderedDict()
_GEOMETRY_CAPACITY = 64


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class TileGrid:
    """Partition of a ``width`` x ``height`` image into square tiles and subtiles."""

    width: int
    height: int
    tile_size: int = DEFAULT_TILE_SIZE
    subtile_size: int = DEFAULT_SUBTILE_SIZE

    def __post_init__(self) -> None:
        if self.tile_size <= 0 or self.subtile_size <= 0:
            raise ValueError("tile_size and subtile_size must be positive")
        if self.tile_size % self.subtile_size != 0:
            raise ValueError(
                f"tile_size ({self.tile_size}) must be a multiple of subtile_size "
                f"({self.subtile_size})"
            )

    @property
    def _geometry(self) -> _GridGeometry:
        """The pixel-geometry memo shared by every grid of this shape."""
        key = (self.width, self.height, self.tile_size, self.subtile_size)
        geometry = _GEOMETRY.get(key)
        if geometry is None:
            geometry = _GEOMETRY[key] = _GridGeometry()
            if len(_GEOMETRY) > _GEOMETRY_CAPACITY:
                _GEOMETRY.popitem(last=False)
        else:
            _GEOMETRY.move_to_end(key)
        return geometry

    # -- tile level ---------------------------------------------------------
    @property
    def n_tiles_x(self) -> int:
        return (self.width + self.tile_size - 1) // self.tile_size

    @property
    def n_tiles_y(self) -> int:
        return (self.height + self.tile_size - 1) // self.tile_size

    @property
    def n_tiles(self) -> int:
        return self.n_tiles_x * self.n_tiles_y

    def tile_bounds(self, tile_id: int) -> tuple[int, int, int, int]:
        """Return ``(x0, y0, x1, y1)`` pixel bounds (exclusive upper) of a tile."""
        if not 0 <= tile_id < self.n_tiles:
            raise IndexError(f"tile_id {tile_id} out of range [0, {self.n_tiles})")
        ty, tx = divmod(tile_id, self.n_tiles_x)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        return x0, y0, min(x0 + self.tile_size, self.width), min(y0 + self.tile_size, self.height)

    def tile_pixel_coordinates(self, tile_id: int) -> np.ndarray:
        """Return the ``(P, 2)`` pixel-centre (u, v) coordinates inside a tile.

        Memoised per grid shape; the returned array is read-only.
        """
        memo = self._geometry.tile_coords
        cached = memo.get(tile_id)
        if cached is not None:
            return cached
        x0, y0, x1, y1 = self.tile_bounds(tile_id)
        us = np.arange(x0, x1, dtype=np.float64) + 0.5
        vs = np.arange(y0, y1, dtype=np.float64) + 0.5
        grid_u, grid_v = np.meshgrid(us, vs)
        coords = _read_only(np.stack([grid_u.ravel(), grid_v.ravel()], axis=1))
        memo[tile_id] = coords
        return coords

    # -- subtile level --------------------------------------------------------
    @property
    def subtiles_per_side(self) -> int:
        return self.tile_size // self.subtile_size

    @property
    def subtiles_per_tile(self) -> int:
        return self.subtiles_per_side * self.subtiles_per_side

    @property
    def pixels_per_subtile(self) -> int:
        return self.subtile_size * self.subtile_size

    def subtile_of_pixel_offsets(self, tile_id: int) -> np.ndarray:
        """Return the subtile index (within the tile) of each pixel of ``tile_id``.

        The array is aligned with :meth:`tile_pixel_coordinates` (row-major over
        the tile's pixels).  Memoised per grid shape; read-only.
        """
        memo = self._geometry.subtile_offsets
        cached = memo.get(tile_id)
        if cached is not None:
            return cached
        x0, y0, x1, y1 = self.tile_bounds(tile_id)
        local_u = np.arange(x1 - x0) // self.subtile_size
        local_v = np.arange(y1 - y0) // self.subtile_size
        subtile = local_v[:, None] * self.subtiles_per_side + local_u[None, :]
        offsets = _read_only(subtile.ravel())
        memo[tile_id] = offsets
        return offsets

    def subtile_layout(self) -> SubtileLayout:
        """Return the whole-grid :class:`SubtileLayout` (memoised per shape)."""
        geometry = self._geometry
        if geometry.subtiles is None:
            geometry.subtiles = self._build_subtile_layout()
        return geometry.subtiles

    def _build_subtile_layout(self) -> SubtileLayout:
        s = self.subtile_size
        side = self.subtiles_per_side
        width, height = self.width, self.height
        # Global subtile column / row of every pixel column / row; subtiles
        # align across tiles because tile_size is a multiple of subtile_size.
        us = np.arange(width)
        vs = np.arange(height)
        tile_x, tile_y = us // self.tile_size, vs // self.tile_size
        local_x, local_y = (us // s) % side, (vs // s) % side
        tile_of_pixel = (tile_y[:, None] * self.n_tiles_x + tile_x[None, :]).ravel()
        subtile_of_pixel = (
            tile_of_pixel * self.subtiles_per_tile
            + (local_y[:, None] * side + local_x[None, :]).ravel()
        )
        n_subtiles = self.n_tiles * self.subtiles_per_tile
        n_pixels = np.bincount(subtile_of_pixel, minlength=n_subtiles)
        # Pack each subtile's pixels row-major to the front of its row: a
        # stable sort by subtile keeps the image's row-major order within it.
        order = np.argsort(subtile_of_pixel, kind="stable")
        first = np.cumsum(n_pixels) - n_pixels
        slot = np.arange(order.size) - np.repeat(first, n_pixels)
        pixels = np.zeros((n_subtiles, s * s), dtype=np.int64)
        pixels[subtile_of_pixel[order], slot] = order
        coords = np.stack([pixels % width + 0.5, pixels // width + 0.5], axis=-1)

        def extents(n_tiles: int, size: int) -> tuple[np.ndarray, np.ndarray]:
            start = (np.arange(n_tiles * side) * s).reshape(n_tiles, side).T
            stop = np.minimum(start + s, size)
            lo = np.where(start < size, start + 0.5, np.inf)
            return np.ascontiguousarray(lo), np.ascontiguousarray(stop - 0.5, dtype=np.float64)

        x_lo, x_hi = extents(self.n_tiles_x, width)
        y_lo, y_hi = extents(self.n_tiles_y, height)
        return SubtileLayout(
            n_pixels=_read_only(n_pixels),
            pixels=_read_only(pixels),
            coords=_read_only(coords),
            subtile_of_pixel=_read_only(subtile_of_pixel),
            tile_of_pixel=_read_only(tile_of_pixel),
            x_lo=_read_only(x_lo),
            x_hi=_read_only(x_hi),
            y_lo=_read_only(y_lo),
            y_hi=_read_only(y_hi),
        )

    # -- assignment -----------------------------------------------------------
    def tiles_overlapping(self, mean2d: np.ndarray, radius: float) -> np.ndarray:
        """Return the tile ids whose pixel rectangle overlaps the splat bounding box."""
        x_min = int(np.floor((mean2d[0] - radius) / self.tile_size))
        x_max = int(np.floor((mean2d[0] + radius) / self.tile_size))
        y_min = int(np.floor((mean2d[1] - radius) / self.tile_size))
        y_max = int(np.floor((mean2d[1] + radius) / self.tile_size))
        x_min = max(x_min, 0)
        y_min = max(y_min, 0)
        x_max = min(x_max, self.n_tiles_x - 1)
        y_max = min(y_max, self.n_tiles_y - 1)
        if x_max < x_min or y_max < y_min:
            return np.zeros(0, dtype=int)
        xs = np.arange(x_min, x_max + 1)
        ys = np.arange(y_min, y_max + 1)
        grid_x, grid_y = np.meshgrid(xs, ys)
        return (grid_y * self.n_tiles_x + grid_x).ravel()


def assign_tiles(projected: ProjectedGaussians, grid: TileGrid) -> list[np.ndarray]:
    """Assign each projected Gaussian to the tiles its bounding box overlaps.

    Returns a list of length ``grid.n_tiles``; entry ``t`` holds the projected
    indices (rows of ``projected``) that intersect tile ``t``, in input order
    (depth sorting happens in :mod:`repro.gaussians.sorting`).

    Fully vectorised: all (Gaussian, tile) pairs are materialised in one
    expansion and grouped with a stable sort, which preserves the ascending
    row order per tile the per-Gaussian loop used to produce.  On SLAM-sized
    scenes this step used to cost as much as rasterization itself.
    """
    empty = [np.zeros(0, dtype=int) for _ in range(grid.n_tiles)]
    n_visible = projected.n_visible
    if n_visible == 0:
        return empty
    means = projected.means2d
    radii = projected.radii
    tile = grid.tile_size
    x_min = np.maximum(np.floor((means[:, 0] - radii) / tile).astype(np.int64), 0)
    x_max = np.minimum(
        np.floor((means[:, 0] + radii) / tile).astype(np.int64), grid.n_tiles_x - 1
    )
    y_min = np.maximum(np.floor((means[:, 1] - radii) / tile).astype(np.int64), 0)
    y_max = np.minimum(
        np.floor((means[:, 1] + radii) / tile).astype(np.int64), grid.n_tiles_y - 1
    )
    span_x = np.maximum(x_max - x_min + 1, 0)
    span_y = np.maximum(y_max - y_min + 1, 0)
    counts = span_x * span_y
    total = int(counts.sum())
    if total == 0:
        return empty

    rows = np.repeat(np.arange(n_visible), counts)
    # Rank of each pair within its Gaussian's tile rectangle (row-major).
    first_pair = np.cumsum(counts) - counts
    rank = np.arange(total) - np.repeat(first_pair, counts)
    span_x_pairs = np.repeat(span_x, counts)
    tile_x = np.repeat(x_min, counts) + rank % span_x_pairs
    tile_y = np.repeat(y_min, counts) + rank // span_x_pairs
    tile_ids = tile_y * grid.n_tiles_x + tile_x

    order = np.argsort(tile_ids, kind="stable")
    tile_ids = tile_ids[order]
    rows = rows[order]
    boundaries = np.searchsorted(tile_ids, np.arange(grid.n_tiles + 1))
    return [rows[boundaries[t] : boundaries[t + 1]] for t in range(grid.n_tiles)]
