"""Tests for projection, tiling, sorting and the forward rasterizer."""

import numpy as np
import pytest

from repro.gaussians import (
    GaussianCloud,
    SE3,
    TileGrid,
    build_tile_lists,
    intersection_change_ratio,
    project_gaussians,
    rasterize,
)
from repro.gaussians.projection import perspective_jacobian


class TestProjection:
    def test_projected_count_and_depths(self, small_cloud, small_camera, simple_pose):
        projected = project_gaussians(small_cloud, small_camera, simple_pose)
        assert 0 < projected.n_visible <= len(small_cloud)
        assert np.all(projected.depths > 0)

    def test_behind_camera_culled(self, small_camera):
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, -5.0], [0.0, 0.0, 5.0]]), np.full((2, 3), 0.5), scale=0.1
        )
        pose = SE3.identity()
        projected = project_gaussians(cloud, small_camera, pose)
        assert projected.n_visible == 1
        assert projected.indices[0] == 1

    def test_frustum_cull_rejects_lateral_near_plane_points(self, small_camera):
        # A point almost in the camera plane but far to the side must be culled
        # even though its z is positive (degenerate EWA case).
        cloud = GaussianCloud.from_points(
            np.array([[3.0, 0.0, 0.1], [0.0, 0.0, 2.0]]), np.full((2, 3), 0.5), scale=0.1
        )
        projected = project_gaussians(cloud, small_camera, SE3.identity())
        assert projected.n_visible == 1
        assert projected.indices[0] == 1

    def test_masked_gaussians_skipped(self, small_cloud, small_camera, simple_pose):
        full = project_gaussians(small_cloud, small_camera, simple_pose)
        masked_cloud = small_cloud.copy()
        masked_cloud.mask(np.arange(0, len(masked_cloud), 2))
        masked = project_gaussians(masked_cloud, small_camera, simple_pose)
        assert masked.n_visible < full.n_visible
        assert not np.intersect1d(masked.indices, np.arange(0, len(masked_cloud), 2)).size

    def test_conic_is_inverse_of_cov2d(self, small_cloud, small_camera, simple_pose):
        projected = project_gaussians(small_cloud, small_camera, simple_pose)
        products = projected.cov2d @ projected.conics
        identity = np.tile(np.eye(2), (projected.n_visible, 1, 1))
        assert np.allclose(products, identity, atol=1e-6)

    def test_perspective_jacobian_matches_finite_difference(self, small_camera):
        point = np.array([[0.3, -0.2, 1.7]])
        jac = perspective_jacobian(point, small_camera)[0]
        eps = 1e-6
        numeric = np.zeros((2, 3))
        for axis in range(3):
            plus, minus = point.copy(), point.copy()
            plus[0, axis] += eps
            minus[0, axis] -= eps
            numeric[:, axis] = (
                small_camera.project(plus)[0] - small_camera.project(minus)[0]
            ) / (2 * eps)
        assert np.allclose(jac, numeric, atol=1e-5)


class TestTiling:
    def test_grid_dimensions(self):
        grid = TileGrid(64, 48, tile_size=16, subtile_size=4)
        assert grid.n_tiles_x == 4 and grid.n_tiles_y == 3
        assert grid.n_tiles == 12
        assert grid.subtiles_per_tile == 16
        assert grid.pixels_per_subtile == 16

    def test_tile_bounds_cover_image_exactly(self):
        grid = TileGrid(50, 30, tile_size=16)
        covered = np.zeros((30, 50), dtype=int)
        for tile_id in range(grid.n_tiles):
            x0, y0, x1, y1 = grid.tile_bounds(tile_id)
            covered[y0:y1, x0:x1] += 1
        assert np.all(covered == 1)

    def test_invalid_subtile_size_rejected(self):
        with pytest.raises(ValueError):
            TileGrid(64, 48, tile_size=16, subtile_size=5)

    def test_tiles_overlapping_bounding_box(self):
        grid = TileGrid(64, 64, tile_size=16)
        tiles = grid.tiles_overlapping(np.array([8.0, 8.0]), 4.0)
        assert list(tiles) == [0]
        tiles = grid.tiles_overlapping(np.array([16.0, 16.0]), 4.0)
        assert set(tiles) == {0, 1, 4, 5}

    def test_offscreen_gaussian_gets_no_tiles(self):
        grid = TileGrid(64, 64, tile_size=16)
        assert grid.tiles_overlapping(np.array([500.0, 500.0]), 10.0).size == 0

    def test_geometry_memo_shared_across_grids(self):
        # Renders build a fresh grid per call; the pixel geometry is memoised
        # per shape, so two grids of one shape hand out the same arrays.
        first, second = TileGrid(45, 34), TileGrid(45, 34)
        assert first is not second
        assert first._geometry is second._geometry
        assert first.tile_pixel_coordinates(8) is second.tile_pixel_coordinates(8)
        assert first.subtile_of_pixel_offsets(8) is second.subtile_of_pixel_offsets(8)
        assert first.subtile_layout() is second.subtile_layout()
        assert TileGrid(45, 34, subtile_size=8)._geometry is not first._geometry
        layout = first.subtile_layout()
        for array in (layout.pixels, layout.coords, first.tile_pixel_coordinates(8)):
            assert not array.flags.writeable

    def test_subtile_layout_partitions_ragged_grid(self):
        grid = TileGrid(45, 34, tile_size=16, subtile_size=4)
        layout = grid.subtile_layout()
        covered = np.zeros(45 * 34, dtype=int)
        for subtile, count in enumerate(layout.n_pixels):
            pixels = layout.pixels[subtile, :count]
            covered[pixels] += 1
            assert np.all(layout.subtile_of_pixel[pixels] == subtile)
            np.testing.assert_array_equal(
                layout.coords[subtile, :count],
                np.stack([pixels % 45 + 0.5, pixels // 45 + 0.5], axis=1),
            )
        assert np.all(covered == 1)
        # The last tile row is 2 px tall: its lower three subtile rows are empty.
        assert layout.n_pixels.reshape(grid.n_tiles, 16)[-1, 4:].sum() == 0
        for tile_id in range(grid.n_tiles):
            offsets = grid.subtile_of_pixel_offsets(tile_id)
            x0, y0, x1, y1 = grid.tile_bounds(tile_id)
            lin = (np.arange(y0, y1)[:, None] * 45 + np.arange(x0, x1)[None, :]).ravel()
            np.testing.assert_array_equal(
                layout.subtile_of_pixel[lin], tile_id * 16 + offsets
            )


class TestSorting:
    def test_per_tile_lists_are_depth_sorted(self, small_cloud, small_camera, simple_pose):
        projected = project_gaussians(small_cloud, small_camera, simple_pose)
        grid = TileGrid(small_camera.width, small_camera.height)
        intersections = build_tile_lists(projected, grid)
        assert intersections.n_pairs > 0
        for rows in intersections.per_tile:
            depths = projected.depths[rows]
            assert np.all(np.diff(depths) >= 0)

    def test_intersection_change_ratio_bounds(self):
        assert intersection_change_ratio(set(), set()) == 0.0
        assert intersection_change_ratio({1, 2}, {1, 2}) == 0.0
        assert intersection_change_ratio({1, 2}, {3, 4}) == 1.0
        assert 0.0 < intersection_change_ratio({1, 2, 3}, {1, 2, 4}) < 1.0


class TestRasterizer:
    def test_output_shapes_and_ranges(self, small_cloud, small_camera, simple_pose):
        result = rasterize(small_cloud, small_camera, simple_pose)
        assert result.image.shape == (small_camera.height, small_camera.width, 3)
        assert result.depth.shape == (small_camera.height, small_camera.width)
        assert np.all(result.image >= 0.0) and np.all(result.image <= 1.0)
        assert np.all(result.alpha >= 0.0) and np.all(result.alpha <= 1.0 + 1e-9)
        assert result.n_fragments > 0

    def test_empty_cloud_renders_background(self, small_camera, simple_pose):
        result = rasterize(
            GaussianCloud.empty(), small_camera, simple_pose, background=np.array([0.2, 0.4, 0.6])
        )
        assert np.allclose(result.image, [0.2, 0.4, 0.6])
        assert result.n_fragments == 0

    def test_opaque_wall_gives_full_alpha_and_correct_depth(self, small_camera):
        # A dense grid of opaque Gaussians at z = 2 should saturate alpha and
        # produce a blended depth close to 2 at central pixels.
        xs, ys = np.meshgrid(np.linspace(-1.5, 1.5, 30), np.linspace(-1.0, 1.0, 20))
        points = np.stack([xs.ravel(), ys.ravel(), np.full(xs.size, 2.0)], axis=1)
        cloud = GaussianCloud.from_points(points, np.full((xs.size, 3), 0.7), scale=0.12, opacity=0.95)
        result = rasterize(cloud, small_camera, SE3.identity())
        centre_alpha = result.alpha[10:22, 16:32]
        centre_depth = result.depth[10:22, 16:32]
        assert centre_alpha.mean() > 0.95
        assert np.allclose(centre_depth, 2.0, atol=0.1)

    def test_occlusion_front_gaussian_wins(self, small_camera):
        points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
        colors = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cloud = GaussianCloud.from_points(points, colors, scale=0.5, opacity=0.95)
        result = rasterize(cloud, small_camera, SE3.identity())
        centre = result.image[small_camera.height // 2, small_camera.width // 2]
        assert centre[0] > centre[2]

    def test_early_termination_bounds_fragments(self, small_camera):
        # Many opaque co-located Gaussians: early termination must stop well
        # before processing all of them at the central pixel.
        n = 50
        points = np.tile(np.array([[0.0, 0.0, 2.0]]), (n, 1))
        points[:, 2] += np.linspace(0, 0.5, n)
        cloud = GaussianCloud.from_points(points, np.full((n, 3), 0.5), scale=0.4, opacity=0.9)
        result = rasterize(cloud, small_camera, SE3.identity())
        centre_fragments = result.fragments_per_pixel[small_camera.height // 2, small_camera.width // 2]
        assert centre_fragments < n

    def test_precomputed_projection_reuse_matches(self, small_cloud, small_camera, simple_pose):
        baseline = rasterize(small_cloud, small_camera, simple_pose)
        reused = rasterize(
            small_cloud,
            small_camera,
            simple_pose,
            precomputed=(baseline.projected, baseline.intersections),
        )
        assert np.allclose(baseline.image, reused.image)
        assert np.allclose(baseline.depth, reused.depth)

    def test_fragments_per_subtile_sums_to_total(self, small_cloud, small_camera, simple_pose):
        result = rasterize(small_cloud, small_camera, simple_pose)
        assert result.fragments_per_subtile().sum() == result.n_fragments
