"""Unit tests for the flat fragment-list rasterizer backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, RenderEngine
from repro.gaussians import (
    Camera,
    GaussianCloud,
    SE3,
    build_flat_fragments,
    fast_raster,
    get_default_backend,
    rasterize,
    render_backward,
    segmented_exclusive_cumprod,
    set_default_backend,
    use_backend,
)
from repro.gaussians.backward import rasterize_backward
from repro.gaussians.fast_raster import rasterize_flat
from repro.gaussians.rasterizer import ALPHA_CUTOFF
from repro.testing.scenarios import matrix_library


@pytest.fixture()
def scene(small_cloud, small_camera, simple_pose):
    return small_cloud, small_camera, simple_pose


def _dense_positions(grid, cache, sentinel):
    """Map the real fragments of a flat block cache onto the dense tile grid.

    Yields, per tile, ``(tile_id, local pixel, dense rank, cache row, cache
    column)`` index arrays: the fragment at ``cache.<field>[row, col]`` is the
    tile backend's ``tile_cache.<field>[local, rank]``.
    """
    n_blocks, n_pixels, _ = cache.shape
    ranks = np.repeat(cache.ranks, n_pixels, axis=0)
    real = np.repeat(cache.rows != sentinel, n_pixels, axis=0)
    tiles = np.repeat(cache.subtiles // grid.subtiles_per_tile, n_pixels)
    v_idx, u_idx = cache.pixel_indices
    for tile_id in np.unique(tiles):
        x0, y0, x1, y1 = grid.tile_bounds(int(tile_id))
        row, col = np.nonzero(real & (tiles == tile_id)[:, None])
        local = (v_idx[row] - y0) * (x1 - x0) + (u_idx[row] - x0)
        yield int(tile_id), local, ranks[row, col], row, col


class TestBackendSelection:
    def test_default_backend_is_flat(self):
        # The flat fast path is the production default since the backend
        # flip; REPRO_RASTER_BACKEND=tile is the escape hatch back to the
        # reference loop.
        assert get_default_backend() == "flat"

    def test_backend_argument_selects_implementation(self, scene):
        cloud, camera, pose = scene
        assert rasterize(cloud, camera, pose, backend="tile").backend == "tile"
        assert rasterize(cloud, camera, pose, backend="flat").backend == "flat"

    def test_unknown_backend_rejected(self, scene):
        cloud, camera, pose = scene
        with pytest.raises(ValueError, match="unknown rasterizer backend"):
            rasterize(cloud, camera, pose, backend="cuda")
        with pytest.raises(ValueError, match="unknown rasterizer backend"):
            set_default_backend("cuda")

    def test_use_backend_scopes_the_default(self, scene):
        cloud, camera, pose = scene
        with use_backend("tile"):
            assert get_default_backend() == "tile"
            assert rasterize(cloud, camera, pose).backend == "tile"
        assert get_default_backend() == "flat"

    def test_set_default_backend_returns_previous(self):
        previous = set_default_backend("tile")
        try:
            assert previous == "flat"
            assert get_default_backend() == "tile"
        finally:
            set_default_backend(previous)


class TestFlatMatchesTile:
    def test_forward_outputs_match(self, scene):
        cloud, camera, pose = scene
        bg = np.array([0.1, 0.2, 0.3])
        tile = rasterize(cloud, camera, pose, background=bg, backend="tile")
        flat = rasterize(cloud, camera, pose, background=bg, backend="flat")
        np.testing.assert_allclose(flat.image, tile.image, atol=1e-10)
        np.testing.assert_allclose(flat.depth, tile.depth, atol=1e-10)
        np.testing.assert_allclose(flat.alpha, tile.alpha, atol=1e-10)
        assert np.array_equal(flat.fragments_per_pixel, tile.fragments_per_pixel)
        assert flat.n_fragments == tile.n_fragments

    def test_tile_caches_match(self, scene):
        cloud, camera, pose = scene
        tile = rasterize(cloud, camera, pose, backend="tile")
        flat = rasterize(cloud, camera, pose, backend="flat")
        dense = {cache.tile_id: cache for cache in tile.tile_caches}
        sentinel = flat.projected.n_visible
        seen = {tile_id: np.zeros(c.alphas.shape, bool) for tile_id, c in dense.items()}
        for cf in flat.tile_caches:
            for tile_id, local, rank, row, col in _dense_positions(flat.grid, cf, sentinel):
                ct = dense[tile_id]
                assert np.array_equal(ct.rows[rank], cf.rows.repeat(cf.shape[1], 0)[row, col])
                # Kept fragments are bit-identical to the dense grid's.
                for name in ("alphas", "transmittance_before", "weights"):
                    assert np.array_equal(
                        getattr(cf, name)[row, col], getattr(ct, name)[local, rank]
                    ), name
                assert np.array_equal(cf.dx[row, col], ct.deltas[local, rank, 0])
                assert np.array_equal(cf.dy[row, col], ct.deltas[local, rank, 1])
                assert np.array_equal(cf.processed[row, col], ct.processed[local, rank])
                assert np.array_equal(cf.clamp_mask[row, col], ct.clamp_mask[local, rank])
                seen[tile_id][local, rank] = True
        # Everything the flat layout skipped composites to exactly zero.
        for tile_id, ct in dense.items():
            assert not ct.alphas[~seen[tile_id]].any()
            assert not ct.weights[~seen[tile_id]].any()

    def test_backward_dispatches_on_result_backend(self, scene):
        cloud, camera, pose = scene
        flat = rasterize(cloud, camera, pose, backend="flat")
        tile = rasterize(cloud, camera, pose, backend="tile")
        rng = np.random.default_rng(3)
        dL = rng.uniform(-1, 1, size=tile.image.shape)
        grads_tile = render_backward(tile, cloud, dL)
        grads_flat = render_backward(flat, cloud, dL)  # auto-selects flat BP
        np.testing.assert_allclose(grads_flat.positions, grads_tile.positions, atol=1e-8)
        np.testing.assert_allclose(grads_flat.pose_twist, grads_tile.pose_twist, atol=1e-8)

    def test_precomputed_projection_reuse(self, scene):
        cloud, camera, pose = scene
        tile = rasterize(cloud, camera, pose, backend="tile")
        flat = rasterize(
            cloud,
            camera,
            pose,
            backend="flat",
            precomputed=(tile.projected, tile.intersections),
        )
        np.testing.assert_allclose(flat.image, tile.image, atol=1e-10)
        assert flat.projected is tile.projected


class TestDegenerateInputs:
    """Zero-Gaussian, all-culled and minimal-grid inputs must render cleanly."""

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_zero_gaussian_cloud(self, backend):
        camera = Camera.from_fov(20, 12, fov_x_degrees=70.0)
        pose = SE3.identity()
        bg = np.array([0.2, 0.4, 0.6])
        result = rasterize(GaussianCloud.empty(), camera, pose, background=bg, backend=backend)
        assert result.n_fragments == 0
        assert result.tile_caches == []
        np.testing.assert_allclose(result.image, np.tile(bg, (12, 20, 1)))
        assert not result.depth.any()
        assert not result.alpha.any()
        assert result.fragments_per_subtile().sum() == 0

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_all_culled_cloud(self, backend):
        # Every Gaussian sits behind the camera.
        points = np.array([[0.0, 0.0, -5.0], [0.2, -0.1, -3.0], [1.0, 1.0, -9.0]])
        cloud = GaussianCloud.from_points(points, np.full((3, 3), 0.5), scale=0.1)
        camera = Camera.from_fov(20, 12, fov_x_degrees=70.0)
        result = rasterize(cloud, camera, SE3.identity(), backend=backend)
        assert result.projected.n_visible == 0
        assert result.n_fragments == 0
        assert result.tile_caches == []

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_one_by_one_tile_image(self, backend):
        # A 1x1-pixel image with 1x1 tiles: the smallest possible grid.
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, 1.0]]), np.array([[0.9, 0.1, 0.1]]), scale=0.3, opacity=0.8
        )
        camera = Camera.from_fov(1, 1, fov_x_degrees=70.0)
        result = rasterize(
            cloud, camera, SE3.identity(), tile_size=1, subtile_size=1, backend=backend
        )
        assert result.image.shape == (1, 1, 3)
        assert result.grid.n_tiles == 1
        assert result.fragments_per_subtile().shape == (1, 1)
        assert result.n_fragments == result.fragments_per_pixel.sum()
        assert result.alpha[0, 0] > 0.0

    @pytest.mark.parametrize("backend", ["tile", "flat"])
    def test_single_tile_image(self, backend):
        cloud = GaussianCloud.from_points(
            np.array([[0.0, 0.0, 1.5]]), np.array([[0.2, 0.9, 0.3]]), scale=0.2
        )
        camera = Camera.from_fov(16, 16, fov_x_degrees=70.0)
        result = rasterize(cloud, camera, SE3.identity(), backend=backend)
        assert result.grid.n_tiles == 1
        assert len(result.tile_caches) == 1

    def test_empty_cloud_backward(self):
        camera = Camera.from_fov(8, 8, fov_x_degrees=70.0)
        result = rasterize(GaussianCloud.empty(), camera, SE3.identity(), backend="flat")
        grads = render_backward(result, GaussianCloud.empty(), np.zeros((8, 8, 3)))
        assert grads.positions.shape == (0, 3)
        np.testing.assert_array_equal(grads.pose_twist, np.zeros(6))


class TestFlatFragments:
    def test_layout_covers_all_intersections(self, scene):
        cloud, camera, pose = scene
        tile = rasterize(cloud, camera, pose, backend="tile")
        fragments = build_flat_fragments(tile.intersections)
        # Dense fragment count = sum over tiles of P_t * M_t.
        assert fragments.dense_fragments == sum(
            c.n_pixels * c.n_gaussians for c in tile.tile_caches
        )
        assert 0 < fragments.n_fragments < fragments.dense_fragments
        assert fragments.n_fragments == sum(b.size for b in fragments.buckets)
        assert fragments.rows.shape == (fragments.n_fragments,)
        assert fragments.pixel_ids.shape == (fragments.n_fragments,)
        assert fragments.pos_in_pixel.max() == fragments.max_per_pixel - 1
        grid = tile.grid
        layout = grid.subtile_layout()
        stop = 0
        for bucket in fragments.buckets:
            # Buckets are contiguous and every block's pixels are its subtile's.
            assert bucket.start == stop
            assert np.array_equal(
                layout.subtile_of_pixel[bucket.pixels], np.repeat(
                    bucket.subtiles[:, None], bucket.shape[1], axis=1
                )
            )
            real = bucket.rows != fragments.sentinel
            # Padding only trails the real columns, which keep depth order.
            assert not np.any(~real[:, :-1] & real[:, 1:])
            assert np.all(np.diff(bucket.ranks, axis=1)[real[:, 1:]] > 0)
            for block, subtile in enumerate(bucket.subtiles):
                tile_list = tile.intersections.per_tile[subtile // grid.subtiles_per_tile]
                kept = bucket.rows[block][real[block]]
                assert np.array_equal(tile_list[bucket.ranks[block][real[block]]], kept)
            stop += bucket.size
        # Every fragment with a non-zero alpha is in the layout.
        kept_pairs = set(zip(fragments.pixel_ids.tolist(), fragments.rows.tolist()))
        for ct in tile.tile_caches:
            v_idx, u_idx = ct.pixel_indices
            pix, col = np.nonzero(ct.alphas)
            lin = v_idx[pix] * camera.width + u_idx[pix]
            assert set(zip(lin.tolist(), ct.rows[col].tolist())) <= kept_pairs

    def test_empty_intersections(self):
        camera = Camera.from_fov(8, 8, fov_x_degrees=70.0)
        result = rasterize(GaussianCloud.empty(), camera, SE3.identity())
        fragments = build_flat_fragments(result.intersections)
        assert fragments.n_fragments == 0
        assert fragments.buckets == []
        assert fragments.rows.size == 0
        assert fragments.pos_in_pixel.size == 0


class TestSegmentedCumprod:
    def test_matches_per_segment_numpy_cumprod(self):
        rng = np.random.default_rng(0)
        lengths = [1, 4, 7, 2, 31, 1, 16]
        values = rng.uniform(0.1, 1.0, size=sum(lengths))
        pos = np.concatenate([np.arange(n) for n in lengths])
        out = segmented_exclusive_cumprod(values, pos, max(lengths))
        start = 0
        for n in lengths:
            seg = values[start : start + n]
            expected = np.concatenate([[1.0], np.cumprod(seg)[:-1]])
            np.testing.assert_allclose(out[start : start + n], expected, rtol=1e-12)
            start += n

    def test_empty_input(self):
        out = segmented_exclusive_cumprod(np.zeros(0), np.zeros(0, dtype=int), 0)
        assert out.size == 0

    def test_matches_flat_render_transmittance(self, scene):
        # The generic scan must agree with the blocked per-tile cumprod the
        # flat forward pass uses.
        cloud, camera, pose = scene
        result = rasterize(cloud, camera, pose, backend="flat")
        fragments = build_flat_fragments(result.intersections)
        one_minus_parts = [1.0 - c.alphas.ravel() for c in result.tile_caches]
        trans_parts = [c.transmittance_before.ravel() for c in result.tile_caches]
        one_minus = np.concatenate(one_minus_parts)
        expected = np.concatenate(trans_parts)
        scanned = segmented_exclusive_cumprod(
            one_minus, fragments.pos_in_pixel, fragments.max_per_pixel
        )
        np.testing.assert_allclose(scanned, expected, rtol=1e-12, atol=1e-15)


def test_rasterize_flat_direct_call(scene):
    cloud, camera, pose = scene
    result = rasterize_flat(cloud, camera, pose)
    assert result.backend == "flat"
    reference = rasterize(cloud, camera, pose)
    np.testing.assert_allclose(result.image, reference.image, atol=1e-10)


def _render_pair(cloud, camera, pose, background=None, tile_size=16, subtile_size=4):
    renders = []
    for backend in ("tile", "flat"):
        engine = RenderEngine(EngineConfig(backend=backend, geom_cache=False))
        renders.append(
            engine.render(
                cloud,
                camera,
                pose,
                background=background,
                tile_size=tile_size,
                subtile_size=subtile_size,
            )
        )
    return renders


def _assert_flat_matches_tile(cloud, camera, pose, tile_size=16, subtile_size=4, seed=0):
    """Forward within 1e-12, Step 4 within 1e-8, workload counts exactly."""
    tile, flat = _render_pair(
        cloud, camera, pose, np.array([0.1, 0.2, 0.3]), tile_size, subtile_size
    )
    for name in ("image", "depth", "alpha"):
        np.testing.assert_allclose(getattr(flat, name), getattr(tile, name), atol=1e-12)
    np.testing.assert_array_equal(flat.fragments_per_pixel, tile.fragments_per_pixel)
    np.testing.assert_array_equal(flat.fragments_per_subtile(), tile.fragments_per_subtile())
    rng = np.random.default_rng(seed)
    dL_dimage = rng.uniform(-1.0, 1.0, size=tile.image.shape)
    dL_ddepth = rng.uniform(-1.0, 1.0, size=tile.depth.shape)
    grads_tile = rasterize_backward(tile, dL_dimage, dL_ddepth)
    grads_flat = rasterize_backward(flat, dL_dimage, dL_ddepth)
    for name in ("colors", "opacities", "means2d", "conics", "depths"):
        np.testing.assert_allclose(
            getattr(grads_flat, name), getattr(grads_tile, name), atol=1e-8, err_msg=name
        )
    trace_tile, trace_flat = grads_tile.trace, grads_flat.trace
    assert trace_flat.tile_ids == trace_tile.tile_ids
    for a, b in zip(trace_flat.per_tile_source_indices, trace_tile.per_tile_source_indices):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(trace_flat.per_tile_pixel_counts, trace_tile.per_tile_pixel_counts):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(trace_flat.fragments_per_pixel, trace_tile.fragments_per_pixel)
    return tile, flat


def _kept_pairs(fragments, tile_id, n_ranks):
    """(subtiles_per_tile, M) mask of the (subtile, dense rank) pairs kept for a tile."""
    spt = fragments.grid.subtiles_per_tile
    kept = np.zeros((spt, n_ranks), dtype=bool)
    for bucket in fragments.buckets:
        for block in np.flatnonzero(bucket.subtiles // spt == tile_id):
            real = bucket.rows[block] != fragments.sentinel
            kept[bucket.subtiles[block] % spt, bucket.ranks[block][real]] = True
    return kept


class TestSubtileCull:
    @pytest.mark.parametrize("name", sorted(matrix_library().names()))
    def test_culled_pairs_composite_to_zero(self, name):
        spec = matrix_library().get(name).build()
        tile, _ = _render_pair(
            spec.cloud, spec.camera, spec.pose_cw, spec.background,
            spec.tile_size, spec.subtile_size,
        )
        fragments = build_flat_fragments(tile.intersections)
        grid = tile.grid
        for cache in tile.tile_caches:
            kept = _kept_pairs(fragments, cache.tile_id, cache.n_gaussians)
            subtile_of_pixel = grid.subtile_of_pixel_offsets(cache.tile_id)
            for subtile in np.unique(subtile_of_pixel):
                alphas = cache.alphas[subtile_of_pixel == subtile]
                assert not alphas[:, ~kept[subtile]].any(), (name, cache.tile_id, subtile)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=30),
        width=st.integers(min_value=1, max_value=40),
        height=st.integers(min_value=1, max_value=36),
        tile_size=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_tile_on_adversarial_clouds(self, seed, n, width, height, tile_size):
        rng = np.random.default_rng(seed)
        # Centres spread past the frustum, so some splats sit off-image.
        positions = rng.uniform(-1.6, 1.6, size=(n, 3))
        positions[:, 2] = rng.uniform(-0.8, 0.8, size=n)
        # Strongly anisotropic footprints at random orientations.
        log_scales = np.log(rng.uniform(0.002, 0.4, size=(n, 3)))
        rotations = rng.normal(size=(n, 4))
        rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
        # Opacities near and below the 1/255 cutoff, at the 0.99 clamp, and
        # ordinary ones.
        opacity = rng.choice(
            [ALPHA_CUTOFF * 0.999, ALPHA_CUTOFF, ALPHA_CUTOFF * 1.001, 0.992, 0.9999, 0.5],
            size=n,
        )
        opacity = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0.02, 0.95, size=n), opacity)
        cloud = GaussianCloud(
            positions=positions,
            log_scales=log_scales,
            rotations=rotations,
            opacity_logits=np.log(opacity / (1.0 - opacity)),
            colors=rng.uniform(0.0, 1.0, size=(n, 3)),
        )
        camera = Camera.from_fov(width, height, fov_x_degrees=70.0)
        pose = SE3.look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), up=(0, 1, 0))
        _assert_flat_matches_tile(
            cloud, camera, pose, tile_size, max(tile_size // 4, 1), seed=seed % 1000
        )

    def test_padding_sentinel_never_leaks(self, monkeypatch):
        # Small splats clustered in the top-left subtile of a single tile: that
        # subtile keeps every Gaussian, the far corner keeps none.  One bucket
        # per pixel count forces the widest possible padding.
        monkeypatch.setattr(fast_raster, "BUCKET_RATIO", 1e9)
        rng = np.random.default_rng(5)
        n = 12
        camera = Camera.from_fov(16, 16, fov_x_degrees=70.0)
        pose = SE3.identity()
        depth = rng.uniform(2.0, 3.0, size=n)
        u = rng.uniform(0.5, 3.5, size=n)
        v = rng.uniform(0.5, 3.5, size=n)
        positions = np.stack(
            [(u - camera.cx) / camera.fx * depth, (v - camera.cy) / camera.fy * depth, depth],
            axis=1,
        )
        cloud = GaussianCloud.from_points(
            positions, rng.uniform(0.1, 0.9, size=(n, 3)), scale=0.02, opacity=0.6
        )
        tile, flat = _assert_flat_matches_tile(cloud, camera, pose)
        assert tile.intersections.per_tile[0].size == n
        (cache,) = flat.tile_caches
        sentinel = flat.projected.n_visible
        kept = (cache.rows != sentinel).sum(axis=1)
        assert kept.max() == n and cache.rows.shape[1] == n
        subtiles = flat.grid.subtiles_per_tile
        assert cache.subtiles.size < subtiles  # some subtile kept no Gaussian
        padding = np.repeat(cache.rows == sentinel, cache.shape[1], axis=0)
        assert padding.any()
        assert not cache.alphas[padding].any()
        assert not cache.weights[padding].any()
        # Padding columns scatter onto the sentinel row only: the real
        # Gaussians' gradients equal the tile backend's without any padding.
        grads = rasterize_backward(flat, np.ones(flat.image.shape), np.ones(flat.depth.shape))
        assert grads.colors.shape == (sentinel, 3)


class TestFragmentsPerSubtile:
    @pytest.mark.parametrize("size", [(45, 34), (50, 30), (17, 6), (33, 35), (3, 2)])
    def test_matches_tile_on_partial_edge_tiles(self, size, small_cloud, simple_pose):
        width, height = size
        camera = Camera.from_fov(width, height, fov_x_degrees=70.0)
        tile, flat = _render_pair(small_cloud, camera, simple_pose)
        assert tile.n_fragments > 0
        # Reference: the per-tile accumulation over the tile backend's caches.
        grid = tile.grid
        expected = np.zeros((grid.n_tiles, grid.subtiles_per_tile), dtype=int)
        for cache in tile.tile_caches:
            np.add.at(
                expected[cache.tile_id],
                grid.subtile_of_pixel_offsets(cache.tile_id),
                cache.fragments_per_pixel(),
            )
        np.testing.assert_array_equal(tile.fragments_per_subtile(), expected)
        np.testing.assert_array_equal(flat.fragments_per_subtile(), expected)
