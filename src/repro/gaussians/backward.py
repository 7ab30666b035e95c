"""Steps 4-5: *Rendering BP* and *Preprocessing BP*.

``rasterize_backward`` propagates per-pixel colour (and optionally depth)
losses to pixel-level 2D Gaussian gradients and aggregates them to
Gaussian-level 2D gradients - the stage the paper identifies as the dominant
bottleneck (Observation 2/4) because of the atomic-add aggregation.  It also
emits a :class:`GradientTrace` describing exactly how many pixel-level
gradient contributions each Gaussian received per tile; this trace is what the
hardware model feeds to its atomic-add and GMU cycle models.

``preprocess_backward`` then maps 2D gradients to 3D Gaussian gradients
(position, covariance -> scale/rotation, opacity, colour) and, during
tracking, to the camera-pose twist gradient via the SE(3) left perturbation.
The gradients with respect to the 3D mean and covariance are exactly the
quantities RTGS's adaptive pruning reuses for its importance score (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.rasterizer import RenderResult
from repro.gaussians.se3 import hat

_EPS = 1e-12


@dataclass
class GradientTrace:
    """Bookkeeping of the gradient-aggregation workload for the hardware model.

    Attributes
    ----------
    tile_ids:
        Tiles that produced at least one gradient.
    per_tile_source_indices:
        For each such tile, the *source* Gaussian indices (rows of the cloud)
        that received gradients from that tile.
    per_tile_pixel_counts:
        For each such tile, the number of pixels contributing a gradient to the
        matching Gaussian - i.e. the number of pixel-level atomic adds the GPU
        baseline would issue for that (tile, Gaussian) pair.
    fragments_per_pixel:
        Per-pixel backward fragment counts (mirrors the forward workload).
    """

    tile_ids: list[int] = field(default_factory=list)
    per_tile_source_indices: list[np.ndarray] = field(default_factory=list)
    per_tile_pixel_counts: list[np.ndarray] = field(default_factory=list)
    fragments_per_pixel: np.ndarray | None = None

    @property
    def total_pixel_level_updates(self) -> int:
        """Total pixel-level gradient contributions (GPU atomic adds)."""
        return int(sum(int(c.sum()) for c in self.per_tile_pixel_counts))

    @property
    def total_tile_level_updates(self) -> int:
        """Total (tile, Gaussian) pairs with a non-zero merged gradient."""
        return int(sum(len(c) for c in self.per_tile_source_indices))

    def gaussian_level_updates(self, n_gaussians: int) -> np.ndarray:
        """Per-source-Gaussian count of tile-level gradient updates."""
        counts = np.zeros(n_gaussians, dtype=int)
        for indices in self.per_tile_source_indices:
            np.add.at(counts, indices, 1)
        return counts


@dataclass
class ScreenSpaceGradients:
    """Gradients with respect to the *projected* (screen-space) Gaussians."""

    projected: ProjectedGaussians
    colors: np.ndarray  # (M, 3)
    opacities: np.ndarray  # (M,) d L / d opacity (post-sigmoid)
    means2d: np.ndarray  # (M, 2)
    conics: np.ndarray  # (M, 2, 2)
    depths: np.ndarray  # (M,) direct depth-render term
    trace: GradientTrace


@dataclass
class CloudGradients:
    """Gradients with respect to the full Gaussian cloud and the camera pose."""

    positions: np.ndarray  # (N, 3)
    log_scales: np.ndarray  # (N, 3)
    rotations: np.ndarray  # (N, 4)
    opacity_logits: np.ndarray  # (N,)
    colors: np.ndarray  # (N, 3)
    cov3d: np.ndarray  # (N, 3, 3)  dL/dSigma_world, consumed by the importance score
    pose_twist: np.ndarray  # (6,)  dL/d xi for the left-perturbed world-to-camera pose
    per_gaussian_pose: np.ndarray  # (N, 6) per-Gaussian contribution to the pose gradient
    trace: GradientTrace

    def importance_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (||dL/dmu||, ||dL/dSigma||) per Gaussian for Eq. 7."""
        mu_norm = np.linalg.norm(self.positions, axis=1)
        sigma_norm = np.linalg.norm(self.cov3d.reshape(self.cov3d.shape[0], -1), axis=1)
        return mu_norm, sigma_norm


def rasterize_backward(
    result: RenderResult,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
    backend: str | None = None,
) -> ScreenSpaceGradients:
    """Step 4 Rendering BP: pixel losses -> screen-space Gaussian gradients.

    ``backend=None`` follows the backend that produced ``result``: flat
    renders take the restructured fast path in
    :func:`repro.gaussians.fast_raster.rasterize_backward_flat`, tile renders
    take the reference implementation below.  An explicit ``backend`` must
    match the layout of ``result.tile_caches``: ``"tile"`` reads per-tile
    :class:`~repro.gaussians.rasterizer.TileRenderCache` grids, ``"flat"``
    reads the subtile buckets of a flat render.
    """
    if backend is None:
        backend = getattr(result, "backend", "tile")
    if backend not in ("tile", "flat"):
        raise ValueError(
            f"unknown rasterizer backend {backend!r}; expected one of ('tile', 'flat')"
        )
    if backend == "flat":
        from repro.gaussians.fast_raster import rasterize_backward_flat

        return rasterize_backward_flat(result, dL_dimage, dL_ddepth)
    projected = result.projected
    n_visible = projected.n_visible
    grads_colors = np.zeros((n_visible, 3))
    grads_opacity = np.zeros(n_visible)
    grads_means2d = np.zeros((n_visible, 2))
    grads_conics = np.zeros((n_visible, 2, 2))
    grads_depths = np.zeros(n_visible)
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

    for cache in result.tile_caches:
        rows = cache.rows
        v_idx, u_idx = cache.pixel_indices
        pixel_color_grad = dL_dimage[v_idx, u_idx]  # (P, 3)
        if dL_ddepth is not None:
            pixel_depth_grad = dL_ddepth[v_idx, u_idx]  # (P,)
        else:
            pixel_depth_grad = np.zeros(len(v_idx))

        colors = projected.colors[rows]  # (M, 3)
        depths = projected.depths[rows]  # (M,)
        opacities = projected.opacities[rows]  # (M,)
        conics = projected.conics[rows]  # (M, 2, 2)

        weights = cache.weights  # (P, M)
        alphas = cache.alphas
        gauss = cache.gauss_values
        trans_before = cache.transmittance_before
        deltas = cache.deltas

        # Direct colour / depth gradients: dL/dc_k = w_k * dL/dC_P.
        np.add.at(grads_colors, rows, weights.T @ pixel_color_grad)
        np.add.at(grads_depths, rows, weights.T @ pixel_depth_grad)

        # Suffix sums S_k = sum_{n > k} w_n c_n needed for dC/dalpha_k.
        weighted_colors = weights[:, :, None] * colors[None, :, :]
        suffix_color = _reverse_exclusive_cumsum(weighted_colors, axis=1)
        weighted_depths = weights * depths[None, :]
        suffix_depth = _reverse_exclusive_cumsum(weighted_depths, axis=1)

        one_minus_alpha = np.maximum(1.0 - alphas, 1.0 - 0.995)
        dC_dalpha = (
            trans_before[:, :, None] * colors[None, :, :]
            - suffix_color / one_minus_alpha[:, :, None]
        )
        dD_dalpha = trans_before * depths[None, :] - suffix_depth / one_minus_alpha

        dL_dalpha = (dC_dalpha * pixel_color_grad[:, None, :]).sum(axis=2)
        dL_dalpha += dD_dalpha * pixel_depth_grad[:, None]

        valid = cache.processed & (alphas > 0.0) & (~cache.clamp_mask)
        dL_dalpha = np.where(valid, dL_dalpha, 0.0)

        # alpha = opacity * G  ->  opacity and Gaussian-value chains.
        np.add.at(grads_opacity, rows, (gauss * dL_dalpha).sum(axis=0))
        dL_dgauss = opacities[None, :] * dL_dalpha  # (P, M)

        # G = exp(-0.5 d^T A d): dG/dmu = G * (A d), dG/dA = -0.5 * G * d d^T.
        a = conics[:, 0, 0][None, :]
        b = conics[:, 0, 1][None, :]
        c = conics[:, 1, 1][None, :]
        a_dx0 = a * deltas[:, :, 0] + b * deltas[:, :, 1]
        a_dx1 = b * deltas[:, :, 0] + c * deltas[:, :, 1]
        common = dL_dgauss * gauss
        np.add.at(
            grads_means2d,
            rows,
            np.stack([(common * a_dx0).sum(axis=0), (common * a_dx1).sum(axis=0)], axis=1),
        )
        outer = deltas[:, :, :, None] * deltas[:, :, None, :]  # (P, M, 2, 2)
        np.add.at(
            grads_conics,
            rows,
            np.einsum("pm,pmij->mij", -0.5 * common, outer),
        )

        # Trace of pixel-level contributions for the hardware model.
        contributions = (weights > 0.0).sum(axis=0)
        has_grad = contributions > 0
        if np.any(has_grad):
            trace.tile_ids.append(cache.tile_id)
            trace.per_tile_source_indices.append(projected.indices[rows[has_grad]])
            trace.per_tile_pixel_counts.append(contributions[has_grad].astype(int))

    return ScreenSpaceGradients(
        projected=projected,
        colors=grads_colors,
        opacities=grads_opacity,
        means2d=grads_means2d,
        conics=grads_conics,
        depths=grads_depths,
        trace=trace,
    )


def preprocess_backward(
    screen_grads: ScreenSpaceGradients,
    cloud: GaussianCloud,
    compute_pose_gradient: bool = True,
) -> CloudGradients:
    """Step 5 Preprocessing BP: 2D gradients -> 3D Gaussian and pose gradients.

    Thin wrapper over the fused multi-view implementation
    (:func:`preprocess_backward_batch` with a batch of one): there is exactly
    one copy of the Step 5 gradient chain, and the single-view path keeps its
    original trace object (the batch path builds a merged trace).
    """
    cloud_grads, _ = preprocess_backward_batch(
        [screen_grads], cloud, compute_pose_gradient=compute_pose_gradient
    )
    cloud_grads.trace = screen_grads.trace
    return cloud_grads


def preprocess_backward_batch(
    screen_grads_list: list[ScreenSpaceGradients],
    cloud: GaussianCloud,
    compute_pose_gradient: bool = False,
) -> tuple[CloudGradients, np.ndarray]:
    """Fused Step 5 over a batch of views: one pass, summed cloud gradients.

    Concatenates every view's screen-space gradients into one row set (with
    per-row camera rotations and intrinsics, since views differ in pose and
    possibly camera) and runs the Step 5 chain *once* over the whole batch.
    Row-wise arithmetic is identical to :func:`preprocess_backward`, and the
    scatter accumulates contributions in the same view-major order a
    sequential loop would, so the fused result matches the per-view sum to
    floating-point regrouping error (pinned at 1e-8 by the differential
    harness).

    Returns the summed :class:`CloudGradients` (its ``pose_twist`` is the sum
    over views) plus a ``(V, 6)`` array of per-view pose twists.
    """
    n_total = len(cloud)
    n_views = len(screen_grads_list)
    out_positions = np.zeros((n_total, 3))
    out_log_scales = np.zeros((n_total, 3))
    out_rotations = np.zeros((n_total, 4))
    out_opacity_logits = np.zeros(n_total)
    out_colors = np.zeros((n_total, 3))
    out_cov3d = np.zeros((n_total, 3, 3))
    per_gaussian_pose = np.zeros((n_total, 6))
    per_view_twists = np.zeros((n_views, 6))

    merged_trace = GradientTrace()
    for screen in screen_grads_list:
        merged_trace.tile_ids.extend(screen.trace.tile_ids)
        merged_trace.per_tile_source_indices.extend(screen.trace.per_tile_source_indices)
        merged_trace.per_tile_pixel_counts.extend(screen.trace.per_tile_pixel_counts)

    populated = [
        (view, screen)
        for view, screen in enumerate(screen_grads_list)
        if screen.projected.n_visible > 0
    ]
    if not populated:
        return (
            CloudGradients(
                positions=out_positions,
                log_scales=out_log_scales,
                rotations=out_rotations,
                opacity_logits=out_opacity_logits,
                colors=out_colors,
                cov3d=out_cov3d,
                pose_twist=np.zeros(6),
                per_gaussian_pose=per_gaussian_pose,
                trace=merged_trace,
            ),
            per_view_twists,
        )

    def _concat(getter):
        # Batch-of-one (every single-view preprocess_backward call) stays
        # zero-copy: the per-view array is used as-is.
        arrays = [getter(screen) for _, screen in populated]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)

    indices = _concat(lambda s: s.projected.indices)
    view_ids = np.concatenate(
        [np.full(screen.projected.n_visible, view, dtype=int) for view, screen in populated]
    )
    points_cam = _concat(lambda s: s.projected.points_cam)
    jac = _concat(lambda s: s.projected.jacobians)
    cov3d = _concat(lambda s: s.projected.cov3d)
    conics = _concat(lambda s: s.projected.conics)
    opac = _concat(lambda s: s.projected.opacities)
    g_colors = _concat(lambda s: s.colors)
    g_opacities = _concat(lambda s: s.opacities)
    g_means2d = _concat(lambda s: s.means2d)
    g_conics = _concat(lambda s: s.conics)
    g_depths = _concat(lambda s: s.depths)
    # Per-row view-dependent constants: camera rotation and intrinsics.  For
    # one view the broadcast stays a zero-copy view; only a true multi-view
    # batch materialises the concatenation.
    rot_parts = [
        np.broadcast_to(screen.projected.rotation_cw, (screen.projected.n_visible, 3, 3))
        for _, screen in populated
    ]
    rot_rows = rot_parts[0] if len(rot_parts) == 1 else np.concatenate(rot_parts, axis=0)
    fx_parts = [
        np.full(screen.projected.n_visible, screen.projected.camera.fx)
        for _, screen in populated
    ]
    fy_parts = [
        np.full(screen.projected.n_visible, screen.projected.camera.fy)
        for _, screen in populated
    ]
    fx_rows = fx_parts[0] if len(fx_parts) == 1 else np.concatenate(fx_parts)
    fy_rows = fy_parts[0] if len(fy_parts) == 1 else np.concatenate(fy_parts)

    # conic = inv(cov2d): dL/dcov2d = -conic^T dL/dconic conic^T (conic symmetric).
    dL_dcov2d = -np.einsum("mij,mjk,mkl->mil", conics, g_conics, conics)

    # mean2d chain: dL/dp_cam = J^T dL/dmean2d.
    dL_dpcam = np.einsum("mij,mi->mj", jac, g_means2d)

    # cov2d = M Sigma M^T with M = J R_cw (R_cw now varies per row).
    m_lin = np.einsum("mij,mjk->mik", jac, rot_rows)
    dL_dsigma = np.einsum("mia,mij,mjb->mab", m_lin, dL_dcov2d, m_lin)
    dL_dmlin = 2.0 * np.einsum("mij,mjk,mkl->mil", dL_dcov2d, m_lin, cov3d)
    dL_djac = np.einsum("mij,mkj->mik", dL_dmlin, rot_rows)
    dL_drot_cw = np.einsum("mki,mkj->mij", jac, dL_dmlin)

    # J depends on p_cam; add those terms to dL/dp_cam.
    x, y, z = points_cam[:, 0], points_cam[:, 1], points_cam[:, 2]
    inv_z2 = 1.0 / (z * z)
    inv_z3 = inv_z2 / z
    dL_dpcam[:, 0] += dL_djac[:, 0, 2] * (-fx_rows * inv_z2)
    dL_dpcam[:, 1] += dL_djac[:, 1, 2] * (-fy_rows * inv_z2)
    dL_dpcam[:, 2] += (
        dL_djac[:, 0, 0] * (-fx_rows * inv_z2)
        + dL_djac[:, 0, 2] * (2.0 * fx_rows * x * inv_z3)
        + dL_djac[:, 1, 1] * (-fy_rows * inv_z2)
        + dL_djac[:, 1, 2] * (2.0 * fy_rows * y * inv_z3)
    )
    # Direct depth-render term (rendered depth is the camera-frame z).
    dL_dpcam[:, 2] += g_depths

    # p_cam = R_cw p_world + t: position gradient in world frame.
    dL_dpos = np.einsum("mi,mij->mj", dL_dpcam, rot_rows)

    # Sigma_world = A A^T with A = R_q S: scale and rotation gradients.
    rot_g = cloud.rotation_matrices(rows=indices)
    scales = cloud.scales(rows=indices)
    a_mat = rot_g * scales[:, None, :]
    dL_da = 2.0 * np.einsum("mij,mjk->mik", dL_dsigma, a_mat)
    dL_dscales = np.einsum("mij,mij->mj", dL_da, rot_g)
    dL_dlog_scales = dL_dscales * scales
    dL_drot_g = dL_da * scales[:, None, :]
    dL_dquat = _rotation_gradient_to_quaternion(dL_drot_g, cloud.rotations[indices])

    # Opacity logit chain through the sigmoid.
    dL_dlogit = g_opacities * opac * (1.0 - opac)

    # One fused scatter per field over the concatenated (view, Gaussian) rows.
    np.add.at(out_positions, indices, dL_dpos)
    np.add.at(out_log_scales, indices, dL_dlog_scales)
    np.add.at(out_rotations, indices, dL_dquat)
    np.add.at(out_opacity_logits, indices, dL_dlogit)
    np.add.at(out_colors, indices, g_colors)
    np.add.at(out_cov3d, indices, dL_dsigma)

    pose_twist = np.zeros(6)
    if compute_pose_gradient:
        per_rho = dL_dpcam
        per_phi = np.cross(points_cam, dL_dpcam)
        generators = [hat(e) for e in np.eye(3)]
        rot_terms = np.stack(
            [
                np.einsum(
                    "mij,mij->m",
                    dL_drot_cw,
                    np.einsum("ij,mjk->mik", gen, rot_rows),
                )
                for gen in generators
            ],
            axis=1,
        )
        per_pose = np.concatenate([per_rho, per_phi + rot_terms], axis=1)
        np.add.at(per_gaussian_pose, indices, per_pose)
        for component in range(6):
            per_view_twists[:, component] = np.bincount(
                view_ids, weights=per_pose[:, component], minlength=n_views
            )
        pose_twist = per_view_twists.sum(axis=0)

    return (
        CloudGradients(
            positions=out_positions,
            log_scales=out_log_scales,
            rotations=out_rotations,
            opacity_logits=out_opacity_logits,
            colors=out_colors,
            cov3d=out_cov3d,
            pose_twist=pose_twist,
            per_gaussian_pose=per_gaussian_pose,
            trace=merged_trace,
        ),
        per_view_twists,
    )


def render_backward(
    result: RenderResult,
    cloud: GaussianCloud,
    dL_dimage: np.ndarray,
    dL_ddepth: np.ndarray | None = None,
    compute_pose_gradient: bool = True,
    backend: str | None = None,
) -> CloudGradients:
    """Deprecated shim: Steps 4-5 through the process-default engine.

    ``backend=None`` follows the backend that produced ``result``, exactly as
    before.  New code should call :meth:`repro.engine.RenderEngine.backward`
    on an injected engine.
    """
    from repro.engine import default_engine
    from repro.utils.deprecation import warn_render_shim

    warn_render_shim("render_backward", "RenderEngine.backward")
    return default_engine().backward(
        result,
        cloud,
        dL_dimage,
        dL_ddepth,
        compute_pose_gradient=compute_pose_gradient,
        backend=backend,
    )


# -- helpers ----------------------------------------------------------------
def _reverse_exclusive_cumsum(values: np.ndarray, axis: int) -> np.ndarray:
    """Return ``S[k] = sum_{n > k} values[n]`` along ``axis``."""
    flipped = np.flip(values, axis=axis)
    csum = np.cumsum(flipped, axis=axis)
    inclusive = np.flip(csum, axis=axis)
    return inclusive - values


def _rotation_gradient_to_quaternion(
    dL_drot: np.ndarray, quaternions: np.ndarray
) -> np.ndarray:
    """Chain dL/dR through R(q_hat) and the quaternion normalisation."""
    quats = np.atleast_2d(quaternions)
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    norms = np.where(norms < _EPS, 1.0, norms)
    unit = quats / norms
    w, x, y, z = unit[:, 0], unit[:, 1], unit[:, 2], unit[:, 3]
    zeros = np.zeros_like(w)

    def _stack(rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    dR_dw = 2.0 * _stack([[zeros, -z, y], [z, zeros, -x], [-y, x, zeros]])
    dR_dx = 2.0 * _stack([[zeros, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dR_dy = 2.0 * _stack([[-2 * y, x, w], [x, zeros, z], [-w, z, -2 * y]])
    dR_dz = 2.0 * _stack([[-2 * z, -w, x], [w, -2 * z, y], [x, y, zeros]])

    dL_dunit = np.stack(
        [
            np.einsum("mij,mij->m", dL_drot, dR_dw),
            np.einsum("mij,mij->m", dL_drot, dR_dx),
            np.einsum("mij,mij->m", dL_drot, dR_dy),
            np.einsum("mij,mij->m", dL_drot, dR_dz),
        ],
        axis=1,
    )
    # q_hat = q / ||q||: dq_hat/dq = (I - q_hat q_hat^T) / ||q||.
    projection = np.eye(4)[None, :, :] - unit[:, :, None] * unit[:, None, :]
    return np.einsum("mij,mi->mj", projection, dL_dunit) / norms
