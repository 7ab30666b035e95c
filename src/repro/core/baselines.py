"""Pruning baselines the paper compares against (Tab. 1, Tab. 6, Fig. 13a).

Each baseline mirrors the *decision rule and cost profile* of the published
method rather than its full implementation:

* :class:`TamingPruner` (Taming 3DGS) scores Gaussians by the variance of
  their gradient history and needs many iterations before its scores are
  trustworthy - far more than a SLAM frame provides, which is why the paper
  finds it degrades accuracy.
* :class:`LightGaussianPruner` scores by global hit counts x opacity x volume
  and requires a dedicated evaluation pass over the rendered image (extra
  cost, no gradient reuse).
* :class:`FlashGSPruner` additionally weighs Gaussians by an image-saliency
  map, the most expensive importance evaluation of the three.
* :class:`MaskGaussianPruner` samples probabilistic masks, keeping Gaussians
  stochastically in proportion to their importance.

All of them expose the same :class:`~repro.slam.tracking.TrackingHook`
interface as RTGS's pruner so they can be swapped into the pipeline, and each
reports an ``extra_evaluation_ops`` estimate so the hardware model can charge
their importance-evaluation overhead (RTGS's is zero by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.gaussians.backward import CloudGradients
from repro.gaussians.gaussian_model import GaussianCloud
from repro.gaussians.rasterizer import RenderResult
from repro.slam.frame import Frame
from repro.slam.tracking import TrackingHook


@dataclass
class BaselinePrunerStats:
    """Cost accounting shared by the baseline pruners."""

    extra_evaluation_ops: int = 0
    removed_total: int = 0
    iterations_observed: int = 0


class _BaselinePruner(TrackingHook):
    """Shared machinery: removal listeners and once-per-frame pruning."""

    def __init__(self, prune_ratio: float, min_gaussians: int = 64):
        if not 0.0 <= prune_ratio < 1.0:
            raise ValueError(f"prune_ratio must lie in [0, 1), got {prune_ratio}")
        self.prune_ratio = prune_ratio
        self.min_gaussians = min_gaussians
        self.stats = BaselinePrunerStats()
        self._removal_listeners: list[Callable[[np.ndarray], None]] = []

    def add_removal_listener(self, listener: Callable[[np.ndarray], None]) -> None:
        self._removal_listeners.append(listener)

    # Subclasses override ------------------------------------------------------
    def _scores(self, cloud: GaussianCloud) -> np.ndarray | None:
        raise NotImplementedError

    def _ready(self) -> bool:
        return True

    # Hook implementation --------------------------------------------------------
    def end_frame(self, cloud: GaussianCloud, is_keyframe: bool) -> None:
        if self.prune_ratio <= 0 or cloud.n_total <= self.min_gaussians or not self._ready():
            return
        scores = self._scores(cloud)
        if scores is None or scores.shape[0] != cloud.n_total:
            return
        n_remove = int(min(self.prune_ratio * cloud.n_total, cloud.n_total - self.min_gaussians))
        if n_remove <= 0:
            return
        order = np.argsort(scores)
        keep_mask = np.ones(cloud.n_total, dtype=bool)
        keep_mask[order[:n_remove]] = False
        for listener in self._removal_listeners:
            listener(keep_mask)
        self._keep_rows(keep_mask)
        cloud.keep_only(keep_mask)
        self.stats.removed_total += n_remove

    def _keep_rows(self, keep_mask: np.ndarray) -> None:
        """Subclasses drop their per-Gaussian state here."""


class TamingPruner(_BaselinePruner):
    """Taming-3DGS-style pruning from gradient-change history.

    Importance is the mean absolute change of the position gradient across the
    observed iterations; the method needs ``warmup_iterations`` of history
    before it makes any decision (the paper notes the original needs hundreds,
    which a 15-100-iteration SLAM frame cannot supply).
    """

    def __init__(self, prune_ratio: float = 0.5, warmup_iterations: int = 30):
        super().__init__(prune_ratio)
        self.warmup_iterations = warmup_iterations
        self._history: list[np.ndarray] = []

    def begin_frame(self, cloud: GaussianCloud, frame: Frame) -> None:
        pass  # history persists across frames; that is the point of the method

    def after_backward(self, cloud, gradients: CloudGradients, render, iteration) -> None:
        norms = np.linalg.norm(gradients.positions, axis=1)
        self._history.append(norms)
        self.stats.iterations_observed += 1

    def _ready(self) -> bool:
        return self.stats.iterations_observed >= self.warmup_iterations

    def _scores(self, cloud: GaussianCloud) -> np.ndarray | None:
        usable = [h for h in self._history if h.shape[0] == cloud.n_total]
        if len(usable) < 2:
            return None
        stacked = np.stack(usable[-self.warmup_iterations :])
        return np.abs(np.diff(stacked, axis=0)).mean(axis=0)

    def _keep_rows(self, keep_mask: np.ndarray) -> None:
        self._history = [h[keep_mask] for h in self._history if h.shape[0] == keep_mask.shape[0]]


class LightGaussianPruner(_BaselinePruner):
    """LightGaussian-style global significance: hit count x opacity x scale volume."""

    def __init__(self, prune_ratio: float = 0.5):
        super().__init__(prune_ratio)
        self._hit_counts: np.ndarray | None = None

    def begin_frame(self, cloud: GaussianCloud, frame: Frame) -> None:
        if self._hit_counts is None or self._hit_counts.shape[0] != cloud.n_total:
            self._hit_counts = np.zeros(cloud.n_total)

    def after_backward(
        self, cloud, gradients: CloudGradients, render: RenderResult, iteration
    ) -> None:
        if self._hit_counts is None or self._hit_counts.shape[0] != cloud.n_total:
            self._hit_counts = np.zeros(cloud.n_total)
        counts = np.zeros(cloud.n_total)
        counts[render.projected.indices] = render.sum_per_gaussian(
            lambda cache: cache.weights > 0
        )
        self._hit_counts += counts
        # The dedicated visibility-counting pass is extra work the GPU must do.
        self.stats.extra_evaluation_ops += int(render.n_fragments)
        self.stats.iterations_observed += 1

    def _scores(self, cloud: GaussianCloud) -> np.ndarray | None:
        if self._hit_counts is None:
            return None
        volume = np.prod(cloud.scales(), axis=1) ** (1.0 / 3.0)
        return self._hit_counts * cloud.opacities() * volume

    def _keep_rows(self, keep_mask: np.ndarray) -> None:
        if self._hit_counts is not None and self._hit_counts.shape[0] == keep_mask.shape[0]:
            self._hit_counts = self._hit_counts[keep_mask]


class FlashGSPruner(LightGaussianPruner):
    """FlashGS-style pruning: LightGaussian significance weighted by image saliency."""

    def __init__(self, prune_ratio: float = 0.5):
        super().__init__(prune_ratio)
        self._saliency_weight: np.ndarray | None = None

    def after_backward(self, cloud, gradients, render: RenderResult, iteration) -> None:
        super().after_backward(cloud, gradients, render, iteration)
        saliency = _image_saliency(render.image)
        weights = np.zeros(cloud.n_total)
        weights[render.projected.indices] = render.sum_per_gaussian(
            lambda cache: cache.weights * saliency[cache.pixel_indices][:, None]
        )
        if self._saliency_weight is None or self._saliency_weight.shape[0] != cloud.n_total:
            self._saliency_weight = np.zeros(cloud.n_total)
        self._saliency_weight += weights
        # Saliency-map construction is another full-image pass.
        self.stats.extra_evaluation_ops += int(render.image.size)

    def _scores(self, cloud: GaussianCloud) -> np.ndarray | None:
        base = super()._scores(cloud)
        if base is None or self._saliency_weight is None:
            return base
        return base * (1.0 + self._saliency_weight)

    def _keep_rows(self, keep_mask: np.ndarray) -> None:
        super()._keep_rows(keep_mask)
        if (
            self._saliency_weight is not None
            and self._saliency_weight.shape[0] == keep_mask.shape[0]
        ):
            self._saliency_weight = self._saliency_weight[keep_mask]


class MaskGaussianPruner(_BaselinePruner):
    """MaskGaussian-style probabilistic masking driven by opacity-scaled importance."""

    def __init__(self, prune_ratio: float = 0.5, seed: int = 0):
        super().__init__(prune_ratio)
        self._rng = np.random.default_rng(seed)
        self._importance: np.ndarray | None = None

    def begin_frame(self, cloud: GaussianCloud, frame: Frame) -> None:
        self._importance = np.zeros(cloud.n_total)

    def after_backward(self, cloud, gradients: CloudGradients, render, iteration) -> None:
        if self._importance is None or self._importance.shape[0] != cloud.n_total:
            self._importance = np.zeros(cloud.n_total)
        self._importance += np.linalg.norm(gradients.positions, axis=1)
        self.stats.iterations_observed += 1

    def _scores(self, cloud: GaussianCloud) -> np.ndarray | None:
        if self._importance is None:
            return None
        noise = self._rng.uniform(0.0, 1e-8, size=self._importance.shape)
        return self._importance * cloud.opacities() + noise

    def _keep_rows(self, keep_mask: np.ndarray) -> None:
        if self._importance is not None and self._importance.shape[0] == keep_mask.shape[0]:
            self._importance = self._importance[keep_mask]


def _image_saliency(image: np.ndarray) -> np.ndarray:
    """Cheap gradient-magnitude saliency map used by the FlashGS baseline."""
    grey = image.mean(axis=2)
    gy, gx = np.gradient(grey)
    magnitude = np.sqrt(gx**2 + gy**2)
    peak = magnitude.max()
    if peak <= 0:
        return np.zeros_like(magnitude)
    return magnitude / peak
