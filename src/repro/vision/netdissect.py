"""NetDissect re-implementation (Bau et al.) for the Figure 15 comparison.

For each channel: estimate the top-quantile activation threshold over a
sample of pixel activations (NetDissect uses an online quantile
approximation; we subsample, which reproduces its non-determinism), binarize
the upsampled activation maps at that threshold, and report the IoU against
each concept's pixel mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extract.base import Extractor
from repro.util.rng import new_rng
from repro.vision.cnn_model import (ShapeCnn, pixel_behaviors,
                                    upsample_nearest)
from repro.vision.shapes import ShapeDataset


@dataclass
class NetDissect:
    """Configuration of the dissection pipeline."""

    quantile: float = 0.995
    sample_fraction: float = 0.25   # pixels sampled for threshold estimation
    seed: int = 0

    def run(self, model: ShapeCnn,
            dataset: ShapeDataset) -> dict[str, np.ndarray]:
        """Returns {concept: iou_per_channel}."""
        rng = new_rng(self.seed)
        behaviors = pixel_behaviors(model, dataset.images)
        n_images, n_pixels, n_channels = behaviors.shape
        flat = behaviors.reshape(-1, n_channels)

        # online-quantile stand-in: estimate thresholds from a pixel sample
        n_sample = max(1024, int(flat.shape[0] * self.sample_fraction))
        sample_idx = rng.choice(flat.shape[0],
                                size=min(n_sample, flat.shape[0]),
                                replace=False)
        thresholds = np.quantile(flat[sample_idx], self.quantile, axis=0)

        active = flat > thresholds[None, :]
        scores: dict[str, np.ndarray] = {}
        for concept, mask in dataset.flat_masks().items():
            m = mask.reshape(-1) > 0
            intersection = (active & m[:, None]).sum(axis=0)
            union = active.sum(axis=0) + m.sum() - intersection
            with np.errstate(divide="ignore", invalid="ignore"):
                scores[concept] = np.where(
                    union > 0, intersection / np.maximum(union, 1), 0.0)
        return scores


def netdissect_scores(model: ShapeCnn, dataset: ShapeDataset,
                      quantile: float = 0.995,
                      seed: int = 0) -> dict[str, np.ndarray]:
    """Convenience wrapper returning {concept: iou_per_channel}."""
    return NetDissect(quantile=quantile, seed=seed).run(model, dataset)


class CnnPixelExtractor(Extractor):
    """DeepBase-side extractor: pixels are symbols, channels are units.

    Subclasses :class:`repro.extract.base.Extractor` so the standard
    Jaccard measure can score CNN channels against mask hypotheses and the
    behavior caches can key its output (the image tensor is content-hashed
    into the key).  One ``activation_maps`` sweep per batch serves every
    channel subset and transform.
    """

    def __init__(self, images: np.ndarray, batch_size: int = 64):
        self.images = images
        self.batch_size = batch_size

    def n_units(self, model) -> int:
        return model.n_units

    def raw_states(self, model, records: np.ndarray) -> np.ndarray:
        # ``records`` carries image indices in its first column
        idx = np.asarray(records[:, 0], dtype=int)
        up = upsample_nearest(model.activation_maps(self.images[idx]),
                              self.images.shape[1])
        return up.reshape(up.shape[0], -1, up.shape[-1])
