"""A small trainable CNN whose channel activation maps are inspected
(the VGG-16 substitute of Appendix E).

Architecture: Conv(3x3) -> ReLU -> MaxPool(2) -> Conv(3x3) -> ReLU ->
GlobalAvgPool -> Dense softmax.  The inspected units are the second conv
layer's channels; :func:`pixel_behaviors` upsamples their activation maps
back to image resolution so each pixel is a "symbol" whose behavior aligns
with the concept masks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import Conv2D, GlobalAvgPool, MaxPool2D
from repro.nn.layers import Dense, Relu
from repro.nn.losses import accuracy, softmax_cross_entropy
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.util.rng import new_rng
from repro.vision.shapes import ShapeDataset


class ShapeCnn(Module):
    """Two-conv-layer classifier over (batch, H, W, 1) images."""

    def __init__(self, n_classes: int, rng: np.random.Generator,
                 channels1: int = 8, channels2: int = 12,
                 model_id: str = "shape_cnn"):
        self.model_id = model_id
        self.n_classes = n_classes
        self.conv1 = Conv2D(1, channels1, 3, rng)
        self.relu1 = Relu()
        self.pool = MaxPool2D(2)
        self.conv2 = Conv2D(channels1, channels2, 3, rng)
        self.relu2 = Relu()
        self.gap = GlobalAvgPool()
        self.head = Dense(channels2, n_classes, rng)
        self.n_units = channels2  # the inspected layer's channels

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray) -> np.ndarray:
        x = self.relu1.forward(self.conv1.forward(images))
        x = self.pool.forward(x)
        self._maps = self.relu2.forward(self.conv2.forward(x))
        return self.head.forward(self.gap.forward(self._maps))

    def activation_maps(self, images: np.ndarray) -> np.ndarray:
        """Channel maps of the inspected conv layer: (b, h', w', channels)."""
        self.forward(images)
        return self._maps

    def loss_and_grads(self, images: np.ndarray,
                       labels: np.ndarray) -> tuple[float, float]:
        logits = self.forward(images)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        acc = accuracy(logits, labels)
        dmaps = self.gap.backward(self.head.backward(dlogits))
        dx = self.conv2.backward(self.relu2.backward(dmaps))
        dx = self.pool.backward(dx)
        self.conv1.backward(self.relu1.backward(dx))
        return loss, acc

    def evaluate(self, images: np.ndarray,
                 labels: np.ndarray) -> tuple[float, float]:
        logits = self.forward(images)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss, accuracy(logits, labels)

    def architecture(self) -> dict:
        return {"kind": "shape_cnn", "n_classes": self.n_classes,
                "channels1": self.conv1.out_channels,
                "channels2": self.n_units, "model_id": self.model_id}


def train_shape_cnn(dataset: ShapeDataset, epochs: int = 6,
                    batch_size: int = 32, lr: float = 2e-3,
                    seed: int = 0, verbose: bool = False) -> ShapeCnn:
    """Train the classifier on the shape dataset."""
    rng = new_rng(seed)
    model = ShapeCnn(n_classes=len(np.unique(dataset.labels)), rng=rng)
    optimizer = Adam(model.parameters(), lr=lr)
    n = dataset.n_images
    for epoch in range(epochs):
        order = rng.permutation(n)
        total_loss, total_acc, batches = 0.0, 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            optimizer.zero_grad()
            loss, acc = model.loss_and_grads(dataset.images[idx],
                                             dataset.labels[idx])
            optimizer.step()
            total_loss += loss
            total_acc += acc
            batches += 1
        if verbose:
            print(f"cnn epoch {epoch}: loss={total_loss / batches:.3f} "
                  f"acc={total_acc / batches:.3f}")
    return model


def upsample_nearest(maps: np.ndarray, out_size: int) -> np.ndarray:
    """Nearest-neighbour upsampling of (b, h, w, c) maps to out_size."""
    b, h, w, c = maps.shape
    rows = np.clip((np.arange(out_size) * h) // out_size, 0, h - 1)
    cols = np.clip((np.arange(out_size) * w) // out_size, 0, w - 1)
    return maps[:, rows][:, :, cols]


def pixel_behaviors(model: ShapeCnn, images: np.ndarray,
                    batch_size: int = 64) -> np.ndarray:
    """Per-pixel channel behaviors: (n_images, H*W, channels).

    Activation maps are upsampled to image resolution so that pixel ``p``'s
    behavior aligns with annotation masks -- the NetDissect alignment step.
    """
    out_size = images.shape[1]
    chunks = []
    for start in range(0, images.shape[0], batch_size):
        maps = model.activation_maps(images[start:start + batch_size])
        up = upsample_nearest(maps, out_size)
        chunks.append(up.reshape(up.shape[0], -1, up.shape[-1]))
    return np.concatenate(chunks, axis=0)
