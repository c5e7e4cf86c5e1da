"""Shared statistical helpers: classification scores, Fisher CIs, silhouette."""

from __future__ import annotations

import numpy as np

Z_95 = 1.959963984540054  # 95% two-sided normal quantile


def confusion_counts(pred: np.ndarray, truth: np.ndarray
                     ) -> tuple[float, float, float, float]:
    """(tp, fp, fn, tn) for binary arrays."""
    pred = pred.astype(bool)
    truth = truth.astype(bool)
    tp = float(np.sum(pred & truth))
    fp = float(np.sum(pred & ~truth))
    fn = float(np.sum(~pred & truth))
    tn = float(np.sum(~pred & ~truth))
    return tp, fp, fn, tn


def f1_score(pred: np.ndarray, truth: np.ndarray) -> float:
    tp, fp, fn, _ = confusion_counts(pred, truth)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def multiclass_precision(pred: np.ndarray, truth: np.ndarray,
                         n_classes: int) -> np.ndarray:
    """Per-class precision (Figure 11's score); 0 for unpredicted classes."""
    out = np.zeros(n_classes)
    for cls in range(n_classes):
        predicted = pred == cls
        if predicted.any():
            out[cls] = float(np.mean(truth[predicted] == cls))
    return out


def fisher_ci_halfwidth(r: np.ndarray, n: int, z: float = Z_95) -> np.ndarray:
    """Half-width of the CI for Pearson correlations via Fisher transform.

    ``atanh(r)`` is approximately normal with sd ``1/sqrt(n-3)``; the bound
    is mapped back to correlation space, giving tighter widths for |r|
    near 1 -- the property the early-stopping optimizer exploits.
    """
    if n <= 3:
        return np.full_like(np.asarray(r, dtype=np.float64), np.inf)
    r = np.clip(np.asarray(r, dtype=np.float64), -0.999999, 0.999999)
    se = 1.0 / np.sqrt(n - 3)
    z_r = np.arctanh(r)
    upper = np.tanh(z_r + z * se)
    lower = np.tanh(z_r - z * se)
    return np.maximum(upper - r, r - lower)


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (Rousseeuw 1987), euclidean distance.

    Used by the verification procedure (Section 4.4) to quantify how well
    baseline vs. treatment activation deltas separate.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if unique.shape[0] < 2:
        raise ValueError("silhouette requires at least two clusters")
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    dists = np.sqrt(
        np.maximum(((points[:, None, :] - points[None, :, :])**2).sum(-1), 0.0))
    sil = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own <= 1:
            sil[i] = 0.0
            continue
        a = dists[i, own].sum() / (n_own - 1)
        b = np.inf
        for other in unique:
            if other == labels[i]:
                continue
            members = labels == other
            b = min(b, dists[i, members].mean())
        denom = max(a, b)
        sil[i] = (b - a) / denom if denom > 0 else 0.0
    return float(sil.mean())
