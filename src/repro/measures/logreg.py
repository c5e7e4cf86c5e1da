"""Logistic-regression affinity measures (joint).

The measure of Belinkov et al. and Alain & Bengio: train a classifier that
predicts the hypothesis behavior from the group's unit activations.  The F1
score (5-fold cross-validation on the full-data path, held-out rows on the
streaming path) is the group affinity; coefficients are the per-unit scores.

**Model merging** (Section 5.2.1): instead of training one probe per
hypothesis, all |H| probes share a single (n_units + 1, |H|) weight matrix
trained jointly.  Since the merged loss is the sum of independent
per-hypothesis losses, minimizing it is equivalent to minimizing each loss
separately -- merging is exact, it only changes wall-clock.  The
:class:`repro.nn.device.Device` shim decides whether the merged linear
algebra runs vectorized ("gpu") or column-at-a-time ("cpu").

Both probes here are one linear layer stepped by :class:`repro.nn.optim.Adam`
and, when streaming, scored by :class:`_HeldOutState` on rows they never
train on; each writes only its link (sigmoid or softmax), its targets and
its score.
"""

from __future__ import annotations

import numpy as np

from repro.measures.base import (DeltaWindowMixin, Measure, MeasureResult,
                                 MeasureState)
from repro.measures.stats import f1_score, multiclass_precision
from repro.nn.device import Device, get_device
from repro.nn.layers import sigmoid, softmax
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.util.rng import new_rng

#: every HOLDOUT_EVERY-th row of a block is held out to score the probe
HOLDOUT_EVERY = 5


def _held_out(n_rows: int) -> np.ndarray:
    """Mask of the rows a probe is scored on instead of trained on."""
    return np.arange(n_rows) % HOLDOUT_EVERY == 0


def _scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature (mean, std) that standardize ``x``; std floored at 1e-8."""
    return x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8)


def _penalties(regul: str, strength: float) -> tuple[float, float]:
    """(l1, l2) strengths for a ``regul`` name."""
    if regul not in ("L1", "L2", "NONE"):
        raise ValueError("regul must be L1, L2 or NONE")
    return (strength if regul == "L1" else 0.0,
            strength if regul == "L2" else 0.0)


class MergedLogisticRegression:
    """|H| binary logistic probes sharing one weight matrix, Adam-trained."""

    def __init__(self, n_features: int, n_outputs: int,
                 device: Device | str | None = None,
                 l1: float = 0.0, l2: float = 0.0, lr: float = 0.05,
                 seed: int = 0):
        self.n_features = n_features
        self.n_outputs = n_outputs
        self.device = get_device(device)
        self.l1 = l1
        self.l2 = l2
        rng = new_rng(seed)
        self.weights = rng.standard_normal((n_features, n_outputs)) * 0.01
        self.bias = np.zeros(n_outputs)
        # the parameters wrap the arrays above: Adam updates them in place
        self._params = (Parameter(self.weights, "weights"),
                        Parameter(self.bias, "bias"))
        self._optimizer = Adam(list(self._params), lr=lr, clip_norm=None)

    # ------------------------------------------------------------------
    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.device.matmul(x, self.weights) + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x) > 0.0

    def _delta(self, logits: np.ndarray, y: np.ndarray) -> np.ndarray:
        """dL/dlogits of each row's loss."""
        return sigmoid(logits) - y

    def partial_fit(self, x: np.ndarray, y: np.ndarray,
                    batch_size: int = 128) -> None:
        """One pass of minibatch Adam over the given rows."""
        weights, bias = self._params
        for start in range(0, x.shape[0], batch_size):
            xb = x[start:start + batch_size]
            delta = self._delta(self.logits(xb), y[start:start + batch_size])
            grad_w = self.device.batched_outer_update(xb, delta) / xb.shape[0]
            if self.l2:
                grad_w = grad_w + self.l2 * self.weights
            if self.l1:
                grad_w = grad_w + self.l1 * np.sign(self.weights)
            weights.grad, bias.grad = grad_w, delta.mean(axis=0)
            self._optimizer.step()

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int,
            batch_size: int, seed: int):
        """``epochs`` passes, each over a fresh permutation of the rows."""
        rng = new_rng(seed)
        for _ in range(epochs):
            order = rng.permutation(x.shape[0])
            self.partial_fit(x[order], y[order], batch_size=batch_size)
        return self

    def f1_per_output(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        pred = self.predict(x)
        truth = y > 0
        return np.array([f1_score(pred[:, j], truth[:, j])
                         for j in range(self.n_outputs)])


class SoftmaxRegression(MergedLogisticRegression):
    """One softmax probe over ``n_outputs`` classes; targets are class ids."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=-1)

    def _delta(self, logits: np.ndarray, y: np.ndarray) -> np.ndarray:
        probs = softmax(logits, axis=-1)
        probs[np.arange(y.shape[0]), y] -= 1.0
        return probs


class _HeldOutState(MeasureState, DeltaWindowMixin):
    """A probe trained online and scored on rows it never trains on.

    The first block fixes the feature standardization.  Each block's every
    ``HOLDOUT_EVERY``-th row joins the held-out set while that holds fewer
    than the measure's ``max_val_rows``; the other rows train the probe one
    minibatch pass.  The held-out score is the group score and feeds the
    delta window.  Subclasses write only their math: ``_targets``,
    ``_score`` and ``unit_scores``.
    """

    def __init__(self, n_units: int, n_hyps: int, measure: Measure,
                 model: MergedLogisticRegression):
        MeasureState.__init__(self, n_units, n_hyps)
        DeltaWindowMixin.__init__(self, window=measure.window)
        self.measure = measure
        self.model = model
        self.scale: tuple[np.ndarray, np.ndarray] | None = None
        self._val_x: list[np.ndarray] = []
        self._val_y: list[np.ndarray] = []
        self._val_rows = 0
        self._val_score = np.zeros(n_hyps)

    def standardize(self, units: np.ndarray) -> np.ndarray:
        if self.scale is None:
            self.scale = _scale(units)  # first (shuffled) block calibrates
        mean, std = self.scale
        return (units - mean) / std

    def hold_out(self, x: np.ndarray, y: np.ndarray) -> None:
        self._val_x.append(x)
        self._val_y.append(y)
        self._val_rows += x.shape[0]

    def held_out(self) -> tuple[np.ndarray, np.ndarray] | None:
        if not self._val_x:
            return None
        return (np.concatenate(self._val_x, axis=0),
                np.concatenate(self._val_y, axis=0))

    def update(self, units: np.ndarray, hyps: np.ndarray) -> None:
        y = self._targets(hyps)
        x = self.standardize(units)
        held = _held_out(x.shape[0])
        if self._val_rows < self.measure.max_val_rows:
            self.hold_out(x[held], y[held])
        self.model.partial_fit(x[~held], y[~held],
                               batch_size=self.measure.batch_size)
        self.push_score(self.rescore())

    def rescore(self) -> np.ndarray:
        """Score the probe on the held-out rows (the model only changes in
        :meth:`update`, so reads reuse this)."""
        held = self.held_out()
        self._val_score = (np.zeros(self.n_hyps) if held is None
                           else self._score(*held))
        return self._val_score

    def group_scores(self) -> np.ndarray:
        return self._val_score.copy()

    def error(self) -> float:
        return self.delta_error()


class _LogRegState(_HeldOutState):
    def _targets(self, hyps: np.ndarray) -> np.ndarray:
        return (hyps > 0).astype(np.float64)

    def _score(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.model.f1_per_output(x, y)

    def unit_scores(self) -> np.ndarray:
        return self.model.weights.copy()


class LogRegressionScore(Measure):
    """Merged logistic-regression probe; F1 group score, coefficient units.

    ``LogRegressionScore(regul='L1', score='F1')`` reproduces the paper's
    API example.  ``device`` selects merged-vectorized ("gpu") vs
    column-looped ("cpu") execution; ``merged=False`` switches the full-data
    path to the naive one-model-per-hypothesis loop the baselines use.
    """

    joint = True

    def __init__(self, regul: str = "L1", score: str = "F1",
                 strength: float = 1e-3, lr: float = 0.05,
                 epochs: int = 4, cv_folds: int = 5,
                 device: Device | str | None = None, merged: bool = True,
                 batch_size: int = 128, max_val_rows: int = 4096,
                 window: int = 4, seed: int = 0):
        regul = regul.upper()
        self.l1, self.l2 = _penalties(regul, strength)
        if score != "F1":
            raise ValueError("only the F1 score is implemented")
        self.lr = lr
        self.epochs = epochs
        self.cv_folds = cv_folds
        self.device = get_device(device)
        self.merged = merged
        self.batch_size = batch_size
        self.max_val_rows = max_val_rows
        self.window = window
        self.seed = seed
        self.score_id = f"logreg:{regul.lower()}"

    def _model(self, n_features: int,
               n_outputs: int) -> MergedLogisticRegression:
        return MergedLogisticRegression(
            n_features, n_outputs, device=self.device,
            l1=self.l1, l2=self.l2, lr=self.lr, seed=self.seed)

    # ------------------------------------------------------------------
    def new_state(self, n_units: int, n_hyps: int) -> _LogRegState:
        return _LogRegState(n_units, n_hyps, self,
                            self._model(n_units, n_hyps))

    # ------------------------------------------------------------------
    def compute(self, units: np.ndarray, hyps: np.ndarray) -> MeasureResult:
        """Full-data path: k-fold cross-validated F1 (Section 4.3)."""
        mean, std = _scale(units)
        x = (units - mean) / std
        y = (hyps > 0).astype(np.float64)
        if self.merged:
            f1 = self._cv_f1(x, y)
            coefs = self._train(x, y).weights.copy()
        else:  # the baselines' loop: one model per hypothesis
            f1 = np.empty(y.shape[1])
            coefs = np.empty((x.shape[1], y.shape[1]))
            for j in range(y.shape[1]):
                f1[j] = self._cv_f1(x, y[:, j:j + 1])[0]
                coefs[:, j] = self._train(x, y[:, j:j + 1]).weights[:, 0]
        return MeasureResult(unit_scores=coefs, group_scores=f1,
                             n_rows_seen=units.shape[0], converged=True)

    def _train(self, x: np.ndarray,
               y: np.ndarray) -> MergedLogisticRegression:
        return self._model(x.shape[1], y.shape[1]).fit(
            x, y, self.epochs, self.batch_size, self.seed)

    def _cv_f1(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        folds = max(2, self.cv_folds)
        fold_ids = np.arange(x.shape[0]) % folds
        scores = np.zeros((folds, y.shape[1]))
        for k in range(folds):
            test = fold_ids == k
            model = self._train(x[~test], y[~test])
            scores[k] = model.f1_per_output(x[test], y[test])
        return scores.mean(axis=0)


class _MulticlassState(_HeldOutState):
    def _targets(self, hyps: np.ndarray) -> np.ndarray:
        if hyps.shape[1] != 1:
            raise ValueError("multiclass probe expects a single categorical "
                             "hypothesis column")
        return hyps[:, 0].astype(np.int64)

    def _score(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.array([float((self.model.predict(x) == y).mean())])

    def unit_scores(self) -> np.ndarray:
        # per-unit relevance: L2 norm of the unit's class coefficients
        return np.sqrt((self.model.weights**2).sum(axis=1, keepdims=True))

    def extras(self) -> dict:
        held = self.held_out()
        if held is None:
            return {"per_class_precision": np.zeros(self.measure.n_classes)}
        x, y = held
        return {"per_class_precision": multiclass_precision(
            self.model.predict(x), y, self.measure.n_classes)}


class MulticlassLogRegScore(Measure):
    """Softmax probe for one categorical hypothesis (Figure 11's measure).

    The group score is held-out accuracy; ``extras['per_class_precision']``
    carries the per-tag precision the paper plots.
    """

    joint = True
    #: the streaming held-out set is never capped
    max_val_rows = float("inf")

    def __init__(self, n_classes: int, regul: str = "L2",
                 strength: float = 1e-4, lr: float = 0.05,
                 epochs: int = 10, batch_size: int = 128,
                 window: int = 4, seed: int = 0):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        regul = regul.upper()
        self.n_classes = n_classes
        self.l1, self.l2 = _penalties(regul, strength)
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.window = window
        self.seed = seed
        self.score_id = f"multiclass_logreg:{regul.lower()}"

    def new_state(self, n_units: int, n_hyps: int) -> _MulticlassState:
        if n_hyps != 1:
            raise ValueError("multiclass probe expects exactly one hypothesis")
        return _MulticlassState(n_units, n_hyps, self, SoftmaxRegression(
            n_units, self.n_classes, l1=self.l1, l2=self.l2, lr=self.lr,
            seed=self.seed))

    def compute(self, units: np.ndarray, hyps: np.ndarray) -> MeasureResult:
        """Full-data path: fixed train/held-out split, multiple epochs."""
        state = self.new_state(units.shape[1], hyps.shape[1])
        units = np.asarray(units, dtype=np.float64)
        y = state._targets(np.asarray(hyps, dtype=np.float64))
        held = _held_out(units.shape[0])
        state.scale = _scale(units[~held])
        x = state.standardize(units)
        state.hold_out(x[held], y[held])
        state.model.fit(x[~held], y[~held], self.epochs, self.batch_size,
                        self.seed)
        state.n_rows = units.shape[0]
        state.rescore()
        return state.result(converged=True)
