"""A small multi-layer perceptron — the paper's "black box".

§2-Q4: "the neural networks used by the deep learning approach cannot be
understood by humans … they serve as a black box that apparently makes
good decisions, but cannot rationalize them."  This MLP is the minimal
instance of that object: accurate on the non-linear census task, opaque
by construction, and therefore the subject of every explainer in
:mod:`repro.transparency`.

Training: mini-batch Adam on the weighted cross-entropy, ReLU hidden
layers, Glorot initialisation.

Hot-path design (see docs/api.md, "Hot kernels"): all weights
and biases live in one contiguous parameter vector, with the per-layer
matrices exposed as reshaped views.  Gradients are written straight into
a matching flat vector (``np.matmul(..., out=...)``), so the Adam update
is a dozen whole-vector in-place ufuncs per step instead of two small
allocating updates per layer.  Each epoch gathers the shuffled training
set once so mini-batches are contiguous slices.  The fused step computes
the same IEEE operations in the same order as the historical per-layer
loop — fitted parameters are byte-identical (pinned by the golden
tests).
"""

from __future__ import annotations

import numpy as np

from repro.data.synth.base import sigmoid
from repro.exceptions import DataError
from repro.learn.base import (
    Classifier,
    check_binary_labels,
    check_matrix,
    check_weights,
)


class MLPClassifier(Classifier):
    """Fully-connected binary classifier.

    Parameters
    ----------
    hidden:
        Hidden layer widths, e.g. ``(32, 16)``.
    learning_rate, epochs, batch_size:
        Adam optimiser settings.
    l2:
        Weight decay strength.
    seed:
        Seeds initialisation and batch shuffling.
    """

    def __init__(self, hidden: tuple[int, ...] = (32, 16),
                 learning_rate: float = 0.01, epochs: int = 60,
                 batch_size: int = 64, l2: float = 1e-4, seed: int = 0):
        if not hidden or any(width < 1 for width in hidden):
            raise DataError("hidden must be a non-empty tuple of positive widths")
        self.hidden = tuple(hidden)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []

    def _initialise(self, n_features: int, rng: np.random.Generator) -> None:
        sizes = [n_features, *self.hidden, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        activations = [X]
        out = X
        for layer, (W, b) in enumerate(zip(self._weights, self._biases)):
            out = out @ W + b
            if layer < len(self._weights) - 1:
                out = np.maximum(out, 0.0)
            activations.append(out)
        return activations, np.asarray(sigmoid(out[:, 0]))

    def fit(self, X, y, sample_weight=None) -> "MLPClassifier":
        """Mini-batch Adam on weighted cross-entropy."""
        X = check_matrix(X)
        y = check_binary_labels(y)
        if len(X) != len(y):
            raise DataError(f"X has {len(X)} rows but y has {len(y)}")
        weights = check_weights(sample_weight, len(y))
        weights = weights / weights.mean()
        rng = np.random.default_rng(self.seed)
        self._initialise(X.shape[1], rng)

        # Flatten all parameters into one contiguous vector; the layer
        # matrices become reshaped views so _forward/_backward see them
        # unchanged while Adam updates the whole vector at once.
        spans: list[tuple[slice, slice, tuple[int, int]]] = []
        offset = 0
        for W, b in zip(self._weights, self._biases):
            w_span = slice(offset, offset + W.size)
            offset += W.size
            b_span = slice(offset, offset + b.size)
            offset += b.size
            spans.append((w_span, b_span, W.shape))
        theta = np.empty(offset)
        for (w_span, b_span, _), W, b in zip(spans, self._weights,
                                             self._biases):
            theta[w_span] = W.ravel()
            theta[b_span] = b
        self._weights = [theta[w].reshape(shape) for w, _, shape in spans]
        self._biases = [theta[b] for _, b, _ in spans]
        n_layers = len(self._weights)

        grad = np.zeros_like(theta)
        grad_w = [grad[w].reshape(shape) for w, _, shape in spans]
        grad_b = [grad[b] for _, b, _ in spans]
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        scratch = np.empty_like(theta)   # (1-β)·g and √v̂ + ε
        update = np.empty_like(theta)    # m̂, then the final step
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        for _ in range(self.epochs):
            order = rng.permutation(len(X))
            # One gather per epoch: batches become contiguous slices.
            X_shuffled, y_shuffled = X[order], y[order]
            w_shuffled = weights[order]
            for start in range(0, len(X), self.batch_size):
                stop = min(start + self.batch_size, len(X))
                step += 1
                Xb = X_shuffled[start:stop]
                yb = y_shuffled[start:stop]
                wb = w_shuffled[start:stop]
                activations, probabilities = self._forward(Xb)
                # dL/dz for sigmoid + cross-entropy, per-sample weighted.
                delta = (wb * (probabilities - yb) / (stop - start))[:, None]
                for layer in reversed(range(n_layers)):
                    np.matmul(activations[layer].T, delta, out=grad_w[layer])
                    grad_w[layer] += self.l2 * self._weights[layer]
                    delta.sum(axis=0, out=grad_b[layer])
                    if layer > 0:
                        delta = delta @ self._weights[layer].T
                        delta *= activations[layer] > 0.0
                # Fused Adam: whole-vector in-place ops, float-for-float
                # the per-layer m/v/m̂/v̂ recurrence.
                m *= beta1
                np.multiply(grad, 1 - beta1, out=scratch)
                m += scratch
                np.multiply(grad, grad, out=scratch)
                scratch *= 1 - beta2
                v *= beta2
                v += scratch
                np.divide(m, 1 - beta1**step, out=update)      # m̂
                np.divide(v, 1 - beta2**step, out=scratch)     # v̂
                np.sqrt(scratch, out=scratch)
                scratch += eps
                update *= self.learning_rate
                update /= scratch
                theta -= update
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Forward pass probabilities."""
        self._require_fitted()
        X = check_matrix(X)
        if X.shape[1] != self._weights[0].shape[0]:
            raise DataError(
                f"expected {self._weights[0].shape[0]} features, got {X.shape[1]}"
            )
        return self._forward(X)[1]

    @property
    def n_parameters(self) -> int:
        """Total trainable parameter count (opacity proxy for E9)."""
        self._require_fitted()
        return int(
            sum(W.size for W in self._weights) + sum(b.size for b in self._biases)
        )
