"""Elementwise activation functions with analytic derivatives.

Each activation is an object with ``forward(x)`` and ``backward(x, y,
grad)`` where ``x`` is the pre-activation input saved by the caller, ``y``
is the forward output, and ``grad`` is the upstream gradient.  Passing
both ``x`` and ``y`` lets each function use whichever is cheaper (sigmoid
and tanh differentiate through their outputs).
"""

from __future__ import annotations

import numpy as np
from repro.exceptions import ConfigurationError


class ActivationFunction:
    """Base class for elementwise activations."""

    name = "base"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(ActivationFunction):
    """Pass-through activation."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad


class ReLU(ActivationFunction):
    """Rectified linear unit: ``max(0, x)``."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (x > 0.0)


class LeakyReLU(ActivationFunction):
    """Leaky ReLU with negative-side slope ``alpha``."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0.0, x, self.alpha * x)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * np.where(x > 0.0, 1.0, self.alpha)


class Sigmoid(ActivationFunction):
    """Logistic sigmoid ``1/(1+exp(-x))`` (numerically stable)."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * y * (1.0 - y)


class Tanh(ActivationFunction):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - y * y)


class Softmax(ActivationFunction):
    """Row-wise softmax over the last axis.

    The full Jacobian is applied in :meth:`backward`; in practice the
    library fuses softmax with the cross-entropy loss
    (:class:`repro.nn.losses.SoftmaxCrossEntropy`) which is both faster
    and more stable, but a standalone softmax is provided for
    completeness (e.g. attention-style usage).
    """

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        dot = np.sum(grad * y, axis=-1, keepdims=True)
        return y * (grad - dot)


_REGISTRY = {
    "identity": Identity,
    "linear": Identity,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softmax": Softmax,
}


def get_activation(name_or_fn) -> ActivationFunction:
    """Resolve a string name or pass through an :class:`ActivationFunction`."""
    if isinstance(name_or_fn, ActivationFunction):
        return name_or_fn
    try:
        return _REGISTRY[str(name_or_fn).lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {name_or_fn!r}; choose from {sorted(_REGISTRY)}"
        ) from None
