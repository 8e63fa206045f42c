"""Batch normalization."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import Initializer
from repro.nn.layers.base import ParamLayer
from repro.rng import SeedLike


class _Ones(Initializer):
    def __call__(self, shape, rng=None) -> np.ndarray:
        return np.ones(shape, dtype=np.float64)


class _Zeros(Initializer):
    def __call__(self, shape, rng=None) -> np.ndarray:
        return np.zeros(shape, dtype=np.float64)


class BatchNorm(ParamLayer):
    """Batch normalization over the feature axis.

    Supports both flat ``(batch, features)`` input (normalizing each
    feature) and NCHW images (normalizing each channel over batch and
    spatial dims).  Running statistics use exponential averaging with
    ``momentum`` and are used at inference time.
    """

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) not in (1, 3):
            raise ShapeError(f"BatchNorm expects 1-D or 3-D samples, got {input_shape}")
        super().build(input_shape, rng)
        n_feat = input_shape[0]
        self.add_param("gamma", (n_feat,), _Ones(), rng)
        self.add_param("beta", (n_feat,), _Zeros(), rng)
        self.running_mean = np.zeros(n_feat, dtype=np.float64)
        self.running_var = np.ones(n_feat, dtype=np.float64)
        return self.output_shape()

    def _axes(self, x: np.ndarray):
        return (0,) if x.ndim == 2 else (0, 2, 3)

    def _reshape(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        return v if x.ndim == 2 else v.reshape(1, -1, 1, 1)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = self._axes(x)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            assert self.running_mean is not None and self.running_var is not None
            self.running_mean *= self.momentum
            self.running_mean += (1 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1 - self.momentum) * var
        else:
            assert self.running_mean is not None and self.running_var is not None
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        x_hat = (x - self._reshape(mean, x)) / self._reshape(std, x)
        self._cache = (x_hat, std, axes)
        return self._reshape(self._params["gamma"], x) * x_hat + self._reshape(
            self._params["beta"], x
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, std, axes = self._cache
        self._grads["gamma"][...] = np.sum(grad * x_hat, axis=axes)
        self._grads["beta"][...] = np.sum(grad, axis=axes)
        gamma = self._reshape(self._params["gamma"], grad)
        dx_hat = grad * gamma
        term1 = dx_hat
        term2 = self._reshape(dx_hat.mean(axis=axes), grad)
        term3 = x_hat * self._reshape(np.mean(dx_hat * x_hat, axis=axes), grad)
        return (term1 - term2 - term3) / self._reshape(std, grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm(momentum={self.momentum}, eps={self.eps})"
