"""Spatial pooling layers (NCHW layout)."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer
from repro.rng import SeedLike


class _Pool2D(Layer):
    """Shared shape logic for max/avg pooling with square windows."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"pooling expects (channels, h, w), got {input_shape}")
        c, h, w = input_shape
        if h < self.pool_size or w < self.pool_size:
            raise ShapeError(f"pool window {self.pool_size} larger than input {input_shape}")
        return super().build(input_shape, rng)

    def output_shape(self) -> Tuple[int, ...]:
        assert self.input_shape is not None
        c, h, w = self.input_shape
        oh = (h - self.pool_size) // self.stride + 1
        ow = (w - self.pool_size) // self.stride + 1
        return (c, oh, ow)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """View of ``x`` as (n, c, oh, ow, k, k) pooling windows."""
        n, c, h, w = x.shape
        k, s = self.pool_size, self.stride
        _, oh, ow = self.output_shape()
        strides = (
            x.strides[0],
            x.strides[1],
            x.strides[2] * s,
            x.strides[3] * s,
            x.strides[2],
            x.strides[3],
        )
        return np.lib.stride_tricks.as_strided(
            x, shape=(n, c, oh, ow, k, k), strides=strides, writeable=False
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(pool_size={self.pool_size}, stride={self.stride})"


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes the gradient to each window argmax."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        windows = self._windows(x)
        n, c, oh, ow, k, _ = windows.shape
        flat = windows.reshape(n, c, oh, ow, k * k)
        self._argmax = flat.argmax(axis=-1)
        return flat.max(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        k, s = self.pool_size, self.stride
        _, oh, ow = self.output_shape()
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        # Scatter each window's gradient to its argmax position.
        ni, ci, oi, oj = np.indices((n, c, oh, ow))
        di, dj = np.divmod(self._argmax, k)
        np.add.at(dx, (ni, ci, oi * s + di, oj * s + dj), grad)
        return dx


class AvgPool2D(_Pool2D):
    """Average pooling; backward spreads the gradient uniformly."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        windows = self._windows(x)
        return windows.mean(axis=(-1, -2))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        k, s = self.pool_size, self.stride
        _, oh, ow = self.output_shape()
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        share = grad / (k * k)
        for di in range(k):
            for dj in range(k):
                dx[:, :, di : di + s * oh : s, dj : dj + s * ow : s] += share
        return dx
