"""Spatial pooling layers.

Arrays are NCHW logically, ``(batch, channels, height, width)``, and
keep whatever memory layout they arrive in: a conv stack is NHWC in
memory (see :mod:`repro.nn.layers.conv`), and max pooling's output and
input gradient stay NHWC so the next conv unrolls without a layout copy.
"""

from __future__ import annotations

from typing import Any, List, Tuple

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
    """Max pooling; backward routes the gradient to each window argmax.

    Forward takes the window max as an elementwise ``np.maximum`` over
    the ``k*k`` strided window offsets, which is exact (NaNs propagate)
    and needs no argmax.  It keeps references to its input and output.
    ``backward`` marks, per offset, the windows whose first maximum sits
    there (a NaN counts as the maximum, as in ``np.argmax``), and adds
    the gradient through those marks one offset at a time.
    """

    def _offsets(self) -> List[Tuple[Any, slice, slice]]:
        """Index of the strided view at each window offset, row-major."""
        k, s = self.pool_size, self.stride
        _, oh, ow = self.output_shape()
        return [
            (Ellipsis, slice(di, di + s * oh, s), slice(dj, dj + s * ow, s))
            for di in range(k)
            for dj in range(k)
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        offsets = [x[index] for index in self._offsets()]
        out = offsets[0].copy(order="K")
        for window in offsets[1:]:
            np.maximum(out, window, out=out)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        top = self._out
        dx = np.zeros_like(self._x, dtype=grad.dtype)
        unclaimed = np.ones(top.shape, dtype=bool)
        hits = []
        for index in self._offsets():
            window = self._x[index]
            hit = (window == top) | np.isnan(window)
            hit &= unclaimed
            unclaimed &= ~hit
            hits.append((index, hit))
        # A cell of overlapping windows sums its windows' gradients in
        # window raster order, which is reverse offset order, each added
        # as ``new + sum``: the sums ``np.add.at`` takes, down to which
        # NaN payload survives.  Unmarked cells add +0.0, which changes
        # no value of dx (it starts at +0.0 and never holds -0.0).
        for index, hit in reversed(hits):
            cells = dx[index]
            np.add(np.where(hit, grad, 0.0), cells, out=cells)
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
