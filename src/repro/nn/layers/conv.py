"""2-D convolution layer via im2col.

Data layout is NCHW: ``(batch, channels, height, width)``.  Kernels are
``(out_ch, in_ch, kh, kw)``.  im2col converts each convolution into one
GEMM, which is the fastest arrangement for numpy on a single core and is
also the arrangement that maps directly onto crossbar tiles: each kernel
becomes one column of the (unrolled) weight matrix, so conv layers are
mapped to hardware as ``(in_ch*kh*kw, out_ch)`` matrices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import ZerosInit, get_initializer
from repro.nn.layers.base import ParamLayer
from repro.rng import SeedLike


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unroll sliding windows of ``x`` (NCHW) into a 2-D matrix.

    Returns an array of shape ``(batch*oh*ow, c*kh*kw)`` where ``oh, ow``
    are the output spatial dims.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to NCHW."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


class Conv2D(ParamLayer):
    """2-D convolution with square stride and symmetric zero padding."""

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        kernel_init="he_normal",
        bias_init=None,
    ) -> None:
        super().__init__()
        if filters < 1:
            raise ConfigurationError(f"filters must be >= 1, got {filters}")
        if kernel_size < 1:
            raise ConfigurationError(f"kernel_size must be >= 1, got {kernel_size}")
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)
        self.kernel_init = get_initializer(kernel_init)
        self.bias_init = get_initializer(bias_init) if bias_init is not None else ZerosInit()
        self._cols: np.ndarray | None = None
        self._x_shape: Tuple[int, int, int, int] | None = None

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (channels, h, w) input, got {input_shape}")
        c, h, w = input_shape
        k = self.kernel_size
        if h + 2 * self.padding < k or w + 2 * self.padding < k:
            raise ShapeError(
                f"kernel {k}x{k} larger than padded input {input_shape} "
                f"with padding {self.padding}"
            )
        super().build(input_shape, rng)
        self.add_param("W", (self.filters, c, k, k), self.kernel_init, rng, regularize=True)
        if self.use_bias:
            self.add_param("b", (self.filters,), self.bias_init, rng)
        return self.output_shape()

    def output_shape(self) -> Tuple[int, ...]:
        assert self.input_shape is not None
        c, h, w = self.input_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return (self.filters, oh, ow)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n = x.shape[0]
        k = self.kernel_size
        self._x_shape = x.shape
        cols = im2col(x, k, k, self.stride, self.padding)
        self._cols = cols
        w_mat = self._params["W"].reshape(self.filters, -1)  # (out, c*k*k)
        out = cols @ w_mat.T
        if self.use_bias:
            out = out + self._params["b"]
        _, oh, ow = self.output_shape()
        return out.reshape(n, oh, ow, self.filters).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        k = self.kernel_size
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, self.filters)
        self._grads["W"][...] = (grad_mat.T @ self._cols).reshape(self._params["W"].shape)
        if self.use_bias:
            self._grads["b"][...] = grad_mat.sum(axis=0)
        w_mat = self._params["W"].reshape(self.filters, -1)
        dcols = grad_mat @ w_mat
        return col2im(dcols, self._x_shape, k, k, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(filters={self.filters}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )
