"""Test-only oracle for the conv unroll: ``im2col``/``col2im`` as kh×kw loops.

The production functions in :mod:`repro.nn.layers.conv` unroll through
one channels-last ``sliding_window_view`` and scatter-add into an NHWC
buffer.  The loops below are the NCHW forms they replaced, kept
verbatim: one strided copy (or scatter-add) per kernel offset
``(i, j)``.  Unrolling only moves values, and the scatter-add visits
the offsets in the same ``(i, j)`` order, so tests diff production
against these bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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


def conv_forward(layer, x: np.ndarray) -> np.ndarray:
    """``Conv2D.forward`` over the loop :func:`im2col`, bias added out of place."""
    k = layer.kernel_size
    cols = im2col(x, k, k, layer.stride, layer.padding)
    w_mat = layer.params["W"].reshape(layer.filters, -1)
    out = cols @ w_mat.T
    if layer.use_bias:
        out = out + layer.params["b"]
    _, oh, ow = layer.output_shape()
    return out.reshape(len(x), oh, ow, layer.filters).transpose(0, 3, 1, 2)


def conv_backward(layer, x: np.ndarray, grad: np.ndarray):
    """``(dW, db, dx)`` of ``Conv2D.backward`` over the loop unroll and scatter."""
    k = layer.kernel_size
    cols = im2col(x, k, k, layer.stride, layer.padding)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, layer.filters)
    dw = (grad_mat.T @ cols).reshape(layer.params["W"].shape)
    db = grad_mat.sum(axis=0) if layer.use_bias else None
    w_mat = layer.params["W"].reshape(layer.filters, -1)
    dx = col2im(grad_mat @ w_mat, x.shape, k, k, layer.stride, layer.padding)
    return dw, db, dx
