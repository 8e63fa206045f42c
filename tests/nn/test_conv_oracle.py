"""Channels-last im2col/col2im and Conv2D against the loop oracle, bit for bit.

``tests/nn/reference_conv.py`` keeps the kh×kw loop unroll and scatter
the production code replaced.  Every preset conv shape, a strided and
padded one, and inputs that are plain NCHW or NCHW views of NHWC
memory must give the same bits in columns, outputs and gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.conv import Conv2D, col2im, im2col
from tests.nn import reference_conv

#: (in_ch, size, filters, kernel, stride, padding)
SHAPES = [
    # LeNet (lenet-glyphs)
    (1, 12, 8, 5, 1, 0),
    (8, 4, 16, 3, 1, 0),
    # VGG, widths 6 (vggnet-shapes-fast) and 8 (vggnet-shapes)
    (1, 16, 6, 3, 1, 1),
    (6, 16, 6, 3, 1, 1),
    (6, 8, 12, 3, 1, 1),
    (12, 8, 12, 3, 1, 1),
    (12, 4, 24, 3, 1, 1),
    (1, 16, 8, 3, 1, 1),
    (8, 16, 8, 3, 1, 1),
    (8, 8, 16, 3, 1, 1),
    (16, 8, 16, 3, 1, 1),
    (16, 4, 32, 3, 1, 1),
    # strided and padded
    (3, 9, 4, 3, 2, 2),
]

LAYOUTS = ["nchw", "nhwc"]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` (NCHW) stored C-order, or as the NCHW view of NHWC memory."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _layer(c, size, filters, k, stride, pad, rng) -> Conv2D:
    layer = Conv2D(filters, k, stride=stride, padding=pad, bias_init="normal")
    layer.build((c, size, size), rng)
    return layer


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("c,size,filters,k,stride,pad", SHAPES)
def test_im2col_and_col2im(c, size, filters, k, stride, pad, layout, rng):
    x = _in_layout(rng.normal(size=(5, c, size, size)), layout)
    cols = im2col(x, k, k, stride, pad)
    expected = reference_conv.im2col(x, k, k, stride, pad)
    assert cols.shape == expected.shape
    np.testing.assert_array_equal(_bits(cols), _bits(expected))

    dcols = rng.normal(size=cols.shape)
    back = col2im(dcols, x.shape, k, k, stride, pad)
    want = reference_conv.col2im(dcols, x.shape, k, k, stride, pad)
    assert back.shape == want.shape == x.shape
    np.testing.assert_array_equal(_bits(back), _bits(want))


@pytest.mark.parametrize("grad_layout", LAYOUTS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("c,size,filters,k,stride,pad", SHAPES)
def test_conv_forward_backward(c, size, filters, k, stride, pad, layout, grad_layout, rng):
    layer = _layer(c, size, filters, k, stride, pad, rng)
    x = _in_layout(rng.normal(size=(6, c, size, size)), layout)
    out = layer.forward(x)
    np.testing.assert_array_equal(_bits(out), _bits(reference_conv.conv_forward(layer, x)))

    grad = _in_layout(rng.normal(size=out.shape), grad_layout)
    dx = layer.backward(grad)
    dw, db, want_dx = reference_conv.conv_backward(layer, x, grad)
    np.testing.assert_array_equal(_bits(layer.grads["W"]), _bits(dw))
    np.testing.assert_array_equal(_bits(layer.grads["b"]), _bits(db))
    assert dx.shape == x.shape
    np.testing.assert_array_equal(_bits(dx), _bits(want_dx))


@pytest.mark.parametrize("c,size,filters,k,stride,pad", SHAPES)
def test_forward_columns_is_forward(c, size, filters, k, stride, pad, rng):
    layer = _layer(c, size, filters, k, stride, pad, rng)
    x = rng.normal(size=(4, c, size, size))
    out = layer.forward(x)
    cols = reference_conv.im2col(x, k, k, stride, pad)
    np.testing.assert_array_equal(_bits(layer.forward_columns(cols)), _bits(out))
