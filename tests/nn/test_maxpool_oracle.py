"""MaxPool2D against the argmax-based reference implementation.

The production forward takes the window max as an elementwise
``np.maximum`` over the strided window offsets and defers the argmax to
``backward``.  The reference below is the argmax-at-forward form it
replaced: ``max``/``argmax`` over a reshaped copy of every window, and a
scatter of the gradient to the first-occurrence argmax.  Both must agree
bit for bit, forward outputs and backward ``dx`` alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pool import MaxPool2D, _Pool2D


class ReferenceMaxPool2D(_Pool2D):
    """Max pooling that records each window's argmax at forward time."""

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
        ni, ci, oi, oj = np.indices((n, c, oh, ow))
        di, dj = np.divmod(self._argmax, k)
        np.add.at(dx, (ni, ci, oi * s + di, oj * s + dj), grad)
        return dx


#: (pool_size, stride): disjoint, overlapping and gapped windows.
GEOMETRIES = [(2, 2), (3, 3), (3, 2), (2, 1), (2, 3)]


def _bits(a: np.ndarray) -> np.ndarray:
    """Exact bit pattern of a float64 array (NaN payloads included)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _nhwc(a: np.ndarray) -> np.ndarray:
    """NCHW view of a copy of ``a`` stored channels-last."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_same(
    pool: int, stride: int, x: np.ndarray, rng, training: bool = True, grad=None
):
    """Same outputs and ``dx``; ``grad(shape)`` builds the upstream gradient."""
    shape = x.shape[1:]
    layer, reference = MaxPool2D(pool, stride), ReferenceMaxPool2D(pool, stride)
    layer.build(shape)
    reference.build(shape)
    out = layer.forward(x, training=training)
    expected = reference.forward(x, training=training)
    assert out.shape == expected.shape
    np.testing.assert_array_equal(_bits(out), _bits(expected))
    grad = rng.normal(size=expected.shape) if grad is None else grad(expected.shape)
    np.testing.assert_array_equal(_bits(layer.backward(grad)), _bits(reference.backward(grad)))


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_ties_from_relu_integers(pool, stride, rng):
    # ReLU'd small integers: many zeros and repeated maxima per window,
    # so the first-occurrence tie rule decides where gradients land.
    x = np.maximum(rng.integers(-3, 3, size=(4, 3, 9, 10)), 0).astype(np.float64)
    _assert_same(pool, stride, x, rng)


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_random_values(pool, stride, rng):
    _assert_same(pool, stride, rng.normal(size=(3, 2, 11, 8)), rng)


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_noncontiguous_conv_output(pool, stride, rng):
    conv = Conv2D(5, 3)
    conv.build((2, 12, 12), rng)
    x = conv.forward(rng.normal(size=(3, 2, 12, 12)))
    assert not x.flags.c_contiguous  # the NCHW transpose view
    _assert_same(pool, stride, np.maximum(x, 0.0), rng)
    _assert_same(pool, stride, x, rng)


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_nans_propagate(pool, stride, rng):
    x = np.maximum(rng.integers(-2, 3, size=(3, 2, 9, 9)), 0).astype(np.float64)
    x[rng.random(x.shape) < 0.15] = np.nan
    x[0, 0, :pool, :pool] = np.nan  # a window that is all NaN
    out = MaxPool2D(pool, stride)
    out.build(x.shape[1:])
    assert np.isnan(out.forward(x)).any()
    _assert_same(pool, stride, x, rng)


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_inference_forward_then_backward(pool, stride, rng):
    # The online tuner's gradient pass: forward(training=False), then
    # backward on the same batch.
    x = np.maximum(rng.normal(size=(4, 3, 10, 10)), 0.0)
    _assert_same(pool, stride, x, rng, training=False)


#: NaNs with distinct payloads and signs, so the order of any NaN sum shows.
_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF8000000000003], np.uint64).view(
    np.float64
)


def _special_grad(rng):
    """Gradients with ``-0.0``, ``+0.0`` and NaN entries among normal values."""

    def make(shape):
        grad = rng.normal(size=shape)
        draw = rng.random(shape)
        grad[draw < 0.3] = -0.0
        grad[(draw >= 0.3) & (draw < 0.4)] = 0.0
        nan = draw >= 0.9
        grad[nan] = rng.choice(_NANS, size=int(nan.sum()))
        return grad

    return make


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_signed_zero_and_nan_gradients(pool, stride, rng):
    x = np.maximum(rng.integers(-3, 3, size=(4, 3, 9, 10)), 0).astype(np.float64)
    _assert_same(pool, stride, x, rng, grad=_special_grad(rng))
    grad = _special_grad(rng)
    _assert_same(pool, stride, rng.normal(size=(3, 2, 11, 8)), rng, grad=grad)


def test_negative_zero_gradient_lands_as_positive_zero(rng):
    layer = MaxPool2D(2)
    layer.build((2, 4, 4))
    layer.forward(rng.normal(size=(3, 2, 4, 4)))
    dx = layer.backward(np.full((3, 2, 2, 2), -0.0))
    assert not np.signbit(dx).any()  # 0.0 + -0.0, as np.add.at sums it


@pytest.mark.parametrize("grad_nhwc", [False, True])
@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_channels_last_memory(pool, stride, grad_nhwc, rng):
    # A conv stack hands NHWC memory to the pool (as an NCHW view), and
    # the next conv's backward hands back an NHWC gradient.
    special = _special_grad(rng)

    def grad(shape):
        g = special(shape)
        return _nhwc(g) if grad_nhwc else g

    ties = np.maximum(rng.integers(-3, 3, size=(4, 3, 9, 10)), 0).astype(np.float64)
    _assert_same(pool, stride, _nhwc(ties), rng, grad=grad)
    nans = rng.normal(size=(3, 4, 9, 9))
    nans[rng.random(nans.shape) < 0.15] = np.nan
    _assert_same(pool, stride, _nhwc(nans), rng, grad=grad)
    _assert_same(pool, stride, _nhwc(rng.normal(size=(3, 2, 11, 8))), rng, grad=grad)


@pytest.mark.parametrize("pool,stride", GEOMETRIES)
def test_channels_last_in_and_out(pool, stride, rng):
    layer = MaxPool2D(pool, stride)
    layer.build((5, 9, 10))
    out = layer.forward(_nhwc(rng.normal(size=(2, 5, 9, 10))))
    assert out.transpose(0, 2, 3, 1).flags.c_contiguous
    dx = layer.backward(_nhwc(rng.normal(size=out.shape)))
    assert dx.transpose(0, 2, 3, 1).flags.c_contiguous


def test_backward_follows_latest_forward(rng):
    layer, reference = MaxPool2D(2), ReferenceMaxPool2D(2)
    layer.build((2, 6, 6))
    reference.build((2, 6, 6))
    for _ in range(2):
        x = rng.normal(size=(2, 2, 6, 6))
        layer.forward(x)
        reference.forward(x)
    grad = rng.normal(size=(2, 2, 3, 3))
    np.testing.assert_array_equal(_bits(layer.backward(grad)), _bits(reference.backward(grad)))


def test_no_argmax_stored(rng):
    layer = MaxPool2D(2)
    layer.build((1, 4, 4))
    layer.forward(rng.normal(size=(2, 1, 4, 4)))
    assert not hasattr(layer, "_argmax")
