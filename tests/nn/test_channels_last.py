"""The conv stack stays channels-last in memory from layer to layer.

Conv outputs are NHWC in memory (transposed views of their GEMM
results); ReLU and max pooling keep that layout, and so do the
gradients flowing back through them.  Each of these tests fails if a
layer brings back an NCHW copy, which would cost a layout round trip
in the next conv's ``im2col`` or ``backward``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.activation import Activation
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pool import MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.training.networks import build_lenet, build_vggnet

_MODELS = {
    "lenet": lambda: build_lenet(seed=1),
    "vggnet-shapes-fast": lambda: build_vggnet(width=6, seed=2),
}


def _nhwc(a: np.ndarray) -> bool:
    return a.ndim == 4 and a.transpose(0, 2, 3, 1).flags.c_contiguous


def _record(layers, method: str):
    """Wrap ``method`` of each layer; return the list of ``(layer, arg, result)``."""
    seen = []
    for layer in layers:
        inner = getattr(layer, method)

        def wrapped(arg, *args, _layer=layer, _inner=inner, **kwargs):
            result = _inner(arg, *args, **kwargs)
            seen.append((_layer, arg, result))
            return result

        setattr(layer, method, wrapped)
    return seen


@pytest.mark.parametrize("arch", sorted(_MODELS))
def test_forward_outputs_are_channels_last(arch, rng):
    model = _MODELS[arch]()
    flatten = next(i for i, layer in enumerate(model.layers) if isinstance(layer, Flatten))
    spatial = model.layers[:flatten]
    assert all(isinstance(layer, (Conv2D, Activation, MaxPool2D)) for layer in spatial)
    seen = _record(spatial, "forward")
    model.forward(rng.normal(size=(7,) + model.input_shape))
    assert len(seen) == flatten
    for layer, _x, out in seen:
        assert _nhwc(out), f"{layer!r} output is not NHWC in memory"


@pytest.mark.parametrize("arch", sorted(_MODELS))
def test_conv_backward_gets_channels_last_gradients(arch, rng):
    """Below the last pool, every conv's upstream gradient reshapes as a view."""
    model = _MODELS[arch]()
    last_pool = max(i for i, layer in enumerate(model.layers) if isinstance(layer, MaxPool2D))
    convs = [layer for layer in model.layers[:last_pool] if isinstance(layer, Conv2D)]
    seen = _record(convs, "backward")
    out = model.forward(rng.normal(size=(7,) + model.input_shape))
    model.backward(rng.normal(size=out.shape))
    assert len(seen) == len(convs) > 0
    for layer, grad, _dx in seen:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, layer.filters)
        assert np.shares_memory(grad_mat, grad), f"{layer!r} copied its gradient"

