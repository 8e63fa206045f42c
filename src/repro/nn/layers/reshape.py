"""Shape-manipulation layers."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from repro.nn.layers.base import Layer


class Flatten(Layer):
    """Collapse every non-batch dimension into one feature axis."""

    def output_shape(self) -> Tuple[int, ...]:
        assert self.input_shape is not None
        return (int(np.prod(self.input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._x_shape)
