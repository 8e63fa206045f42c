"""Activation layer wrapping an elementwise activation function."""

from __future__ import annotations

import numpy as np
from repro.nn.activations import get_activation
from repro.nn.layers.base import Layer


class Activation(Layer):
    """Apply an elementwise activation, e.g. ``Activation("relu")``."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = get_activation(fn)
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        self._y = self.fn.forward(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None and self._y is not None
        return self.fn.backward(self._x, self._y, grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Activation({self.fn.name!r})"
