"""Fully-connected layer."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import ZerosInit, get_initializer
from repro.nn.layers.base import ParamLayer
from repro.rng import SeedLike


class Dense(ParamLayer):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``.

    This is the layer whose weight matrix maps one-to-one onto a
    memristor crossbar (one column of devices per output neuron), so its
    ``W`` is what :mod:`repro.mapping` programs into hardware.
    """

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        kernel_init="glorot_uniform",
        bias_init=None,
    ) -> None:
        super().__init__()
        if units < 1:
            raise ConfigurationError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.use_bias = bool(use_bias)
        self.kernel_init = get_initializer(kernel_init)
        self.bias_init = get_initializer(bias_init) if bias_init is not None else ZerosInit()
        self._x: np.ndarray | None = None

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat input of shape (features,), got {input_shape}"
            )
        super().build(input_shape, rng)
        in_features = input_shape[0]
        self.add_param("W", (in_features, self.units), self.kernel_init, rng, regularize=True)
        if self.use_bias:
            self.add_param("b", (self.units,), self.bias_init, rng)
        return self.output_shape()

    def output_shape(self) -> Tuple[int, ...]:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        out = x @ self._params["W"]
        if self.use_bias:
            out = out + self._params["b"]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward called before forward"
        self._grads["W"][...] = self._x.T @ grad
        if self.use_bias:
            self._grads["b"][...] = grad.sum(axis=0)
        return grad @ self._params["W"].T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense(units={self.units}, use_bias={self.use_bias})"
