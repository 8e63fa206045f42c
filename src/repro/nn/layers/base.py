"""Layer base classes.

A :class:`Layer` transforms a batch array in :meth:`forward` and pushes
gradients back in :meth:`backward`.  Layers cache whatever they need for
the backward pass on ``self`` during ``forward``; the model guarantees
the calls alternate (forward then backward on the same batch).

A :class:`ParamLayer` additionally owns named parameter tensors (in
``self.params``) with matching gradient slots (``self.grads``) filled by
``backward``.  The model applies regularizers only to tensors whose name
is listed in ``self.regularized`` — weights, not biases, matching the
paper's cost function which penalizes the layer weight matrices
:math:`W_i`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.rng import SeedLike, ensure_rng


class Layer:
    """Base class for all layers."""

    def __init__(self) -> None:
        self.built = False
        #: Shape of a single input sample (no batch dim), set by build().
        self.input_shape: Optional[Tuple[int, ...]] = None

    # -- construction --------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        """Allocate parameters for ``input_shape`` and return the output shape.

        ``input_shape`` excludes the batch dimension.  Idempotent: a
        second call with the same shape is a no-op.
        """
        self.input_shape = tuple(int(s) for s in input_shape)
        self.built = True
        return self.output_shape()

    def output_shape(self) -> Tuple[int, ...]:
        """Shape of a single output sample; valid after :meth:`build`."""
        assert self.input_shape is not None, "layer not built"
        return self.input_shape

    # -- compute --------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- parameters ------------------------------------------------------
    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Named parameter tensors (empty for parameter-free layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Named gradient tensors matching :attr:`params`."""
        return {}

    @property
    def regularized(self) -> List[str]:
        """Names of parameters the model's regularizer applies to."""
        return []

    def num_params(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ParamLayer(Layer):
    """Layer with named parameters stored in dicts."""

    def __init__(self) -> None:
        super().__init__()
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self._regularized: List[str] = []

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads

    @property
    def regularized(self) -> List[str]:
        return self._regularized

    def add_param(
        self,
        name: str,
        shape: Tuple[int, ...],
        initializer,
        rng: SeedLike = None,
        regularize: bool = False,
    ) -> np.ndarray:
        """Allocate parameter ``name`` and its zero gradient slot."""
        rng = ensure_rng(rng)
        value = np.asarray(initializer(shape, rng), dtype=np.float64)
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)
        if regularize and name not in self._regularized:
            self._regularized.append(name)
        return value

    def set_param(self, name: str, value: np.ndarray) -> None:
        """Replace parameter ``name`` in place (shape must match)."""
        current = self._params[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != current.shape:
            raise ValueError(
                f"shape mismatch for param {name!r}: {value.shape} != {current.shape}"
            )
        current[...] = value
