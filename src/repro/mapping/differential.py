"""Differential-pair weight mapping.

The paper maps signed weights onto a *single* conductance per weight
with the affine Eq. (4).  Most fabricated accelerators instead use a
**differential pair**: two devices per weight on a positive and a
negative column, with

    w  =  (g_plus - g_minus) * w_scale / (g_max - g_min)

Zero weights sit at ``g_plus = g_minus = g_min`` (both devices at large
resistance), positive weights raise the plus arm, negative weights the
minus arm.  Compared with Eq. (4):

* twice the devices, but **no common-range coupling** between weights —
  each weight's representation is local;
* a quasi-normal distribution puts *most* devices near ``g_min``
  (large R), so differential arrays intrinsically program with low
  current — they get part of the skewed-training benefit for free,
  which is exactly why the comparison benchmark
  (``benchmarks/test_ext_differential.py``) is interesting.

:class:`DifferentialMappedNetwork` mirrors the
:class:`~repro.mapping.network.MappedNetwork` API surface (map / score /
gradient tuning / aging bookkeeping) so the tuner and lifetime engine
work unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.crossbar.tiling import TiledMatrix
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, ShapeError
from repro.mapping.network import (
    MappedNetwork,
    _layer_matrix,
    _matrix_to_kernel,
    clone_model,
)
from repro.nn.model import Sequential
from repro.rng import SeedLike, ensure_rng, spawn_rng

ArrayLike = Union[float, np.ndarray]


class DifferentialPairMapping:
    """Bidirectional map between signed weights and conductance pairs."""

    def __init__(self, w_abs_max: float, g_min: float, g_max: float) -> None:
        if w_abs_max <= 0:
            raise ConfigurationError(f"w_abs_max must be > 0, got {w_abs_max}")
        if g_min <= 0 or g_max <= g_min:
            raise ConfigurationError(
                f"need 0 < g_min < g_max, got g_min={g_min}, g_max={g_max}"
            )
        self.w_abs_max = float(w_abs_max)
        self.g_min = float(g_min)
        self.g_max = float(g_max)

    @classmethod
    def from_weights(
        cls, weights: np.ndarray, g_min: float, g_max: float
    ) -> "DifferentialPairMapping":
        """Scale from the observed absolute-maximum weight."""
        w_abs = float(np.max(np.abs(weights)))
        return cls(w_abs if w_abs > 0 else 1.0, g_min, g_max)

    @property
    def slope(self) -> float:
        """d(g_plus - g_minus)/dw."""
        return (self.g_max - self.g_min) / self.w_abs_max

    def weight_to_conductances(self, w: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Signed weights → (g_plus, g_minus), each in [g_min, g_max]."""
        w = np.clip(np.asarray(w, dtype=np.float64), -self.w_abs_max, self.w_abs_max)
        g_plus = self.g_min + self.slope * np.maximum(w, 0.0)
        g_minus = self.g_min + self.slope * np.maximum(-w, 0.0)
        return g_plus, g_minus

    def weight_to_resistances(self, w: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Signed weights → (r_plus, r_minus) programming targets."""
        g_plus, g_minus = self.weight_to_conductances(w)
        return 1.0 / g_plus, 1.0 / g_minus

    def conductances_to_weight(
        self, g_plus: ArrayLike, g_minus: ArrayLike
    ) -> np.ndarray:
        """Invert: conductance pair → effective signed weight (unclipped)."""
        diff = np.asarray(g_plus, dtype=np.float64) - np.asarray(g_minus, dtype=np.float64)
        return diff / self.slope

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DifferentialPairMapping(w_abs_max={self.w_abs_max:.4g}, "
            f"g=[{self.g_min:.4g}, {self.g_max:.4g}])"
        )


class DifferentialMappedLayer:
    """One weighted layer stored as plus/minus device arrays."""

    def __init__(
        self,
        layer_index: int,
        layer,
        device_config: DeviceConfig,
        tile_rows: int,
        tile_cols: int,
        seed: SeedLike = None,
    ) -> None:
        self.layer_index = int(layer_index)
        self.layer = layer
        self.device_config = device_config
        matrix = _layer_matrix(layer)
        self.matrix_shape: Tuple[int, int] = matrix.shape
        rng = ensure_rng(seed)
        kwargs = dict(
            tile_rows=tile_rows, tile_cols=tile_cols, config=device_config
        )
        self.plus = TiledMatrix(*matrix.shape, seed=spawn_rng(rng, "plus"), **kwargs)
        self.minus = TiledMatrix(*matrix.shape, seed=spawn_rng(rng, "minus"), **kwargs)
        self.mapping: Optional[DifferentialPairMapping] = None

    def software_matrix(self) -> np.ndarray:
        return _layer_matrix(self.layer)

    def program(self, compensate_stuck: bool = False) -> None:
        """Map + program both arms (each device takes a pulse).

        With ``compensate_stuck=True`` (graceful degradation), pairs
        where exactly one arm is dead get a second pass: the healthy
        arm is retargeted so the pair *difference* still realizes the
        weight against the stuck arm's actual pinned conductance,
        clipped to ``[g_min, g_max]``.  Pairs with both arms dead are
        beyond repair and keep whatever they are stuck at.
        """
        self.mapping = DifferentialPairMapping.from_weights(
            self.software_matrix(), self.device_config.g_min, self.device_config.g_max
        )
        w = self.software_matrix()
        r_plus, r_minus = self.mapping.weight_to_resistances(w)
        self.plus.program(np.asarray(r_plus))
        self.minus.program(np.asarray(r_minus))
        if compensate_stuck:
            self._compensate_stuck(w)

    def _compensate_stuck(self, w: np.ndarray) -> None:
        """Retarget healthy arms of half-dead pairs (see :meth:`program`)."""
        assert self.mapping is not None
        dead_p = self.plus.dead_mask()
        dead_m = self.minus.dead_mask()
        slope = self.mapping.slope
        g_lo, g_hi = self.device_config.g_min, self.device_config.g_max
        fix_minus = dead_p & ~dead_m
        if fix_minus.any():
            g_p_stuck = 1.0 / self.plus.resistances()
            g_m_new = np.clip(g_p_stuck - w * slope, g_lo, g_hi)
            targets = np.where(fix_minus, 1.0 / g_m_new, self.minus.resistances())
            self.minus.program(targets)
        fix_plus = dead_m & ~dead_p
        if fix_plus.any():
            g_m_stuck = 1.0 / self.minus.resistances()
            g_p_new = np.clip(g_m_stuck + w * slope, g_lo, g_hi)
            targets = np.where(fix_plus, 1.0 / g_p_new, self.plus.resistances())
            self.plus.program(targets)

    def dead_device_mask(self) -> np.ndarray:
        """Pairs that can no longer represent their weight at all.

        A pair is only unrecoverable once *both* arms are dead — a
        single stuck arm can still be compensated by its partner.
        """
        return self.plus.dead_mask() & self.minus.dead_mask()

    def hardware_matrix(self) -> np.ndarray:
        if self.mapping is None:
            raise ConfigurationError("layer has never been programmed")
        g_plus = 1.0 / self.plus.read_resistances()
        g_minus = 1.0 / self.minus.read_resistances()
        return self.mapping.conductances_to_weight(g_plus, g_minus)

    def apply_gradient_signs(
        self, weight_grad: np.ndarray, threshold: float, step_fraction: float = 0.5
    ) -> int:
        """Eq. (5) tuning on the pair: raise one arm's conductance.

        To increase a weight, grow the plus arm; to decrease it, grow
        the minus arm.  (Growing is the reliable filament direction;
        periodic reprogramming resets saturated pairs.)
        """
        if weight_grad.shape != self.matrix_shape:
            raise ShapeError(
                f"grad shape {weight_grad.shape} != device matrix {self.matrix_shape}"
            )
        scale = float(np.max(np.abs(weight_grad)))
        if scale == 0.0:
            return 0
        active = np.abs(weight_grad) >= threshold * scale
        increase = active & (weight_grad < 0)  # want w up -> plus arm up
        decrease = active & (weight_grad > 0)  # want w down -> minus arm up
        self.plus.step_conductance(increase.astype(np.int64), fraction=step_fraction)
        self.minus.step_conductance(decrease.astype(np.int64), fraction=step_fraction)
        return int(active.sum())

    def total_pulses(self) -> int:
        return self.plus.pulse_totals() + self.minus.pulse_totals()

    def mean_stress_factor(self) -> float:
        """Mean per-pulse stress of the *programmed* state (both arms)."""
        r_all = np.concatenate(
            [self.plus.resistances().ravel(), self.minus.resistances().ravel()]
        )
        return float(np.mean(self.device_config.stress_factor(r_all)))

    def apply_drift(self, magnitude: float) -> None:
        self.plus.apply_drift(magnitude)
        self.minus.apply_drift(magnitude)


class DifferentialMappedNetwork:
    """A trained network on differential-pair hardware."""

    def __init__(
        self,
        model: Sequential,
        device_config: Optional[DeviceConfig] = None,
        tile_rows: int = 128,
        tile_cols: int = 128,
        seed: SeedLike = None,
    ) -> None:
        if not model.built:
            raise ConfigurationError("model must be built before mapping")
        self.model = model
        self.device_config = device_config if device_config is not None else DeviceConfig()
        rng = ensure_rng(seed)
        self.layers: List[DifferentialMappedLayer] = [
            DifferentialMappedLayer(
                idx,
                layer,
                self.device_config,
                tile_rows,
                tile_cols,
                seed=spawn_rng(rng, f"dlayer{idx}"),
            )
            for idx, layer in model.weighted_layers()
        ]
        self._scratch = clone_model(model)
        self._scratch.set_regularizers(None)

    def map_network(self, compensate_stuck: bool = False) -> None:
        """Program every layer's pair arrays."""
        for layer in self.layers:
            layer.program(compensate_stuck=compensate_stuck)

    def effective_model(self) -> Sequential:
        self._scratch.set_weights(self.model.get_weights())
        for layer in self.layers:
            kernel = _matrix_to_kernel(layer.hardware_matrix(), layer.layer)
            self._scratch.layers[layer.layer_index].params["W"][...] = kernel
        return self._scratch

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        return self.effective_model().evaluate(x, y)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.evaluate(x, y)[1]

    def gradient_sign_matrices(self, x: np.ndarray, y: np.ndarray) -> Dict[int, np.ndarray]:
        scratch = self.effective_model()
        pred = scratch.forward(np.asarray(x, dtype=np.float64), training=False)
        scratch.backward(scratch.loss.gradient(pred, np.asarray(y, dtype=np.float64)))
        out: Dict[int, np.ndarray] = {}
        for layer in self.layers:
            grad_kernel = scratch.layers[layer.layer_index].grads["W"]
            out[layer.layer_index] = (
                grad_kernel.copy()
                if grad_kernel.ndim == 2
                else grad_kernel.reshape(grad_kernel.shape[0], -1).T.copy()
            )
        return out

    # The sweep only touches each layer's ``layer_index``,
    # ``dead_device_mask`` and ``apply_gradient_signs``, which the pair
    # layers provide with pair semantics.
    apply_tuning_sweep = MappedNetwork.apply_tuning_sweep

    def total_pulses(self) -> int:
        return sum(layer.total_pulses() for layer in self.layers)

    def dead_fraction(self) -> float:
        total = sum(2 * l.matrix_shape[0] * l.matrix_shape[1] for l in self.layers)
        dead = sum(
            (l.plus.dead_fraction() + l.minus.dead_fraction())
            * l.matrix_shape[0]
            * l.matrix_shape[1]
            for l in self.layers
        )
        return float(dead / total) if total else 0.0

    def apply_drift(self, magnitude: float) -> None:
        for layer in self.layers:
            layer.apply_drift(magnitude)

    def mean_stress_factor(self) -> float:
        """Device-count-weighted mean per-pulse stress across layers."""
        weights = [2 * l.matrix_shape[0] * l.matrix_shape[1] for l in self.layers]
        values = [l.mean_stress_factor() for l in self.layers]
        return float(np.average(values, weights=weights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DifferentialMappedNetwork(layers={len(self.layers)})"
