"""Quantized programming levels — paper Section II-B and Fig. 3.

Programming circuitry discretizes the *resistance* range into a fixed
number of uniformly spaced levels (32 in the paper's ref [14], 64 in
[15]).  Because conductance is the reciprocal of resistance, the induced
conductance levels are **not** uniform: they crowd towards small
conductances (large resistances).  The skewed training exploits exactly
this crowding — small weights land where levels are dense, so they
quantize more accurately.

Levels are defined on the *fresh* window and keep their identity as the
device ages: aging removes levels that fall outside the aged window
(mostly from the top, Fig. 4), it does not re-space the survivors.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError

ArrayLike = Union[float, np.ndarray]


class LevelGrid:
    """Uniform resistance levels on ``[r_min, r_max]`` with ``n_levels`` points.

    Level 0 is ``r_min`` (highest conductance), level ``n_levels - 1``
    is ``r_max`` (lowest conductance), matching the paper's bottom-up
    numbering in Fig. 4.
    """

    def __init__(self, r_min: float, r_max: float, n_levels: int = 32) -> None:
        if r_min <= 0:
            raise ConfigurationError(f"r_min must be > 0, got {r_min}")
        if r_max <= r_min:
            raise ConfigurationError(f"need r_max > r_min, got {r_max} <= {r_min}")
        if n_levels < 2:
            raise ConfigurationError(f"need >= 2 levels, got {n_levels}")
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.n_levels = int(n_levels)
        self._levels = np.linspace(self.r_min, self.r_max, self.n_levels)

    # -- grids ------------------------------------------------------------
    @property
    def resistance_levels(self) -> np.ndarray:
        """Uniformly spaced resistance levels (read-only copy)."""
        return self._levels.copy()

    @property
    def conductance_levels(self) -> np.ndarray:
        """Reciprocal conductance levels (non-uniform, descending)."""
        return 1.0 / self._levels

    @property
    def step(self) -> float:
        """Spacing between adjacent resistance levels."""
        return (self.r_max - self.r_min) / (self.n_levels - 1)

    # -- quantization -------------------------------------------------------
    def index_of(self, resistance: ArrayLike) -> Union[int, np.ndarray]:
        """Nearest level index for ``resistance`` (clipped to the grid)."""
        r = np.asarray(resistance, dtype=np.float64)
        idx = np.rint((r - self.r_min) / self.step).astype(np.int64)
        idx = np.clip(idx, 0, self.n_levels - 1)
        return int(idx) if np.isscalar(resistance) else idx

    def value_of(self, index: Union[int, np.ndarray]) -> ArrayLike:
        """Resistance value of level ``index``."""
        idx = np.clip(np.asarray(index, dtype=np.int64), 0, self.n_levels - 1)
        # Clamp to r_max: r_min + (n-1)*step can exceed r_max by float
        # epsilon, which would wrongly trip window checks downstream.
        out = np.minimum(self.r_min + idx * self.step, self.r_max)
        return float(out) if np.isscalar(index) else out

    def quantize(
        self,
        resistance: ArrayLike,
        aged_min: Optional[ArrayLike] = None,
        aged_max: Optional[ArrayLike] = None,
    ) -> ArrayLike:
        """Snap ``resistance`` to the nearest *usable* level.

        Without aged bounds this is plain fresh-grid quantization.  With
        aged bounds, the target is first clipped into the aged window
        and then snapped to the nearest fresh-grid level that still lies
        inside the window — the paper's "a programming attempt to set
        Level 7 ... can only end up with Level 2" behaviour.  If no
        fresh level survives inside the window, the clipped analog value
        itself is returned (a degenerate, near-dead device).
        """
        r = np.asarray(resistance, dtype=np.float64)
        lo = self.r_min if aged_min is None else np.asarray(aged_min, dtype=np.float64)
        hi = self.r_max if aged_max is None else np.asarray(aged_max, dtype=np.float64)
        clipped = np.clip(r, lo, hi)
        snapped = self.value_of(self.index_of(clipped))
        # Snapping may step outside the aged window; push back inside
        # (with a rounding-scale tolerance so exact-boundary levels stay
        # put, while a level measurably outside the window never does).
        tol = 1e-12 * self.step
        too_high = snapped > hi + tol
        too_low = snapped < lo - tol
        if np.any(too_high) or np.any(too_low):
            snapped = np.where(too_high, snapped - self.step, snapped)
            snapped = np.where(too_low, snapped + self.step, snapped)
            # A window narrower than one step has no usable level: fall
            # back to the clipped analog value.
            invalid = (snapped > hi) | (snapped < lo)
            snapped = np.where(invalid, clipped, snapped)
        return float(snapped) if np.isscalar(resistance) else snapped

    def usable_levels(self, aged_min: float, aged_max: float) -> np.ndarray:
        """Fresh-grid level values that survive inside the aged window."""
        mask = (self._levels >= aged_min) & (self._levels <= aged_max)
        return self._levels[mask]

    def usable_count(
        self, aged_min: ArrayLike, aged_max: ArrayLike
    ) -> Union[int, np.ndarray]:
        """Number of surviving levels (vectorized over aged bounds)."""
        lo = np.asarray(aged_min, dtype=np.float64)
        hi = np.asarray(aged_max, dtype=np.float64)
        first = np.ceil((np.maximum(lo, self.r_min) - self.r_min) / self.step - 1e-12)
        last = np.floor((np.minimum(hi, self.r_max) - self.r_min) / self.step + 1e-12)
        count = np.maximum(0, last - first + 1).astype(np.int64)
        count = np.where(hi < lo, 0, count)
        return int(count) if np.isscalar(aged_min) else count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LevelGrid(r_min={self.r_min:g}, r_max={self.r_max:g}, "
            f"n_levels={self.n_levels})"
        )
