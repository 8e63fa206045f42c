"""Test-only oracle for the tuning hot loop: Eq. (5) one device at a time.

:func:`reference_tuner` swaps :meth:`Crossbar._pulse_impl` for the
paper's per-device pulse loop and turns the kernel value caches off, so
a run inside it walks the production trajectory with none of its
vectorization or memoization.  Tests run a workload once plainly and
once inside the scope and diff the end states bit for bit.

The loop keeps the production body's full-array RNG draws in the same
order (miss draw, then write-noise draw), so the two bodies consume the
per-tile streams identically; min/max/clip and ``+-*/`` are
elementwise-exact IEEE, so every device lands on the same value.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.core.kernels import set_cache_enabled
from repro.crossbar.crossbar import Crossbar


def _pulse_impl_per_device(
    self: Crossbar, directions: np.ndarray, active: np.ndarray, fraction: float
) -> np.ndarray:
    """Per-device body of :meth:`Crossbar._pulse_impl`."""
    select = self._apply_pulse_misses(active & ~self.dead_mask())
    self._apply_stress(select, self.resistance)
    g_step = fraction * (self.config.g_max - self.config.g_min) / (self.grid.n_levels - 1)
    noise = (
        self._rng.normal(0.0, self.config.write_noise * g_step, size=self.shape)
        if self.config.write_noise > 0
        else None
    )
    lo, hi = self.aged_bounds()
    # Unselected devices keep their resistance, exactly like the masked
    # np.where of the production body.
    res = self.resistance
    out = res.copy()
    for i in range(self.rows):
        for j in range(self.cols):
            if not select[i, j]:
                continue
            g = 1.0 / res[i, j] + directions[i, j] * g_step
            if noise is not None:
                g = g + noise[i, j]
            g = max(g, 1.0 / max(hi[i, j], 1.0))
            out[i, j] = min(max(1.0 / g, lo[i, j]), hi[i, j])
    self.resistance = out
    return select


@contextmanager
def reference_tuner() -> Iterator[None]:
    """Run the enclosed block on the per-device, cache-free reference."""
    production = Crossbar._pulse_impl
    prior_cache = set_cache_enabled(False)
    Crossbar._pulse_impl = _pulse_impl_per_device
    try:
        yield
    finally:
        Crossbar._pulse_impl = production
        set_cache_enabled(prior_cache)
