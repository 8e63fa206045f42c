"""Tiling a logical weight matrix across physical crossbar arrays.

Physical crossbars are bounded (64x64–256x256 in practice); a layer
whose unrolled weight matrix exceeds the tile size is split across a
grid of tiles whose partial column currents are summed digitally.
:class:`TiledMatrix` hides the split: it exposes program / step / read /
vmm over the *logical* matrix and forwards slices to its tiles.

Every tile is a full :class:`~repro.crossbar.crossbar.Crossbar`, so
aging, tracing and the aging-aware mapping all work per tile.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.crossbar.crossbar import Crossbar
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, ShapeError
from repro.rng import SeedLike, ensure_rng, spawn_rng


class TiledMatrix:
    """A logical ``rows x cols`` device matrix split into crossbar tiles."""

    def __init__(
        self,
        rows: int,
        cols: int,
        tile_rows: int = 128,
        tile_cols: int = 128,
        config: Optional[DeviceConfig] = None,
        r_tia: float = 1e3,
        seed: SeedLike = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"matrix shape must be positive, got {rows}x{cols}")
        if tile_rows < 1 or tile_cols < 1:
            raise ConfigurationError("tile dimensions must be positive")
        self.rows, self.cols = int(rows), int(cols)
        self.tile_rows, self.tile_cols = int(tile_rows), int(tile_cols)
        self.config = config if config is not None else DeviceConfig()
        rng = ensure_rng(seed)
        self._row_starts = list(range(0, rows, tile_rows))
        self._col_starts = list(range(0, cols, tile_cols))
        self.tiles: List[List[Crossbar]] = []
        for r0 in self._row_starts:
            row_tiles = []
            for c0 in self._col_starts:
                tr = min(tile_rows, rows - r0)
                tc = min(tile_cols, cols - c0)
                row_tiles.append(
                    Crossbar(tr, tc, self.config, r_tia=r_tia, seed=spawn_rng(rng))
                )
            self.tiles.append(row_tiles)

    # -- geometry -------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """Number of tiles along each axis."""
        return (len(self._row_starts), len(self._col_starts))

    def iter_tiles(self) -> Iterator[Tuple[slice, slice, Crossbar]]:
        """Yield ``(row_slice, col_slice, tile)`` over the logical matrix."""
        for i, r0 in enumerate(self._row_starts):
            for j, c0 in enumerate(self._col_starts):
                tile = self.tiles[i][j]
                yield slice(r0, r0 + tile.rows), slice(c0, c0 + tile.cols), tile

    # -- array-wide views -------------------------------------------------
    def resistances(self) -> np.ndarray:
        """Logical programmed-resistance matrix."""
        out = np.empty(self.shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[rs, cs] = tile.resistance
        return out

    def conductances(self) -> np.ndarray:
        """Logical conductance matrix (noise-free).

        Assembled from the per-tile :meth:`Crossbar.conductances`
        caches — bitwise identical to ``1.0 / self.resistances()``
        (elementwise reciprocal commutes with tiling) but free between
        reprogramming events.
        """
        out = np.empty(self.shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[rs, cs] = tile.conductances()
        return out

    def read_conductances(self) -> np.ndarray:
        """Logical conductance matrix as seen by a read (noise per tile)."""
        out = np.empty(self.shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[rs, cs] = tile.read_conductances()
        return out

    @property
    def state_version(self) -> int:
        """Aggregate state version: sum of the tile versions.

        Any tile mutation strictly increases the sum, so equality of
        two aggregate versions implies no tile changed in between.
        """
        return sum(tile.state_version for _rs, _cs, tile in self.iter_tiles())

    def read_resistances(self) -> np.ndarray:
        """Logical resistance read-out (read noise per tile)."""
        out = np.empty(self.shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[rs, cs] = tile.read_resistances()
        return out

    def aged_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Logical per-device aged windows."""
        lo = np.empty(self.shape, dtype=np.float64)
        hi = np.empty(self.shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            tlo, thi = tile.aged_bounds()
            lo[rs, cs], hi[rs, cs] = tlo, thi
        return lo, hi

    def pulse_totals(self) -> int:
        """Total programming pulses across all tiles."""
        return sum(tile.total_pulses() for _rs, _cs, tile in self.iter_tiles())

    def dead_mask(self) -> np.ndarray:
        """Logical boolean mask of dead (window-collapsed) devices."""
        out = np.empty(self.shape, dtype=bool)
        for rs, cs, tile in self.iter_tiles():
            out[rs, cs] = tile.dead_mask()
        return out

    def dead_fraction(self) -> float:
        """Fraction of dead devices over the logical matrix."""
        return float(np.mean(self.dead_mask()))

    # -- operations ----------------------------------------------------------
    def program(self, targets: np.ndarray, only_changed: bool = True) -> np.ndarray:
        """Program the logical matrix (slice-wise per tile)."""
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != self.shape:
            raise ShapeError(f"targets shape {targets.shape} != logical {self.shape}")
        for rs, cs, tile in self.iter_tiles():
            tile.program(targets[rs, cs], only_changed=only_changed)
        return self.resistances()

    def step_levels(self, directions: np.ndarray) -> np.ndarray:
        """Apply ±1-level tuning pulses over the logical matrix."""
        directions = np.asarray(directions)
        if directions.shape != self.shape:
            raise ShapeError(f"directions shape {directions.shape} != logical {self.shape}")
        for rs, cs, tile in self.iter_tiles():
            tile.step_levels(directions[rs, cs])
        return self.resistances()

    def step_conductance(self, directions: np.ndarray, fraction: float = 0.5) -> np.ndarray:
        """Conductance-domain tuning pulses over the logical matrix."""
        directions = np.asarray(directions)
        if directions.shape != self.shape:
            raise ShapeError(f"directions shape {directions.shape} != logical {self.shape}")
        for rs, cs, tile in self.iter_tiles():
            tile.step_conductance(directions[rs, cs], fraction=fraction)
        return self.resistances()

    def program_pulses(
        self, mask: np.ndarray, polarity: np.ndarray, fraction: float = 0.5
    ) -> int:
        """Batched tuning pulses over the logical matrix.

        The bit-identical fast sibling of :meth:`step_conductance`
        (see :meth:`Crossbar.program_pulses`): tiles are visited in
        :meth:`iter_tiles` order so every tile's RNG stream advances
        exactly as on the scalar path, but no logical resistance matrix
        is assembled and no per-tile validation pass runs.  Returns the
        total number of pulses that actually fired.
        """
        if mask.shape != self.shape:
            raise ShapeError(f"mask shape {mask.shape} != logical {self.shape}")
        applied = 0
        for rs, cs, tile in self.iter_tiles():
            applied += tile.program_pulses(
                mask[rs, cs], polarity[rs, cs], fraction=fraction
            )
        return applied

    def program_targets(self, targets: np.ndarray, only_changed: bool = True) -> int:
        """Batched programming over the logical matrix.

        Bit-identical to :meth:`program` but skips assembling the
        logical achieved-resistance matrix that batch callers discard.
        Returns the total number of devices that received a pulse.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != self.shape:
            raise ShapeError(f"targets shape {targets.shape} != logical {self.shape}")
        applied = 0
        for rs, cs, tile in self.iter_tiles():
            applied += tile.program_targets(targets[rs, cs], only_changed=only_changed)
        return applied

    def apply_drift(self, magnitude: float) -> np.ndarray:
        """Apply read-disturb drift to every tile (see Crossbar.apply_drift)."""
        for _rs, _cs, tile in self.iter_tiles():
            tile.apply_drift(magnitude)
        return self.resistances()

    def vmm(self, v_in: np.ndarray) -> np.ndarray:
        """Analog VMM with digital summation of per-tile partial outputs."""
        v_in = np.asarray(v_in, dtype=np.float64)
        if v_in.shape[-1] != self.rows:
            raise ShapeError(f"input width {v_in.shape[-1]} != logical rows {self.rows}")
        out_shape = v_in.shape[:-1] + (self.cols,)
        out = np.zeros(out_shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[..., cs] += tile.vmm(v_in[..., rs])
        return out

    def vmm_ir_drop(
        self, v_in: np.ndarray, model: "ParasiticModel", exact: bool = False
    ) -> np.ndarray:
        """Parasitic-aware VMM with digital summation of tile partials.

        Each tile solves its own (bounded-size) IR-drop problem through
        its cached factorization; partial currents sum digitally, as in
        :meth:`vmm`.
        """
        v_in = np.asarray(v_in, dtype=np.float64)
        if v_in.shape[-1] != self.rows:
            raise ShapeError(f"input width {v_in.shape[-1]} != logical rows {self.rows}")
        out_shape = v_in.shape[:-1] + (self.cols,)
        out = np.zeros(out_shape, dtype=np.float64)
        for rs, cs, tile in self.iter_tiles():
            out[..., cs] += tile.vmm_ir_drop(v_in[..., rs], model, exact=exact)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gr, gc = self.grid_shape
        return f"TiledMatrix({self.rows}x{self.cols} as {gr}x{gc} tiles)"
