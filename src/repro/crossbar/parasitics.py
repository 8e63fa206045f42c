"""Interconnect parasitics: IR drop along word- and bit-lines.

The ideal crossbar model assumes every cell sees the full input voltage
and every column current reaches the TIA unattenuated.  Real arrays have
finite wire resistance per cell pitch, so cells far from the drivers see
degraded voltages — the classic *IR-drop* nonideality that bounds
practical array sizes.

Two models are provided:

* :func:`solve_crossbar_nodal` — exact DC solution of the full resistive
  network (2·R·C unknown node voltages) via sparse linear solve.  The
  reference; use for arrays up to ~256x256.
* :func:`ir_drop_factors` — the standard first-order approximation: the
  voltage reaching cell (i, j) is attenuated by the accumulated wire
  resistance relative to the cell's path resistance.  O(RC), usable
  in-loop.

The exact path is built on the kernel layer
(:class:`repro.core.kernels.NodalSolver`): the nodal matrix depends
only on the conductance state, so it is assembled and factorized once
and a whole batch of input vectors is answered by one dense transfer
product — batched, serial, and cached evaluations are bit-identical by
construction (see DESIGN.md §9).

The :class:`ParasiticModel` wraps a wire resistance per segment and
offers a drop-in replacement for the ideal VMM, so experiments can
quantify how much accuracy IR drop costs at a given array size (see
``benchmarks/test_ext_ir_drop.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.core.kernels import NodalSolver, assemble_nodal_matrix
from repro.exceptions import ConfigurationError, ShapeError


@dataclass(frozen=True)
class ParasiticModel:
    """Wire resistance per cell-to-cell segment (ohms).

    ``r_wire = 0`` reduces both models to the ideal crossbar.  Typical
    values are 1–20 Ω per segment for nanoscale metal pitches.
    """

    r_wire: float = 2.0

    def __post_init__(self) -> None:
        if self.r_wire < 0:
            raise ConfigurationError(f"r_wire must be >= 0, got {self.r_wire}")


def _node_index(i: int, j: int, cols: int, plane: int, rows: int) -> int:
    """Flat index of node (i, j) on plane 0 (wordlines) or 1 (bitlines)."""
    return plane * rows * cols + i * cols + j


def _assemble_nodal_system(
    g: np.ndarray, v_in: np.ndarray, g_wire: float
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Assemble the nodal system ``A x = rhs`` for one input vector.

    The matrix comes from the vectorized kernel-layer assembly
    (:func:`repro.core.kernels.assemble_nodal_matrix` — the matrix
    depends only on ``g`` and ``g_wire``); only the RHS depends on
    ``v_in``.  Kept as the single-vector reference that the regression
    tests pin against the per-cell loop assembly below.
    """
    rows, cols = g.shape
    matrix = assemble_nodal_matrix(g, g_wire)
    rhs = np.zeros(2 * rows * cols, dtype=np.float64)
    rhs[np.arange(rows) * cols] = g_wire * v_in
    return matrix, rhs


def _assemble_nodal_system_loop(
    g: np.ndarray, v_in: np.ndarray, g_wire: float
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Reference per-cell loop assembly (the readable specification).

    Kept for the regression test that pins the vectorized assembly to
    this one stamp by stamp; not used on the solve path.
    """
    rows, cols = g.shape
    n = 2 * rows * cols
    builder = sparse.lil_matrix((n, n))
    rhs = np.zeros(n, dtype=np.float64)

    def add_conductance(a: int, b: int, value: float) -> None:
        builder[a, a] += value
        builder[b, b] += value
        builder[a, b] -= value
        builder[b, a] -= value

    def add_to_source(a: int, value: float, v_src: float) -> None:
        builder[a, a] += value
        rhs[a] += value * v_src

    for i in range(rows):
        for j in range(cols):
            w = _node_index(i, j, cols, 0, rows)
            b = _node_index(i, j, cols, 1, rows)
            # The memristor bridges the planes.
            add_conductance(w, b, g[i, j])
            # Wordline segment towards the driver (j = 0 side).
            if j == 0:
                add_to_source(w, g_wire, v_in[i])
            else:
                add_conductance(w, _node_index(i, j - 1, cols, 0, rows), g_wire)
            # Bitline segment towards the TIA (i = rows-1 side).
            if i == rows - 1:
                add_to_source(b, g_wire, 0.0)  # virtual ground
            else:
                add_conductance(b, _node_index(i + 1, j, cols, 1, rows), g_wire)

    return sparse.csr_matrix(builder), rhs


def solve_crossbar_nodal(
    conductances: np.ndarray,
    v_in: np.ndarray,
    model: ParasiticModel,
) -> np.ndarray:
    """Exact column currents of a crossbar with wire parasitics.

    Nodal analysis: each cell (i, j) connects wordline node W(i,j) to
    bitline node B(i,j) through its conductance; wordline nodes chain
    horizontally (input driven at j = 0), bitline nodes chain vertically
    (TIA virtual ground at i = rows-1).  Returns the per-column currents
    flowing into the TIAs for a single input vector ``v_in``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"conductances must be 2-D, got shape {g.shape}")
    rows, _cols = g.shape
    v_in = np.asarray(v_in, dtype=np.float64)
    if v_in.shape != (rows,):
        raise ShapeError(f"v_in must have shape ({rows},), got {v_in.shape}")
    return NodalSolver(g, model.r_wire).solve(v_in)


def ir_drop_factors(
    conductances: np.ndarray,
    model: ParasiticModel,
) -> np.ndarray:
    """First-order per-cell attenuation factors.

    Cell (i, j)'s signal path crosses ``j`` wordline segments and
    ``rows-1-i`` bitline segments; with the cell's own resistance
    ``1/g`` dominating, the delivered fraction is approximately::

        f = (1/g) / (1/g + r_wire * (j + rows-1-i + 2))

    Exact at ``r_wire = 0``; pessimistic for sparse activity (it ignores
    current sharing), optimistic for dense activity — the usual
    first-order trade.  Apply as ``(v_in @ (g * f))``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"conductances must be 2-D, got shape {g.shape}")
    rows, cols = g.shape
    if model.r_wire == 0.0:
        return np.ones_like(g)
    j_idx = np.arange(cols)[None, :]
    i_idx = np.arange(rows)[:, None]
    segments = j_idx + (rows - 1 - i_idx) + 2
    r_cell = 1.0 / np.maximum(g, 1e-12)
    return r_cell / (r_cell + model.r_wire * segments)


def vmm_with_ir_drop(
    conductances: np.ndarray,
    v_in: np.ndarray,
    model: ParasiticModel,
    exact: bool = False,
    solver: Optional[NodalSolver] = None,
) -> np.ndarray:
    """VMM including IR drop (batched on both models).

    ``exact=True`` runs the full nodal solution: the system is
    assembled and factorized **once** and the whole batch is answered
    as one multi-RHS transfer product — no per-vector Python loop.
    The default applies :func:`ir_drop_factors` once.

    ``solver`` may carry a prebuilt :class:`NodalSolver` for the same
    conductance state (e.g. from a crossbar's factorization cache) so
    repeated exact reads skip the rebuild; it must have been built
    from ``conductances`` and ``model.r_wire``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    v_arr = np.asarray(v_in, dtype=np.float64)
    v = np.atleast_2d(v_arr)
    if v.shape[-1] != g.shape[0]:
        raise ShapeError(f"input width {v.shape[-1]} != rows {g.shape[0]}")
    if exact:
        if solver is None:
            solver = NodalSolver(g, model.r_wire)
        out = solver.solve(v)
    else:
        out = v @ (g * ir_drop_factors(g, model))
    return out[0] if v_arr.ndim == 1 else out
