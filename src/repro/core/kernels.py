"""Hot-path kernels: cached sparse nodal factorization, batched solves.

The exact IR-drop model of :mod:`repro.crossbar.parasitics` solves the
full resistive network of a crossbar.  The nodal matrix ``A`` depends
only on the conductance state ``g`` and the wire resistance — **not**
on the input vector; only the right-hand side does.  The pre-kernel
implementation nevertheless assembled and sparse-factorized ``A`` once
per input vector, which made the exact path unusable in-loop.

:class:`NodalSolver` restructures the computation around that
observation:

1. assemble ``A`` once per conductance state (vectorized COO stamps);
2. factorize once with :func:`scipy.sparse.linalg.splu`;
3. back-substitute the ``rows`` unit drive vectors as one multi-RHS
   solve, yielding the dense **transfer matrix** ``T`` with
   ``I_out = v_in @ T`` (the network is linear, so ``T`` captures it
   exactly);
4. answer every subsequent read — any batch size — with one dense
   matrix product.

The product is evaluated with :func:`numpy.einsum` rather than BLAS
``@``: einsum computes each output element as an independent reduction,
so the result of a batched solve is **bit-identical** to solving the
same vectors one at a time (BLAS gemm re-blocks by batch size and is
not row-stable).  That determinism is what lets the equivalence tests
and ``benchmarks/run_kernel_bench.py`` assert exact equality across
the serial, batched, and cached modes.  For the array sizes this
repo simulates (≤ 256 rows) the einsum cost is negligible against a
single sparse refactorization.

:class:`FactorizationCache` pairs a solver with the owning crossbar's
``state_version`` (see :class:`repro.crossbar.crossbar.Crossbar`): a
read between reprogramming events reuses the factorization, a write
invalidates it.  The module-level :func:`set_cache_enabled` switch
exists so benchmarks and regression tests can prove cached and
uncached paths agree bit for bit.

The write side of the lifetime loop — batched pulse programming, the
read-reuse memoization of :class:`repro.mapping.network.MappedNetwork`,
and the ``REPRO_SCALAR_TUNER`` reference path — lives in
:mod:`repro.core.fastpath` and DESIGN.md §11; its value caches honour
the same :func:`cache_enabled` switch as this module.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.core.profiling import PROFILER
from repro.exceptions import ConfigurationError, ShapeError

_CACHE_ENABLED = True


def set_cache_enabled(enabled: bool) -> bool:
    """Globally enable/disable kernel state caches; returns the prior value.

    Disabling forces every conductance read and nodal solve to
    recompute from scratch — the reference behavior that benchmarks
    and golden tests compare the cached paths against.
    """
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    return previous


def cache_enabled() -> bool:
    """Whether kernel state caches are currently active."""
    return _CACHE_ENABLED


def assemble_nodal_matrix(g: np.ndarray, g_wire: float) -> sparse.csc_matrix:
    """Vectorized assembly of the nodal matrix ``A`` (no RHS).

    Same stamps as the per-cell loop reference in
    :func:`repro.crossbar.parasitics._assemble_nodal_system_loop`:
    every cell bridges its wordline and bitline nodes through its
    conductance, wordline nodes chain towards the driver column
    (j = 0), bitline nodes chain towards the TIA row (i = rows-1), and
    the driver/TIA terminals stamp ``g_wire`` onto the diagonal.  All
    coordinates are built as whole index grids and fed to one COO
    constructor (duplicates sum on conversion).
    """
    rows, cols = g.shape
    n = 2 * rows * cols
    w_idx = np.arange(rows)[:, None] * cols + np.arange(cols)[None, :]
    b_idx = rows * cols + w_idx

    # Conductance stamps between node pairs (a, b): four COO entries
    # each — (a,a,+v), (b,b,+v), (a,b,-v), (b,a,-v).
    pair_a = [w_idx.ravel()]                 # memristor bridges the planes
    pair_b = [b_idx.ravel()]
    pair_v = [g.ravel()]
    if cols > 1:                             # wordline chain towards j = 0
        pair_a.append(w_idx[:, 1:].ravel())
        pair_b.append(w_idx[:, :-1].ravel())
        pair_v.append(np.full((cols - 1) * rows, g_wire, dtype=np.float64))
    if rows > 1:                             # bitline chain towards i = rows-1
        pair_a.append(b_idx[:-1, :].ravel())
        pair_b.append(b_idx[1:, :].ravel())
        pair_v.append(np.full((rows - 1) * cols, g_wire, dtype=np.float64))
    a = np.concatenate(pair_a)
    b = np.concatenate(pair_b)
    v = np.concatenate(pair_v)

    # Source terminals: wordline drivers at j = 0, TIA virtual grounds
    # at i = rows-1 — diagonal-only entries.
    src = np.concatenate([w_idx[:, 0], b_idx[-1, :]])
    coo_rows = np.concatenate([a, b, a, b, src])
    coo_cols = np.concatenate([a, b, b, a, src])
    coo_vals = np.concatenate([v, v, -v, -v, np.full(src.size, g_wire, dtype=np.float64)])
    return sparse.coo_matrix(
        (coo_vals, (coo_rows, coo_cols)), shape=(n, n)
    ).tocsc()


class NodalSolver:
    """Exact IR-drop solver for one conductance state of a crossbar.

    Construction pays the assembly + factorization + transfer-matrix
    cost once; :meth:`solve` then answers arbitrary input batches with
    a single dense product.  ``r_wire = 0`` degenerates to the ideal
    crossbar (``T = g``) with no sparse work at all.
    """

    def __init__(self, conductances: np.ndarray, r_wire: float) -> None:
        g = np.asarray(conductances, dtype=np.float64)
        if g.ndim != 2:
            raise ShapeError(f"conductances must be 2-D, got shape {g.shape}")
        if r_wire < 0:
            raise ConfigurationError(f"r_wire must be >= 0, got {r_wire}")
        self.rows, self.cols = g.shape
        self.r_wire = float(r_wire)
        if self.r_wire == 0.0:
            self._transfer = np.array(g)
        else:
            g_wire = 1.0 / self.r_wire
            n = 2 * self.rows * self.cols
            drive = np.arange(self.rows) * self.cols
            bottom = (
                self.rows * self.cols
                + (self.rows - 1) * self.cols
                + np.arange(self.cols)
            )
            with PROFILER.timer("kernels.factorize"):
                lu = splu(assemble_nodal_matrix(g, g_wire))
                # Transfer matrix: column k of E is the unit drive of
                # input k scaled by the driver conductance; the bottom
                # node voltages times g_wire are the TIA currents.
                unit_drives = np.zeros((n, self.rows), dtype=np.float64)
                unit_drives[drive, np.arange(self.rows)] = g_wire
                self._transfer = np.ascontiguousarray(
                    lu.solve(unit_drives)[bottom].T * g_wire
                )
            PROFILER.increment("kernels.factorizations")
        self._transfer.setflags(write=False)

    @property
    def transfer_matrix(self) -> np.ndarray:
        """The dense ``(rows, cols)`` input→current map (read-only)."""
        return self._transfer

    def solve(self, v_in: np.ndarray) -> np.ndarray:
        """TIA currents for a single vector ``(rows,)`` or batch ``(b, rows)``.

        Batched results are bit-identical to per-vector results (the
        einsum reduction is row-stable; see module docstring).
        """
        v = np.asarray(v_in, dtype=np.float64)
        single = v.ndim == 1
        v2 = np.atleast_2d(v)
        if v2.ndim != 2 or v2.shape[-1] != self.rows:
            raise ShapeError(
                f"v_in must have shape ({self.rows},) or (batch, {self.rows}), "
                f"got {v.shape}"
            )
        PROFILER.increment("kernels.solves", v2.shape[0])
        out = np.einsum("bi,ij->bj", v2, self._transfer)
        return out[0] if single else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodalSolver({self.rows}x{self.cols}, r_wire={self.r_wire:g})"
        )


class FactorizationCache:
    """State-versioned cache of :class:`NodalSolver` objects.

    One slot per wire resistance, each tagged with the owning array's
    ``state_version`` at build time; a version mismatch (the array was
    reprogrammed, tuned, drifted, or fault-injected) rebuilds.  When
    :func:`cache_enabled` is off every lookup rebuilds, which the
    benchmarks use as the uncached reference.
    """

    def __init__(self) -> None:
        self._slots: Dict[float, Tuple[int, NodalSolver]] = {}

    def get(
        self,
        state_version: int,
        r_wire: float,
        build: Callable[[], NodalSolver],
    ) -> NodalSolver:
        """Return a solver valid for ``state_version``, building on miss."""
        if not _CACHE_ENABLED:
            PROFILER.increment("kernels.cache_bypassed")
            return build()
        cached = self._slots.get(r_wire)
        if cached is not None and cached[0] == state_version:
            PROFILER.increment("kernels.cache_hits")
            return cached[1]
        PROFILER.increment("kernels.cache_misses")
        solver = build()
        self._slots[r_wire] = (state_version, solver)
        return solver

    def invalidate(self) -> None:
        """Drop every cached factorization."""
        self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)
