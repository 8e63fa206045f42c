"""Array-vectorized crossbar of memristors."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.fastpath import vectorized_enabled
from repro.core.kernels import FactorizationCache, NodalSolver, cache_enabled
from repro.core.profiling import PROFILER
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, ShapeError
from repro.rng import SeedLike, ensure_rng


class Crossbar:
    """A ``rows x cols`` array of memristors with shared device config.

    The electrical model follows the paper's Fig. 1: input voltages are
    applied on the rows, each column ``j`` collects the current
    ``I_j = sum_i V_i * g_ij`` and a transimpedance stage converts it to
    ``V_out_j = I_j * r_tia``.

    Aging bookkeeping is per device: every programming pulse adds
    ``pulse_width`` seconds of stress to the touched devices, and the
    aged window of each device follows Eq. (6)–(7) of the paper.  A
    device whose window has collapsed is *dead*: it stays at its pinned
    resistance and ignores further programming (the array keeps
    operating with whatever value is stuck there — matching how a real
    array fails gradually rather than atomically).

    **State versioning (DESIGN.md §9).**  Every mutation of the
    programmed state — ``program``, ``step_levels``,
    ``step_conductance``, ``apply_drift``, fault injection, or any
    direct assignment to :attr:`resistance` — bumps the monotonically
    increasing :attr:`state_version`.  The version keys two caches that
    make simulated *reads* cheap relative to simulated *programming*:
    the noise-free conductance matrix (:meth:`conductances`) and the
    exact IR-drop factorization (:meth:`nodal_solver`).  Reads never
    bump the version; fault-free reads also never draw RNG, so caching
    cannot perturb any random stream.

    A second counter tracks *stress* mutations only (pulse aging, fault
    injection) and keys the aged-bounds/dead-mask caches of the
    vectorized pulse path (:meth:`program_pulses`, DESIGN.md §11):
    resistance moves between aging events leave the aged window — a
    pure function of the stress history — untouched, so its arrays are
    reused bit for bit.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        config: Optional[DeviceConfig] = None,
        r_tia: float = 1e3,
        seed: SeedLike = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"crossbar shape must be positive, got {rows}x{cols}")
        if r_tia <= 0:
            raise ConfigurationError(f"r_tia must be > 0, got {r_tia}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.config = config if config is not None else DeviceConfig()
        self.r_tia = float(r_tia)
        self.grid = self.config.make_level_grid()
        self.aging = self.config.make_aging_model()
        self._rng = ensure_rng(seed)

        #: Monotonic counter of programmed-state mutations; keys the
        #: conductance and factorization caches (DESIGN.md §9).
        self._state_version = 0
        self._conductance_cache: Optional[Tuple[int, np.ndarray]] = None
        self._solver_cache = FactorizationCache()
        #: Monotonic counter of *stress* mutations (pulse aging, fault
        #: injection); keys the aged-bounds/dead-mask caches of the
        #: vectorized pulse path (DESIGN.md §11).  Resistance writes do
        #: not age devices and leave these caches valid.
        self._stress_version = 0
        self._bounds_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._dead_cache: Optional[Tuple[int, np.ndarray]] = None

        shape = (self.rows, self.cols)
        if self.config.variability is not None:
            lo, hi = self.config.variability.sample_bounds(
                self.config.r_min, self.config.r_max, shape, self._rng
            )
            self.r_fresh_min, self.r_fresh_max = lo, hi
        else:
            self.r_fresh_min = np.full(shape, self.config.r_min, dtype=np.float64)
            self.r_fresh_max = np.full(shape, self.config.r_max, dtype=np.float64)
        #: Per-device programming pulse counters.
        self.pulse_counts = np.zeros(shape, dtype=np.int64)
        #: Per-device accumulated stress time (s).
        self.stress_time = np.zeros(shape, dtype=np.float64)
        #: Programmed resistances; fresh devices wake up in their HRS.
        self.resistance = self.r_fresh_max.copy()
        #: Fault-injection controls (set by
        #: :class:`repro.robustness.FaultSchedule`): additional relative
        #: read-noise sigma on top of ``config.read_noise``, and the
        #: probability that a programming/tuning pulse silently fails to
        #: fire (driver fault: no state change, no stress).
        self.read_noise_extra = 0.0
        self.pulse_miss_rate = 0.0

    # -- state versioning --------------------------------------------------
    @property
    def resistance(self) -> np.ndarray:
        """Programmed resistance matrix.

        Assigning to this attribute (as every programming routine and
        fault hook does) bumps :attr:`state_version`.  Callers that
        mutate the array in place must call :meth:`mark_state_dirty`
        themselves — in-repo writers always assign.
        """
        return self._resistance

    @resistance.setter
    def resistance(self, value: np.ndarray) -> None:
        self._resistance = value
        # A resistance write invalidates the read-path caches but not
        # the aged-bounds caches: programming moves values, not stress.
        self._invalidate_read_caches()

    @property
    def state_version(self) -> int:
        """Monotonic count of programmed-state mutations."""
        return self._state_version

    def _invalidate_read_caches(self) -> None:
        self._state_version += 1
        self._conductance_cache = None
        self._solver_cache.invalidate()

    def _invalidate_stress_caches(self) -> None:
        self._stress_version += 1
        self._bounds_cache = None
        self._dead_cache = None

    def mark_state_dirty(self) -> None:
        """Invalidate every cached view after an out-of-band mutation.

        Bumps :attr:`state_version`, drops the cached conductance
        matrix and nodal factorizations, and also drops the aged-bounds
        and dead-mask caches (fault injection mutates ``stress_time``
        in place and relies on this hook).  Call it after mutating
        ``stress_time`` or ``resistance`` in place; in-repo writers
        assign :attr:`resistance`, whose setter invalidates only the
        read-path caches.
        """
        self._invalidate_read_caches()
        self._invalidate_stress_caches()

    # -- aging state ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def aged_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device ``(R_aged,min, R_aged,max)`` arrays.

        Cached per stress version on the vectorized path (DESIGN.md
        §11): the bounds are a deterministic function of the stress
        history, so between aging events every read — dead-mask checks,
        quantization windows, tracer estimates, window bookkeeping —
        reuses the same (read-only) arrays bit for bit.
        """
        cached = self._bounds_cache
        if (
            cached is not None
            and cached[0] == self._stress_version
            and cache_enabled()
            and vectorized_enabled()
        ):
            PROFILER.increment("crossbar.bounds_cache_hits")
            return cached[1], cached[2]
        lo, hi = self.aging.aged_bounds(
            self.r_fresh_min, self.r_fresh_max, self.config.temperature, self.stress_time
        )
        if cache_enabled() and vectorized_enabled():
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._bounds_cache = (self._stress_version, lo, hi)
        return lo, hi

    def dead_mask(self) -> np.ndarray:
        """Devices with fewer than two usable levels left (end-of-life).

        Cached per stress version alongside :meth:`aged_bounds`.
        """
        cached = self._dead_cache
        if (
            cached is not None
            and cached[0] == self._stress_version
            and cache_enabled()
            and vectorized_enabled()
        ):
            return cached[1]
        mask = self.usable_level_counts() < 2
        if cache_enabled() and vectorized_enabled():
            mask.setflags(write=False)
            self._dead_cache = (self._stress_version, mask)
        return mask

    def dead_fraction(self) -> float:
        """Fraction of dead devices in the array."""
        return float(np.mean(self.dead_mask()))

    def usable_level_counts(self) -> np.ndarray:
        """Per-device number of surviving quantized levels."""
        lo, hi = self.aged_bounds()
        return self.grid.usable_count(lo, hi)

    def total_pulses(self) -> int:
        """Sum of all programming pulses ever applied to the array."""
        return int(self.pulse_counts.sum())

    # -- programming -----------------------------------------------------------
    def _apply_stress(self, mask: np.ndarray, at_resistance: np.ndarray) -> None:
        """Accrue one pulse of stress on masked devices.

        The stress contribution of a pulse scales with the programming
        current through the device (``DeviceConfig.stress_factor``):
        devices sitting at large resistance age slower — the physical
        lever of the skewed training.
        """
        self.pulse_counts[mask] += 1
        factor = self.config.stress_factor(at_resistance)
        self.stress_time[mask] += self.config.pulse_width * factor[mask]
        self._invalidate_stress_caches()

    def _apply_pulse_misses(self, select: np.ndarray) -> np.ndarray:
        """Drop selected devices whose programming pulse silently fails.

        A missed pulse is a driver/selector fault: the device neither
        moves nor accrues stress.  Draws are only made when the miss
        rate is nonzero so fault-free runs consume the exact same RNG
        stream as before the fault hooks existed.
        """
        if self.pulse_miss_rate <= 0:
            return select
        fired = self._rng.random(self.shape) >= self.pulse_miss_rate
        return select & fired

    def program(
        self,
        targets: np.ndarray,
        only_changed: bool = True,
    ) -> np.ndarray:
        """Program the whole array towards ``targets`` (resistances).

        Each *selected* device receives one programming pulse (stress),
        then lands on the nearest usable fresh-grid level inside its
        aged window, plus write noise.  With ``only_changed=True``
        (default) devices already within half a level step of their
        target are skipped — they receive no pulse and keep their value,
        modelling a program-and-verify controller that does not pulse
        devices that are already correct.

        Dead devices are never pulsed and keep their pinned value.
        Returns the achieved resistance matrix.
        """
        self._program_impl(targets, only_changed)
        return self.resistance.copy()

    def _program_impl(self, targets: np.ndarray, only_changed: bool) -> np.ndarray:
        """Shared body of :meth:`program` / :meth:`program_targets`.

        Returns the boolean *select* mask of devices that actually
        received a pulse (post miss-draw) — both public entry points
        run the identical operation sequence, so the scalar and batched
        programming paths are bit-identical by construction.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != self.shape:
            raise ShapeError(f"targets shape {targets.shape} != crossbar {self.shape}")
        if np.any(targets <= 0):
            raise ConfigurationError("target resistances must be > 0")

        alive = ~self.dead_mask()
        if only_changed:
            needs = np.abs(targets - self.resistance) > 0.5 * self.grid.step
            select = alive & needs
        else:
            select = alive
        select = self._apply_pulse_misses(select)
        # Stress scales with the current at the programmed target: the
        # pulse drives the device towards (and holds it at) the target
        # resistance, so the target sets the dissipated power.
        self._apply_stress(select, np.clip(targets, self.grid.r_min * 0.1, None))

        lo, hi = self.aged_bounds()
        achieved = self.grid.quantize(targets, lo, hi)
        if self.config.write_noise > 0:
            noise = self._rng.normal(
                0.0, self.config.write_noise * self.grid.step, size=self.shape
            )
            achieved = np.clip(achieved + noise, lo, hi)
        self.resistance = np.where(select, achieved, self.resistance)
        return select

    def program_targets(self, targets: np.ndarray, only_changed: bool = True) -> int:
        """Batched programming: :meth:`program` without the result copy.

        Same draws, same arithmetic, same state transitions as
        :meth:`program`; skips materializing the achieved-resistance
        return value that batch callers (the mapper) discard.  Returns
        the number of devices that actually received a pulse.
        """
        return int(np.count_nonzero(self._program_impl(targets, only_changed)))

    def step_levels(self, directions: np.ndarray) -> np.ndarray:
        """Apply one ±1-level tuning pulse per selected device.

        ``directions`` holds -1/0/+1 per device (the sign of Eq. (5));
        nonzero entries receive one pulse and move one level step,
        clipped to their aged window.  Dead devices ignore pulses.
        Returns the new resistance matrix.
        """
        directions = np.asarray(directions)
        if directions.shape != self.shape:
            raise ShapeError(f"directions shape {directions.shape} != crossbar {self.shape}")
        if not np.all(np.isin(directions, (-1, 0, 1))):
            raise ConfigurationError("directions must contain only -1, 0, 1")

        select = self._apply_pulse_misses((directions != 0) & ~self.dead_mask())
        self._apply_stress(select, self.resistance)
        lo, hi = self.aged_bounds()
        stepped = self.resistance + directions * self.grid.step
        if self.config.write_noise > 0:
            stepped = stepped + self._rng.normal(
                0.0, self.config.write_noise * self.grid.step, size=self.shape
            )
        stepped = np.clip(stepped, lo, hi)
        self.resistance = np.where(select, stepped, self.resistance)
        return self.resistance.copy()

    def step_conductance(self, directions: np.ndarray, fraction: float = 0.5) -> np.ndarray:
        """Apply one constant-amplitude tuning pulse per selected device.

        Unlike :meth:`step_levels` (which jumps a full *resistance*
        level — the mapping granularity), a tuning pulse modulates the
        filament and moves the **conductance** by an approximately
        constant increment: ``fraction`` of the mean conductance spacing
        ``(g_max - g_min)/(n_levels - 1)``.  ``directions`` holds
        -1/0/+1 in the *conductance* domain (+1 grows the filament).
        This is the Eq. (5) hardware primitive: polarity from the
        gradient sign, amplitude constant.  Clipped to the aged window;
        dead devices ignore pulses.  Returns the new resistances.
        """
        directions = np.asarray(directions)
        if directions.shape != self.shape:
            raise ShapeError(f"directions shape {directions.shape} != crossbar {self.shape}")
        if not np.all(np.isin(directions, (-1, 0, 1))):
            raise ConfigurationError("directions must contain only -1, 0, 1")
        if fraction <= 0:
            raise ConfigurationError(f"fraction must be > 0, got {fraction}")

        self._pulse_impl(directions, directions != 0, fraction)
        return self.resistance.copy()

    def _pulse_impl(
        self, directions: np.ndarray, active: np.ndarray, fraction: float
    ) -> np.ndarray:
        """Shared body of :meth:`step_conductance` / :meth:`program_pulses`.

        ``active`` is the precomputed ``directions != 0`` mask (batch
        callers already hold it).  Returns the boolean *select* mask of
        devices that actually fired (post miss-draw).  RNG draw order is
        part of the contract: one miss draw (only when
        ``pulse_miss_rate > 0``), then one write-noise draw (only when
        ``write_noise > 0``), each over the full tile shape.

        Two bodies, bit-identical by contract: the vectorized one
        updates the whole array at once; the ``REPRO_SCALAR_TUNER``
        reference transcribes the paper's Eq. (5) pulse loop device by
        device (the oracle the equivalence battery diffs against).
        Both share the same RNG draws and the same device-physics
        evaluations (stress accrual, aged bounds), and the per-device
        arithmetic involves only exact elementwise IEEE ops, so the two
        bodies produce identical conductances, streams and versions.
        """
        select = self._apply_pulse_misses(active & ~self.dead_mask())
        self._apply_stress(select, self.resistance)
        g_step = fraction * (self.config.g_max - self.config.g_min) / (self.grid.n_levels - 1)
        noise = (
            self._rng.normal(0.0, self.config.write_noise * g_step, size=self.shape)
            if self.config.write_noise > 0
            else None
        )
        lo, hi = self.aged_bounds()
        if vectorized_enabled():
            g_new = 1.0 / self.resistance + directions * g_step
            if noise is not None:
                g_new = g_new + noise
            # Convert back to resistance; keep conductance positive first.
            g_new = np.maximum(g_new, 1.0 / np.maximum(hi, 1.0))
            stepped = np.clip(1.0 / g_new, lo, hi)
            self.resistance = np.where(select, stepped, self.resistance)
            return select
        # Reference implementation: one device at a time.  min/max/clip
        # and +-*/ are elementwise-exact, so each device's value equals
        # the vectorized result bit for bit; unselected devices keep
        # their resistance, exactly like the masked np.where above.
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

    def program_pulses(
        self, mask: np.ndarray, polarity: np.ndarray, fraction: float = 0.5
    ) -> int:
        """Batched tuning-pulse path: trusted-input :meth:`step_conductance`.

        ``mask`` is the boolean pulse-selection mask and ``polarity``
        the signed direction array; the caller must guarantee
        ``mask == (polarity != 0)`` (the tuning sweep derives the mask
        from the thresholded sign matrix, so this holds by
        construction).  Skips the per-call ``isin`` validation and the
        achieved-resistance return copy of the scalar path; every draw
        and every arithmetic operation is otherwise identical, which is
        what makes the vectorized tuner bit-identical to the
        ``REPRO_SCALAR_TUNER`` reference.  Returns the number of pulses
        that actually fired (post pulse-miss, post dead-mask).
        """
        return int(np.count_nonzero(self._pulse_impl(polarity, mask, fraction)))

    def apply_drift(self, magnitude: float, rng: SeedLike = None) -> np.ndarray:
        """Conductance drift from repeated reading (paper's ref [8]).

        Unlike aging, drift is *recoverable* by reprogramming and adds
        no stress: each programmed resistance takes a lognormal
        multiplicative step of shape ``magnitude`` and is clipped back
        into the device's aged window.  The lifetime engine applies this
        after every application window, which is what forces the
        periodic remap + retune cycle.
        """
        if magnitude < 0:
            raise ConfigurationError(f"drift magnitude must be >= 0, got {magnitude}")
        if magnitude == 0:
            return self.resistance.copy()
        gen = ensure_rng(rng) if rng is not None else self._rng
        factors = gen.lognormal(0.0, magnitude, size=self.shape)
        lo, hi = self.aged_bounds()
        self.resistance = np.clip(self.resistance * factors, lo, hi)
        return self.resistance.copy()

    # -- read-out ---------------------------------------------------------------
    def read_resistances(self) -> np.ndarray:
        """Resistance read-out (with read noise if configured).

        Injected noise (``read_noise_extra``, from a fault schedule)
        adds in sigma on top of the device config's intrinsic noise.
        """
        sigma = self.config.read_noise + self.read_noise_extra
        if sigma <= 0:
            return self.resistance.copy()
        noisy = self.resistance * (
            1.0 + self._rng.normal(0.0, sigma, size=self.shape)
        )
        return np.maximum(noisy, 1e-3)

    def conductances(self) -> np.ndarray:
        """Programmed conductance matrix ``G`` (noise-free).

        Cached per :attr:`state_version`; the returned array is
        read-only so the cache cannot be corrupted through an alias.
        Deterministic (no RNG draw), so caching is invisible to every
        random stream.
        """
        cached = self._conductance_cache
        if (
            cache_enabled()
            and cached is not None
            and cached[0] == self._state_version
        ):
            PROFILER.increment("crossbar.conductance_cache_hits")
            return cached[1]
        g = 1.0 / self._resistance
        g.setflags(write=False)
        if cache_enabled():
            PROFILER.increment("crossbar.conductance_cache_misses")
            self._conductance_cache = (self._state_version, g)
        return g

    def read_conductances(self) -> np.ndarray:
        """Conductance matrix as seen by a read (noise included).

        Noise-free reads hit the :meth:`conductances` cache; noisy
        reads must sample fresh resistances every call (each read draws
        its own noise) and are never cached.
        """
        if self.config.read_noise + self.read_noise_extra <= 0:
            return self.conductances()
        return 1.0 / self.read_resistances()

    def nodal_solver(self, model: "ParasiticModel") -> NodalSolver:
        """Exact IR-drop solver for the current state, cached per version.

        ``model`` is a :class:`repro.crossbar.parasitics.ParasiticModel`
        (typed loosely to keep this module import-light).  Repeated
        calls between reprogramming events return the same factorized
        solver; any state mutation rebuilds on next use.
        """
        return self._solver_cache.get(
            self._state_version,
            model.r_wire,
            lambda: NodalSolver(self.conductances(), model.r_wire),
        )

    def vmm(self, v_in: np.ndarray) -> np.ndarray:
        """Analog vector-matrix multiply ``V_O = V_I · G · R_tia``.

        ``v_in`` may be a single vector ``(rows,)`` or a batch
        ``(batch, rows)``.
        """
        v_in = np.asarray(v_in, dtype=np.float64)
        if v_in.shape[-1] != self.rows:
            raise ShapeError(
                f"input width {v_in.shape[-1]} != crossbar rows {self.rows}"
            )
        PROFILER.increment("crossbar.vmm_calls")
        return v_in @ self.read_conductances() * self.r_tia

    def vmm_ir_drop(
        self,
        v_in: np.ndarray,
        model: "ParasiticModel",
        exact: bool = False,
    ) -> np.ndarray:
        """VMM with wire parasitics (noise-free read path).

        The exact path reuses this array's cached factorization
        (:meth:`nodal_solver`), so a batch of reads between
        reprogramming events costs one dense product.  Output includes
        the TIA gain, matching :meth:`vmm` at ``r_wire = 0``.
        """
        from repro.crossbar.parasitics import vmm_with_ir_drop

        PROFILER.increment("crossbar.vmm_calls")
        g = self.conductances()
        solver = self.nodal_solver(model) if exact else None
        return (
            vmm_with_ir_drop(g, v_in, model, exact=exact, solver=solver)
            * self.r_tia
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Crossbar({self.rows}x{self.cols}, pulses={self.total_pulses()}, "
            f"dead={self.dead_fraction():.1%})"
        )
