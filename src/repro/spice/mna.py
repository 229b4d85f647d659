"""Modified nodal analysis: residual/Jacobian assembly.

The system solves ``F(x) = 0`` with unknowns ``x = [node voltages,
branch currents]``.  Every element contributes directly to the residual
and Jacobian at the current iterate — identical maths for linear and
nonlinear elements.

Two assembly paths produce bit-compatible ``(J, F)``:

* the **reference path** (:meth:`MNASystem.assemble_reference`) walks
  every element and stamps one float at a time — simple, obviously
  correct, and the yardstick the equivalence tests measure against;
* the **compiled path** (the default) partitions the elements once at
  build time.  Elements whose stamp is affine in ``x``
  (``Element.is_linear``) are pre-stamped *once per configuration* into
  a cached constant matrix ``G_lin`` and offset ``b_lin``; a Newton
  iteration then assembles ``F = G_lin @ x + b_lin + F_nl(x)`` with a
  vectorized COO scatter (``np.add.at`` over preallocated slot arrays)
  for only the nonlinear group.  This removes the per-float Python
  dispatch of the linear elements — resistors, sources, controlled
  sources, capacitor companions — from the hot loop, which profiles
  show dominates every sweep and transient in the repo.

Two further layers ride on the compiled path:

* **vectorized device groups** (:mod:`repro.spice.groups`, the default;
  ``REPRO_VECTORIZED=0`` disables): homogeneous nonlinear devices (all
  plain BJTs, all diodes) are packed into contiguous parameter/index
  arrays at build time and each Newton evaluation computes a whole
  group's currents and conductances in one NumPy pass, removing the
  remaining per-element Python dispatch from the hot loop.  Grouping is
  *size-adaptive*: below ``REPRO_GROUP_MIN`` devices of a class (default
  12, the measured NumPy-dispatch crossover) the scalar loop is faster
  and is kept.  Elements that do not group (op-amp macros,
  substrate-attached BJTs, custom classes) keep their scalar stamp, and
  the scalar path is always available as the equivalence reference;
* a **sparse assembly mode**: at or above the solver's splu threshold
  (``REPRO_SPARSE_THRESHOLD``, default 200 unknowns) ``G_lin`` is built
  as ``scipy.sparse`` and each assembly returns a sparse Jacobian
  (linear part plus the nonlinear COO scatter), so large netlists never
  materialise a dense ``N x N`` matrix anywhere in the solve.

Cache correctness: the linear part depends only on (temperature — fixed
per system, ``gmin``, ``source_scale``, ``time``, and the integration
context's alpha/state), all of which key the cache.  Mutating element
*values* (resistance, source dc, gains of linear controlled sources,
the model parameters of a *grouped* nonlinear device) or
``temperature_override`` on a live system is not tracked — call
:meth:`MNASystem.invalidate` after doing so (it rebuilds the linear
caches and re-packs the device groups), or build a fresh system
(``solve_dc`` already builds one per call, and a Session's
``DCSweep`` plan invalidates after each source-value change).

A ``gmin`` conductance from every node to ground is always present (it
bounds the matrix condition number and is the knob the solver's gmin
stepping turns); ``source_scale`` in [0, 1] scales all independent
sources for source stepping.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from ..errors import NetlistError
from ..telemetry import tracer as _tele
from .elements.base import DynamicState, Stamp, TransientContext
from .elements.controlled import CCCS, CCVS, VCCS, VCVS
from .elements.passives import Resistor
from .groups import build_groups
from .netlist import Circuit
from .stats import STATS

try:  # scipy is an optional accelerator, not a hard dependency
    from scipy.sparse import coo_matrix as _coo_matrix
    from scipy.sparse import issparse as _issparse

    _HAVE_SPARSE = True
except ImportError:  # pragma: no cover - exercised only without scipy
    _HAVE_SPARSE = False

    def _issparse(matrix) -> bool:
        return False


def _compiled_default() -> bool:
    """Compiled assembly is the default; REPRO_COMPILED=0 disables it
    process-wide (the A/B knob the benchmarks use)."""
    return os.environ.get("REPRO_COMPILED", "1") not in ("0", "false", "no")


def _vectorized_default() -> bool:
    """Vectorized device groups are the default; REPRO_VECTORIZED=0
    routes every nonlinear element through its scalar stamp (the
    reference evaluator the equivalence harness measures against)."""
    return os.environ.get("REPRO_VECTORIZED", "1") not in ("0", "false", "no")


def _sparse_threshold() -> int:
    """Unknown count at which assembly goes ``scipy.sparse`` (matching
    the solver's default splu switch; REPRO_SPARSE_THRESHOLD tunes both
    sides of the hand-off for experiments)."""
    try:
        return int(os.environ.get("REPRO_SPARSE_THRESHOLD", "200"))
    except ValueError:
        return 200


#: Static linear element classes whose residual at ``x = 0`` is exactly
#: zero (every term is a product with an unknown).  Refreshing
#: ``b_static`` skips them; any other static linear element — the
#: independent sources, or a class not listed here — is re-stamped.
_ZERO_AT_ORIGIN = (Resistor, VCVS, VCCS, CCCS, CCVS)


class _ResidualOnlyStamp(Stamp):
    """Stamp variant for residual-only assembly (line searches evaluate
    |F| many times per Newton iteration and never look at J).

    ``wants_jacobian`` is False, so the device stamps (BJT, diode,
    op-amp) compute their currents only and never call
    :meth:`add_jacobian`; the no-op override still discards the entries
    of elements that ignore the flag.
    """

    __slots__ = ()

    wants_jacobian = False

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        return None


class _COOStamp(Stamp):
    """Stamp collecting Jacobian entries as COO triplets.

    The compiled path hands this to the nonlinear elements only; the
    collected ``(row, col, value)`` triplets are scattered into the
    dense Jacobian in one vectorized ``np.add.at`` call.  Slot arrays
    are preallocated from the elements' ``jacobian_slots`` reservations
    and grown (rarely) if an element under-declared.
    """

    __slots__ = ("rows", "cols", "vals", "n_entries")

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            n = self.n_entries
            if n == len(self.rows):
                self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
                self.cols = np.concatenate([self.cols, np.zeros_like(self.cols)])
                self.vals = np.concatenate([self.vals, np.zeros_like(self.vals)])
            self.rows[n] = row
            self.cols[n] = col
            self.vals[n] = value
            self.n_entries = n + 1


class _TripletStamp(Stamp):
    """Stamp collecting Jacobian entries as plain-list COO triplets.

    Used by the sparse assembly mode's *configuration-time* passes over
    the linear groups (run once per cached configuration, so list
    appends are fine); the triplets become a ``scipy.sparse`` matrix.
    """

    __slots__ = ("trip_rows", "trip_cols", "trip_vals")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trip_rows: list = []
        self.trip_cols: list = []
        self.trip_vals: list = []

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.trip_rows.append(row)
            self.trip_cols.append(col)
            self.trip_vals.append(value)

    def matrix(self, size: int):
        """The collected triplets as CSC (duplicates summed).

        CSC is ``splu``'s native format: emitting it here keeps the
        whole sparse pipeline — cached linear parts, per-iteration
        deltas, factorization — in one format, so the solver never pays
        a per-factorization conversion (``STATS.sparse_conversions``).
        """
        return _coo_matrix(
            (self.trip_vals, (self.trip_rows, self.trip_cols)),
            shape=(size, size),
        ).tocsc()


class CompiledAssembler:
    """Partitioned fast assembly for one :class:`MNASystem`.

    Cached pieces (all per-system, so per-temperature):

    ``G_static``
        Jacobian of the non-dynamic linear elements plus the gmin
        diagonal; keyed by ``gmin``.
    ``b_static``
        Residual of the same group at ``x = 0`` (source injections,
        branch-equation targets); keyed by ``(source_scale, time)``.
        When only that key moves, just the elements in
        ``static_sources`` are re-stamped: the rest contribute exactly
        zero at the origin.
    ``C_pattern``
        Jacobian of the dynamic linear elements at unit alpha — a
        capacitance pattern; computed once, scaled by the step's alpha.
    ``b_dynamic``
        Companion-model residual offsets (``-alpha*q_prev - beta*i_prev``
        terms); keyed by the integration context's ``serial``.

    Nonlinear elements split again: homogeneous devices go through the
    vectorized groups of :mod:`repro.spice.groups` (one NumPy pass per
    group per iteration), the rest stay on their scalar ``stamp``.  In
    sparse mode (``size >= REPRO_SPARSE_THRESHOLD`` with scipy present)
    every linear cache is a ``scipy.sparse`` CSC matrix and
    :meth:`assemble` returns a CSC Jacobian — splu's native format — so
    nothing ever densifies and nothing is format-converted per
    iteration.
    """

    def __init__(
        self,
        system: "MNASystem",
        vectorized: Optional[bool] = None,
        sparse: Optional[bool] = None,
    ):
        self.system = system
        elements = system.circuit.elements
        self.linear_static = [
            el for el in elements if el.is_linear and not el.is_dynamic
        ]
        self.linear_dynamic = [el for el in elements if el.is_linear and el.is_dynamic]
        self.static_sources = [
            el for el in self.linear_static if type(el) not in _ZERO_AT_ORIGIN
        ]
        self.nonlinear = [el for el in elements if not el.is_linear]
        # vectorized: None = env default with the adaptive size
        # threshold; True = force grouping regardless of size (the
        # equivalence tests and device benchmarks); False = scalar only.
        min_size = None
        if vectorized is None:
            vectorized = _vectorized_default()
        elif vectorized:
            min_size = 1
        self.vectorized = bool(vectorized)
        self._group_min = min_size
        self._build_groups()
        if sparse is None:
            sparse = _HAVE_SPARSE and system.size >= _sparse_threshold()
        self.sparse = bool(sparse) and _HAVE_SPARSE
        capacity = max(sum(el.jacobian_slots() for el in self.scalar_nonlinear), 1)
        self._rows = np.zeros(capacity, dtype=np.intp)
        self._cols = np.zeros(capacity, dtype=np.intp)
        self._vals = np.zeros(capacity, dtype=float)
        #: Extended-iterate buffer [x, 0.0] the groups gather from (the
        #: trailing zero is the ground slot).
        self._x_ext = np.zeros(system.size + 1)
        self._g_static: Optional[np.ndarray] = None
        self._g_static_key: Optional[float] = None
        self._b_static: Optional[np.ndarray] = None
        self._b_static_key: Optional[Tuple[float, Optional[float]]] = None
        self._c_pattern: Optional[np.ndarray] = None
        self._g_lin: Optional[np.ndarray] = None
        self._g_lin_key: Optional[Tuple[float, float]] = None
        self._b_dyn: Optional[np.ndarray] = None
        self._b_dyn_key: Optional[int] = None
        self._b_comb: Optional[np.ndarray] = None
        self._b_comb_key: Optional[Tuple] = None

    def _build_groups(self) -> None:
        """(Re)pack the vectorized device groups from the live elements.

        Called at build time and again from :meth:`invalidate`: the
        packed parameter arrays are snapshots, so mutating a grouped
        device's model values (or ``temperature_override``) on a live
        system follows the same invalidate contract as mutating a
        linear element's value.
        """
        if self.vectorized:
            self.groups, self.scalar_nonlinear = build_groups(
                self.nonlinear, self.system.size, min_size=self._group_min
            )
        else:
            self.groups, self.scalar_nonlinear = [], list(self.nonlinear)

    # -- linear-group passes -------------------------------------------
    def _base_stamp(self, cls, x, jacobian, residual, gmin, source_scale,
                    time, transient):
        return cls(
            x=x,
            jacobian=jacobian,
            residual=residual,
            temperature_k=self.system.temperature_k,
            gmin=gmin,
            source_scale=source_scale,
            time=time,
            transient=transient,
        )

    def _static_pass(self, gmin: float, source_scale: float,
                     time: Optional[float]) -> None:
        """Full (J, F) stamp of the static linear group at ``x = 0``."""
        size = self.system.size
        residual = np.zeros(size)
        if self.sparse:
            stamp = self._base_stamp(
                _TripletStamp, np.zeros(size), None, residual, gmin,
                source_scale, time, None,
            )
            for node in range(self.system.n_nodes):
                stamp.add_jacobian(node, node, gmin)
            for el in self.linear_static:
                el.stamp(stamp)
            self._g_static = stamp.matrix(size)
        else:
            jacobian = np.zeros((size, size))
            stamp = self._base_stamp(
                Stamp, np.zeros(size), jacobian, residual, gmin,
                source_scale, time, None,
            )
            for node in range(self.system.n_nodes):
                jacobian[node, node] += gmin
            for el in self.linear_static:
                el.stamp(stamp)
            self._g_static = jacobian
        self._g_static_key = gmin
        self._b_static = residual
        self._b_static_key = (source_scale, time)
        # Derived caches are built from G_static: drop them.
        self._g_lin_key = None
        self._b_comb_key = None

    def _static_residual_pass(self, gmin: float, source_scale: float,
                              time: Optional[float]) -> None:
        """Refresh only ``b_static`` (source values moved, J unchanged).

        Bit-identical to the full pass's residual: the skipped elements
        would only add signed zeros.
        """
        size = self.system.size
        residual = np.zeros(size)
        stamp = self._base_stamp(
            _ResidualOnlyStamp, np.zeros(size), None, residual, gmin,
            source_scale, time, None,
        )
        for el in self.static_sources:
            el.stamp(stamp)
        self._b_static = residual
        self._b_static_key = (source_scale, time)
        self._b_comb_key = None

    def _capacitance_pattern(self) -> np.ndarray:
        """Jacobian of the dynamic linear group at alpha=1 (computed once)."""
        if self._c_pattern is None:
            size = self.system.size
            states = {el.name: DynamicState() for el in self.linear_dynamic}
            unit_ctx = TransientContext(dt=1.0, method="be", states=states)
            if self.sparse:
                stamp = self._base_stamp(
                    _TripletStamp, np.zeros(size), None, np.zeros(size), 0.0,
                    1.0, None, unit_ctx,
                )
                for el in self.linear_dynamic:
                    el.stamp(stamp)
                self._c_pattern = stamp.matrix(size)
            else:
                jacobian = np.zeros((size, size))
                stamp = self._base_stamp(
                    Stamp, np.zeros(size), jacobian, np.zeros(size), 0.0, 1.0,
                    None, unit_ctx,
                )
                for el in self.linear_dynamic:
                    el.stamp(stamp)
                self._c_pattern = jacobian
        return self._c_pattern

    def _dynamic_residual(self, gmin: float, source_scale: float,
                          time: Optional[float],
                          transient: TransientContext) -> np.ndarray:
        """Companion residual of the dynamic group at ``x = 0``."""
        residual = np.zeros(self.system.size)
        stamp = self._base_stamp(
            _ResidualOnlyStamp, np.zeros(self.system.size), None, residual,
            gmin, source_scale, time, transient,
        )
        for el in self.linear_dynamic:
            el.stamp(stamp)
        return residual

    def _linear_parts(
        self,
        gmin: float,
        source_scale: float,
        time: Optional[float],
        transient: Optional[TransientContext],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the cached ``(G_lin, b_lin)`` for this configuration."""
        if self._g_static_key != gmin:
            self._static_pass(gmin, source_scale, time)
        elif self._b_static_key != (source_scale, time):
            self._static_residual_pass(gmin, source_scale, time)
        if transient is None:
            return self._g_static, self._b_static
        g_key = (gmin, transient.alpha)
        if self._g_lin_key != g_key:
            self._g_lin = self._g_static + transient.alpha * self._capacitance_pattern()
            self._g_lin_key = g_key
        if self._b_dyn_key != transient.serial:
            self._b_dyn = self._dynamic_residual(gmin, source_scale, time, transient)
            self._b_dyn_key = transient.serial
            self._b_comb_key = None
        b_key = (self._b_static_key, transient.serial)
        if self._b_comb_key != b_key:
            self._b_comb = self._b_static + self._b_dyn
            self._b_comb_key = b_key
        return self._g_lin, self._b_comb

    # -- public assembly -----------------------------------------------
    def _scalar_nonlinear_coo(self, x, residual, gmin, source_scale, time,
                              transient) -> int:
        """Stamp the ungrouped nonlinear elements into the COO slots."""
        stamp = self._base_stamp(
            _COOStamp, x, None, residual, gmin, source_scale, time, transient
        )
        stamp.rows, stamp.cols, stamp.vals = self._rows, self._cols, self._vals
        stamp.n_entries = 0
        for el in self.scalar_nonlinear:
            el.stamp(stamp)
        # Keep (possibly grown) slot arrays for the next iteration.
        self._rows, self._cols, self._vals = stamp.rows, stamp.cols, stamp.vals
        return stamp.n_entries

    def assemble(self, x, gmin, source_scale, time, transient):
        g_lin, b_lin = self._linear_parts(gmin, source_scale, time, transient)
        residual = g_lin @ x + b_lin
        groups = self.groups
        ambient = self.system.temperature_k
        if self.sparse:
            triplets = []
            if groups:
                x_ext = self._x_ext
                x_ext[:-1] = x
                for group in groups:
                    STATS.group_evals += 1
                    STATS.grouped_device_evals += group.n
                    triplets.append(
                        group.stamp_full(x_ext, residual, gmin, ambient)
                    )
            n = self._scalar_nonlinear_coo(
                x, residual, gmin, source_scale, time, transient
            )
            if n:
                triplets.append(
                    (self._rows[:n], self._cols[:n], self._vals[:n])
                )
            STATS.sparse_assemblies += 1
            if not triplets:
                return g_lin.copy(), residual
            rows = np.concatenate([t[0] for t in triplets])
            cols = np.concatenate([t[1] for t in triplets])
            vals = np.concatenate([t[2] for t in triplets])
            size = self.system.size
            delta = _coo_matrix((vals, (rows, cols)), shape=(size, size))
            # CSC + CSC stays CSC all the way into splu.
            return (g_lin + delta.tocsc()), residual
        jacobian = g_lin.copy()
        if groups:
            x_ext = self._x_ext
            x_ext[:-1] = x
            for group in groups:
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
                rows, cols, vals = group.stamp_full(x_ext, residual, gmin, ambient)
                if rows.size:
                    np.add.at(jacobian, (rows, cols), vals)
        n = self._scalar_nonlinear_coo(
            x, residual, gmin, source_scale, time, transient
        )
        if n:
            np.add.at(jacobian, (self._rows[:n], self._cols[:n]), self._vals[:n])
        return jacobian, residual

    def assemble_residual(self, x, gmin, source_scale, time, transient):
        g_lin, b_lin = self._linear_parts(gmin, source_scale, time, transient)
        residual = g_lin @ x + b_lin
        groups = self.groups
        if groups:
            x_ext = self._x_ext
            x_ext[:-1] = x
            ambient = self.system.temperature_k
            for group in groups:
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
                group.stamp_residual(x_ext, residual, gmin, ambient)
        if self.scalar_nonlinear:
            stamp = self._base_stamp(
                _ResidualOnlyStamp, x, None, residual, gmin, source_scale,
                time, transient,
            )
            for el in self.scalar_nonlinear:
                el.stamp(stamp)
        return residual

    def invalidate(self) -> None:
        """Drop every cached linear part (element values were mutated)
        and re-pack the device groups (their parameter arrays and
        temperature-override snapshots are build-time copies)."""
        self._g_static_key = None
        self._b_static_key = None
        self._c_pattern = None
        self._g_lin_key = None
        self._b_dyn_key = None
        self._b_comb_key = None
        self._build_groups()


class MNASystem:
    """Assembles F(x) and J(x) for a circuit at given conditions."""

    def __init__(
        self,
        circuit: Circuit,
        temperature_k: float = 300.15,
        compiled: Optional[bool] = None,
        vectorized: Optional[bool] = None,
        sparse: Optional[bool] = None,
    ):
        """Build the system and bind every element's global indices.

        ``compiled``/``vectorized``/``sparse`` override the process-wide
        defaults (``REPRO_COMPILED``, ``REPRO_VECTORIZED``, the
        ``REPRO_SPARSE_THRESHOLD`` size switch) for this system — the
        hooks the equivalence tests use to pin one path per instance.
        """
        circuit.validate()
        self.circuit = circuit
        self.temperature_k = temperature_k
        self.n_nodes = len(circuit.nodes)
        offset = self.n_nodes
        for element in circuit.elements:
            indices = [circuit.node_index(node) for node in element.nodes]
            element.bind(indices, offset)
            offset += element.branch_count
        self.size = offset
        if self.size == 0:
            raise NetlistError("circuit has no unknowns")
        if compiled is None:
            compiled = _compiled_default()
        self._assembler = (
            CompiledAssembler(self, vectorized=vectorized, sparse=sparse)
            if compiled
            else None
        )

    @property
    def compiled(self) -> bool:
        """True when the compiled fast path is active."""
        return self._assembler is not None

    @property
    def vectorized(self) -> bool:
        """True when at least one vectorized device group is active."""
        return self._assembler is not None and bool(self._assembler.groups)

    @property
    def sparse_assembly(self) -> bool:
        """True when :meth:`assemble` returns ``scipy.sparse`` Jacobians."""
        return self._assembler is not None and self._assembler.sparse

    def set_temperature(self, temperature_k: float) -> None:
        """Re-temperature the system in place, keeping the topology.

        Sweeps call this instead of rebuilding an :class:`MNASystem` per
        point: bindings, slot reservations and the Newton workspace all
        survive, so LU reuse and the compiled caches span sweep points.
        The linear caches are dropped (resistor tempcos and
        temperature-law sources make ``G_lin``/``b_lin``
        temperature-dependent); element-level memos key on temperature
        themselves and need no help.
        """
        if temperature_k == self.temperature_k:
            return
        self.temperature_k = temperature_k
        self.invalidate()

    def invalidate(self) -> None:
        """Invalidate cached state after mutating element values.

        Needed when a *linear* element's value (resistance, source dc,
        controlled-source gain), a *grouped* nonlinear device's model
        values, or any element's ``temperature_override`` is changed on
        a live system: the linear caches and the groups' packed
        parameter arrays are all build-time snapshots, and this call
        rebuilds both.  Ungrouped nonlinear elements are re-stamped
        every assembly regardless.
        """
        if self._assembler is not None:
            self._assembler.invalidate()

    def assemble(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(J, F)`` at the iterate ``x``.

        ``time`` (seconds) selects the instantaneous value of waveform
        sources (``None`` = DC, i.e. their t=0 value); ``transient`` is
        the integration context of the timestep being solved (``None``
        = DC, i.e. charge-storage elements stamp nothing).  In sparse
        assembly mode (:attr:`sparse_assembly`) ``J`` is a
        ``scipy.sparse`` matrix; every consumer in the repo (the Newton
        workspace, the AC subsystem) handles either kind.
        """
        trc = _tele.ACTIVE
        if trc is None or not trc.detailed:
            if self._assembler is not None:
                STATS.compiled_assemblies += 1
                return self._assembler.assemble(x, gmin, source_scale, time, transient)
            return self.assemble_reference(
                x, gmin=gmin, source_scale=source_scale, time=time, transient=transient
            )
        t0 = trc.clock()
        if self._assembler is not None:
            STATS.compiled_assemblies += 1
            out = self._assembler.assemble(x, gmin, source_scale, time, transient)
            trc.leaf("assembly", t0, path="compiled")
        else:
            out = self.assemble_reference(
                x, gmin=gmin, source_scale=source_scale, time=time, transient=transient
            )
            trc.leaf("assembly", t0, path="reference")
        return out

    def assemble_reference(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Element-by-element ``(J, F)`` — the equivalence yardstick."""
        STATS.reference_assemblies += 1
        jacobian = np.zeros((self.size, self.size))
        residual = np.zeros(self.size)
        stamp = Stamp(
            x=x,
            jacobian=jacobian,
            residual=residual,
            temperature_k=self.temperature_k,
            gmin=gmin,
            source_scale=source_scale,
            time=time,
            transient=transient,
        )
        self._stamp_all(stamp)
        return jacobian, residual

    def _stamp_all(self, stamp: Stamp) -> None:
        """The one reference assembly body: gmin-to-ground plus elements.

        The gmin conductance from every node to ground keeps nodes with
        only junction connections (or floating capacitor nodes)
        well-conditioned.  Shared by the full and residual-only paths so
        the line-search residual can never drift from Newton's.
        """
        gmin = stamp.gmin
        for node_index in range(self.n_nodes):
            stamp.add_residual(node_index, gmin * stamp.v(node_index))
            stamp.add_jacobian(node_index, node_index, gmin)
        for element in self.circuit.elements:
            element.stamp(stamp)

    def assemble_residual(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> np.ndarray:
        """Return ``F(x)`` only — no Jacobian allocation or stamping.

        The Newton line search evaluates the residual norm at several
        trial damping factors per iteration; skipping the ``N x N``
        Jacobian there roughly halves the cost of the hottest loop of
        the transient engine — and the compiled path further reduces the
        linear group to one cached matrix-vector product.
        """
        STATS.residual_evaluations += 1
        if self._assembler is not None:
            return self._assembler.assemble_residual(
                x, gmin, source_scale, time, transient
            )
        return self.assemble_residual_reference(
            x, gmin=gmin, source_scale=source_scale, time=time, transient=transient
        )

    def assemble_residual_reference(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> np.ndarray:
        """Element-by-element ``F(x)`` (reference path)."""
        residual = np.zeros(self.size)
        stamp = _ResidualOnlyStamp(
            x=x,
            jacobian=None,
            residual=residual,
            temperature_k=self.temperature_k,
            gmin=gmin,
            source_scale=source_scale,
            time=time,
            transient=transient,
        )
        self._stamp_all(stamp)
        return residual

    def kcl_residual(self, x: np.ndarray, gmin: float = 1e-12) -> float:
        """Infinity norm of the node-current residuals at ``x`` [A]."""
        residual = self.assemble_residual(x, gmin=gmin)
        return float(np.max(np.abs(residual[: self.n_nodes]))) if self.n_nodes else 0.0

    def total_source_power(self, x: np.ndarray, gmin: float = 1e-12) -> float:
        """Total power delivered by independent sources at ``x`` [W].

        At a DC operating point this equals the total dissipated power —
        the quantity the self-heating loop feeds into the thermal model.
        Uses the residual-only stamp context (source ``power`` reads the
        iterate, never the Jacobian), so no ``N x N`` matrix is built.
        """
        stamp = _ResidualOnlyStamp(
            x=x,
            jacobian=None,
            residual=np.zeros(self.size),
            temperature_k=self.temperature_k,
            gmin=gmin,
            source_scale=1.0,
        )
        from .elements.sources import CurrentSource, VoltageSource

        total = 0.0
        for element in self.circuit.elements:
            if isinstance(element, (VoltageSource, CurrentSource)):
                total += element.power(stamp)
        return total

