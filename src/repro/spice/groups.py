"""Vectorized device-group evaluation.

The compiled assembler (:mod:`repro.spice.mna`) removed the linear
elements from the per-iteration Python loop; what remained — and what
profiles showed dominating every sweep — is the per-element dispatch
into the nonlinear junction math (BJTs ~60 % of a netlist sweep).  This
module removes that too: at :class:`~repro.spice.mna.MNASystem` build
time the nonlinear elements are partitioned into *homogeneous groups*
(all plain Gummel-Poon BJTs, all junction diodes), their model
parameters and global node indices packed into contiguous arrays, and
each Newton evaluation computes every device of a group in one
vectorized NumPy pass:

* the residual-only path (line-search probes — the hottest loop in the
  solver) evaluates just the terminal *currents*;
* the full path additionally evaluates the conductance entries and
  returns them as COO triplets against precomputed row/column patterns,
  ready for the dense ``np.add.at`` scatter or the sparse assembly
  mode.  A one-deep memo keyed on the gathered junction voltages lets
  the full pass reuse the residual pass's junction math at the same
  iterate — the group-level mirror of the scalar ``SpiceBJT._op_cache``
  (the solver probes a candidate's residual and then assembles the
  Jacobian at that same accepted point, back to back).

Equivalence contract: a group evaluates the *same law functions* as
the scalar ``Element.stamp`` it replaces — :mod:`repro.bjt.laws` builds
each junction law once over ``math`` and once over ``numpy`` from one
text — so the two paths differ only by the rounding of ``np.exp``,
``np.sqrt`` and ``**`` against their ``math`` counterparts (the test
suite pins ``<= 1e-12`` of the stamp scale).  The scalar path stays the
always-available reference — ``REPRO_VECTORIZED=0`` routes every
element back through it.

Ground handling: node index ``-1`` (ground) maps to a trailing zero slot
of an extended iterate ``x_ext = [x, 0.0]`` for gathers, and scatter
patterns are masked at build time so contributions to ground rows are
dropped exactly as :meth:`Stamp.add_residual` drops them.

Numerical guards: the laws never evaluate ``exp`` past the cap (see
the overflow audit of :mod:`repro.bjt.laws`), and each evaluation runs
under ``np.errstate(over="ignore")`` so a wild Newton trial point can at
worst produce a large-but-finite stamp, never a ``RuntimeWarning`` — the
test suite promotes warnings to errors to keep it that way.

Temperature: device temperatures (ambient plus any per-element
``temperature_override``) and the derived model temperature laws are
cached per group, keyed on the ambient temperature.  The override
snapshot refreshes on :meth:`MNASystem.invalidate` — mutating an
element's ``temperature_override`` on a live system follows the same
invalidate contract as mutating a linear element's value.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bjt.laws import (
    depletion_capacitance_array,
    diode_current_array,
    diode_saturation_current,
    gummel_poon_currents_array,
    gummel_poon_derivatives_array,
    gummel_poon_laws,
)
from ..constants import K_OVER_Q


def _pack(cards: Sequence, names: Sequence[str]) -> SimpleNamespace:
    """A card of per-device arrays: ``card.<name>[k]`` is device k's."""
    return SimpleNamespace(
        **{name: np.array([getattr(c, name) for c in cards]) for name in names}
    )


def _masked_pattern(rows_raw: np.ndarray, cols_raw: Optional[np.ndarray]):
    """Build the (selection, rows[, cols]) of the non-ground entries."""
    if cols_raw is None:
        mask = rows_raw >= 0
        return np.flatnonzero(mask), rows_raw[mask].astype(np.intp)
    mask = (rows_raw >= 0) & (cols_raw >= 0)
    return (
        np.flatnonzero(mask),
        rows_raw[mask].astype(np.intp),
        cols_raw[mask].astype(np.intp),
    )


class DeviceGroup:
    """Base: packed indices, the temperature-override snapshot and the
    one-deep junction memo.

    Subclasses provide ``_laws_at(t)`` (the law values at the device
    temperatures), ``_gather(x_ext)`` (the junction voltages) and
    ``_currents(v, laws, gmin)`` (the masked residual values plus the
    state the derivative completion needs).
    """

    #: Group label for diagnostics and stats.
    kind = "device"

    def __init__(self, devices: Sequence, size: int):
        self.devices = list(devices)
        self.n = len(self.devices)
        self.size = size
        self._t_override: Optional[np.ndarray] = None
        self._has_override = False
        self._laws_key: Optional[float] = None
        self._laws = None
        #: One-deep memo of the last junction evaluation (see module
        #: docstring); invalidated with the laws.
        self._memo = None
        self.refresh_overrides()

    def refresh_overrides(self) -> None:
        """Re-snapshot per-device ``temperature_override`` values."""
        overrides = [el.temperature_override for el in self.devices]
        self._has_override = any(t is not None for t in overrides)
        if self._has_override:
            self._t_override = np.array(
                [math.nan if t is None else t for t in overrides]
            )
        else:
            self._t_override = None
        self._laws_key = None
        self._memo = None

    def _device_temperatures(self, ambient: float):
        """Per-device temperatures (scalar when no overrides are set)."""
        if self._has_override:
            return np.where(np.isnan(self._t_override), ambient, self._t_override)
        return ambient

    def _temperature_laws(self, ambient: float):
        """Memoised law values, keyed on the ambient temperature."""
        if self._laws_key != ambient:
            self._laws = self._laws_at(self._device_temperatures(ambient))
            self._laws_key = ambient
            self._memo = None
        return self._laws

    def _evaluate(self, x_ext: np.ndarray, gmin: float, ambient: float):
        """``(values, state)`` of :meth:`_currents` at the iterate,
        served from the memo when the junction voltages and gmin match
        the last evaluation."""
        laws = self._temperature_laws(ambient)
        v = self._gather(x_ext)
        memo = self._memo
        if memo is not None and memo[1] == gmin and np.array_equal(memo[0], v):
            return memo[2], memo[3]
        with np.errstate(over="ignore"):
            values, state = self._currents(v, laws, gmin)
        self._memo = (v, gmin, values, state)
        return values, state

    def _gather_index(self, raw: np.ndarray) -> np.ndarray:
        """Map ground (-1) to the extended iterate's trailing zero slot."""
        return np.where(raw < 0, self.size, raw).astype(np.intp)


class BJTGroup(DeviceGroup):
    """All plain (substrate-free) Gummel-Poon BJTs of one system.

    Evaluates the laws of :meth:`SpiceBJT.currents_and_derivatives` over
    per-device arrays, plus the stamp itself.  The junction voltages are
    gathered as one stacked ``[vbe, vbc]`` vector straight from the
    iterate through precomputed index arrays.
    """

    kind = "bjt"

    #: Card fields the laws read (temperature laws, junction law,
    #: depletion law).
    _FIELDS = (
        "is_", "ise", "bf", "br", "nf", "nr", "ne", "vaf", "var", "ikf",
        "eg", "xti", "xtb", "tnom",
        "cje", "cjc", "vje", "vjc", "mje", "mjc", "tf",
    )

    def __init__(self, devices: Sequence, size: int):
        super().__init__(devices, size)
        c_raw = np.array([el._node_idx[0] for el in devices])
        b_raw = np.array([el._node_idx[1] for el in devices])
        e_raw = np.array([el._node_idx[2] for el in devices])
        gc = self._gather_index(c_raw)
        gb = self._gather_index(b_raw)
        ge = self._gather_index(e_raw)
        self.sign = np.array([el.sign for el in devices])
        # Stacked junction gathers: sign2 * (x[hi] - x[lo]) produces
        # [vbe, vbc] in one pass.
        self._stack_hi = np.concatenate([gb, gb])
        self._stack_lo = np.concatenate([ge, gc])
        self._sign2 = np.concatenate([self.sign, self.sign])
        self._card = _pack([el.params for el in devices], self._FIELDS)

        # Residual rows: one block each for C, B, E.
        self._res_sel, self._res_rows = _masked_pattern(
            np.concatenate([c_raw, b_raw, e_raw]), None
        )
        # Jacobian entries, in the scalar stamp's order:
        # (c,b) (c,e) (c,c) (b,b) (b,e) (b,c) (e,b) (e,e) (e,c)
        jac_rows = np.concatenate(
            [c_raw, c_raw, c_raw, b_raw, b_raw, b_raw, e_raw, e_raw, e_raw]
        )
        jac_cols = np.concatenate(
            [b_raw, e_raw, c_raw, b_raw, e_raw, c_raw, b_raw, e_raw, c_raw]
        )
        self._jac_sel, self._jac_rows, self._jac_cols = _masked_pattern(
            jac_rows, jac_cols
        )
        # AC capacitance entries: the two symmetric two-terminal blocks
        # (B-E, then B-C), masked dynamically on the junction values.
        self._cap_rows_raw = np.concatenate(
            [b_raw, b_raw, e_raw, e_raw, b_raw, b_raw, c_raw, c_raw]
        )
        self._cap_cols_raw = np.concatenate(
            [b_raw, e_raw, b_raw, e_raw, b_raw, c_raw, b_raw, c_raw]
        )

    def _laws_at(self, t):
        return gummel_poon_laws(self._card, t, np.exp)

    def _gather(self, x_ext: np.ndarray) -> np.ndarray:
        """Stacked junction voltages ``[vbe, vbc]`` off the iterate."""
        return self._sign2 * (x_ext[self._stack_hi] - x_ext[self._stack_lo])

    def _currents(self, v, laws, gmin):
        """Masked node-row residual contributions (C, B, E blocks) and
        the law's core.

        The gmin junction terms reuse the stacked voltages:
        ``sign * vbe = vb - ve`` and ``sign * vbc = vb - vc`` by
        construction.
        """
        n = self.n
        vbe = v[:n]
        vbc = v[n:]
        ic, ib, core = gummel_poon_currents_array(vbe, vbc, laws)
        s = self.sign
        i_c = s * ic
        i_b = s * ib
        sv = s * gmin
        i_be = sv * vbe
        i_bc = sv * vbc
        values = np.concatenate(
            [i_c - i_bc, i_b + i_be + i_bc, -(i_c + i_b) - i_be]
        )
        return values[self._res_sel], core

    # -- assembly entry points -----------------------------------------
    def stamp_residual(
        self, x_ext: np.ndarray, residual: np.ndarray, gmin: float,
        ambient: float,
    ) -> None:
        """Accumulate the group's terminal currents into ``residual``."""
        values, _ = self._evaluate(x_ext, gmin, ambient)
        np.add.at(residual, self._res_rows, values)

    def stamp_full(
        self, x_ext: np.ndarray, residual: np.ndarray, gmin: float,
        ambient: float,
    ):
        """Residual accumulation plus the Jacobian COO triplets."""
        values, core = self._evaluate(x_ext, gmin, ambient)
        np.add.at(residual, self._res_rows, values)
        with np.errstate(over="ignore"):
            dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc = (
                gummel_poon_derivatives_array(core, self._laws)
            )
            dic_sum = dic_dvbe + dic_dvbc
            dib_sum = dib_dvbe + dib_dvbc
            jac = np.concatenate([
                dic_sum - gmin,                    # (c, b)
                -dic_dvbe,                         # (c, e)
                -dic_dvbc + gmin,                  # (c, c)
                dib_sum + (gmin + gmin),           # (b, b)
                -dib_dvbe - gmin,                  # (b, e)
                -dib_dvbc - gmin,                  # (b, c)
                -dic_sum - dib_sum - gmin,         # (e, b)
                dic_dvbe + dib_dvbe + gmin,        # (e, e)
                dic_dvbc + dib_dvbc,               # (e, c)
            ])
        return self._jac_rows, self._jac_cols, jac[self._jac_sel]

    # -- AC (small-signal) ---------------------------------------------
    def ac_capacitance(self, x_ext: np.ndarray, ambient: float):
        """Junction ``dQ/dV`` COO triplets at the operating point.

        Mirrors :meth:`SpiceBJT.ac_stamp`: each junction whose
        capacitance is positive stamps the symmetric two-terminal block;
        zero-capacitance junctions are skipped entirely so a cap-free
        group leaves the C matrix truly empty (``frequency_flat``).
        """
        laws = self._temperature_laws(ambient)
        v = self._gather(x_ext)
        n = self.n
        vbe = v[:n]
        vbc = v[n:]
        card = self._card
        # A zero CJ0 (or TF) card gives exactly zero capacitance.
        c_be = depletion_capacitance_array(card.cje, card.vje, card.mje, vbe)
        c_bc = depletion_capacitance_array(card.cjc, card.vjc, card.mjc, vbc)
        if np.any(card.tf > 0.0):
            with np.errstate(over="ignore"):
                _, _, core = gummel_poon_currents_array(vbe, vbc, laws)
                gm = gummel_poon_derivatives_array(core, laws)[0]
            c_be = c_be + card.tf * np.abs(gm)
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        values = np.concatenate(
            [np.outer(signs, c_be).ravel(), np.outer(signs, c_bc).ravel()]
        )
        keep = (
            (self._cap_rows_raw >= 0)
            & (self._cap_cols_raw >= 0)
            & np.concatenate([np.tile(c_be > 0.0, 4), np.tile(c_bc > 0.0, 4)])
        )
        return (
            self._cap_rows_raw[keep].astype(np.intp),
            self._cap_cols_raw[keep].astype(np.intp),
            values[keep],
        )


class DiodeGroup(DeviceGroup):
    """All junction diodes of one system, evaluated in one pass."""

    kind = "diode"

    def __init__(self, devices: Sequence, size: int):
        super().__init__(devices, size)
        a_raw = np.array([el._node_idx[0] for el in devices])
        c_raw = np.array([el._node_idx[1] for el in devices])
        self._ga = self._gather_index(a_raw)
        self._gc = self._gather_index(c_raw)
        self._card = _pack(devices, ("is_", "n", "eg", "xti", "tnom"))
        self._res_sel, self._res_rows = _masked_pattern(
            np.concatenate([a_raw, c_raw]), None
        )
        # (a,a) (a,c) (c,a) (c,c)
        self._jac_sel, self._jac_rows, self._jac_cols = _masked_pattern(
            np.concatenate([a_raw, a_raw, c_raw, c_raw]),
            np.concatenate([a_raw, c_raw, a_raw, c_raw]),
        )

    def _laws_at(self, t):
        card = self._card
        return diode_saturation_current(card, t, np.exp), card.n * (K_OVER_Q * t)

    def _gather(self, x_ext: np.ndarray) -> np.ndarray:
        return x_ext[self._ga] - x_ext[self._gc]

    def _currents(self, vd, laws, gmin: float):
        """Masked residual contributions plus the junction conductance."""
        i, g = diode_current_array(vd, *laws)
        i = i + gmin * vd
        return np.concatenate([i, -i])[self._res_sel], g

    def stamp_residual(self, x_ext, residual, gmin: float, ambient: float) -> None:
        values, _ = self._evaluate(x_ext, gmin, ambient)
        np.add.at(residual, self._res_rows, values)

    def stamp_full(self, x_ext, residual, gmin: float, ambient: float):
        values, g = self._evaluate(x_ext, gmin, ambient)
        np.add.at(residual, self._res_rows, values)
        g = g + gmin
        jac = np.concatenate([g, -g, -g, g])
        return self._jac_rows, self._jac_cols, jac[self._jac_sel]

    def ac_capacitance(self, x_ext, ambient: float):
        """Diodes store no charge in this model: no C entries."""
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)


#: Default smallest group size worth vectorizing.  A NumPy ufunc call
#: costs ~0.4-0.8 us of dispatch regardless of array length on the CI
#: host, and one junction evaluation is ~26 such calls, so a group pass
#: has a flat ~30 us floor; the scalar per-element stamp costs ~5 us per
#: device.  Measured break-even on the CI host is ~13 devices (see
#: ``benchmarks/bench_device_eval.py`` for the sweep); below the
#: threshold the scalar path is simply faster and the group is not
#: built.  ``REPRO_GROUP_MIN`` overrides (the test fixtures pin it to 1
#: so every circuit family exercises the vectorized math).
_DEFAULT_GROUP_MIN = 12


def group_min_size() -> int:
    """The active vectorization threshold (``REPRO_GROUP_MIN``)."""
    import os

    try:
        return max(1, int(os.environ.get("REPRO_GROUP_MIN",
                                         str(_DEFAULT_GROUP_MIN))))
    except ValueError:
        return _DEFAULT_GROUP_MIN


def build_groups(
    nonlinear: Sequence, size: int, min_size: Optional[int] = None
) -> Tuple[List[DeviceGroup], List]:
    """Partition nonlinear elements into vectorizable groups.

    Only *exact* instances of the known device classes group (a subclass
    may override ``stamp``, so it stays on the scalar path), and BJTs
    with an attached substrate transistor keep their scalar stamp (the
    substrate leakage's saturation-drive law is iterate-dependent in a
    way the packed arrays do not model).  Classes with fewer than
    ``min_size`` instances (default: :func:`group_min_size`) stay
    scalar — below the dispatch-overhead crossover a group pass would be
    slower than the loop it replaces.  Returns ``(groups, leftover)``
    with ``leftover`` preserving circuit order.
    """
    from .elements.bjt import SpiceBJT
    from .elements.diode import Diode

    if min_size is None:
        min_size = group_min_size()
    bjts = [
        el for el in nonlinear
        if type(el) is SpiceBJT and el.groupable
    ]
    diodes = [
        el for el in nonlinear if type(el) is Diode and el.groupable
    ]
    groups: List[DeviceGroup] = []
    grouped_ids = set()
    if len(bjts) >= min_size:
        groups.append(BJTGroup(bjts, size))
        grouped_ids.update(id(el) for el in bjts)
    if len(diodes) >= min_size:
        groups.append(DiodeGroup(diodes, size))
        grouped_ids.update(id(el) for el in diodes)
    leftover = [el for el in nonlinear if id(el) not in grouped_ids]
    return groups, leftover
