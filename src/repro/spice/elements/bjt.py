"""Gummel-Poon BJT element for the MNA solver.

The element evaluates the *junction-level* device (transport current with
base-charge normalisation, ideal + leakage base current) directly from a
:class:`repro.bjt.BJTParameters` card.  Series resistances ``RB/RE/RC``
are not folded into the element's equations; use :func:`add_bjt` to
expand them into explicit resistors on internal nodes, exactly as SPICE
does internally.

Polarity: NPN and PNP are both supported; internally the device works in
forward-junction convention and the sign ``s`` (+1 NPN, -1 PNP) maps
node voltages and terminal currents.

The optional parasitic substrate transistor (paper sections 4/6) is
attached with :meth:`SpiceBJT.attach_substrate`; its leakage is a
temperature-law current diverted from the collector node to the substrate
node, gated by a saturation-drive factor (fixed, or derived from the
collector-emitter headroom at the current iterate).
"""

from __future__ import annotations

import math
from typing import Optional

from ...bjt.laws import (
    depletion_capacitance,
    gummel_poon_currents,
    gummel_poon_derivatives,
    gummel_poon_laws,
)
from ...bjt.parameters import BJTParameters
from ...bjt.substrate import SubstratePNP
from ...errors import NetlistError
from .base import Element, Stamp
from .passives import Resistor


class SpiceBJT(Element):
    """Three-terminal Gummel-Poon transistor (collector, base, emitter).

    The junction math is :mod:`repro.bjt.laws`, shared with the
    vectorized :class:`~repro.spice.groups.BJTGroup`; its overflow audit
    covers this stamp at any finite iterate.
    """

    is_nonlinear = True

    @property
    def groupable(self) -> bool:
        """Grouped by :class:`repro.spice.groups.BJTGroup` unless a
        substrate transistor is attached (its saturation-drive law reads
        the iterate in a way the packed arrays do not model)."""
        return self.substrate is None

    def jacobian_slots(self) -> int:
        # The 3x3 terminal block (gmin junction terms folded in).
        return 9

    def __init__(self, name: str, collector: str, base: str, emitter: str,
                 params: BJTParameters):
        super().__init__(name, (collector, base, emitter))
        self.params = params
        self.sign = 1.0 if params.polarity == "npn" else -1.0
        self.substrate: Optional[SubstratePNP] = None
        self.substrate_node: str = "0"
        self.substrate_drive: Optional[float] = None
        #: Memo of the temperature laws (IS, ISE, BF, n*VT products and
        #: the card's law constants) at the last requested temperature.
        #: The stamp is re-evaluated hundreds of times per solve at a
        #: single device temperature, and each law costs a pow+exp.
        self._tcache: Optional[tuple] = None
        #: Memo of the last (vbe, vbc, t) junction evaluation:
        #: ``[point, result, core]``.  The solver evaluates the residual
        #: at an accepted candidate and then assembles the Jacobian at
        #: that same iterate — back to back.  ``result`` is ``(ic, ib)``
        #: until a full call completes it to all six values.
        self._op_cache: Optional[list] = None

    # ------------------------------------------------------------------
    def attach_substrate(
        self,
        substrate: SubstratePNP,
        substrate_node: str = "0",
        drive: Optional[float] = None,
    ) -> "SpiceBJT":
        """Attach the parasitic substrate transistor.

        ``drive`` fixes the saturation-drive factor in [0, 1]; ``None``
        derives it from the collector-emitter headroom at each iterate.
        Must be called before the circuit is assembled (the substrate
        node has to be registered).
        """
        if drive is not None:
            problem = self.domain_error("substrate_drive", drive)
            if problem is not None:
                raise NetlistError(f"{self.name}: {problem}")
        self.substrate = substrate
        self.substrate_node = substrate_node
        self.substrate_drive = drive
        self.nodes = (self.nodes[0], self.nodes[1], self.nodes[2], substrate_node)
        return self

    def domain_error(self, attribute: str, value: float):
        if attribute == "substrate_drive" and not 0.0 <= value <= 1.0:
            return f"substrate drive must be in [0, 1], got {value}"
        return super().domain_error(attribute, value)

    # ------------------------------------------------------------------
    def _laws_at(self, t: float) -> tuple:
        """Memoised :func:`~repro.bjt.laws.gummel_poon_laws` at ``t``."""
        cache = self._tcache
        if cache is None or cache[0] != t:
            cache = self._tcache = (t, gummel_poon_laws(self.params, t, math.exp))
        return cache[1]

    def currents_and_derivatives(self, vbe: float, vbc: float, t: float,
                                 derivatives: bool = True):
        """Junction-convention ``(ic, ib, dic_dvbe, dic_dvbc, dib_dvbe,
        dib_dvbc)`` at temperature ``t`` (:mod:`repro.bjt.laws`).

        With ``derivatives=False`` only ``(ic, ib)`` is returned.  The
        memo holds the law's ``core`` at the last point, so a full call
        after a currents-only call at the same point only completes the
        derivatives.
        """
        memo = self._op_cache
        if memo is None or memo[0] != (vbe, vbc, t):
            ic, ib, core = gummel_poon_currents(vbe, vbc, self._laws_at(t))
            memo = self._op_cache = [(vbe, vbc, t), (ic, ib), core]
        result = memo[1]
        if not derivatives:
            return result[:2]
        if len(result) == 2:
            result = memo[1] = result + gummel_poon_derivatives(
                memo[2], self._laws_at(t)
            )
        return result

    # ------------------------------------------------------------------
    def stamp(self, stamp: Stamp) -> None:
        has_substrate = self.substrate is not None
        if has_substrate:
            c, b, e, sub = self._node_idx
        else:
            c, b, e = self._node_idx
            sub = -1
        s = self.sign
        t = self.device_temperature(stamp)
        x = stamp.x
        vc = float(x[c]) if c >= 0 else 0.0
        vb = float(x[b]) if b >= 0 else 0.0
        ve = float(x[e]) if e >= 0 else 0.0
        vbe = s * (vb - ve)
        vbc = s * (vb - vc)
        wants_jacobian = stamp.wants_jacobian
        currents = self.currents_and_derivatives(vbe, vbc, t, wants_jacobian)
        ic, ib = currents[0], currents[1]

        # Terminal currents leaving each node into the device, with the
        # gmin junction conductances (B-E and B-C, for Jacobian
        # regularity at zero/reverse bias) folded into the same adds.
        gmin = stamp.gmin
        i_be = gmin * (vb - ve)
        i_bc = gmin * (vb - vc)
        i_c = s * ic
        i_b = s * ib
        stamp.add_residual(c, i_c - i_bc)
        stamp.add_residual(b, i_b + i_be + i_bc)
        stamp.add_residual(e, -(i_c + i_b) - i_be)

        if wants_jacobian:
            _, _, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc = currents
            # Chain rule: d vbe/dVb = s etc.; the s*s products cancel.
            stamp.add_jacobian(c, b, dic_dvbe + dic_dvbc - gmin)
            stamp.add_jacobian(c, e, -dic_dvbe)
            stamp.add_jacobian(c, c, -dic_dvbc + gmin)
            stamp.add_jacobian(b, b, dib_dvbe + dib_dvbc + gmin + gmin)
            stamp.add_jacobian(b, e, -dib_dvbe - gmin)
            stamp.add_jacobian(b, c, -dib_dvbc - gmin)
            stamp.add_jacobian(
                e, b, -(dic_dvbe + dic_dvbc) - (dib_dvbe + dib_dvbc) - gmin
            )
            stamp.add_jacobian(e, e, dic_dvbe + dib_dvbe + gmin)
            stamp.add_jacobian(e, c, dic_dvbc + dib_dvbc)

        if has_substrate:
            if self.substrate_drive is not None:
                drive = self.substrate_drive
            else:
                drive = self.substrate.saturation_drive(abs(vc - ve))
            if drive > 0.0:
                leak = self.substrate.leakage_current(t) * drive
                # Leakage is diverted from the collector node into the
                # substrate.  Its voltage dependence (through the drive
                # ramp) is deliberately left out of the Jacobian: the
                # term is tiny and a lagged Jacobian keeps Newton simple.
                stamp.add_residual(c, leak)
                stamp.add_residual(sub, -leak)

    # ------------------------------------------------------------------
    def capacitance_slots(self) -> int:
        # Two symmetric two-terminal blocks (B-E and B-C junctions).
        return 8

    def junction_capacitances(self, vbe: float, vbc: float, t: float):
        """Small-signal ``(C_be, C_bc)`` at a junction-convention bias [F].

        ``C_be`` is depletion plus diffusion (``tf * gm`` with the
        transport transconductance at the operating point); ``C_bc`` is
        depletion only (reverse transit time is not modelled).
        """
        p = self.params
        # A zero CJ0 card gives exactly zero depletion capacitance.
        c_be = depletion_capacitance(p.cje, p.vje, p.mje, vbe)
        c_bc = depletion_capacitance(p.cjc, p.vjc, p.mjc, vbc)
        if p.tf > 0.0:
            gm = self.currents_and_derivatives(vbe, vbc, t)[2]
            c_be += p.tf * abs(gm)
        return c_be, c_bc

    def ac_stamp(self, stamp) -> None:
        """Junction ``dQ/dV`` at the operating point.

        Each junction capacitance is a two-terminal capacitor between
        the (internal) device nodes; the polarity sign cancels out of
        the symmetric stamp, so NPN and PNP share the pattern.  The
        substrate leakage's lagged drive dependence is left out, exactly
        as in the DC Jacobian.
        """
        c, b, e = self._node_idx[:3]
        s = self.sign
        vbe = s * (stamp.v(b) - stamp.v(e))
        vbc = s * (stamp.v(b) - stamp.v(c))
        c_be, c_bc = self.junction_capacitances(
            vbe, vbc, self.device_temperature(stamp)
        )
        if c_be > 0.0:
            stamp.add_two_terminal_capacitance(b, e, c_be)
        if c_bc > 0.0:
            stamp.add_two_terminal_capacitance(b, c, c_bc)

    def power(self, stamp: Stamp) -> float:
        """Dissipated power V_CE*I_C + V_BE*I_B at the iterate [W]."""
        if self.substrate is not None:
            c, b, e = self._node_idx[:3]
        else:
            c, b, e = self._node_idx
        s = self.sign
        t = self.device_temperature(stamp)
        vc, vb, ve = stamp.v(c), stamp.v(b), stamp.v(e)
        ic, ib = self.currents_and_derivatives(
            s * (vb - ve), s * (vb - vc), t, derivatives=False
        )
        return (vc - ve) * s * ic + (vb - ve) * s * ib


def add_bjt(
    circuit,
    name: str,
    collector: str,
    base: str,
    emitter: str,
    params: BJTParameters,
    substrate: Optional[SubstratePNP] = None,
    substrate_node: str = "0",
    substrate_drive: Optional[float] = None,
) -> SpiceBJT:
    """Add a BJT to ``circuit``, expanding RB/RE/RC into real resistors.

    Internal nodes are named ``{name}#b`` / ``{name}#e`` / ``{name}#c``
    (only created for non-zero resistances).  Returns the core element so
    callers can attach temperature overrides.
    """
    inner_b, inner_e, inner_c = base, emitter, collector
    if params.rb > 0.0:
        inner_b = f"{name}#b"
        circuit.add(Resistor(f"{name}.rb", base, inner_b, params.rb))
    if params.re > 0.0:
        inner_e = f"{name}#e"
        circuit.add(Resistor(f"{name}.re", emitter, inner_e, params.re))
    if params.rc > 0.0:
        inner_c = f"{name}#c"
        circuit.add(Resistor(f"{name}.rc", collector, inner_c, params.rc))
    device = SpiceBJT(name, inner_c, inner_b, inner_e, params)
    if substrate is not None:
        device.attach_substrate(substrate, substrate_node, substrate_drive)
    circuit.add(device)
    return device
