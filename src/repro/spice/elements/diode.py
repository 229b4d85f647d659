"""Junction diode with the SPICE temperature law.

The diode shares the saturation-current temperature model of paper eq. 1
(its own ``EG``/``XTI``), making it a minimal vehicle for testing the
temperature machinery of the solver independent of the full BJT.
"""

from __future__ import annotations

import math

from ...bjt.laws import diode_current, diode_saturation_current
from ...constants import T_NOMINAL, thermal_voltage
from ...errors import NetlistError
from .base import Element, Stamp


class Diode(Element):
    """Diode from ``anode`` to ``cathode``.

    ``i = IS(T) * (exp(vd/(n*VT)) - 1)`` with
    ``IS(T) = IS * (T/TNOM)**(XTI/n) * exp(EG/(n*k) * (1/TNOM - 1/T))``
    (the SPICE diode law; note the ideality factor divides both
    temperature exponents).
    """

    is_nonlinear = True

    @property
    def groupable(self) -> bool:
        """Grouped by :class:`repro.spice.groups.DiodeGroup` (both paths
        evaluate the same :mod:`repro.bjt.laws` diode law)."""
        return True

    def jacobian_slots(self) -> int:
        # The 2x2 conductance block (gmin folded into g).
        return 4

    def __init__(
        self,
        name: str,
        anode: str,
        cathode: str,
        is_: float = 1e-15,
        n: float = 1.0,
        eg: float = 1.11,
        xti: float = 3.0,
        tnom: float = T_NOMINAL,
    ):
        super().__init__(name, (anode, cathode))
        for attribute, value in (("is_", is_), ("n", n), ("tnom", tnom)):
            problem = self.domain_error(attribute, value)
            if problem is not None:
                raise NetlistError(f"diode {name}: {problem}")
        self.is_ = is_
        self.n = n
        self.eg = eg
        self.xti = xti
        self.tnom = tnom

    def domain_error(self, attribute: str, value: float):
        if attribute in ("is_", "n", "tnom") and not value > 0.0:
            return f"{attribute} must be positive, got {value}"
        return super().domain_error(attribute, value)

    def is_at(self, temperature_k: float) -> float:
        return diode_saturation_current(self, temperature_k, math.exp)

    def current_and_conductance(self, vd: float, temperature_k: float):
        """``(i(vd), di/dvd)`` with overflow-limited exponential."""
        return diode_current(
            vd, self.is_at(temperature_k), self.n * thermal_voltage(temperature_k)
        )

    def stamp(self, stamp: Stamp) -> None:
        a, c = self._node_idx
        t = self.device_temperature(stamp)
        vd = stamp.v(a) - stamp.v(c)
        i, g = self.current_and_conductance(vd, t)
        # gmin in parallel with the junction keeps the Jacobian regular
        # at deep reverse bias / zero bias.
        i += stamp.gmin * vd
        stamp.add_residual(a, i)
        stamp.add_residual(c, -i)
        if stamp.wants_jacobian:
            g += stamp.gmin
            stamp.add_jacobian(a, a, g)
            stamp.add_jacobian(a, c, -g)
            stamp.add_jacobian(c, a, -g)
            stamp.add_jacobian(c, c, g)

    def power(self, stamp: Stamp) -> float:
        a, c = self._node_idx
        vd = stamp.v(a) - stamp.v(c)
        i, _ = self.current_and_conductance(vd, self.device_temperature(stamp))
        return vd * i
