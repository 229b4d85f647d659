"""Parasitic substrate PNP leakage (paper sections 4 and 6).

In the paper's BiCMOS process the test-cell PNPs carry a parasitic
substrate transistor.  When the device operates "at the limit of the
saturation" — unavoidable at low supply voltage — the parasitic turns on
and injects current into the substrate.  Because it scales with emitter
area it is eight times larger for QB than for QA, which unbalances the
supposedly identical collector currents and adds the non-linear,
temperature-growing component to ``dVBE`` that makes the measured
``VREF(T)`` of Fig. 8 rise at high temperature.

The model is the same SPICE temperature law as the main device (its own
``EG``/``XTI``), gated by a saturation-depth factor: the closer the
collector-emitter headroom is to zero, the harder the parasitic is driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import K_BOLTZMANN_EV
from ..errors import ModelError
from .laws import saturation_current


@dataclass(frozen=True)
class SubstratePNP:
    """Substrate-injection leakage model.

    Parameters
    ----------
    i_leak_ref:
        Leakage current at ``t_ref`` for unit area and full saturation [A].
        The default anchors the leakage to ~1 uA at 418 K for the 8x
        device, the magnitude needed to explain the paper's Fig. 8 rise.
    eg, xti:
        Temperature law of the parasitic junction (bulk silicon values —
        the parasitic does not see the emitter's bandgap narrowing).
    t_ref:
        Reference temperature [K].
    area:
        Relative emitter area (8 for QB, 1 for QA).
    vsat_onset:
        Collector-emitter headroom [V] below which the parasitic starts
        conducting; the drive factor ramps linearly to 1 at zero headroom.
    """

    i_leak_ref: float = 1.6e-13
    eg: float = 1.12
    xti: float = 3.0
    t_ref: float = 300.0
    area: float = 1.0
    vsat_onset: float = 0.3

    def __post_init__(self) -> None:
        if self.i_leak_ref < 0.0:
            raise ModelError("leakage reference current must be non-negative")
        if self.area <= 0.0:
            raise ModelError("area must be positive")
        if self.t_ref <= 0.0:
            raise ModelError("reference temperature must be positive")
        if self.vsat_onset <= 0.0:
            raise ModelError("saturation onset must be positive")

    def saturation_drive(self, vce_headroom: float) -> float:
        """Drive factor in [0, 1] from the collector-emitter headroom.

        1 when the device is fully saturated (no headroom), 0 when it has
        at least ``vsat_onset`` volts of headroom.
        """
        if vce_headroom <= 0.0:
            return 1.0
        if vce_headroom >= self.vsat_onset:
            return 0.0
        return 1.0 - vce_headroom / self.vsat_onset

    def leakage_current(
        self, temperature_k: float, vce_headroom: float = 0.0
    ) -> float:
        """Substrate leakage [A] at temperature and headroom.

        Follows ``i_leak_ref * area * (T/T0)**XTI * exp(EG/k*(1/T0-1/T))``
        times the saturation drive — i.e. the parasitic's own saturation
        current law, paper eq. 1 applied to the parasitic device.
        """
        if temperature_k <= 0.0:
            raise ModelError("leakage requires a positive temperature")
        drive = self.saturation_drive(vce_headroom)
        if drive == 0.0:
            return 0.0
        return saturation_current(
            self.i_leak_ref * self.area, temperature_k, self.t_ref, self.xti,
            self.eg / K_BOLTZMANN_EV, math.exp,
        ) * drive

    def scaled(self, area_factor: float) -> "SubstratePNP":
        """Return a copy with the area multiplied (QB = QA.scaled(8))."""
        if area_factor <= 0.0:
            raise ModelError("area factor must be positive")
        return SubstratePNP(
            i_leak_ref=self.i_leak_ref,
            eg=self.eg,
            xti=self.xti,
            t_ref=self.t_ref,
            area=self.area * area_factor,
            vsat_onset=self.vsat_onset,
        )
