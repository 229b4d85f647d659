"""Gummel-Poon saturation current and its SPICE identification.

This module implements the chain of paper eqs. 2, 4, 5, 10 and 11:

    IS(T) = q * Ae * nie^2(T) * Dnb(T) / NG(T)                 (eq. 2)
    Dnb(T) = Dnb(T0) * (T/T0)**(1 - EN)                        (eq. 4)
    NG(T)  = NG(T0) * (T/T0)**Erho                             (eq. 5)
    nie^2(T) = nie^2(T0) * (T/T0)**(3 - b/k)
               * exp(-(EG(0) - dEG_bgn)*(1/T - 1/T0)/k_eV)     (eq. 10)

which collapses (eq. 11) to the SPICE law of eq. 1 with (eq. 12)

    EG  = EG(0) - dEG_bgn
    XTI = 4 - EN - Erho - b/k

The collapse is *exact* only when the band gap follows the logarithmic
model (eq. 9).  Two evaluation paths are provided — the component-wise
product of eq. 2 and the closed form of eq. 11 — and the test suite checks
they agree, which is the library-level proof of the paper's derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from ..constants import K_BOLTZMANN_EV
from ..bjt.laws import saturation_current
from ..errors import ModelError
from .bandgap import ThurmondLogBandgap
from .mobility import MobilityPowerLaw
from .narrowing import BandgapNarrowing, FixedNarrowing


@dataclass(frozen=True)
class GummelNumberModel:
    """Base Gummel number ``NG(T) = NG(T0) * (T/T0)**Erho`` (paper eq. 5).

    ``ng_ref`` in cm^-2 (integrated base doping); ``exponent`` is the
    paper's ``Erho``, typically a small positive number reflecting the
    weak temperature dependence of the neutral-base boundaries.
    """

    ng_ref: float = 1.0e13
    t_ref: float = 300.0
    exponent: float = 0.10

    def __post_init__(self) -> None:
        if self.ng_ref <= 0.0 or self.t_ref <= 0.0:
            raise ModelError("Gummel number reference values must be positive")

    def value(self, temperature_k: float) -> float:
        """Return ``NG(T)`` in cm^-2."""
        if temperature_k <= 0.0:
            raise ModelError("Gummel number requires a positive temperature")
        return self.ng_ref * (temperature_k / self.t_ref) ** self.exponent


@dataclass(frozen=True)
class PhysicalSaturationCurrent:
    """``IS(T)`` built from physical ingredients (paper eqs. 2-11).

    The absolute scale is anchored by ``is_ref`` at ``t_ref`` (the
    integral prefactor ``q*Ae*nie^2*Dnb/NG`` of eq. 2 folded into one
    measurable number); the *temperature shape* comes entirely from the
    physical exponents and the bandgap model, which is all the paper's
    extraction problem is about.
    """

    bandgap: ThurmondLogBandgap = field(
        default_factory=lambda: ThurmondLogBandgap(eg0=1.1774, a=3.042e-4, b=-8.459e-5)
    )
    mobility: MobilityPowerLaw = field(default_factory=MobilityPowerLaw)
    gummel: GummelNumberModel = field(default_factory=GummelNumberModel)
    narrowing: BandgapNarrowing = field(default_factory=FixedNarrowing)
    doping_cm3: float = 1.0e18
    is_ref: float = 1.2e-17
    t_ref: float = 300.0

    def __post_init__(self) -> None:
        if self.is_ref <= 0.0 or self.t_ref <= 0.0:
            raise ModelError("saturation-current anchors must be positive")

    # ------------------------------------------------------------------
    # SPICE identification (paper eq. 12)
    # ------------------------------------------------------------------
    @property
    def spice_eg(self) -> float:
        """Effective SPICE ``EG`` in eV: ``EG(0) - dEG_bgn``."""
        return self.bandgap.eg0 - self.narrowing.delta_eg(self.doping_cm3)

    @property
    def spice_xti(self) -> float:
        """SPICE ``XTI``: ``4 - EN - Erho - b/k``."""
        return (
            4.0
            - self.mobility.exponent
            - self.gummel.exponent
            - self.bandgap.b / K_BOLTZMANN_EV
        )

    def spice_parameters(self) -> Tuple[float, float]:
        """Return the ``(EG, XTI)`` couple of paper eq. 12."""
        return self.spice_eg, self.spice_xti

    # ------------------------------------------------------------------
    # Two evaluation paths for IS(T)
    # ------------------------------------------------------------------
    def is_closed_form(self, temperature_k: float) -> float:
        """``IS(T)`` via the collapsed SPICE law (paper eq. 11 == eq. 1)."""
        if temperature_k <= 0.0:
            raise ModelError("IS(T) requires a positive temperature")
        eg, xti = self.spice_parameters()
        return saturation_current(
            self.is_ref, temperature_k, self.t_ref, xti, eg / K_BOLTZMANN_EV, math.exp
        )

    def is_component_form(self, temperature_k: float) -> float:
        """``IS(T)`` as the product of the physical factors (paper eq. 2).

        Each factor is evaluated relative to ``t_ref`` so the anchored
        ``is_ref`` carries the absolute scale:

        * ``nie^2`` ratio from eq. 10 (bandgap model + narrowing),
        * ``Dnb`` ratio from the mobility power law (eq. 4),
        * ``1/NG`` ratio from the Gummel-number law (eq. 5).
        """
        if temperature_k <= 0.0:
            raise ModelError("IS(T) requires a positive temperature")
        t, t0 = temperature_k, self.t_ref
        # nie^2 ratio, eq. 10: (T/T0)^(3 - b/k) * exp(-(EG(0)-dEG)*(1/T-1/T0)/k)
        eg_eff = self.spice_eg
        nie_sq_ratio = (t / t0) ** (3.0 - self.bandgap.b / K_BOLTZMANN_EV) * math.exp(
            -(eg_eff / K_BOLTZMANN_EV) * (1.0 / t - 1.0 / t0)
        )
        dnb_ratio = self.mobility.diffusivity(t) / self.mobility.diffusivity(t0)
        ng_ratio = self.gummel.value(t) / self.gummel.value(t0)
        return self.is_ref * nie_sq_ratio * dnb_ratio / ng_ratio

    def sensitivity_percent_per_kelvin(self, temperature_k: float) -> float:
        """``d(ln IS)/dT`` in %/K — the paper quotes ~20 %/K near 300 K.

        Analytic: ``d ln IS/dT = XTI/T + EG/(k_eV * T^2)``.
        """
        eg, xti = self.spice_parameters()
        return 100.0 * (xti / temperature_k + eg / (K_BOLTZMANN_EV * temperature_k**2))


def spice_parameters_from_physics(
    bandgap: ThurmondLogBandgap,
    mobility_exponent: float = 1.42,
    gummel_exponent: float = 0.10,
    narrowing_ev: float = 0.045,
) -> Tuple[float, float]:
    """Shortcut for paper eq. 12 without building the full model.

    Returns ``(EG, XTI)`` with ``EG = EG(0) - narrowing`` and
    ``XTI = 4 - EN - Erho - b/k``.
    """
    eg = bandgap.eg0 - narrowing_ev
    xti = 4.0 - mobility_exponent - gummel_exponent - bandgap.b / K_BOLTZMANN_EV
    return eg, xti
