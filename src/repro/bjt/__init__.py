"""BJT device models.

A SPICE-level Gummel-Poon model of the bipolar transistor: saturation
current temperature law (paper eq. 1), forward ``IC(VBE)`` including
base-width modulation (reverse Early voltage ``VAR``), high-injection
roll-off, series resistances, the parasitic substrate PNP that plagues
the paper's low-voltage test cell, and the matched pair used by the
test structure (paper Fig. 2).

:mod:`repro.bjt.laws` holds each junction law once — ``IS(T)``, the
Gummel-Poon currents and derivatives, the depletion and diode laws —
for floats and arrays; the simulator's scalar stamps and device groups
and this package's analytical model all call it.
"""

from .parameters import BJTParameters, PAPER_PNP_SMALL, PAPER_PNP_LARGE
from .model import GummelPoonModel
from .gummel_plot import GummelSweep, gummel_sweep
from .substrate import SubstratePNP
from .pair import MatchedPair

__all__ = [
    "BJTParameters",
    "PAPER_PNP_SMALL",
    "PAPER_PNP_LARGE",
    "GummelPoonModel",
    "GummelSweep",
    "gummel_sweep",
    "SubstratePNP",
    "MatchedPair",
]
