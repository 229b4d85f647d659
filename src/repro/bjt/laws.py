"""The junction laws, each written once.

The scalar SPICE stamps, the vectorized device groups
(:mod:`repro.spice.groups`), the paper's analytical model
(:class:`repro.bjt.GummelPoonModel`), the substrate leakage and the
physical ``IS(T)`` of :mod:`repro.physics.gummel` all call these
functions: :func:`saturation_current` (paper eq. 1) and the card laws
built on it, the Gummel-Poon junction law in two steps (currents plus a
``core`` of intermediates, then the derivatives completed from that
core), the depletion law and the diode law.

One text serves floats and arrays.  The temperature laws take ``exp``
as an argument; :func:`_junction_laws` builds the junction laws once
over ``math`` (``gummel_poon_currents`` …) and once over ``numpy``
(``gummel_poon_currents_array`` …), binding the elementary functions as
closure variables.  The two paths thus differ only by the rounding of
``exp``/``**`` between the libraries.  A card is any object with the
SPICE field names of :class:`~repro.bjt.parameters.BJTParameters` (or
``is_``, ``n``, ``eg``, ``xti``, ``tnom`` for a diode): a parameter
set, an element, or a namespace of per-device arrays.  ``inf`` disables
``VAF``/``VAR``/``IKF``: dividing by it gives exactly the zero terms.

Overflow audit: every junction exponential goes through
:func:`limited_exp` (or its array twin), which never evaluates ``exp``
past the cap; the base-charge denominator is clamped at 0.05 and the
knee ``sqrt`` argument at 0; the depletion law is linearised past
``FC*VJ``.  No operand can overflow or go NaN for a finite bias at a
positive temperature.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..constants import K_BOLTZMANN_EV, K_OVER_Q

#: Exponential arguments beyond this are linearised to keep Newton finite.
#: The cap must sit ABOVE any physically converged junction argument, or
#: the linear continuation manufactures spurious equilibria: at 193 K the
#: library's PNPs run at vbe/(n*VT) ~ 54 because IS(193 K) ~ 1e-28 A, so
#: a conservative 120 covers the whole -80..+145 C range of the paper
#: while exp(120) ~ 1.3e52 stays comfortably inside float64.
_MAX_EXP_ARG = 120.0

#: ``exp`` at the linearisation boundary.
_EDGE = math.exp(_MAX_EXP_ARG)

#: Forward-bias fraction past which the depletion law is linearised.
_FC = 0.5

#: Lower clamp of the base-charge denominator ``1 - vbe/VAR - vbc/VAF``.
_D_MIN = 0.05


def limited_exp(arg: float) -> Tuple[float, float]:
    """Return ``(exp(arg), d/darg exp(arg))`` with linear continuation.

    Beyond the cap the function continues linearly with the slope at the
    boundary; this keeps junction stamps finite for the wild intermediate
    iterates Newton can produce, without affecting converged solutions
    (see the cap's comment for why it must clear every physical bias).
    ``math.exp`` is only ever evaluated at or below the cap, so this can
    neither raise ``OverflowError`` nor produce ``inf``.
    """
    if arg <= _MAX_EXP_ARG:
        value = math.exp(arg)
        return value, value
    return _EDGE * (1.0 + (arg - _MAX_EXP_ARG)), _EDGE


def limited_exp_array(arg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`limited_exp`.  The argument is clamped
    *before* ``np.exp``, so no overflow is ever evaluated."""
    value = np.exp(np.minimum(arg, _MAX_EXP_ARG))
    over = arg > _MAX_EXP_ARG
    if over.any():
        slope = np.where(over, _EDGE, value)
        value = np.where(over, _EDGE * (1.0 + (arg - _MAX_EXP_ARG)), value)
        return value, slope
    return value, value


# ----------------------------------------------------------------------
# Temperature laws
# ----------------------------------------------------------------------
def saturation_current(i0, t, tnom, xti, eg_over_k, exp):
    """Paper eq. 1: ``I0 * (T/TNOM)**XTI * exp(EG/k * (1/TNOM - 1/T))``.

    ``eg_over_k`` is ``EG/k`` in kelvin; ``exp`` is ``math.exp`` for
    floats or ``np.exp`` for arrays.
    """
    return i0 * (t / tnom) ** xti * exp(eg_over_k * (1.0 / tnom - 1.0 / t))


def transport_saturation_current(card, t, exp):
    """``IS(T)`` of a Gummel-Poon card (paper eq. 1)."""
    return saturation_current(
        card.is_, t, card.tnom, card.xti, card.eg / K_BOLTZMANN_EV, exp
    )


def leakage_saturation_current(card, t, exp):
    """``ISE(T) = ISE * (T/TNOM)**(XTI/NE - XTB)
    * exp(EG/(NE*k) * (1/TNOM - 1/T))`` (SPICE)."""
    return saturation_current(
        card.ise, t, card.tnom, card.xti / card.ne - card.xtb,
        card.eg / (card.ne * K_BOLTZMANN_EV), exp,
    )


def forward_beta(card, t):
    """``BF(T) = BF * (T/TNOM)**XTB`` (SPICE)."""
    return card.bf * (t / card.tnom) ** card.xtb


def gummel_poon_laws(card, t, exp) -> tuple:
    """Everything :func:`gummel_poon_currents` needs of a card at ``T``:
    ``(IS(T), ISE(T), BF(T), NF*VT, NR*VT, NE*VT, 1/VAR, 1/VAF, IKF, BR)``.
    """
    vt = K_OVER_Q * t
    return (
        transport_saturation_current(card, t, exp),
        leakage_saturation_current(card, t, exp),
        forward_beta(card, t),
        card.nf * vt,
        card.nr * vt,
        card.ne * vt,
        1.0 / card.var,
        1.0 / card.vaf,
        card.ikf,
        card.br,
    )


def diode_saturation_current(card, t, exp):
    """SPICE diode ``IS(T)``: paper eq. 1 with both temperature
    exponents divided by the ideality ``N``."""
    return saturation_current(
        card.is_, t, card.tnom, card.xti / card.n,
        card.eg / (card.n * K_BOLTZMANN_EV), exp,
    )


# ----------------------------------------------------------------------
# Junction laws
# ----------------------------------------------------------------------
def _junction_laws(limited_exp, sqrt, maximum, minimum):
    """Build the junction laws over one set of elementary functions."""

    def gummel_poon_currents(vbe, vbc, laws):
        """Junction-convention ``(ic, ib, core)`` at ``(vbe, vbc)``.

        ``laws`` is a :func:`gummel_poon_laws` tuple.  The base charge
        is ``qb = q1 * (1 + sqrt(1 + 4 q2)) / 2`` with the Early
        denominator ``d = 1 - vbe/VAR - vbc/VAF`` clamped at 0.05, which
        keeps intermediate Newton iterates finite (converged operating
        points sit far from the clamp).  ``core`` carries what
        :func:`gummel_poon_derivatives` needs.
        """
        is_t, ise_t, bf_t, nf_vt, nr_vt, ne_vt, inv_var, inv_vaf, ikf, br = laws
        ef, def_ = limited_exp(vbe / nf_vt)
        er, der = limited_exp(vbc / nr_vt)
        ele, dele = limited_exp(vbe / ne_vt)
        i_f = is_t * (ef - 1.0)
        i_r = is_t * (er - 1.0)
        d = 1.0 - vbe * inv_var - vbc * inv_vaf
        q1 = 1.0 / maximum(d, _D_MIN)
        root = sqrt(1.0 + 4.0 * maximum(i_f / ikf, 0.0))
        h = 0.5 * (1.0 + root)
        qb = q1 * h
        icc = (i_f - i_r) / qb
        ic = icc - i_r / br
        ib = i_f / bf_t + ise_t * (ele - 1.0) + i_r / br
        return ic, ib, (def_, der, dele, d, q1, root, h, qb, icc)

    def gummel_poon_derivatives(core, laws):
        """``(dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc)`` completed from a
        :func:`gummel_poon_currents` core at the same ``laws``."""
        is_t, ise_t, bf_t, nf_vt, nr_vt, ne_vt, inv_var, inv_vaf, ikf, br = laws
        def_, der, dele, d, q1, root, h, qb, icc = core
        gif = is_t * def_ / nf_vt
        gir = is_t * der / nr_vt
        # dq1/dv vanishes where the denominator is clamped.
        q1_sq = (d >= _D_MIN) * (q1 * q1)
        dqb_dvbe = q1_sq * inv_var * h + q1 * (1.0 / root) * (gif / ikf)
        dqb_dvbc = q1_sq * inv_vaf * h
        dic_dvbe = gif / qb - icc * dqb_dvbe / qb
        dic_dvbc = -gir / qb - icc * dqb_dvbc / qb - gir / br
        dib_dvbe = gif / bf_t + ise_t * dele / ne_vt
        return dic_dvbe, dic_dvbc, dib_dvbe, gir / br

    def depletion_capacitance(cj0, vj, m, v):
        """SPICE depletion law ``cj0 / (1 - v/vj)^m``, continued
        linearly past ``FC*vj`` (FC = 0.5) with the slope at the edge:
        the raw law diverges at ``v = vj`` and converged junctions
        routinely sit past ``FC*vj``."""
        edge = minimum(v, _FC * vj)
        base = 1.0 - edge / vj
        c = cj0 / base**m
        return c + c * m / (vj * base) * (v - edge)

    def diode_current(vd, sat, nvt):
        """``(i, di/dvd)`` of ``i = IS(T) * (exp(vd/(n*VT)) - 1)``."""
        value, slope = limited_exp(vd / nvt)
        return sat * (value - 1.0), sat * slope / nvt

    return (
        gummel_poon_currents,
        gummel_poon_derivatives,
        depletion_capacitance,
        diode_current,
    )


def _max(a, b):
    # Builtin ``max`` costs several times more per call on floats.
    return b if a < b else a


def _min(a, b):
    return b if b < a else a


(
    gummel_poon_currents,
    gummel_poon_derivatives,
    depletion_capacitance,
    diode_current,
) = _junction_laws(limited_exp, math.sqrt, _max, _min)

(
    gummel_poon_currents_array,
    gummel_poon_derivatives_array,
    depletion_capacitance_array,
    diode_current_array,
) = _junction_laws(limited_exp_array, np.sqrt, np.maximum, np.minimum)
