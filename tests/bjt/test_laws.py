"""The junction laws of :mod:`repro.bjt.laws`, float text against array text.

The scalar stamps and the vectorized device groups evaluate the same
law functions, built once over ``math`` and once over ``numpy``.  What
may differ is only the rounding of ``exp``/``**`` between the two
libraries (``sqrt`` and the arithmetic are correctly rounded in both),
so each array output must equal its scalar twin to 1e-14 of the
magnitude of the terms it sums — an elementwise bound that stays
meaningful where ``ic`` cancels near ``vbe ~ vbc``.

The simulator device and the paper's analytical model
(:class:`~repro.bjt.GummelPoonModel`) must also agree across the
paper's temperature and bias range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bjt import GummelPoonModel, PAPER_PNP_LARGE, PAPER_PNP_SMALL
from repro.bjt.laws import (
    _MAX_EXP_ARG,
    depletion_capacitance,
    depletion_capacitance_array,
    diode_current,
    diode_current_array,
    gummel_poon_currents,
    gummel_poon_currents_array,
    gummel_poon_derivatives,
    gummel_poon_derivatives_array,
    gummel_poon_laws,
    limited_exp,
    limited_exp_array,
)
from repro.bjt.parameters import BJTParameters
from repro.spice.elements.bjt import SpiceBJT

#: Array-vs-scalar bound, relative to each output's term magnitude.
RTOL = 1e-14

INF = float("inf")


def early(low, high):
    return st.one_of(st.just(INF), st.floats(min_value=low, max_value=high))


cards = st.builds(
    BJTParameters,
    is_=st.floats(min_value=1e-19, max_value=1e-13),
    ise=st.one_of(st.just(0.0), st.floats(min_value=1e-19, max_value=1e-12)),
    bf=st.floats(min_value=5.0, max_value=500.0),
    br=st.floats(min_value=0.1, max_value=20.0),
    nf=st.floats(min_value=0.9, max_value=1.5),
    nr=st.floats(min_value=0.9, max_value=1.5),
    ne=st.floats(min_value=1.0, max_value=4.0),
    vaf=early(1.0, 200.0),
    var=early(0.5, 50.0),
    ikf=st.one_of(st.just(INF), st.floats(min_value=1e-7, max_value=1e-1)),
    eg=st.floats(min_value=0.6, max_value=1.9),
    xti=st.floats(min_value=-2.0, max_value=10.0),
    xtb=st.floats(min_value=0.0, max_value=3.0),
    tnom=st.floats(min_value=250.0, max_value=350.0),
)
temperatures = st.floats(min_value=150.0, max_value=450.0)
# +-10 V reaches past the exp cap (vbe/(NF*VT) > 120 needs ~9.3 V at
# 450 K with NF = 1.5) and deep into the base-charge clamp for small
# VAR/VAF.
biases = st.lists(
    st.tuples(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    ),
    min_size=1,
    max_size=12,
)


def term_scales(vbe, vbc, laws, core):
    """Per output, the sum of the magnitudes of the terms it adds up
    (``exp(x) - 1`` counts as two terms: it cancels for ``|x| << 1``)."""
    is_t, ise_t, bf_t, nf_vt, nr_vt, ne_vt, inv_var, inv_vaf, ikf, br = laws
    def_, der, dele, d, q1, root, h, qb, icc = core
    i_f = is_t * (limited_exp(vbe / nf_vt)[0] + 1.0)
    i_r = is_t * (limited_exp(vbc / nr_vt)[0] + 1.0)
    i_le = ise_t * (limited_exp(vbe / ne_vt)[0] + 1.0)
    gif = is_t * def_ / nf_vt
    gir = is_t * der / nr_vt
    dqb_dvbe = q1 * q1 * inv_var * h + q1 / root * gif / ikf
    dqb_dvbc = q1 * q1 * inv_vaf * h
    transport = (i_f + i_r) / qb
    return (
        transport + i_r / br,
        i_f / bf_t + i_le + i_r / br,
        gif / qb + transport * dqb_dvbe / qb,
        gir / qb + transport * dqb_dvbc / qb + gir / br,
        gif / bf_t + ise_t * dele / ne_vt,
        gir / br,
    )


class TestArrayLawEqualsScalarLaw:
    @settings(max_examples=300, deadline=None)
    @given(card=cards, t=temperatures, points=biases)
    def test_gummel_poon(self, card, t, points):
        scalar_laws = gummel_poon_laws(card, t, math.exp)
        array_laws = gummel_poon_laws(card, np.full(len(points), t), np.exp)
        for scalar, array in zip(scalar_laws, array_laws):
            np.testing.assert_allclose(array, scalar, rtol=RTOL, atol=0.0)

        vbe = np.array([p[0] for p in points])
        vbc = np.array([p[1] for p in points])
        ic, ib, core = gummel_poon_currents_array(vbe, vbc, array_laws)
        outputs = (ic, ib) + gummel_poon_derivatives_array(core, array_laws)
        for k, (v_be, v_bc) in enumerate(points):
            s_ic, s_ib, s_core = gummel_poon_currents(v_be, v_bc, scalar_laws)
            expected = (s_ic, s_ib) + gummel_poon_derivatives(s_core, scalar_laws)
            scales = term_scales(v_be, v_bc, scalar_laws, s_core)
            for name, got, want, scale in zip(
                ("ic", "ib", "dic_dvbe", "dic_dvbc", "dib_dvbe", "dib_dvbc"),
                outputs, expected, scales,
            ):
                assert math.isfinite(want), name
                assert abs(got[k] - want) <= RTOL * scale, (name, v_be, v_bc)

    @settings(max_examples=100, deadline=None)
    @given(card=cards, t=temperatures, points=biases)
    def test_full_call_after_currents_only_call(self, card, t, points):
        """The memoised core completes the same six values a fresh call
        computes."""
        for vbe, vbc in points:
            warm = SpiceBJT("Q1", "c", "b", "e", card)
            currents = warm.currents_and_derivatives(vbe, vbc, t, False)
            full = warm.currents_and_derivatives(vbe, vbc, t)
            fresh = SpiceBJT("Q2", "c", "b", "e", card)
            assert full == fresh.currents_and_derivatives(vbe, vbc, t)
            assert currents == full[:2]

    @settings(max_examples=100, deadline=None)
    @given(
        vd=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1,
                    max_size=12),
        sat=st.floats(min_value=1e-25, max_value=1e-10),
        nvt=st.floats(min_value=0.01, max_value=0.08),
    )
    def test_diode(self, vd, sat, nvt):
        i, g = diode_current_array(np.array(vd), sat, nvt)
        for k, v in enumerate(vd):
            s_i, s_g = diode_current(v, sat, nvt)
            assert abs(i[k] - s_i) <= RTOL * (abs(s_i) + sat)
            assert abs(g[k] - s_g) <= RTOL * s_g

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.lists(st.floats(min_value=-20.0, max_value=5.0), min_size=1,
                   max_size=12),
        vj=st.floats(min_value=0.3, max_value=1.2),
        m=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_depletion(self, v, vj, m):
        cj0 = 1e-13
        c = depletion_capacitance_array(cj0, vj, m, np.array(v))
        for k, bias in enumerate(v):
            want = depletion_capacitance(cj0, vj, m, bias)
            assert want > 0.0
            assert abs(c[k] - want) <= RTOL * want

    def test_limited_exp_twins_agree_across_the_cap(self):
        args = np.array([-700.0, -1.0, 0.0, 60.0, _MAX_EXP_ARG, 125.0, 1e6])
        value, slope = limited_exp_array(args)
        for k, arg in enumerate(args):
            s_value, s_slope = limited_exp(float(arg))
            assert value[k] == pytest.approx(s_value, rel=RTOL, abs=0.0)
            assert slope[k] == pytest.approx(s_slope, rel=RTOL, abs=0.0)


class TestDepletionLaw:
    def test_continuous_at_the_linearisation_edge(self):
        edge = 0.5 * 0.75
        below = depletion_capacitance(1e-13, 0.75, 0.33, edge - 1e-9)
        at = depletion_capacitance(1e-13, 0.75, 0.33, edge)
        assert at == pytest.approx(1e-13 / 0.5**0.33, rel=1e-15)
        assert below == pytest.approx(at, rel=1e-8)

    def test_linear_past_the_edge(self):
        cj0, vj, m = 1e-13, 0.75, 0.33
        edge = 0.5 * vj
        c_edge = cj0 / 0.5**m
        slope = c_edge * m / (vj * 0.5)
        for v in (0.5, 0.9, 2.0):
            assert depletion_capacitance(cj0, vj, m, v) == pytest.approx(
                c_edge + slope * (v - edge), rel=1e-15
            )


@pytest.mark.parametrize("params", [PAPER_PNP_SMALL, PAPER_PNP_LARGE],
                         ids=["1x", "8x"])
def test_simulator_device_matches_analytical_model(params):
    """``SpiceBJT`` at ``vbc = 0`` is the paper's ``GummelPoonModel``
    over the paper's range (-80..+145 C, 0.3..0.8 V)."""
    device = SpiceBJT("Q1", "c", "b", "e", params)
    model = GummelPoonModel(params)
    for t in np.linspace(193.0, 418.0, 10):
        for vbe in np.linspace(0.3, 0.8, 11):
            ic, ib = device.currents_and_derivatives(vbe, 0.0, t)[:2]
            assert ic == pytest.approx(model.collector_current(vbe, t), rel=1e-12)
            assert ib == pytest.approx(model.base_current(vbe, t), rel=1e-12)
