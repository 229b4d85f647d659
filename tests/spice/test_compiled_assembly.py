"""Equivalence contract of the compiled assembly engine.

The compiled path (cached linear stamps + COO scatter for the nonlinear
group) must produce the same ``(J, F)`` as the retained reference
element-by-element assembler — on every registered circuit, at
arbitrary iterates, under every configuration knob the solver turns
(gmin, source_scale, time) and for a mid-transient companion-model
step with non-trivial integrator state.  Two contracts are exact, not
approximate: the residual-only assembly (currents-only device stamps)
equals the full assembly's residual bit for bit, and so does the
sources-only refresh of the cached static residual.
"""

import numpy as np
import pytest

from repro.bjt.parameters import BJTParameters
from repro.bjt.substrate import SubstratePNP
from repro.constants import thermal_voltage
from repro.spice import (
    PWL,
    Capacitor,
    Circuit,
    CurrentSource,
    Pulse,
    Resistor,
    VoltageSource,
)
from repro.spice.elements.base import (
    DynamicState,
    Stamp,
    TransientContext,
    _MAX_EXP_ARG,
)
from repro.spice.elements.bjt import SpiceBJT
from repro.spice.elements.controlled import CCCS, VCVS
from repro.spice.elements.diode import Diode
from repro.spice.elements.opamp import OpAmp
from repro.spice.mna import MNASystem
from repro.spice.solver import solve_dc

from families import CIRCUITS

#: Both device-evaluator paths (the conftest fixture flips
#: REPRO_VECTORIZED): the compiled-vs-reference contract must hold
#: whether the nonlinear devices evaluate grouped or scalar.
pytestmark = pytest.mark.usefixtures("device_eval_path")

#: Matching tolerance: the two paths may only differ by summation-order
#: rounding, parts in 1e16 of the largest stamped term.
ATOL = 1e-12
RTOL = 1e-12

#: (gmin, source_scale) corners the stepping strategies exercise.
CONDITIONS = [(1e-12, 1.0), (1e-3, 1.0), (1e-12, 0.3)]


def _iterates(size: int):
    """A deterministic spread of iterates: origin, offsets, random."""
    rng = np.random.default_rng(1234)
    return [
        np.zeros(size),
        np.full(size, 0.61),
        rng.normal(0.4, 0.8, size),
    ]


def _transient_context(circuit, x):
    """A mid-run integration context with non-trivial history."""
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    if not dynamic:
        return None
    states = {
        el.name: DynamicState(
            charge=el.charge_at(x) * 0.7 + 1e-12, current=1e-6 * (1 + index)
        )
        for index, el in enumerate(dynamic)
    }
    return TransientContext(dt=2.5e-7, method="trap", states=states)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_dc_assembly_matches_reference(name):
    circuit = CIRCUITS[name]()
    compiled = MNASystem(circuit, compiled=True)
    reference = MNASystem(circuit, compiled=False)
    assert compiled.compiled and not reference.compiled
    for x in _iterates(compiled.size):
        for gmin, scale in CONDITIONS:
            jc, fc = compiled.assemble(x, gmin=gmin, source_scale=scale)
            jr, fr = reference.assemble(x, gmin=gmin, source_scale=scale)
            np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
            rc = compiled.assemble_residual(x, gmin=gmin, source_scale=scale)
            np.testing.assert_allclose(rc, fr, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CIRCUITS)
     if any(el.is_dynamic for el in CIRCUITS[n]().elements)],
)
def test_transient_step_assembly_matches_reference(name):
    circuit = CIRCUITS[name]()
    compiled = MNASystem(circuit, compiled=True)
    reference = MNASystem(circuit, compiled=False)
    for x in _iterates(compiled.size):
        ctx = _transient_context(circuit, x)
        jc, fc = compiled.assemble(x, time=3e-6, transient=ctx)
        jr, fr = reference.assemble(x, time=3e-6, transient=ctx)
        np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
        rc = compiled.assemble_residual(x, time=3e-6, transient=ctx)
        np.testing.assert_allclose(rc, fr, rtol=RTOL, atol=ATOL)


def test_fresh_context_refreshes_companion_history():
    """Advancing the integrator state must invalidate the cached b_lin."""
    circuit = CIRCUITS["rc_ladder"]()
    compiled = MNASystem(circuit, compiled=True)
    reference = MNASystem(circuit, compiled=False)
    x = np.full(compiled.size, 0.5)
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    states = {el.name: DynamicState() for el in dynamic}
    ctx = TransientContext(dt=1e-7, method="be", states=states)
    _, f0 = compiled.assemble(x, transient=ctx)
    # Advance the history (as the engine does on step acceptance) and
    # open a new context — the compiled residual must track it.
    for el in dynamic:
        states[el.name].charge = el.charge_at(x)
        states[el.name].current = 3e-5
    ctx2 = TransientContext(dt=1e-7, method="be", states=states)
    _, fc = compiled.assemble(x, transient=ctx2)
    _, fr = reference.assemble(x, transient=ctx2)
    np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
    assert not np.allclose(fc, f0)  # the state change is visible


def test_invalidate_tracks_linear_value_mutation():
    """Mutating a linear element on a live system needs invalidate()."""
    circuit = Circuit("divider")
    circuit.add(VoltageSource("V1", "in", "0", 2.0))
    resistor = Resistor("R1", "in", "out", 1e3)
    circuit.add(resistor)
    circuit.add(Resistor("R2", "out", "0", 1e3))
    system = MNASystem(circuit, compiled=True)
    x = np.zeros(system.size)
    system.assemble(x)
    resistor.resistance = 2e3
    system.invalidate()
    jc, fc = system.assemble(x)
    jr, fr = MNASystem(circuit, compiled=False).assemble(x)
    np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("name", ["diode_chain", "bandgap_cell", "sub1v_cell"])
def test_compiled_and_reference_solve_to_same_point(name):
    """End to end: both assembly paths land on the same operating point."""
    compiled = solve_dc(CIRCUITS[name]())
    import os

    os.environ["REPRO_COMPILED"] = "0"
    try:
        reference = solve_dc(CIRCUITS[name]())
    finally:
        del os.environ["REPRO_COMPILED"]
    assert compiled.x == pytest.approx(reference.x, abs=1e-9)


def test_total_source_power_matches_elementwise_sum():
    """The residual-only power path equals a hand sum over sources."""
    circuit = CIRCUITS["rc_ladder"]()
    solution = solve_dc(circuit)
    system = MNASystem(circuit)
    total = system.total_source_power(solution.x)
    # V1 drives the ladder; I1 injects into mid.  Recompute by hand.
    v_in = solution.x[circuit.node_index("in")]
    v_mid = solution.x[circuit.node_index("mid")]
    i_v1 = solution.x[circuit.element("V1").branch_index()]
    by_hand = -(v_in - 0.0) * i_v1 + (1e-6 * 300.15) * (v_mid - 0.0)
    assert total == pytest.approx(by_hand, rel=1e-9)


# -- residual-only assembly -------------------------------------------------

#: Early voltages small enough that modest iterates hit the base-charge
#: clamp (``1 - vbe/VAR - vbc/VAF < 0.05``).
_CLAMP_CARD = BJTParameters(
    polarity="npn", vaf=6.0, var=0.8, ikf=1e-3, rb=0.0, re=0.0, rc=0.0
)
_PNP_CARD = BJTParameters(rb=0.0, re=0.0, rc=0.0)


def _device_corner_circuit() -> Circuit:
    """Every scalar device stamp with its optional branches: BJTs with a
    substrate transistor (derived and fixed drive), an NPN and a PNP, a
    diode, an op-amp sensing a ramping supply, and a capacitor so the
    transient companion path is live."""
    circuit = Circuit("device corners")
    circuit.add(VoltageSource(
        "VDD", "vdd", "0", Pulse(0.0, 3.3, delay=1e-6, rise=1e-5)
    ))
    circuit.add(SpiceBJT("Q1", "c1", "b1", "e1", _CLAMP_CARD).attach_substrate(
        SubstratePNP(i_leak_ref=1e-9), "sub"
    ))
    circuit.add(SpiceBJT("Q2", "c2", "b2", "0", _CLAMP_CARD).attach_substrate(
        SubstratePNP(i_leak_ref=1e-9, area=8.0), "sub", drive=0.5
    ))
    circuit.add(SpiceBJT("Q3", "0", "b3", "e3", _PNP_CARD))
    circuit.add(Diode("D1", "c2", "e3"))
    circuit.add(OpAmp("A1", "e1", "b3", "b2", gain=2e3, supply="vdd"))
    circuit.add(Resistor("R1", "vdd", "c1", 1e4))
    circuit.add(Resistor("R2", "vdd", "c2", 2e4))
    circuit.add(Resistor("R3", "b1", "c1", 5e4))
    circuit.add(Resistor("R4", "e1", "0", 3e3))
    circuit.add(Resistor("R5", "vdd", "e3", 4e4))
    circuit.add(Resistor("RS", "sub", "0", 1e3))
    circuit.add(Capacitor("C1", "b2", "0", 2e-12))
    return circuit


def _corner_iterates(circuit: Circuit, size: int):
    """Iterates that drive the devices into every stamp branch."""
    def at(**volts):
        x = np.full(size, 1e-4)
        for node, value in volts.items():
            x[circuit.node_index(node)] = value
        return x

    rng = np.random.default_rng(7)
    return [
        # Q1 past the exponent cap (vbe/VT > 120), saturated enough that
        # the derived substrate drive is non-zero; op-amp rail sensed.
        at(vdd=2.0, b1=4.0, e1=0.0, c1=0.1, b2=0.4, c2=1.5, e3=1.0, b3=0.3),
        # Q2's base charge clamped (vbe/VAR > 0.95) below the cap; supply
        # collapsed under the op-amp's floor.
        at(vdd=0.0, b1=0.6, e1=0.1, c1=2.0, b2=0.9, c2=0.2, e3=0.2, b3=0.8),
        # The reverse junction (vbc) past the cap, PNP forward-biased.
        at(vdd=3.3, b1=3.5, e1=0.0, c1=-0.2, b2=-4.0, c2=0.0, e3=1.5, b3=0.4),
        # Moderate forward biases, where every current term matters.
        rng.uniform(0.0, 0.8, size),
        rng.normal(0.3, 1.5, size),
    ]


def test_corner_iterates_reach_every_branch():
    """Guards the fixture: the iterates above really hit the exponent
    cap, the base-charge clamp, a live substrate drive and a sensed
    rail, so the exactness test below covers those branches."""
    circuit = _device_corner_circuit()
    system = MNASystem(circuit, compiled=True, vectorized=False)
    first, second, third, *_ = _corner_iterates(circuit, system.size)
    vt = thermal_voltage(system.temperature_k)

    def v(x, node):
        return x[circuit.node_index(node)]

    assert (v(first, "b1") - v(first, "e1")) / vt > _MAX_EXP_ARG
    assert (v(third, "b1") - v(third, "c1")) / vt > _MAX_EXP_ARG
    q1 = circuit.element("Q1")
    assert q1.substrate.saturation_drive(v(first, "c1") - v(first, "e1")) > 0.0
    vbe, vbc = v(second, "b2"), v(second, "b2") - v(second, "c2")
    assert 1.0 - vbe / _CLAMP_CARD.var - vbc / _CLAMP_CARD.vaf < 0.05
    assert vbe / vt < _MAX_EXP_ARG
    amp = circuit.element("A1")
    assert amp._effective_rail_high(v(first, "vdd"))[1] == 1.0
    assert amp._effective_rail_high(v(second, "vdd"))[1] == 0.0


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_residual_only_assembly_equals_full_residual_exactly(compiled):
    """The currents-only device stamps of the residual pass reproduce the
    full assembly's residual bit for bit, at DC and mid-transient.  Two
    circuit instances keep the device memos apart, so every residual
    here is computed by the currents-only branch itself."""
    full_circuit = _device_corner_circuit()
    residual_circuit = _device_corner_circuit()
    full = MNASystem(full_circuit, compiled=compiled, vectorized=False)
    residual_only = MNASystem(residual_circuit, compiled=compiled, vectorized=False)
    assert not full.vectorized
    for x in _corner_iterates(full_circuit, full.size):
        for time, dynamic in ((None, False), (4e-6, False), (6e-6, True)):
            ctx = _transient_context(full_circuit, x) if dynamic else None
            for gmin, scale in CONDITIONS:
                _, f_full = full.assemble(
                    x, gmin=gmin, source_scale=scale, time=time, transient=ctx
                )
                f_res = residual_only.assemble_residual(
                    x, gmin=gmin, source_scale=scale, time=time, transient=ctx
                )
                np.testing.assert_array_equal(f_res, f_full)


def test_currents_only_memo_entry_never_serves_a_full_call():
    bjt = SpiceBJT("Q", "c", "b", "e", _CLAMP_CARD)
    fresh = SpiceBJT("Q", "c", "b", "e", _CLAMP_CARD)
    point = (0.72, -0.3, 300.15)
    currents = bjt.currents_and_derivatives(*point, derivatives=False)
    assert len(currents) == 2
    result = bjt.currents_and_derivatives(*point)
    assert len(result) == 6
    assert result == fresh.currents_and_derivatives(*point)
    assert currents == result[:2]
    # A full entry serves a later currents-only call at the same point.
    assert bjt.currents_and_derivatives(*point, derivatives=False) == currents

    amp = OpAmp("A", "p", "n", "o", gain=3e3, supply="s")
    reference = OpAmp("A", "p", "n", "o", gain=3e3, supply="s")
    args = (1e-4, 300.15, 2.5)
    value, slopes = amp._output_and_slope(*args, derivatives=False)
    assert slopes is None
    assert amp._output_and_slope(*args) == reference._output_and_slope(*args)
    assert amp._output_and_slope(*args)[0] == value


# -- sources-only static refresh --------------------------------------------


def _source_deck() -> Circuit:
    circuit = Circuit("waveform sources")
    circuit.add(VoltageSource(
        "V1", "in", "0", Pulse(0.0, 2.5, delay=1e-6, rise=3e-6, fall=1e-6,
                               width=5e-6)
    ))
    sense = VoltageSource("VS", "in", "a", PWL([(0.0, 0.0), (4e-6, 0.3), (1e-5, -0.1)]))
    circuit.add(sense)
    circuit.add(Resistor("R1", "a", "b", 1e3, tc1=1e-3))
    circuit.add(VCVS("E1", "c", "0", "b", "0", 3.0))
    circuit.add(Resistor("R2", "c", "b", 2e3))
    circuit.add(CCCS("F1", "0", "b", sense, -1.5))
    circuit.add(CurrentSource(
        "I1", "0", "c", PWL([(0.0, 1e-6), (2e-6, 4e-6), (9e-6, -2e-6)])
    ))
    circuit.add(CurrentSource("I2", "b", "0", Pulse(0.0, 1e-5, rise=2e-6)))
    circuit.add(Resistor("R3", "c", "0", 5e3))
    return circuit


def _static_residual_at_origin(system: MNASystem, gmin, scale, time):
    """Full ``Stamp`` of every static linear element at ``x = 0``."""
    size = system.size
    residual = np.zeros(size)
    stamp = Stamp(
        x=np.zeros(size), jacobian=np.zeros((size, size)), residual=residual,
        temperature_k=system.temperature_k, gmin=gmin, source_scale=scale,
        time=time,
    )
    for el in system._assembler.linear_static:
        el.stamp(stamp)
    return residual


def test_static_refresh_stamps_only_sources_bit_for_bit():
    circuit = _source_deck()
    system = MNASystem(circuit, compiled=True)
    assembler = system._assembler
    sources = [el for el in circuit.elements
               if isinstance(el, (VoltageSource, CurrentSource))]
    assert assembler.static_sources == sources

    stamped = []
    for el in circuit.elements:
        def counting(stamp, _name=el.name, _stamp=el.stamp):
            stamped.append(_name)
            _stamp(stamp)

        el.stamp = counting
    x = np.zeros(system.size)
    system.assemble(x, time=0.0)  # full static pass
    for time, scale in ((2.5e-6, 1.0), (4.5e-6, 1.0), (7e-6, 0.3), (1.2e-5, 0.7)):
        stamped.clear()
        system.assemble_residual(x, source_scale=scale, time=time)
        assert stamped == [el.name for el in sources]
        np.testing.assert_array_equal(
            assembler._b_static,
            _static_residual_at_origin(system, 1e-12, scale, time),
        )
        assert assembler._b_static.any()  # the sources are live here
