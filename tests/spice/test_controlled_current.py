"""Tests for the current-controlled sources (CCCS/CCVS)."""

import pytest

from repro.errors import NetlistError
from repro.spice import OP, Circuit, Resistor, Session, VoltageSource
from repro.spice.elements.controlled import CCCS, CCVS


def sense_circuit():
    """1 mA through V-sense (V1 drives 1 V into 1 kOhm)."""
    circuit = Circuit()
    vsense = VoltageSource("V1", "in", "0", 1.0)
    circuit.add(vsense)
    circuit.add(Resistor("R1", "in", "0", 1e3))
    return circuit, vsense


class TestCCCS:
    def test_current_gain(self):
        circuit, vsense = sense_circuit()
        # Branch current of V1 is -1 mA (delivering); gain -2 pushes
        # +2 mA into node 'out'.
        circuit.add(CCCS("F1", "0", "out", vsense, gain=-2.0))
        circuit.add(Resistor("RL", "out", "0", 1e3))
        op = Session(circuit).run(OP()).op
        assert op.voltage("out") == pytest.approx(2.0, rel=1e-6)

    def test_rejects_branchless_control(self):
        resistor = Resistor("R9", "a", "0", 1e3)
        with pytest.raises(NetlistError):
            CCCS("F1", "0", "out", resistor, gain=1.0)


class TestCCVS:
    def test_transresistance(self):
        circuit, vsense = sense_circuit()
        # v(out) = r * i(V1) = 500 * (-1 mA) = -0.5 V.
        circuit.add(CCVS("H1", "out", "0", vsense, r=500.0))
        circuit.add(Resistor("RL", "out", "0", 1e4))
        op = Session(circuit).run(OP()).op
        assert op.voltage("out") == pytest.approx(-0.5, rel=1e-6)

    def test_branch_current_available(self):
        circuit, vsense = sense_circuit()
        circuit.add(CCVS("H1", "out", "0", vsense, r=100.0))
        circuit.add(Resistor("RL", "out", "0", 1e3))
        op = Session(circuit).run(OP()).op
        # The CCVS output drives RL: i = v/RL through its own branch.
        assert op.branch_current("H1") == pytest.approx(
            -op.voltage("out") / 1e3, rel=1e-6
        )

    def test_rejects_branchless_control(self):
        resistor = Resistor("R9", "a", "0", 1e3)
        with pytest.raises(NetlistError):
            CCVS("H1", "out", "0", resistor, r=1.0)


class TestCurrentMirrorIdiom:
    def test_cccs_as_ideal_mirror(self):
        # The classic use: mirror a reference branch current 1:1.
        circuit = Circuit()
        vref = VoltageSource("VS", "ref", "refl", 0.0)  # 0 V sense element
        circuit.add(VoltageSource("V1", "vdd", "0", 3.0))
        circuit.add(Resistor("RREF", "vdd", "ref", 30e3))
        circuit.add(vref)
        circuit.add(Resistor("RB", "refl", "0", 1.0))
        circuit.add(CCCS("F1", "0", "out", vref, gain=1.0))
        circuit.add(Resistor("RL", "out", "0", 10e3))
        op = Session(circuit).run(OP()).op
        i_ref = op.branch_current("VS")
        assert op.voltage("out") == pytest.approx(i_ref * 10e3, rel=1e-6)
