"""Tests for sweeps and the self-heating loop."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.spice import (
    OP,
    Circuit,
    CurrentSource,
    DCSweep,
    Diode,
    Resistor,
    Session,
    TempSweep,
    VoltageSource,
    solve_with_self_heating,
)

def diode_circuit():
    c = Circuit()
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


class TestDcSweep:
    def test_sweep_shape(self):
        result = Session(diode_circuit()).run(
            DCSweep(source="V1", values=(1.0, 2.0, 3.0))
        ).sweep
        assert len(result) == 3
        assert result.parameter == "V1"

    def test_monotone_diode_drive(self):
        values = tuple(np.linspace(0.5, 5.0, 10))
        result = Session(diode_circuit()).run(DCSweep(source="V1", values=values))
        vd = result.voltage("d")
        assert np.all(np.diff(vd) > 0.0)

    def test_source_value_restored(self):
        c = diode_circuit()
        Session(c).run(DCSweep(source="V1", values=(1.0, 2.0)))
        assert c.element("V1").dc == 5.0

    def test_rejects_non_source(self):
        with pytest.raises(NetlistError):
            Session(diode_circuit()).run(DCSweep(source="R1", values=(1.0,)))


class TestTemperatureSweep:
    def test_diode_drop_ctat(self):
        temps = (250.0, 300.0, 350.0)
        result = Session(diode_circuit(), temperature_k=temps[0]).run(
            TempSweep(temperatures_k=temps)
        )
        vd = result.voltage("d")
        assert np.all(np.diff(vd) < 0.0)

    def test_values_recorded(self):
        temps = [260.0, 300.0, 340.0]
        result = Session(diode_circuit(), temperature_k=temps[0]).run(
            TempSweep(temperatures_k=tuple(temps))
        ).sweep
        assert result.parameter == "temperature"
        np.testing.assert_allclose(result.values, temps)
        assert [p.temperature_k for p in result.points] == temps


class TestSelfHeating:
    def test_zero_rth_means_no_heating(self):
        solution = solve_with_self_heating(diode_circuit(), 300.0, 0.0)
        assert solution.self_heating_k == pytest.approx(0.0, abs=1e-9)

    def test_die_warmer_than_ambient(self):
        solution = solve_with_self_heating(diode_circuit(), 300.0, 200.0)
        assert solution.self_heating_k > 0.0
        # P ~ 5 V * 4.3 mA ~ 21 mW -> ~4.3 K rise at 200 K/W.
        assert solution.self_heating_k == pytest.approx(
            200.0 * solution.power_w, abs=1e-3
        )

    def test_power_magnitude(self):
        solution = solve_with_self_heating(diode_circuit(), 300.0, 100.0)
        assert 0.015 < solution.power_w < 0.03

    def test_operating_point_at_die_temperature(self):
        solution = solve_with_self_heating(diode_circuit(), 300.0, 500.0)
        assert solution.operating_point.temperature_k == pytest.approx(solution.die_k)
        assert solution.die_k > 300.0

    def test_rejects_negative_rth(self):
        with pytest.raises(ConvergenceError):
            solve_with_self_heating(diode_circuit(), 300.0, -1.0)

    def test_current_source_power(self):
        # A 1 mA source into 1 kOhm delivers 1 mW.
        c = Circuit()
        c.add(CurrentSource("I1", "0", "out", 1e-3))
        c.add(Resistor("R1", "out", "0", 1e3))
        solution = solve_with_self_heating(c, 300.0, 100.0)
        assert solution.power_w == pytest.approx(1e-3, rel=1e-6)
        # The loop settles within its tol_k (1e-4 K) of the fixed point.
        assert solution.self_heating_k == pytest.approx(0.1, abs=2e-4)


class TestSweepSystemReuse:
    """Sweeps keep ONE re-temperatured MNASystem + Newton workspace."""

    def bandgap_like(self):
        # Temperature-dependent linear elements (resistor tempco) plus a
        # nonlinear junction: both cache classes must re-temperature.
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 3.0))
        c.add(Resistor("R1", "in", "d", 2e3, tc1=1.5e-3))
        c.add(Diode("D1", "d", "0"))
        return c

    def test_sweep_matches_per_point_solves(self):
        temps = (250.0, 280.0, 310.0, 340.0)
        swept = Session(self.bandgap_like(), temperature_k=temps[0]).run(
            TempSweep(temperatures_k=temps)
        )
        for t, point in zip(temps, swept.points):
            session = Session(self.bandgap_like(), temperature_k=t)
            fresh = session.run(OP(temperature_k=t)).op
            np.testing.assert_allclose(point.x, fresh.x, rtol=1e-9, atol=1e-12)

    def test_set_temperature_invalidates_linear_caches(self):
        from repro.spice.mna import MNASystem
        from repro.spice.solver import solve_dc_system

        circuit = self.bandgap_like()
        system = MNASystem(circuit, temperature_k=300.0)
        first = solve_dc_system(system)
        system.set_temperature(350.0)
        warm = solve_dc_system(system, x0=first.x)
        session = Session(self.bandgap_like(), temperature_k=350.0)
        fresh = session.run(OP(temperature_k=350.0)).op
        np.testing.assert_allclose(warm.x, fresh.x, rtol=1e-9, atol=1e-12)
        # The resistor tempco must actually have moved the solution.
        assert abs(warm.x[circuit.node_index("d")] - first.x[circuit.node_index("d")]) > 1e-3

    def test_sweep_reuses_factorizations_across_points(self):
        from repro.spice.stats import STATS

        temps = tuple(np.linspace(250.0, 350.0, 11))
        STATS.reset()
        Session(self.bandgap_like(), temperature_k=temps[0]).run(
            TempSweep(temperatures_k=temps)
        )
        swept_factorizations = STATS.factorizations
        swept_reuses = STATS.lu_reuses
        STATS.reset()
        for t in temps:
            Session(self.bandgap_like(), temperature_k=t).run(OP(temperature_k=t))
        per_point_factorizations = STATS.factorizations
        # The shared workspace lets warm-started neighbouring points ride
        # the previous point's LU; per-point solves cannot.
        assert swept_factorizations < per_point_factorizations
        assert swept_reuses > 0

    def test_dc_sweep_invalidates_value_mutation(self):
        # Same values as fresh solves: the invalidate() after each dc
        # mutation keeps the cached b_lin honest.
        values = (1.0, 2.0, 4.0)
        swept = Session(diode_circuit()).run(DCSweep(source="V1", values=values))
        for value, point in zip(values, swept.points):
            c = diode_circuit()
            c.element("V1").dc = value
            fresh = Session(c).run(OP()).op
            np.testing.assert_allclose(point.x, fresh.x, rtol=1e-9, atol=1e-12)
