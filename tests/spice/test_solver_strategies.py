"""Solver fallback ladder: force each strategy and check its report.

The DC solver tries plain Newton, then gain stepping (op-amp macros),
then gmin stepping, then source stepping — each fallback engages only
when everything before it failed, and stamps its name into
``RawSolution.strategy``.  These tests construct circuits (and iteration
budgets) that deterministically exercise each rung, so a refactor that
silently reorders or breaks a rung fails loudly.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, Resistor, SolverOptions, VoltageSource, solve_dc
from repro.spice.elements.base import Element
from repro.spice.elements.diode import Diode
from repro.spice.mna import MNASystem
from repro.spice.solver import _newton, solve_dc_system
from repro.spice.stats import STATS
from repro.telemetry.tracer import tracing

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"


def diode_chain(n_diodes: int, load_ohm: float = 1e3, supply_v: float = 2.5) -> Circuit:
    """A stiff series diode chain: hostile to cold-started Newton."""
    circuit = Circuit(f"{n_diodes}-diode chain")
    circuit.add(VoltageSource("V1", "n0", "0", supply_v))
    circuit.add(Resistor("R1", "n0", "m0", 1e3))
    for i in range(n_diodes):
        circuit.add(Diode(f"D{i}", f"m{i}", f"m{i + 1}", is_=1e-15))
    circuit.add(Resistor("RL", f"m{n_diodes}", "0", load_ohm))
    return circuit


class TestPlainNewton:
    def test_linear_circuit_reports_newton(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("V1", "in", "0", 2.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", "0", 1e3))
        solution = solve_dc(circuit)
        assert solution.strategy == "newton"

    def test_diode_chain_with_full_budget_reports_newton(self):
        solution = solve_dc(diode_chain(3))
        assert solution.strategy == "newton"


class TestGainStepping:
    def test_bandgap_cell_cold_start_uses_gain_stepping(self):
        from repro.circuits.bandgap_cell import build_bandgap_cell

        solution = solve_dc(build_bandgap_cell())
        assert solution.strategy == "gain-stepping"

    def test_gain_stepping_restores_final_gains(self):
        from repro.circuits.bandgap_cell import build_bandgap_cell
        from repro.spice.elements.opamp import OpAmp

        circuit = build_bandgap_cell()
        amps = [el for el in circuit.elements if isinstance(el, OpAmp)]
        gains = [amp.gain for amp in amps]
        solve_dc(circuit)
        assert [amp.gain for amp in amps] == gains

    def test_sub1v_cell_cold_start_uses_gain_stepping(self):
        from repro.circuits.sub1v import build_sub1v_cell

        solution = solve_dc(build_sub1v_cell())
        assert solution.strategy == "gain-stepping"


class TestGminStepping:
    def test_starved_newton_falls_back_to_gmin_stepping(self):
        # 10 damped iterations are not enough for a cold start on the
        # stiff chain, but each warm-started gmin stage converges fast;
        # no op-amp is present, so gain stepping cannot fire first.
        options = SolverOptions(max_iterations=10)
        solution = solve_dc(diode_chain(3), options=options)
        assert solution.strategy == "gmin-stepping"

    def test_gmin_solution_is_the_true_operating_point(self):
        options = SolverOptions(max_iterations=10)
        starved = solve_dc(diode_chain(3), options=options)
        reference = solve_dc(diode_chain(3))
        assert reference.strategy == "newton"
        assert starved.x == pytest.approx(reference.x, abs=1e-6)


class TestSourceStepping:
    def test_starved_newton_without_gmin_ladder_source_steps(self):
        # With the gmin ladder disabled the only remaining fallback is
        # the source ramp (the zero-source circuit solves trivially and
        # each 10%-step warm start stays in the basin).
        options = SolverOptions(max_iterations=8, gmin_ladder=())
        solution = solve_dc(diode_chain(4, load_ohm=10.0), options=options)
        assert solution.strategy == "source-stepping"

    def test_source_stepping_solution_matches_reference(self):
        options = SolverOptions(max_iterations=8, gmin_ladder=())
        stepped = solve_dc(diode_chain(4, load_ohm=10.0), options=options)
        reference = solve_dc(diode_chain(4, load_ohm=10.0))
        assert stepped.x == pytest.approx(reference.x, abs=1e-6)

    def test_exhausted_ladder_raises_convergence_error(self):
        # 2 iterations are not enough for any rung of the ladder.
        options = SolverOptions(max_iterations=2, gmin_ladder=())
        with pytest.raises(ConvergenceError):
            solve_dc(diode_chain(4, load_ohm=10.0), options=options)


class _SquarePlusOne(Element):
    """Draws ``v**2 + 1`` A from ``a`` to ``b``, ``v = v(a) - v(b)``:
    ``|F|`` has a minimum at ``v = 0`` that is not a root, so no damping
    rung ever descends from there."""

    is_nonlinear = True

    def __init__(self, name: str, a: str, b: str):
        super().__init__(name, (a, b))

    def stamp(self, stamp) -> None:
        a, b = self._node_idx
        v = stamp.v(a) - stamp.v(b)
        current, slope = v * v + 1.0, 2.0 * v
        stamp.add_residual(a, current)
        stamp.add_residual(b, -current)
        stamp.add_jacobian(a, a, slope)
        stamp.add_jacobian(a, b, -slope)
        stamp.add_jacobian(b, a, -slope)
        stamp.add_jacobian(b, b, slope)


def _newton_spans(tracer):
    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    return [
        span
        for root in tracer.roots
        for span in walk(root)
        if span.name == "newton_solve"
    ]


class TestLadderExhaustion:
    """A Newton run ends at its first iteration whose damping ladder
    finds no residual decrease, instead of stepping on from the
    smallest rung until the stall window gives up."""

    def _system(self):
        circuit = Circuit("no descent")
        circuit.add(_SquarePlusOne("X1", "n", "0"))
        return MNASystem(circuit)

    def test_run_ends_after_one_factor_iteration(self):
        system = self._system()
        before = STATS.snapshot()
        solution = _newton(
            system, np.zeros(system.size), SolverOptions(), gmin=1e-12,
            source_scale=1.0,
        )
        delta = STATS.delta_since(before)
        assert solution is None
        assert delta["iterations"] == 1
        assert delta["factorizations"] == 1
        # The initial residual plus one full ladder (full step, clamp,
        # eleven halvings); no second iteration.
        assert delta["residual_evaluations"] == 1 + 13

    def test_traced_span_names_the_reason(self):
        system = self._system()
        with tracing(detail="full") as tracer:
            solution = _newton(
                system, np.zeros(system.size), SolverOptions(), gmin=1e-12,
                source_scale=1.0, phase="plain",
            )
        assert solution is None
        (span,) = _newton_spans(tracer)
        assert span.attrs["reason"] == "no_descent"
        assert span.attrs["converged"] is False
        assert [record["kind"] for record in span.iterations] == ["factor"]

    def test_cold_startup_op_plain_run_ends_early(self):
        """The bandgap startup cell's cold post-ramp OP: plain Newton
        cannot converge without gain stepping, and used to grind for 81
        iterations (13 residuals each) before the stall check fired."""
        from repro.circuits.startup import (
            StartupRampConfig,
            build_startup_bandgap_cell,
        )

        golden = json.loads((GOLDEN_DIR / "startup_bandgap.json").read_text())
        circuit = build_startup_bandgap_cell(StartupRampConfig())
        system = MNASystem(circuit, temperature_k=golden["temperature_k"])
        with tracing(detail="full") as tracer:
            raw = solve_dc_system(system, time=golden["time"])
        plain = [s for s in _newton_spans(tracer) if s.attrs["phase"] == "plain"]
        assert len(plain) == 1
        assert plain[0].attrs["reason"] == "no_descent"
        assert len(plain[0].iterations) <= 15
        assert raw.strategy == "gain-stepping"
        vref = raw.x[circuit.node_index("vref")]
        assert vref == pytest.approx(golden["vref"], rel=0.0, abs=1e-9)
