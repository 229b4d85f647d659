"""Tests for the behavioural bandgap and its agreement with the netlist."""

import numpy as np
import pytest

from repro.circuits import BandgapCellConfig, BehaviouralBandgap, build_bandgap_cell
from repro.circuits.bandgap_cell import measure_vref
from repro.spice import Session, TempSweep
from repro.units import celsius_to_kelvin


TEMPS = [celsius_to_kelvin(t) for t in (-80, -55, -30, -5, 20, 45, 70, 95, 120, 145)]


class TestAgreementWithNetlist:
    @pytest.mark.parametrize(
        "config",
        [
            BandgapCellConfig(substrate_unit=None),
            BandgapCellConfig(),
            BandgapCellConfig(radja=2.5e3),
            BandgapCellConfig(opamp_vos=2e-3),
        ],
        ids=["ideal", "leaky", "trimmed", "offset"],
    )
    def test_vref_tracks_netlist_within_5mv(self, config):
        # The behavioural path must reproduce the netlist path's VREF(T)
        # to < 5 mV (residual: finite op-amp gain ~1.5 mV, base-current
        # routing ~0.5 mV).
        session = Session(build_bandgap_cell(config), temperature_k=TEMPS[0])
        sweep = session.run(TempSweep(temperatures_k=TEMPS)).sweep
        behavioural = BehaviouralBandgap(config)
        for point, temp in zip(sweep.points, TEMPS):
            assert behavioural.vref(temp) == pytest.approx(
                measure_vref(point), abs=5e-3
            )

    def test_shape_correlation(self):
        # Beyond absolute agreement, the temperature *shape* (the thing
        # the paper cares about) must match: compare detrended curves.
        config = BandgapCellConfig()
        session = Session(build_bandgap_cell(config), temperature_k=TEMPS[0])
        sweep = session.run(TempSweep(temperatures_k=TEMPS)).voltage("vref")
        behavioural = np.array([BehaviouralBandgap(config).vref(t) for t in TEMPS])
        shape_netlist = sweep - sweep.mean()
        shape_behaviour = behavioural - behavioural.mean()
        assert np.max(np.abs(shape_netlist - shape_behaviour)) < 2e-3


class TestBehaviouralProperties:
    def test_branch_current_magnitude(self):
        bandgap = BehaviouralBandgap(BandgapCellConfig(substrate_unit=None))
        current = bandgap.branch_current(300.15)
        assert 7e-6 < current < 12e-6

    def test_branch_current_is_ptat(self):
        bandgap = BehaviouralBandgap(BandgapCellConfig(substrate_unit=None))
        # dVBE is PTAT and RB rises with its tempco, so I grows sublinearly
        # but monotonically.
        currents = [bandgap.branch_current(t) for t in (250.0, 300.0, 350.0)]
        assert currents == sorted(currents)

    def test_leakage_raises_current_at_hot(self):
        clean = BehaviouralBandgap(BandgapCellConfig(substrate_unit=None))
        leaky = BehaviouralBandgap(BandgapCellConfig())
        t_hot = celsius_to_kelvin(145.0)
        assert leaky.branch_current(t_hot) > clean.branch_current(t_hot)

    def test_delta_vbe_pads_offset(self):
        config = BandgapCellConfig(p5_tap_offset_v=4.5e-3)
        base = BandgapCellConfig()
        t = 300.0
        shift = BehaviouralBandgap(config).delta_vbe_at_pads(t) - BehaviouralBandgap(
            base
        ).delta_vbe_at_pads(t)
        assert shift == pytest.approx(4.5e-3, rel=1e-9)

    def test_vbe_qin_plausible(self):
        bandgap = BehaviouralBandgap(BandgapCellConfig())
        vbe = bandgap.vbe_qin(300.15)
        assert 0.6 < vbe < 0.8

    def test_vbe_qin_ctat(self):
        bandgap = BehaviouralBandgap(BandgapCellConfig())
        assert bandgap.vbe_qin(250.0) > bandgap.vbe_qin(350.0)
