"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perfbench/test_harness.py -q
"""

import dataclasses
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def _all_inputs(seed):
    lot, noise = inputs.lot_draws(seed, size=16)
    return {
        "startup": inputs.startup_specs(seed, count=64),
        "array": inputs.array_specs(seed, count=64),
        "array_decks": [inputs.array_deck(s) for s in inputs.array_specs(seed, count=3)],
        "service_decks": inputs.service_decks(seed),
        "service_stream": inputs.service_stream(seed, count=256),
        "lot": [repr(sample) for sample in lot],
        "lot_noise": noise,
    }


def test_same_seed_gives_byte_identical_inputs():
    first, second = _all_inputs(7), _all_inputs(7)
    for key in first:
        assert inputs.fingerprint(first[key]) == inputs.fingerprint(second[key]), key


def test_different_seed_gives_different_inputs():
    first, second = _all_inputs(7), _all_inputs(8)
    for key in first:
        assert inputs.fingerprint(first[key]) != inputs.fingerprint(second[key]), key


def test_service_stream_shape():
    stream = inputs.service_stream(3, count=400)
    kinds = [entry["kind"] for entry in stream]
    assert {"novel", "repeat", "malformed"} <= set(kinds)
    for entry in stream:
        if entry["kind"] == "repeat":
            assert entry["request"] == stream[entry["repeat_of"]]["request"]
    assert len(inputs.service_decks(3)) <= 8  # the server's session-pool size


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = [row[0] for row in report.END_TO_END + report.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in report.END_TO_END + report.PER_LAYER:
        assert NAME.match(name), name
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit), unit
        assert better in ("higher", "lower")
    assert set(report.SPAN_TIME_METRIC.values()) <= set(names)


def test_benchmark_json_matches_the_emitted_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the harness")
    with open(path) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [r[0] for r in report.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [r[0] for r in report.PER_LAYER]
    for declared, (name, unit, better) in zip(
        spec["end_to_end"] + spec["per_layer"], report.END_TO_END + report.PER_LAYER
    ):
        assert (declared["unit"], declared["better"]) == (unit, better), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def _span(sid, parent, name, start, end, depth, op=1):
    return (sid, parent, name, start, end, depth, op)


def test_self_time_is_duration_minus_children_on_a_tree():
    tree = [
        _span(1, 0, "op", 0, 100, 0),
        _span(2, 1, "solver.newton", 10, 50, 1),
        _span(3, 2, "solver.factor", 20, 30, 2),
        _span(4, 2, "solver.backsolve", 30, 35, 2),
        _span(5, 1, "mna.assemble", 60, 90, 1),
        _span(6, 5, "elements.stamp", 60, 61, 2),
    ]
    result = spans.attribute(tree)
    assert result["exclusive"] == {
        "op": 100 - 40 - 30,
        "solver.newton": 40 - 10 - 5,
        "solver.factor": 10,
        "solver.backsolve": 5,
        "mna.assemble": 29,
        "elements.stamp": 1,
    }
    assert result["wall_ns"] == 100 and result["ops"] == 1
    assert sum(result["exclusive"].values()) == result["wall_ns"]
    metrics = report.layer_metrics(result, {}, {}, {})
    layer_ms = {report.SPAN_TIME_METRIC[name] for name in result["exclusive"]}
    assert sum(metrics[m] for m in layer_ms) == pytest.approx(metrics["op_wall_ms"])
    assert metrics["unattributed_ms"] == pytest.approx(30e-6)
    assert metrics["solver.newton_self_ms"] == pytest.approx(25e-6)
    assert metrics["mna.assemble_calls"] == 1


def test_overlapping_server_spans_win_and_still_add_up():
    depth = spans.SERVER_DEPTH
    mixed = [
        _span(1, 0, "op", 0, 100, 0),
        _span(2, 1, "http.post", 0, 10, 1),
        _span(3, 1, "http.poll", 40, 60, 1),
        _span(4, 1, "http.result", 90, 100, 1),
        _span(10, 0, "jobs.execute", 30, 80, depth),
        _span(11, 10, "solver.factor", 50, 55, depth + 1),
        # Server work outside the op window is clipped away.
        _span(12, 0, "store.absorb", 95, 120, depth),
    ]
    result = spans.attribute(mixed)
    assert result["exclusive"] == {
        "op": 20 + 10,  # only 10..30 and 80..90 are nobody else's
        "http.post": 10,
        "http.poll": 0,
        "http.result": 5,
        "jobs.execute": 45,
        "solver.factor": 5,
        "store.absorb": 5,
    }
    assert sum(result["exclusive"].values()) == result["wall_ns"] == 100


def test_ops_attribute_separately_and_merge():
    first = [_span(1, 0, "op", 0, 10, 0, op=1), _span(2, 1, "parser.parse", 2, 4, 1, op=1)]
    second = [_span(3, 0, "op", 20, 25, 0, op=2)]
    merged = spans.merge(spans.attribute(first), spans.attribute(second))
    assert merged == spans.attribute(first + second)
    assert merged["ops"] == 2 and merged["wall_ns"] == 15
    assert merged["exclusive"] == {"op": 13, "parser.parse": 2}


def test_recorder_nests_and_counts():
    clock = iter(range(0, 1000, 10))
    rec = spans.Recorder(clock=lambda: next(clock))
    rec.op = 5
    outer = rec.begin("op")
    inner = rec.begin("parser.parse")
    rec.end(inner)
    rec.end(outer)
    done = sorted(rec.spans(clear=True))
    assert [(s[2], s[3], s[4], s[5], s[6]) for s in done] == [
        ("op", 0, 30, 0, 5),
        ("parser.parse", 10, 20, 1, 5),
    ]
    assert done[1][1] == done[0][0]  # parent id
    assert rec.spans() == []


# ----------------------------------------------------------------------
# Output checks reject corrupted outputs
# ----------------------------------------------------------------------

def _ready(cls, seed=5):
    workload = cls(seed, ROOT, "")
    workload.setup()
    return workload


def test_corrupted_extraction_fails_its_check(monkeypatch):
    import repro.extraction

    workload = _ready(workloads.LotExtraction)
    assert workload.op(0)
    real = repro.extraction.run_analytical_extraction

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        couple = result.couple_computed_t
        result.couple_computed_t = dataclasses.replace(couple, eg=couple.eg + 0.5)
        return result

    monkeypatch.setattr(repro.extraction, "run_analytical_extraction", corrupted)
    assert not workload.op(1)


def test_corrupted_transient_fails_its_check(monkeypatch):
    from repro.spice.transient import TransientResult

    workload = _ready(workloads.CellStartup)
    assert workload.op(0)
    real = TransientResult.voltage
    monkeypatch.setattr(
        TransientResult, "voltage", lambda self, node: real(self, node) + 0.01
    )
    assert not workload.op(1)


def test_corrupted_array_solution_fails_its_check(monkeypatch):
    from repro.spice.analysis import OperatingPoint

    workload = _ready(workloads.ArraySweep)
    assert workload.op(0)
    real = OperatingPoint.voltage
    monkeypatch.setattr(
        OperatingPoint,
        "voltage",
        lambda self, node: -1.0 if node == "o7" else real(self, node),
    )
    assert not workload.op(1)


def test_corrupted_served_payload_fails_the_replay_check():
    workload = workloads.ServiceMix(5, ROOT, "")
    workload.stream = inputs.service_stream(5, count=24)
    from repro.serve.jobs import plan_from_wire
    from repro.spice import Session, parse_netlist

    sessions = {}
    workload.served = {}
    workload.history = list(range(len(workload.stream)))
    for position, entry in enumerate(workload.stream):
        if entry["kind"] == "malformed":
            continue
        netlist = entry["request"]["circuit"]["netlist"]
        session = sessions.setdefault(netlist, Session(parse_netlist(netlist)))
        result = session.run(plan_from_wire(entry["request"]["plan"])).to_dict()
        workload.served[position] = json.dumps(result, sort_keys=True).encode()
    assert workload.replay_mismatches() == 0
    victim = max(workload.served)
    workload.served[victim] = workload.served[victim].replace(b"e", b"E", 1)
    assert workload.replay_mismatches() == 1


def test_host_speed_scales_times_by_the_nearby_kernel_samples():
    import hostspeed
    import run

    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # The host runs at half speed until t = 10, then at reference speed.
    host.samples = [(float(t), 2 * nominal if t < 10 else nominal) for t in range(20)]
    assert host.scale(2.0) == pytest.approx(0.5)
    assert host.scale(17.0) == pytest.approx(1.0)
    tally = run.Tally()
    tally.started, tally.elapsed = 0.0, 20.0
    tally.spans = [(t, t + 1.0) for t in range(20)]
    # Ops 0-8 have a majority of half-speed samples among their five
    # nearest, so they count 0.5 s each; ops 9-19 count 1 s.
    assert tally.latencies(host) == pytest.approx([0.5] * 9 + [1.0] * 11)
    assert tally.rate() == pytest.approx(1.0)
    assert tally.rate(host) == pytest.approx(20 / 15.5)


def test_known_defect_probes_are_reported_not_counted(monkeypatch):
    import run

    workload = workloads.ServiceMix(5, ROOT, "")
    monkeypatch.setattr(workload, "replay_mismatches", lambda: 0)

    def probe():
        raise workloads.JobFailed("ConvergenceError: initial point has (6,) unknowns")

    monkeypatch.setattr(workload, "_cross_topology_probe", probe)
    monkeypatch.setattr(workloads, "_acard_cold_op", lambda: None)
    tally = run.Tally()
    workload.finish(tally)
    assert (tally.attempted, tally.failed) == (0, 0)
    assert workload.report["known_defect.cross_topology_store"][0].startswith(
        "reproduced (JobFailed: ConvergenceError"
    )
    assert workload.report["known_defect.acard_cold_op_stall"][0] == "not reproduced"


def test_cell_temperatures_skip_the_sub1v_stall_band():
    lo, hi = inputs.SUB1V_OP_STALL_K
    for seed in (1, 2, 3):
        temps = [spec["temperature_k"] for spec in inputs.startup_specs(seed)]
        assert not any(lo < t < hi for t in temps)
        assert min(temps) >= 263.15 and max(temps) <= 348.15


def test_refuses_to_run_with_faults_armed(monkeypatch, capsys):
    import run

    monkeypatch.setenv("REPRO_FAULTS", "solve:1")
    code = run.main(["--workload", "lot_extraction", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "REPRO_FAULTS" in capsys.readouterr().err
