"""The four workloads: set-up, one op, output checks, end-of-run checks.

Every workload is a closed loop with one caller: the runner starts op
``i + 1`` only after op ``i`` has returned.  ``op`` returns ``True``
when the op's outputs pass their checks; a failed check is a failed op.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from typing import Dict, List, Optional

import inputs

#: Simulated time past the end of the VDD ramp [s] (the startup
#: experiment's window).
POST_RAMP_WINDOW = 150e-6
#: Residual ceiling of every accepted transient step (the startup
#: experiment's audit bound).
STEP_RESIDUAL_TOL = 1e-6
#: |settled vref - OP at t_stop| bound [V].
DC_MATCH_TOL = 1e-3
#: Zero-jitter array: identical cells must agree to this [V].
CELL_MATCH_TOL = 1e-9
#: Converged-point residual ceiling for OP / sweep points.
POINT_RESIDUAL_TOL = 1e-6
#: ``ideal_sample()`` recovery tolerances (tests/extraction/test_pipeline.py).
IDEAL_EG_TOL = 3e-3
IDEAL_XTI_TOL = 0.3
#: Per-chip plausibility band of the noisy, pad-corrected extraction
#: (about 4x the worst error seen over 1024 noisy chips: 25 meV, 0.87).
CHIP_EG_TOL = 0.1
CHIP_XTI_TOL = 3.0


class JobFailed(Exception):
    """A served job ended in the server's typed failure record."""


def _warm_up(name: str, op) -> None:
    """Run one untimed warm-up op.  A typed error from the program is
    tolerated (the timed ops count those); a failed check is not."""
    from repro.errors import ReproError

    try:
        ok = op()
    except (ReproError, JobFailed):
        return
    if not ok:
        raise RuntimeError(f"{name} warm-up op failed its output checks")


def _known_defect(report: Dict[str, tuple], name: str, probe) -> None:
    """Run the reproducer of one known program defect, outside the ops.

    The seeded inputs steer clear of each known defect, so no op fails
    and two runs on different seeds count the same failures (none).
    Every run still reproduces each defect once, here, and prints
    whether it did (``known_defect.<name>``), so a defect stays in the
    output until a fix makes it read ``not reproduced``.  ``probe``
    returns normally when the program gets the case right.
    """
    from repro.errors import ReproError

    try:
        probe()
    except (ReproError, JobFailed) as exc:
        report[f"known_defect.{name}"] = (f"reproduced ({type(exc).__name__}: {exc})", "")
        return
    report[f"known_defect.{name}"] = ("not reproduced", "")


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: Modules imported before the first set-up (their cost is part of
    #: ``setup_s``, counted once).
    imports: tuple = ()
    #: What one op is, with its input size (printed with ``ops_per_s``).
    op_desc = ""

    def __init__(self, seed: int, root: str, scratch: str):
        self.seed = seed
        self.root = root
        self.scratch = scratch
        #: Extra result lines: name -> (value, unit).
        self.report: Dict[str, tuple] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Make op ``index``'s inputs ahead of its timer (default: none)."""

    def op(self, index: int, rec=None) -> bool:
        raise NotImplementedError

    def finish(self, tally) -> None:
        """End-of-run checks and ops; they add to ``tally`` (run.Tally)."""

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def counters(self) -> Dict[str, float]:
        from repro.spice.stats import STATS

        return {k: v for k, v in STATS.as_dict().items() if not isinstance(v, dict)}

    # Traced runs --------------------------------------------------------
    #: True when every span of an op is recorded in this process, so ops
    #: can be attributed one at a time as they finish.
    spans_in_process = True

    def begin_trace(self, rec) -> None:
        import spans

        spans.install_engine(rec)

    def trace_extra(self) -> Dict[str, float]:
        """Per-layer values the workload measures itself (traced run)."""
        return {}

    def end_trace(self) -> tuple:
        """Spans and counters recorded outside this process (the server
        child's), as ``(spans, counts)``."""
        return [], {}


# ----------------------------------------------------------------------
# cell_startup
# ----------------------------------------------------------------------

class CellStartup(Workload):
    name = "cell_startup"
    imports = ("repro.spice", "repro.circuits.startup")
    op_desc = (
        "one adaptive-trap VDD-ramp Transient + post-ramp OP on a fresh "
        "Session (Fig. 3 cell, 20 unknowns / sub-1V cell, 15; alternating)"
    )

    def setup(self) -> None:
        from repro.circuits import startup

        self.startup = startup
        self.specs = inputs.startup_specs(self.seed)
        # Warm-up: one op of each variant (first rounds run ~35% slow),
        # on the same specs for every seed so set-up work does not vary.
        for spec in inputs.STARTUP_WARMUP:
            _warm_up(self.name, lambda: self._run(spec))

    def _run(self, spec) -> bool:
        from repro.spice import OP, Session, Transient
        from repro.spice.transient import TransientOptions

        startup = self.startup
        if spec["variant"] == "bandgap_cell":
            build, config = startup.build_startup_bandgap_cell, startup.StartupRampConfig
        else:
            build, config = startup.build_startup_sub1v_cell, startup.Sub1VStartupConfig
        ramp = config(ramp=spec["ramp_s"], c_load=spec["c_load_f"])
        temperature = spec["temperature_k"]
        session = Session(build, args=(ramp,), temperature_k=temperature)
        t_end = ramp.t_on + POST_RAMP_WINDOW
        result = session.run(
            Transient(
                t_stop=t_end,
                temperature_k=temperature,
                options=TransientOptions(method="trap", adaptive=True),
            )
        ).result
        vref_dc = session.run(OP(temperature_k=temperature, time=t_end)).op.voltage("vref")
        settled = float(result.voltage("vref")[-1])
        return (
            all(r < STEP_RESIDUAL_TOL for r in result.step_residuals)
            and abs(settled - vref_dc) < DC_MATCH_TOL
        )

    def op(self, index: int, rec=None) -> bool:
        return self._run(self.specs[index % len(self.specs)])

    def finish(self, tally) -> None:
        _known_defect(self.report, "sub1v_cold_op_stall", self._sub1v_cold_op)

    def _sub1v_cold_op(self) -> None:
        """The post-ramp OP of the sub-1V cell inside the band the
        seeded temperatures skip (:data:`inputs.SUB1V_OP_STALL_K`)."""
        from repro.spice import OP, Session

        ramp = self.startup.Sub1VStartupConfig(ramp=40e-6, c_load=100e-12)
        temperature = inputs.SUB1V_COLD_STALL_K
        session = Session(
            self.startup.build_startup_sub1v_cell, args=(ramp,), temperature_k=temperature
        )
        session.run(OP(temperature_k=temperature, time=ramp.t_on + POST_RAMP_WINDOW))


# ----------------------------------------------------------------------
# array_sweep
# ----------------------------------------------------------------------

class ArraySweep(Workload):
    name = "array_sweep"
    imports = ("repro.spice", "repro.spice.hierarchy")
    op_desc = (
        f"parse a seeded-jitter {inputs.ARRAY_CELLS}-cell bandgap_array deck "
        "(1082 unknowns), build a Session, OP, then a 6-10 point TempSweep"
    )

    def setup(self) -> None:
        from repro.spice import OP, Session, parse_netlist
        from repro.spice.hierarchy import bandgap_array

        self.specs = inputs.array_specs(self.seed)
        # Zero-jitter deck: every cell is identical, so every cell output
        # must solve to the same voltage (flattening correctness at scale).
        session = Session(parse_netlist(bandgap_array(cells=inputs.ARRAY_CELLS)))
        op = session.run(OP()).op
        outs = [op.voltage(f"o{i}") for i in range(inputs.ARRAY_CELLS)]
        spread = max(outs) - min(outs)
        self.report["zero_jitter_cell_spread_v"] = (spread, "V")
        if not spread <= CELL_MATCH_TOL:
            raise RuntimeError(f"zero-jitter cells disagree by {spread:.3e} V")
        self._pending = None
        warm = inputs.ARRAY_WARMUP
        _warm_up(self.name, lambda: self._run(warm, inputs.array_deck(warm)))

    def prepare(self, index: int) -> None:
        """Make the next op's deck text (input generation, untimed)."""
        spec = self.specs[index % len(self.specs)]
        self._pending = (index, spec, inputs.array_deck(spec))

    def op(self, index: int, rec=None) -> bool:
        if self._pending is None or self._pending[0] != index:
            self.prepare(index)
        _, spec, text = self._pending
        return self._run(spec, text)

    def _run(self, spec, text) -> bool:
        from repro.spice import OP, Session, TempSweep, parse_netlist
        from repro.spice.stats import STATS

        conversions = STATS.sparse_conversions
        session = Session(parse_netlist(text))
        op = session.run(OP(temperature_k=spec["op_temperature_k"])).op
        sweep = session.run(TempSweep(temperatures_k=tuple(spec["temperatures_k"])))
        vdd = spec["vdd"]
        outs = [op.voltage(f"o{i}") for i in range(inputs.ARRAY_CELLS)]
        return (
            STATS.sparse_conversions == conversions
            and session.system.sparse_assembly
            and op.residual < POINT_RESIDUAL_TOL
            and all(p.residual < POINT_RESIDUAL_TOL for p in sweep.points)
            and all(0.0 < v < vdd for v in outs)
        )


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

#: Stream entries run untimed after the sessions are built (warm-up).
SERVICE_WARMUP = 16
#: Served payloads in the stream's first this-many entries are checked
#: byte for byte against a direct in-process replay.
SERVICE_REPLAY = 160


class ServiceMix(Workload):
    name = "service_mix"
    imports = ("repro.spice", "repro.spice.hierarchy", "repro.serve.jobs")
    op_desc = (
        "one HTTP job, POST sent -> result body received, against a "
        "--serve child (fresh --cache-dir; 7 decks of 6-74 unknowns)"
    )

    def __init__(self, seed, root, scratch):
        super().__init__(seed, root, scratch)
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.starts = 0
        self.span_path = None
        self.job_ops: Dict[str, int] = {}

    # -- the child process -------------------------------------------
    def _start(self, traced: bool) -> None:
        import client

        self.starts += 1
        self.cache_dir = os.path.join(self.scratch, f"cache{self.starts}")
        args = ["--port", "0", "--cache-dir", self.cache_dir]
        if traced:
            self.span_path = os.path.join(self.scratch, f"spans{self.starts}.json")
            argv = [
                sys.executable,
                os.path.join(self.root, "perfbench", "serve_child.py"),
                self.span_path,
                *args,
            ]
        else:
            argv = [sys.executable, "-m", "repro", "--serve", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.proc = subprocess.Popen(
            argv, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self._stop()
            raise RuntimeError(f"--serve child did not start: {line!r}")
        host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
        self.client = client.BenchClient(host, int(port))

    def _stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.request("POST", "/shutdown")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self.proc = None
            self.client = None

    # -- set-up -------------------------------------------------------
    def setup(self, traced: bool = False) -> None:
        self._stop()
        self.decks = inputs.service_decks(self.seed)
        self.stream = inputs.service_stream(self.seed)
        self.payloads = [json.dumps(e["request"]).encode() for e in self.stream]
        self._start(traced)
        # Build every deck's pooled session up front: the server parses a
        # deck and builds its Session on the first request naming it; a
        # plan the planner rejects costs that build and nothing else.
        for deck in self.decks:
            probe = {
                "circuit": {"netlist": deck["netlist"]},
                "plan": {"analysis": "OP", "record": ["__session_build__"]},
            }
            outcome = self.client.run_job(json.dumps(probe).encode())
            if outcome.status != 400 or outcome.error_type != "PlanError":
                raise RuntimeError(f"session build for {deck['name']} failed")
        self.served: Dict[int, bytes] = {}
        #: Stream positions run on this server, in order.
        self.history: List[int] = []
        #: (client-side s, queue-wait s, service s) per completed job.
        self.split: List[tuple] = []
        self.outcomes: list = []
        for index in range(SERVICE_WARMUP):
            _warm_up(self.name, lambda: self._job(index, None))
        # One connection per request, like the repo's ServeClient: a
        # persistent connection stalls each response (reported below).
        self.report["keepalive_rtt_ms"] = (self.client.keepalive_rtt_ms(), "ms")

    def _job(self, position: int, rec) -> bool:
        entry = self.stream[position % len(self.stream)]
        self.history.append(position)
        outcome = self.client.run_job(self.payloads[position % len(self.stream)], rec)
        self.last = outcome
        if entry["kind"] == "malformed":
            return outcome.status == 400 and outcome.error_type == "PlanError"
        if outcome.status == 500 and outcome.record.get("state") == "failed":
            error = outcome.record.get("error") or {}
            raise JobFailed(f"{error.get('error_type')}: {error.get('error')}")
        if outcome.status != 200 or outcome.record.get("state") != "done":
            return False
        if position < SERVICE_REPLAY:
            self.served[position] = json.dumps(
                outcome.record["result"], sort_keys=True
            ).encode()
        return True

    def op(self, index: int, rec=None) -> bool:
        position = index + SERVICE_WARMUP
        if rec is not None:
            self.client.headers["X-Bench-Op"] = str(rec.op)
        ok = self._job(position, rec)
        last = self.last
        self.outcomes.append(last)
        if rec is not None and last.job_id is not None:
            self.job_ops["job:" + last.job_id] = rec.op
        if last.record is not None and last.record.get("finished_at"):
            record = last.record
            queue = record["started_at"] - record["submitted_at"]
            service = record["finished_at"] - record["started_at"]
            total = last.t_done - last.t_post
            self.split.append((total - queue - service, queue, service))
        return ok

    # -- end of run ---------------------------------------------------
    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the --serve child")

    def counters(self) -> Dict[str, float]:
        metrics = self.client.metrics()
        prefix, suffix = "repro_", "_total"
        return {
            name[len(prefix):-len(suffix)]: value
            for name, value in metrics.items()
            if name.startswith(prefix) and name.endswith(suffix)
        }

    def finish(self, tally) -> None:
        tally.check_failures += self.replay_mismatches()
        _known_defect(self.report, "cross_topology_store", self._cross_topology_probe)
        _known_defect(self.report, "acard_cold_op_stall", _acard_cold_op)

    def replay_mismatches(self) -> int:
        """Served payloads that differ from a direct in-process run.

        The reference for served payload ``k`` is a direct
        ``Session(parse_netlist(deck)).run(plan).to_dict()`` on a session
        that has run the same deck's earlier jobs in the same order: the
        pooled server session's exact history (:attr:`history`), so warm
        starts match too and the bytes must be identical.
        """
        from repro.errors import ReproError
        from repro.serve.jobs import plan_from_wire
        from repro.spice import Session, parse_netlist

        sessions: Dict[str, object] = {}
        mismatches = 0
        last = max(self.served) if self.served else -1
        for position in self.history:
            if position > last:
                break
            entry = self.stream[position]
            if entry["kind"] == "malformed":
                continue
            netlist = entry["request"]["circuit"]["netlist"]
            session = sessions.get(netlist)
            if session is None:
                session = sessions[netlist] = Session(parse_netlist(netlist))
            try:
                result = session.run(plan_from_wire(entry["request"]["plan"]))
            except ReproError:
                # Only a job the server also failed may fail here.
                mismatches += position in self.served
                continue
            direct = json.dumps(result.to_dict(), sort_keys=True).encode()
            if position in self.served:
                mismatches += direct != self.served[position]
        self.report["replayed_payloads_checked"] = (len(self.served), "count")
        self.report["replayed_payloads_mismatched"] = (mismatches, "count")
        return mismatches

    def _cross_topology_probe(self) -> None:
        """A job on an eighth deck, after the timed ops.

        Its session is built after the store holds other topologies'
        points.  The timed mix builds every session before the store
        fills, so this job is the one that meets a session whose cache
        can warm-start from a foreign solution vector.
        """
        from repro.spice.hierarchy import bandgap_array

        request = {
            "circuit": {"netlist": bandgap_array(cells=5, title="store probe")},
            "plan": {"analysis": "OP", "temperature_k": 300.15, "record": ["o0"]},
        }
        outcome = self.client.run_job(json.dumps(request).encode())
        if outcome.status == 500 and outcome.record.get("state") == "failed":
            error = outcome.record.get("error") or {}
            raise JobFailed(f"{error.get('error_type')}: {error.get('error')}")
        if outcome.status != 200 or outcome.record.get("state") != "done":
            raise JobFailed(f"unexpected reply: HTTP {outcome.status}")

    spans_in_process = False

    def begin_trace(self, rec) -> None:
        # The traced server child installs the same wrappers itself.
        self.setup(traced=True)
        self.job_ops.clear()

    def trace_extra(self) -> Dict[str, float]:
        """Client-measured values over the traced ops (set-up reset them)."""
        self.client.headers.clear()
        split, outcomes = self.split, self.outcomes
        per = 1.0 / max(len(outcomes), 1)
        store = os.path.join(self.cache_dir, "opcache.jsonl")
        return {
            "jobs.queue_wait_ms": 1e3 * sum(row[1] for row in split) / max(len(split), 1),
            "jobs.service_ms": 1e3 * sum(row[2] for row in split) / max(len(split), 1),
            "jobs.result_bytes": sum(len(o.body) for o in outcomes) * per,
            "http.requests_per_op": sum(o.requests for o in outcomes) * per,
            "http.polls_per_op": sum(o.polls for o in outcomes) * per,
            "http.result_ms": 1e3 * sum(o.result_s for o in outcomes) * per,
            "store.file_bytes": float(os.path.getsize(store)) if os.path.exists(store) else 0.0,
        }

    def end_trace(self) -> tuple:
        import spans

        self._stop()
        with open(self.span_path) as handle:
            data = json.load(handle)
        out = []
        for sid, parent, name, start, end, depth, op in data["spans"]:
            # Handler spans carry the client's op id (header text), job
            # execution spans "job:<id>"; spans of no op stay None.
            op = self.job_ops.get(op, op)
            if isinstance(op, str):
                op = int(op) if op.isdigit() else None
            out.append((sid, parent, name, start, end, depth + spans.SERVER_DEPTH, op))
        return out, data["counts"]

    def close(self) -> None:
        self._stop()


def _acard_cold_op() -> None:
    """A cold OP of the unserved A-card cell at a temperature where it
    stalls (:data:`inputs.ACARD_COLD_STALL_K`)."""
    from repro.spice import OP, Session, parse_netlist

    Session(parse_netlist(inputs.ACARD_CELL)).run(OP(temperature_k=inputs.ACARD_COLD_STALL_K))


# ----------------------------------------------------------------------
# lot_extraction
# ----------------------------------------------------------------------

class LotExtraction(Workload):
    name = "lot_extraction"
    imports = ("repro.measurement", "repro.extraction")
    op_desc = (
        f"one chip of a {inputs.LOT_SIZE}-chip seeded ProcessSpread lot: noisy "
        "MeasurementCampaign + pad-corrected analytical + classical extraction"
    )

    def setup(self) -> None:
        from repro.extraction import run_analytical_extraction, run_classical_extraction
        from repro.measurement import MeasurementCampaign
        from repro.measurement.samples import ideal_sample

        self.lot, self.noise_seeds = inputs.lot_draws(self.seed)
        truth = ideal_sample().bjt_params()
        self.true_eg, self.true_xti = truth.eg, truth.xti
        # Exactness oracle: an ideal chip recovers its own card.
        campaign = MeasurementCampaign(ideal_sample(), include_noise=False)
        classical = run_classical_extraction(campaign)
        couple = run_analytical_extraction(campaign).couple_computed_t
        if not (
            abs(classical.straight.eg_at(self.true_xti) - self.true_eg) < IDEAL_EG_TOL
            and abs(couple.eg - self.true_eg) < IDEAL_EG_TOL
            and abs(couple.xti - self.true_xti) < IDEAL_XTI_TOL
        ):
            raise RuntimeError("ideal_sample() does not recover its (EG, XTI)")
        self.eg_err: List[float] = []
        self.xti_err: List[float] = []
        _warm_up(self.name, lambda: self.op(-1))
        self.eg_err.clear()
        self.xti_err.clear()

    def op(self, index: int, rec=None) -> bool:
        from repro.extraction import run_analytical_extraction, run_classical_extraction
        from repro.measurement import MeasurementCampaign

        chip = (index + 1) % len(self.lot)
        sample = self.lot[chip]
        truth = sample.bjt_params()
        campaign = MeasurementCampaign(sample, seed=self.noise_seeds[chip])
        couple = run_analytical_extraction(campaign, correct_offset=True).couple_computed_t
        straight = run_classical_extraction(campaign).straight
        eg_err = abs(couple.eg - truth.eg)
        xti_err = abs(couple.xti - truth.xti)
        self.eg_err.append(eg_err)
        self.xti_err.append(xti_err)
        return (
            math.isfinite(straight.eg_at(truth.xti))
            and eg_err < CHIP_EG_TOL
            and xti_err < CHIP_XTI_TOL
        )

    def finish(self, tally) -> None:
        count = max(len(self.eg_err), 1)
        self.report["eg_err_mev"] = (1e3 * sum(self.eg_err) / count, "meV")
        self.report["xti_err"] = (sum(self.xti_err) / count, "1")


WORKLOADS = {
    cls.name: cls for cls in (CellStartup, ArraySweep, ServiceMix, LotExtraction)
}


