"""The repo benchmark: one closed-loop workload, checked and measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it imports the program from ``src/``).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
spends half the time untraced and half with span wrappers installed and
prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Its times and rates
are scaled to a reference host speed (:mod:`hostspeed`); the lines
above it print the raw figures too.  ``failed`` counts
every failed op; ``correct`` and the exit code (0) say that no output
failed its check.  A typed error the program raises (a non-convergent
solve, a served job that failed) is a failed op, not a wrong output.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Pinned for this process and the server child: the scipy-openblas
#: build may otherwise start up to ``nproc`` threads per process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Execution-path switches; the benchmark runs the defaults.
PATH_VARS = (
    "REPRO_VECTORIZED",
    "REPRO_COMPILED",
    "REPRO_WORKERS",
    "REPRO_GROUP_MIN",
    "REPRO_SPARSE_THRESHOLD",
)
#: Set-ups per end-to-end run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Import-time samples behind ``setup_s``: this process's own imports
#: plus fresh child processes that repeat them; ``setup_s`` adds their
#: median.
IMPORT_SAMPLES = 5
#: What a child runs to time the imports this process made before its
#: first set-up: ``python -c PROBE SRC HERE MODULE...``.
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); "
    "import argparse, json, signal, statistics, tempfile, traceback; "
    "sys.path[:0] = sys.argv[1:3]; import workloads; "
    "[__import__(m) for m in sys.argv[3:]]; print(time.perf_counter() - t)"
)


def _environment() -> dict:
    """Pin BLAS threads and the CPU, unset the path switches; returns
    what was done.

    The benchmark and its server child share one CPU (children inherit
    the affinity).  The closed loop keeps one of them busy at a time, and
    the host-speed kernel then samples the CPU the server runs on too.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record = {"cpu": str(cpu)}
    for var in PATH_VARS:
        previous = os.environ.pop(var, None)
        record[var] = "unset" if previous is None else f"unset (was {previous!r})"
    for var in THREAD_VARS:
        os.environ[var] = "1"
        record[var] = "1"
    return record


class Tally:
    """What one closed loop did."""

    def __init__(self):
        self.spans = []  # (start, end) of the ops whose checks passed
        self.check_failures = 0  # outputs that failed a check
        self.program_errors = 0  # typed errors the program raised
        self.errors = {}  # first message per error type
        self.started = time.perf_counter()
        self.elapsed = 0.0

    def latencies(self, host=None):
        """Op latencies [s], at reference speed when given ``host``."""
        if host is None:
            return [end - start for start, end in self.spans]
        return [(end - start) * host.scale((start + end) / 2.0) for start, end in self.spans]

    @property
    def failed(self) -> int:
        return self.check_failures + self.program_errors

    @property
    def attempted(self) -> int:
        return len(self.spans) + self.failed

    def program_error(self, exc) -> None:
        self.program_errors += 1
        self.errors.setdefault(type(exc).__name__, str(exc))

    def rate(self, host=None) -> float:
        """Ops completed per second spent in ops, at reference speed when
        given ``host``: the closed loop's throughput without the
        harness's own work between ops (kernel samples, input making)."""
        latencies = self.latencies(host)
        return len(latencies) / sum(latencies) if latencies else 0.0


def _loop(workload, seconds, first_index, host, rec=None, after_op=None):
    """Closed loop: one op at a time until ``seconds`` have passed.

    ``host`` (a :class:`hostspeed.HostSpeed`) times its kernel between
    ops, outside every op's time.

    A typed error raised by the program (``ReproError``, or a served job
    that failed) is a failed op; an output that fails its check, or any
    other exception, is a failed op *and* makes the run incorrect.
    """
    from repro.errors import ReproError
    from workloads import JobFailed

    tally = Tally()
    index = first_index
    deadline = tally.started + seconds
    while time.perf_counter() < deadline:
        host.tick()
        workload.prepare(index)
        root = None
        if rec is not None:
            rec.op = index
            root = rec.begin("op")
        t0 = time.perf_counter()
        try:
            ok = workload.op(index, rec)
        except (ReproError, JobFailed) as exc:
            tally.program_error(exc)
            ok = None
        except Exception:  # noqa: BLE001 - a broken op must not stop the run
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = time.perf_counter()
        if rec is not None:
            rec.end(root)
            rec.op = None
            if after_op is not None:
                after_op()
        if ok:
            tally.spans.append((t0, t1))
        elif ok is False:
            tally.check_failures += 1
        index += 1
    tally.elapsed = time.perf_counter() - tally.started
    host.sample()
    return tally


def _delta(before, after):
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}


def _cpu_jiffies():
    """(busy, steal) jiffies of the host's CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields) - fields[3] - fields[4], steal


def _error_lines(tally):
    attempted = tally.attempted
    lines = [
        f"error_rate {tally.failed / attempted if attempted else 0.0:.6f} ratio "
        f"({tally.failed}/{attempted} failed: {tally.program_errors} typed program "
        f"errors, {tally.check_failures} failed checks)"
    ]
    lines += [f"  first {name}: {message}" for name, message in tally.errors.items()]
    return lines


def _import_samples(first, modules, host):
    """``first`` (this process's import time) plus child-process samples."""
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        host.sample()
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, HERE, *modules],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(child.stdout))
    return samples


def run_end_to_end(workload, args, import_s, lines):
    import hostspeed
    import report

    host = hostspeed.HostSpeed()
    imports = _import_samples(import_s, workload.imports, host)
    setups = []
    for _ in range(SETUP_REPEATS):
        # Each set-up starts from nothing: stopping the server child the
        # previous one started is not set-up work.
        workload.close()
        host.sample()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    host.sample()
    setup_raw = statistics.median(imports) + statistics.median(setups)
    setup_scale = host.median_scale()
    busy0, steal0 = _cpu_jiffies()
    tally = _loop(workload, args.seconds, 0, host)
    busy1, steal1 = _cpu_jiffies()
    peak_rss = workload.peak_rss_mb()
    workload.finish(tally)
    ms = [1e3 * v for v in tally.latencies(host)]
    raw_ms = [1e3 * v for v in tally.latencies()]
    n = len(ms)

    def pct(values, p):
        return report.percentile(values, p) if values else 0.0

    metrics = {
        "setup_s": setup_raw * setup_scale,
        "ops_per_s": tally.rate(host),
        "op_p50_ms": pct(ms, 50),
        "op_p90_ms": pct(ms, 90),
        "peak_rss_mb": peak_rss,
    }
    run_scale = host.median_scale()
    lines += [
        f"host_speed {run_scale:.4f} (reference kernel {1e3 * hostspeed.NOMINAL_S:g} ms / "
        f"median of {len(host.samples)} samples; times below are at reference "
        "speed, raw in brackets)",
        f"setup_s {metrics['setup_s']:.4f} s [{setup_raw:.4f}] = median of "
        f"{IMPORT_SAMPLES} imports {[round(s, 4) for s in imports]} + median of "
        f"{SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}, x {setup_scale:.4f}",
        f"ops_per_s {metrics['ops_per_s']:.4f} 1/s [{tally.rate():.4f}] ({n} ok "
        f"ops in {tally.elapsed:.2f} s; "
        f"op = {workload.op_desc})",
        f"op_p50_ms {metrics['op_p50_ms']:.4f} ms [{pct(raw_ms, 50):.4f}] (n={n})",
        f"op_p90_ms {metrics['op_p90_ms']:.4f} ms [{pct(raw_ms, 90):.4f}] (n={n}, "
        f"{report.beyond(n, 90)} samples beyond)",
    ]
    if workload.name == "service_mix":
        lines.append(
            f"op_p99_ms {pct(ms, 99):.4f} ms [{pct(raw_ms, 99):.4f}] "
            f"(n={n}, {report.beyond(n, 99)} samples beyond)"
        )
        for position, label in enumerate(("client_side_ms", "queue_wait_ms", "service_ms")):
            values = [1e3 * row[position] for row in workload.split]
            if values:
                lines.append(f"  {label} p50 {report.percentile(values, 50):.4f} ms")
    lines += _error_lines(tally)
    lines.append(f"peak_rss_mb {peak_rss:.2f} MB")
    # Time the hypervisor gave to other guests while this run measured:
    # one source of host noise (the host-speed kernel tracks the rest).
    total = (busy1 - busy0) + (steal1 - steal0)
    lines.append(f"host_steal_pct {100.0 * (steal1 - steal0) / max(total, 1):.2f} %")
    return metrics, tally.attempted, tally.failed, tally.check_failures


def run_traced(workload, args, lines):
    import hostspeed
    import report
    import spans

    host = hostspeed.HostSpeed()
    workload.setup()
    half = args.seconds / 2.0
    untraced = _loop(workload, half, 0, host)
    workload.finish(untraced)

    rec = spans.Recorder()
    workload.begin_trace(rec)
    attribution = spans.EMPTY
    in_process = workload.spans_in_process

    def attribute_op():
        # In-process ops own all their spans: attribute them now and
        # drop them, so a long traced run holds one op's spans at a time.
        nonlocal attribution
        attribution = spans.merge(attribution, spans.attribute(rec.spans(clear=True)))

    before = workload.counters()
    # Both halves replay the same stream from its start, so the traced
    # half (on a fresh server for service_mix) runs the same traffic.
    traced = _loop(workload, half, 0, host, rec, attribute_op if in_process else None)
    after = workload.counters()
    extra = workload.trace_extra()
    workload.finish(traced)
    server_spans, server_counts = workload.end_trace()
    counts = dict(rec.counts)
    for key, value in server_counts.items():
        counts[key] = counts.get(key, 0.0) + value
    if not in_process:
        attribution = spans.attribute(rec.spans() + server_spans)
    # At reference speed, so a change of host speed between the halves
    # does not pass for tracing cost.
    untraced_rate, traced_rate = untraced.rate(host), traced.rate(host)
    extra["trace_overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    metrics = report.layer_metrics(attribution, _delta(before, after), counts, extra)
    lines.append(
        f"traced {attribution['ops']} ops: op_wall_ms {metrics['op_wall_ms']:.4f} = "
        f"layer self times + unattributed_ms {metrics['unattributed_ms']:.4f}; "
        f"untraced {untraced_rate:.3f} ops/s, traced {traced_rate:.3f} ops/s"
    )
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    check_failures = untraced.check_failures + traced.check_failures
    for tally in (untraced, traced):
        lines += _error_lines(tally)
    return metrics, attempted, failed, check_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_FAULTS", "").strip():
        print("refusing to run: REPRO_FAULTS is armed", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    env = _environment()
    sys.path[:0] = [SRC, HERE]
    # A terminated run still stops its server child and removes its
    # scratch directory (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    for module in cls.imports:
        __import__(module)
    import_s = time.perf_counter() - START

    from repro.benchreg.schema import git_sha, host_fingerprint

    # The SHA lookup must not search above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_parent)
    workload = cls(args.seed, ROOT, scratch)
    lines = [
        f"workload {workload.name}: closed loop, one caller, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        "provenance " + json.dumps(
            {"git_sha": git_sha(ROOT), "host": host_fingerprint()["fingerprint"]}
        ),
    ]
    try:
        if args.trace:
            metrics, attempted, failed, incorrect = run_traced(workload, args, lines)
        else:
            metrics, attempted, failed, incorrect = run_end_to_end(
                workload, args, import_s, lines
            )
    finally:
        workload.close()
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass
    lines += [f"{key} {value} {unit}".rstrip() for key, (value, unit) in workload.report.items()]
    import report

    table = report.PER_LAYER if args.trace else report.END_TO_END
    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit, _better in table
        },
    }
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=False))
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
