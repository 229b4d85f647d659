"""Metric definitions and the arithmetic that turns a run into them.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run (:func:`layer_metrics`).  Every per-layer value is per op:
totals over the traced ops divided by their number.  Times are self
(exclusive) times, so the ``*_ms`` layer metrics plus
``unattributed_ms`` add up to ``op_wall_ms``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

#: (name, unit, better) of every end-to-end metric in the result line.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Span name -> the per-layer self-time metric it is charged to.
SPAN_TIME_METRIC: Dict[str, str] = {
    "op": "unattributed_ms",
    "mna.assemble": "mna.assemble_ms",
    "mna.residual": "mna.residual_ms",
    "elements.stamp": "elements.stamp_ms",
    "groups.eval": "groups.ms",
    "solver.factor": "solver.factor_ms",
    "solver.backsolve": "solver.backsolve_ms",
    "solver.newton": "solver.newton_self_ms",
    "transient.run": "transient.self_ms",
    "session.build": "session.build_ms",
    "session.cache": "session.cache_ms",
    "plans.validate": "plans.validate_ms",
    "parser.parse": "parser.ms",
    "ac.solve": "ac.ms",
    "measurement.measure": "measurement.ms",
    "extraction.fit": "extraction.ms",
    "bjt.law": "bjt.ms",
    "jobs.submit": "jobs.submit_ms",
    "jobs.execute": "jobs.execute_self_ms",
    "jobs.wire_encode": "jobs.wire_encode_ms",
    "store.flush": "store.export_ms",
    "store.absorb": "store.absorb_ms",
    "store.load": "store.load_ms",
    "http.handle": "http.server_ms",
    "http.post": "http.client_ms",
    "http.poll": "http.client_ms",
    "http.result": "http.client_ms",
}

#: Span name -> per-op call-count metric.
SPAN_CALL_METRIC: Dict[str, str] = {
    "mna.assemble": "mna.assemble_calls",
    "mna.residual": "mna.residual_calls",
    "elements.stamp": "elements.stamp_calls",
    "solver.backsolve": "solver.backsolve_calls",
    "plans.validate": "plans.validate_calls",
    "parser.parse": "parser.calls",
    "measurement.measure": "measurement.calls",
    "extraction.fit": "extraction.calls",
    "bjt.law": "bjt.calls",
}

#: STATS counter -> per-op metric.
STATS_METRIC: Dict[str, str] = {
    "group_evals": "groups.evals",
    "grouped_device_evals": "groups.device_evals",
    "newton_solves": "solver.newton_solves",
    "iterations": "solver.iterations",
    "factorizations": "solver.factorizations",
    "sparse_factorizations": "solver.sparse_factorizations",
    "lu_reuses": "solver.lu_reuses",
    "op_cache_hits": "session.cache_hits",
    "op_cache_warm_starts": "session.cache_warm_starts",
    "op_cache_misses": "session.cache_misses",
    "ac_solves": "ac.solves",
    "ac_factorizations": "ac.factorizations",
    "serve_jobs_completed": "jobs.completed",
    "serve_jobs_rejected": "jobs.rejected",
    "serve_jobs_failed": "jobs.failed",
    "op_store_flushes": "store.flushes",
    "op_store_points_written": "store.points_written",
    "op_store_corrupt_records": "store.corrupt_records",
}

_COUNT = "count/op"
_MS = "ms/op"


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = []
    seen = set()

    def add(name, unit, better):
        if name not in seen:
            seen.add(name)
            rows.append((name, unit, better))

    for name in SPAN_TIME_METRIC.values():
        add(name, _MS, "lower")
    for name in SPAN_CALL_METRIC.values():
        add(name, _COUNT, "lower")
    for name in STATS_METRIC.values():
        add(name, _COUNT, "higher" if name in ("session.cache_hits", "jobs.completed") else "lower")
    for name, unit, better in (
        ("op_wall_ms", _MS, "lower"),
        ("solver.lu_reuse_ratio", "ratio", "higher"),
        ("solver.residual_per_iter", "ratio", "lower"),
        ("solver.ladder_rungs", _COUNT, "lower"),
        ("transient.accepted_steps", _COUNT, "lower"),
        ("transient.rejected_steps", _COUNT, "lower"),
        ("transient.accept_ratio", "ratio", "higher"),
        ("transient.newton_per_step", "ratio", "lower"),
        ("session.cache_hit_ratio", "ratio", "higher"),
        ("store.points_exported", _COUNT, "lower"),
        ("store.write_ratio", "ratio", "higher"),
        ("store.file_bytes", "bytes", "lower"),
        ("jobs.queue_wait_ms", _MS, "lower"),
        ("jobs.service_ms", _MS, "lower"),
        ("jobs.result_bytes", "bytes/op", "lower"),
        ("http.requests_per_op", _COUNT, "lower"),
        ("http.polls_per_op", _COUNT, "lower"),
        ("http.result_ms", _MS, "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ):
        add(name, unit, better)
    return tuple(rows)


#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer()


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``count``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    attribution: Mapping[str, object],
    stats_delta: Mapping[str, float],
    counts: Mapping[str, float],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Per-op per-layer metrics.

    ``attribution`` is :func:`spans.attribute` output, ``stats_delta``
    the STATS (or server ``/metrics``) movement over the traced ops,
    ``counts`` the wrappers' counters, ``extra`` values measured by the
    workload itself (store size, job timestamps, overhead).  The self
    times add up to ``op_wall_ms`` by construction: :func:`spans.attribute`
    charges every instant of an op to exactly one live span.
    """
    ops = attribution["ops"]
    per_op = 1.0 / ops if ops else 0.0
    out: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    total_ns: Dict[str, int] = {}
    for span_name, ns in attribution["exclusive"].items():
        metric = SPAN_TIME_METRIC[span_name]
        total_ns[metric] = total_ns.get(metric, 0) + ns
    for metric, ns in total_ns.items():
        out[metric] = ns * 1e-6 * per_op
    out["op_wall_ms"] = attribution["wall_ns"] * 1e-6 * per_op
    for span_name, calls in attribution["calls"].items():
        metric = SPAN_CALL_METRIC.get(span_name)
        if metric is not None:
            out[metric] = calls * per_op
    for field, metric in STATS_METRIC.items():
        out[metric] = stats_delta.get(field, 0.0) * per_op
    iterations = stats_delta.get("iterations", 0.0)
    out["solver.lu_reuse_ratio"] = _ratio(stats_delta.get("lu_reuses", 0.0), iterations)
    out["solver.residual_per_iter"] = _ratio(
        stats_delta.get("residual_evaluations", 0.0), iterations
    )
    out["solver.ladder_rungs"] = counts.get("solver.ladder_rungs", 0.0) * per_op
    accepted = counts.get("transient.accepted_steps", 0.0)
    rejected = counts.get("transient.rejected_steps", 0.0)
    out["transient.accepted_steps"] = accepted * per_op
    out["transient.rejected_steps"] = rejected * per_op
    out["transient.accept_ratio"] = _ratio(accepted, accepted + rejected)
    out["transient.newton_per_step"] = _ratio(counts.get("transient.newton", 0.0), accepted)
    lookups = sum(
        stats_delta.get(k, 0.0)
        for k in ("op_cache_hits", "op_cache_warm_starts", "op_cache_misses")
    )
    out["session.cache_hit_ratio"] = _ratio(stats_delta.get("op_cache_hits", 0.0), lookups)
    exported = counts.get("store.points_exported", 0.0)
    out["store.points_exported"] = exported * per_op
    out["store.write_ratio"] = _ratio(
        stats_delta.get("op_store_points_written", 0.0), exported
    )
    out.update(extra)
    return out
