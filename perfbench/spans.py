"""Span recording for the traced run, and the self-time arithmetic.

Wrappers installed from here (never from ``src/``) time calls into each
layer's public functions.  A span is ``(id, parent, name, start, end,
depth, op)``; spans stay in memory per thread and are read out once, at
the end of the run.  Times are ``time.perf_counter_ns`` integers, a
system-wide monotonic clock on Linux, so spans dumped by the server
child line up with the client's.

Attribution (:func:`exclusive_ns`): every instant of an op's wall time
belongs to exactly one span, the deepest one active at that instant.
Within one thread spans nest properly, and this is the usual self time:
a span's duration minus what its children cover.  Across threads and
processes (the served workload) spans can overlap; the deeper one wins,
so the server's work is charged to the server's layers and the client's
waiting to the client.  Either way the layers' self times plus the op
root's own (``unattributed``) time add up to the op wall exactly.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, int, int, int, object]

#: Depth added to spans recorded in the server child, so that server
#: work wins over the client spans waiting on it.
SERVER_DEPTH = 100


class Recorder:
    """Per-thread span stacks and finished-span lists, plus counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[list] = []
        self._ids = iter(range(1, sys.maxsize))
        self.counts: Dict[str, float] = defaultdict(float)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.done = []
            local.op = None
            with self._lock:
                self._threads.append(local.done)
        return local

    @property
    def op(self):
        return self._state().op

    @op.setter
    def op(self, value) -> None:
        self._state().op = value

    def begin(self, name: str) -> list:
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        span = [
            next(self._ids),
            parent[0] if parent else 0,
            name,
            self.clock(),
            0,
            parent[5] + 1 if parent else 0,
            state.op,
        ]
        state.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = self.clock()
        state = self._state()
        state.stack.pop()
        state.done.append(tuple(span))

    @staticmethod
    def rename(span: list, name: str) -> None:
        span[2] = name

    def current(self) -> Optional[list]:
        stack = self._state().stack
        return stack[-1] if stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def spans(self, clear: bool = False) -> List[Span]:
        """Every finished span; ``clear`` also forgets them."""
        with self._lock:
            threads = list(self._threads)
        out: List[Span] = []
        for done in threads:
            out.extend(done)
            if clear:
                del done[:]
        return out


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------

def _timed(rec: Recorder, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attribute, current value)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(rec: Recorder, table: Dict[str, Sequence], hooks=None) -> None:
    """Wrap every target of ``table`` (span name -> targets).

    A module-level function is replaced in every loaded ``repro``
    module that bound it by name (``from .solver import _newton``), so
    the call sites see the wrapper too.  ``hooks`` maps a target to a
    post-call counter hook ``(rec, args, kwargs, result)``.
    """
    hooks = hooks or {}
    for name, targets in table.items():
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapper = _timed(rec, name, original, hooks.get(target))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    setattr(module, attr, wrapper)


def _after_newton(rec, args, kwargs, result):
    if kwargs.get("phase", "plain") != "plain":
        rec.count("solver.ladder_rungs")


def _before_newton_factory(rec, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        parent = rec.current()
        if parent is not None and parent[2] == "transient.run":
            rec.count("transient.newton")
        return original(*args, **kwargs)

    return wrapper


def _after_transient(rec, args, kwargs, result):
    rec.count("transient.accepted_steps", result.accepted_steps)
    rec.count("transient.rejected_steps", result.rejected_lte + result.newton_retries)


#: Span name -> the public functions it times (in-process layers).
ENGINE_LAYERS: Dict[str, Tuple[str, ...]] = {
    "mna.assemble": ("repro.spice.mna:MNASystem.assemble",),
    "mna.residual": ("repro.spice.mna:MNASystem.assemble_residual",),
    "elements.stamp": (
        "repro.spice.elements.bjt:SpiceBJT.stamp",
        "repro.spice.elements.diode:Diode.stamp",
        "repro.spice.elements.opamp:OpAmp.stamp",
    ),
    "groups.eval": (
        "repro.spice.groups:BJTGroup.stamp_residual",
        "repro.spice.groups:BJTGroup.stamp_full",
        "repro.spice.groups:DiodeGroup.stamp_residual",
        "repro.spice.groups:DiodeGroup.stamp_full",
    ),
    "solver.factor": ("repro.spice.solver:NewtonWorkspace.factor",),
    "solver.backsolve": ("repro.spice.solver:NewtonWorkspace.solve",),
    "solver.newton": (
        "repro.spice.solver:solve_dc_system",
        "repro.spice.solver:_newton",
    ),
    "transient.run": ("repro.spice.transient:run_transient_system",),
    "session.build": ("repro.spice.session:Session.__init__",),
    "session.cache": (
        "repro.spice.session:SolvedPointCache.exact",
        "repro.spice.session:SolvedPointCache.nearest",
        "repro.spice.session:SolvedPointCache.insert",
    ),
    "plans.validate": ("repro.spice.session:Session.validate",),
    "parser.parse": ("repro.spice.parser:parse_netlist",),
    "ac.solve": ("repro.spice.ac:ACSystem.solve",),
    "measurement.measure": (
        "repro.measurement.campaign:MeasurementCampaign.measure_gummel_family",
        "repro.measurement.campaign:MeasurementCampaign.measure_vbe_curve",
        "repro.measurement.campaign:MeasurementCampaign.measure_pair",
    ),
    "extraction.fit": (
        "repro.extraction.vbe_fit:fit_vbe_curves",
        "repro.extraction.characteristic:characteristic_straight",
        "repro.extraction.temperature:computed_temperatures_for_curve",
        "repro.extraction.meijer:meijer_extract",
    ),
    "bjt.law": (
        "repro.bjt.model:GummelPoonModel.vbe_for_ic",
        "repro.bjt.model:GummelPoonModel.terminal_currents",
    ),
}

#: Server-side layers, installed in the ``--serve`` launcher only.
SERVER_LAYERS: Dict[str, Tuple[str, ...]] = {
    "jobs.submit": ("repro.serve.jobs:JobService.submit",),
    "jobs.wire_encode": tuple(
        f"repro.spice.session:{cls}.to_dict"
        for cls in (
            "OPResult", "_SweepResultBase", "ACSweepResult",
            "TransientRunResult", "MonteCarloResult",
        )
    ),
    "store.flush": ("repro.spice.session:Session.flush_store",),
    "store.absorb": ("repro.serve.cachestore:CacheStore.absorb",),
    "store.load": ("repro.serve.cachestore:CacheStore.load",),
}


def install_engine(rec: Recorder) -> None:
    """Wrap the in-process layers (spice, measurement, extraction, bjt)."""
    install(
        rec,
        ENGINE_LAYERS,
        hooks={
            "repro.spice.solver:_newton": _after_newton,
            "repro.spice.transient:run_transient_system": _after_transient,
        },
    )
    # Count the Newton runs a transient makes per step: a thin outer
    # wrapper that looks at the enclosing span before the timed one opens.
    transient = importlib.import_module("repro.spice.transient")
    transient._newton = _before_newton_factory(rec, transient._newton)


def install_server(rec: Recorder) -> None:
    """Wrap the serve layers: job submit/execute, wire encode, store,
    and the HTTP handlers (op id from the ``X-Bench-Op`` header)."""
    install(rec, SERVER_LAYERS)
    session_mod = importlib.import_module("repro.spice.session")
    export = session_mod.SolvedPointCache.export

    @functools.wraps(export)
    def counted_export(self):
        result = export(self)
        rec.count("store.points_exported", len(result))
        return result

    session_mod.SolvedPointCache.export = counted_export

    jobs_mod = importlib.import_module("repro.serve.jobs")
    execute = jobs_mod.JobService._execute

    @functools.wraps(execute)
    def traced_execute(self, job):
        rec.op = "job:" + job.id
        span = rec.begin("jobs.execute")
        try:
            return execute(self, job)
        finally:
            rec.end(span)
            rec.op = None

    jobs_mod.JobService._execute = traced_execute

    server_mod = importlib.import_module("repro.serve.server")
    for method in ("do_GET", "do_POST"):
        original = getattr(server_mod._Handler, method)

        def handler(self, _original=original):
            rec.op = self.headers.get("X-Bench-Op")
            span = rec.begin("http.handle")
            try:
                return _original(self)
            finally:
                rec.end(span)
                rec.op = None

        setattr(server_mod._Handler, method, functools.wraps(original)(handler))

    # Response bodies are JSON-encoded by the handler's module-level
    # ``json.dumps``; time that as wire encoding too.
    real_json = server_mod.json

    class _TimedJSON:
        JSONDecodeError = real_json.JSONDecodeError
        loads = staticmethod(real_json.loads)
        dumps = staticmethod(_timed(rec, "jobs.wire_encode", real_json.dumps))

    server_mod.json = _TimedJSON


def dump(rec: Recorder, path: str) -> None:
    """Write the spans and counters once, as one JSON document."""
    with open(path, "w") as handle:
        json.dump({"spans": rec.spans(), "counts": dict(rec.counts)}, handle)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def exclusive_ns(spans: Sequence[Tuple[int, int, int]]) -> List[int]:
    """Exclusive time of each ``(start, end, depth)`` span.

    Each instant covered by at least one span is charged to the deepest
    span active then (ties: the one that started last).  For a properly
    nested tree this is duration minus the union of the children.
    """
    events = []
    for index, (start, end, _depth) in enumerate(spans):
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    out = [0] * len(spans)
    alive = [False] * len(spans)
    heap: List[Tuple[int, int, int]] = []
    previous = None
    for instant, is_start, index in events:
        while heap and not alive[heap[0][2]]:
            heapq.heappop(heap)
        if heap and previous is not None:
            out[heap[0][2]] += instant - previous
        previous = instant
        if is_start:
            alive[index] = True
            start, _end, depth = spans[index]
            heapq.heappush(heap, (-depth, -start, index))
        else:
            alive[index] = False
    return out


def merge(total: Dict[str, object], part: Dict[str, object]) -> Dict[str, object]:
    """Sum two :func:`attribute` results."""
    out = {"ops": total["ops"] + part["ops"], "wall_ns": total["wall_ns"] + part["wall_ns"]}
    for key in ("exclusive", "calls"):
        merged = dict(total[key])
        for name, value in part[key].items():
            merged[name] = merged.get(name, 0) + value
        out[key] = merged
    return out


EMPTY = {"ops": 0, "wall_ns": 0, "exclusive": {}, "calls": {}}


def attribute(spans: Iterable[Span], root_name: str = "op") -> Dict[str, object]:
    """Per-op attribution: exclusive ns per span name, summed over ops.

    ``spans`` may mix client and server spans; only spans whose op id
    has a ``root_name`` span count, clipped to that root's interval.
    Returns ``{"ops": n, "wall_ns": total, "exclusive": {name: ns},
    "calls": {name: count}}`` with ``sum(exclusive) == wall_ns``.
    """
    by_op: Dict[object, List[Span]] = defaultdict(list)
    for span in spans:
        if span[6] is not None:
            by_op[span[6]].append(span)
    exclusive: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    wall = 0
    ops = 0
    for members in by_op.values():
        roots = [s for s in members if s[2] == root_name]
        if len(roots) != 1:
            continue
        root = roots[0]
        lo, hi = root[3], root[4]
        clipped = []
        names = []
        for span in members:
            start, end = max(span[3], lo), min(span[4], hi)
            if end <= start and span is not root:
                continue
            clipped.append((start, end, span[5]))
            names.append(span[2])
            if span is not root:
                calls[span[2]] += 1
        for name, ns in zip(names, exclusive_ns(clipped)):
            exclusive[name] += ns
        wall += hi - lo
        ops += 1
    return {"ops": ops, "wall_ns": wall, "exclusive": dict(exclusive), "calls": dict(calls)}
