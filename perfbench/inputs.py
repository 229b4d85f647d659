"""Seeded input generators for the four workloads.

Everything the program sees is made here from the workload seed: decks
(netlist text), plans and HTTP job requests (plain JSON-ready dicts),
startup-ramp settings and lot draws.  The same seed always yields
byte-identical inputs (see :func:`fingerprint`); nothing here imports
the solver, so the streams cannot depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

#: Bandgap-array size of ``array_sweep``: 120 cells = 1082 unknowns, far
#: above the ~12-device grouped-evaluation crossover and the 200-unknown
#: sparse switch.
ARRAY_CELLS = 120

#: Ops generated per stream; a run that outlasts the stream wraps around.
STREAM_LEN = 4096


#: Ops per stratified block: within each block every parameter takes one
#: value from each of this many equal slices of its range, so the work
#: mix of a run hardly depends on the seed.
BLOCK = 16


def _rng(seed: int, stream: str) -> random.Random:
    """Independent, platform-stable generator per (seed, stream)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _stratified(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """``count`` draws, one per equal slice of [low, high], in seeded order."""
    width = (high - low) / BLOCK
    out: List[float] = []
    while len(out) < count:
        block = [low + (k + rng.random()) * width for k in range(BLOCK)]
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def fingerprint(value) -> str:
    """SHA-256 of the canonical JSON form (the byte-identity handle)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# cell_startup
# ----------------------------------------------------------------------

#: Temperatures [K] at which the cold post-ramp OP of the sub-1V cell
#: does not converge on the current code, whatever the ramp (a known
#: defect: source stepping stalls; on a 0.01 K grid it failed from
#: 324.21 to 325.03 K), widened by 0.2 K on each side.  The
#: temperature draws skip this band so that no op fails;
#: ``cell_startup`` reproduces the stall once per run instead.
SUB1V_OP_STALL_K = (324.0, 325.3)
#: A temperature [K] inside that band at which the stall reproduces.
SUB1V_COLD_STALL_K = 324.4


def _skip_band(value: float, band: Tuple[float, float]) -> float:
    """Shift a draw made over a range ``band``-width short past ``band``."""
    lo, hi = band
    return value + (hi - lo) if value >= lo else value


#: Ops per variant in one ``cell_startup`` block (a block is twice this,
#: the variants alternating).  Every block holds the same design on
#: every seed: a variant's op ``k`` takes stratum ``k`` of the ramp
#: range, ``3k + 1`` of the load range and ``5k + 2`` of the temperature
#: range (mod CELL_STRATA), a Latin hypercube with fixed pairing.  The
#: seed places each value inside its stratum and orders the block, so
#: the work mix of a run hardly depends on the seed.
CELL_STRATA = 8


#: The warm-up ops of every ``cell_startup`` set-up: mid-range, the same
#: for every seed.
STARTUP_WARMUP = tuple(
    {"variant": variant, "ramp_s": 40e-6, "c_load_f": 100e-12, "temperature_k": 300.15}
    for variant in ("bandgap_cell", "sub1v")
)


def startup_specs(seed: int, count: int = STREAM_LEN) -> List[Dict[str, object]]:
    """Ramp specs alternating the Fig. 3 cell and the sub-1V cell."""
    rng = _rng(seed, "cell_startup")
    lo, hi = SUB1V_OP_STALL_K
    ranges = ((20e-6, 60e-6), (50e-12, 150e-12), (263.15, 348.15 - (hi - lo)))
    specs: List[Dict[str, object]] = []
    while len(specs) < count:
        designs = []
        for variant in ("bandgap_cell", "sub1v"):
            design = []
            for k in range(CELL_STRATA):
                strata = (k, (3 * k + 1) % CELL_STRATA, (5 * k + 2) % CELL_STRATA)
                ramp, load, temp = (
                    low + (stratum + rng.random()) * (high - low) / CELL_STRATA
                    for (low, high), stratum in zip(ranges, strata)
                )
                design.append(
                    {
                        "variant": variant,
                        "ramp_s": round(ramp, 12),
                        "c_load_f": round(load, 16),
                        "temperature_k": round(_skip_band(temp, SUB1V_OP_STALL_K), 3),
                    }
                )
            rng.shuffle(design)
            designs.append(design)
        for pair in zip(*designs):
            specs.extend(pair)
    return specs[:count]


# ----------------------------------------------------------------------
# array_sweep
# ----------------------------------------------------------------------

def array_specs(seed: int, count: int = STREAM_LEN) -> List[Dict[str, object]]:
    """Per-op jitter, supply and sweep grid for the bandgap array."""
    rng = _rng(seed, "array_sweep")
    # Every five ops hold each sweep size 6-10 once, so the share of the
    # dearest (10-point) sweeps, which sets op_p90_ms, is fixed.
    points: List[int] = []
    while len(points) < count:
        sizes = list(range(6, 11))
        rng.shuffle(sizes)
        points.extend(sizes)
    lows = _stratified(rng, 233.15, 273.15, count)
    highs = _stratified(rng, 348.15, 398.15, count)
    jitters = _stratified(rng, 0.05, 0.4, count)
    vdds = _stratified(rng, 2.7, 3.3, count)
    op_temps = _stratified(rng, 273.15, 323.15, count)
    specs = []
    for index in range(count):
        low, high, n = lows[index], highs[index], points[index]
        step = (high - low) / (n - 1)
        specs.append(
            {
                "jitter": round(jitters[index], 6),
                "vdd": round(vdds[index], 4),
                "op_temperature_k": round(op_temps[index], 3),
                "temperatures_k": [round(low + k * step, 3) for k in range(n)],
            }
        )
    return specs


#: The warm-up op of every ``array_sweep`` set-up: mid-range, the same
#: for every seed.
ARRAY_WARMUP = {
    "jitter": 0.2,
    "vdd": 3.0,
    "op_temperature_k": 298.15,
    "temperatures_k": [253.15 + 15.0 * k for k in range(8)],
}


def array_deck(spec: Dict[str, object], cells: int = ARRAY_CELLS) -> str:
    """The netlist text of one ``array_sweep`` op."""
    from repro.spice.hierarchy import bandgap_array

    return bandgap_array(cells=cells, vdd=spec["vdd"], jitter=spec["jitter"])


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

PTAT_CHAIN = """\
.title PTAT bias chain
.model QPNP PNP (IS=1.2e-17 BF=80 EG=1.1324 XTI=3.4616 RB=120 RE=18 RC=45)
V1 vdd 0 3.3
R1 vdd e 220k
Q1 0 0 e QPNP
"""

#: A Fig. 3-style cell with an A-card amplifier.  It is not served: its
#: DC solve stalls in source stepping at scattered temperatures on the
#: current code (a known defect: 66 of 13,001 cold OPs on a 0.01 K grid
#: over 243.15-373.15 K fail, and warm-started jobs fail at yet other
#: temperatures, so no temperature draw avoids it; about one A-card job
#: in 2,000 failed in the mix).  ``service_mix`` reproduces the stall once
#: per run at :data:`ACARD_COLD_STALL_K` instead.
ACARD_CELL = """\
.title Fig. 3-style cell with an A-card amplifier
.model QA PNP (IS=1.2e-17 BF=80 EG=1.1324 XTI=3.4616)
.model QB PNP (IS=9.6e-17 BF=80 EG=1.1324 XTI=3.4616)
V1 vdd 0 5
R2A vref na 60k
R2B vref nb 60k
R1 nb nq 6k
QA 0 0 na QA
QB 0 0 nq QB
A1 na nb vref gain=1e4 supply=vdd
"""

#: A temperature [K] at which the A-card cell's cold OP stalls.
ACARD_COLD_STALL_K = 254.46

#: One block of the job stream: every block holds exactly these entries,
#: in a seeded order, so runs on different seeds carry the same mix.
#: Per 20 jobs: 1 malformed plan (5%), 6 verbatim repeats (30%) and 13
#: novel jobs of fixed analysis kinds.  These shares are an assumption:
#: no measured job trace or published source fixes them.  The repeat
#: share sets the exact-hit share, so a change whose gain depends on it
#: reports ``session.cache_hit_ratio`` beside the gain.
SERVICE_BLOCK = (
    ("malformed",)
    + ("repeat",) * 6
    + ("OP",) * 4
    + ("TempSweep",) * 3
    + ("DCSweep",) * 2
    + ("ACSweep",) * 2
    + ("MonteCarlo",) * 2
)

#: The novel analysis kinds of one block, in block proportions.
NOVEL_KINDS = tuple(k for k in SERVICE_BLOCK if k not in ("malformed", "repeat"))

#: Array sizes served.  With the PTAT chain that is seven decks: the
#: server's session pool holds eight sessions (its default, not
#: settable from the command line), so no pooled session is ever
#: evicted and rebuilt mid-run.
SERVICE_ARRAY_CELLS = (1, 2, 3, 4, 6, 8)


def service_decks(seed: int) -> List[Dict[str, object]]:
    """The served decks: PTAT chain and 1-8-cell arrays.

    Each entry carries the deck text plus what the plan generator needs
    (a node to record, the supply source name and its value).
    """
    from repro.spice.hierarchy import bandgap_array

    rng = _rng(seed, "service_decks")
    decks = [{"name": "ptat", "netlist": PTAT_CHAIN, "node": "e", "vdd": 3.3}]
    for cells in SERVICE_ARRAY_CELLS:
        jitter = round(rng.uniform(0.0, 0.3), 4)
        decks.append(
            {
                "name": f"array{cells}",
                "netlist": bandgap_array(
                    cells=cells, jitter=jitter, title=f"bandgap array x{cells}"
                ),
                "node": "o0",
                "vdd": 3.0,
            }
        )
    return decks


def _temps(rng: random.Random, count: int) -> List[float]:
    return sorted(round(rng.uniform(243.15, 373.15), 2) for _ in range(count))


def _novel_plan(rng: random.Random, deck: Dict[str, object], kind: str) -> dict:
    node = deck["node"]
    vdd = deck["vdd"]
    if kind == "OP":
        return {"analysis": "OP", "temperature_k": _temps(rng, 1)[0], "record": [node]}
    if kind == "TempSweep":
        return {
            "analysis": "TempSweep",
            "temperatures_k": _temps(rng, 4),
            "record": [node],
        }
    if kind == "DCSweep":
        count = 4
        low = vdd * rng.uniform(0.85, 0.95)
        high = vdd * rng.uniform(1.05, 1.15)
        return {
            "analysis": "DCSweep",
            "source": "V1",
            "values": [
                round(low + k * (high - low) / (count - 1), 5) for k in range(count)
            ],
            "temperature_k": _temps(rng, 1)[0],
            "record": [node],
        }
    if kind == "ACSweep":
        return {
            "analysis": "ACSweep",
            "frequencies_hz": [10.0 ** k for k in range(1, 5)],
            "temperatures_k": _temps(rng, 1),
            "overrides": [["V1", "ac_mag", 1.0]],
            "record": [node],
        }
    trials = [
        [["V1", "dc", round(vdd * rng.uniform(0.97, 1.03), 5)]]
        for _ in range(3)
    ]
    return {
        "analysis": "MonteCarlo",
        "inner": {"analysis": "OP", "temperature_k": _temps(rng, 1)[0]},
        "trials": trials,
    }


def _malformed_plan(rng: random.Random, deck: Dict[str, object]) -> dict:
    return rng.choice(
        (
            {"analysis": "OP", "record": ["no_such_node"]},
            {"analysis": "TempSweep", "temperatures_k": []},
            {"analysis": "Noise", "temperature_k": 300.15},
            {"analysis": "OP", "overrides": [["RMISSING", "resistance", 1e3]]},
            {"analysis": "DCSweep", "source": "V1", "values": [], "record": []},
        )
    )


def service_stream(seed: int, count: int = STREAM_LEN) -> List[Dict[str, object]]:
    """The job stream: novel jobs, verbatim repeats, malformed plans.

    Entry ``{"kind": k, "request": {...}, "repeat_of": i}``; ``kind`` is
    ``novel`` | ``repeat`` | ``malformed``.  A repeat carries the
    identical request of an earlier novel entry.  Novel jobs visit the
    decks round-robin; the stream is built from :data:`SERVICE_BLOCK`.
    """
    rng = _rng(seed, "service_mix")
    decks = service_decks(seed)
    stream: List[Dict[str, object]] = []
    novel: List[int] = []
    by_kind: Dict[str, List[int]] = {}
    repeats = 0
    while len(stream) < count:
        block = list(SERVICE_BLOCK)
        rng.shuffle(block)
        if not novel:
            block.sort(key=lambda kind: kind in ("repeat", "malformed"))
        for kind in block:
            index = len(stream)
            if kind == "malformed":
                deck = decks[index % len(decks)]
                entry = {"kind": kind, "plan": _malformed_plan(rng, deck)}
            elif kind == "repeat":
                # Repeat kinds cycle like the novel ones, so the share of
                # cheap (OP) and dear (sweep) repeats is fixed too.
                wanted = NOVEL_KINDS[repeats % len(NOVEL_KINDS)]
                repeats += 1
                original = rng.choice(by_kind.get(wanted) or novel)
                stream.append(
                    {
                        "kind": kind,
                        "request": stream[original]["request"],
                        "repeat_of": original,
                    }
                )
                continue
            else:
                deck = decks[len(novel) % len(decks)]
                entry = {"kind": "novel", "plan": _novel_plan(rng, deck, kind)}
                novel.append(index)
                by_kind.setdefault(kind, []).append(index)
            stream.append(
                {
                    "kind": entry["kind"],
                    "request": {
                        "circuit": {"netlist": deck["netlist"]},
                        "plan": entry["plan"],
                    },
                }
            )
    return stream[:count]


# ----------------------------------------------------------------------
# lot_extraction
# ----------------------------------------------------------------------

#: Chips drawn per lot (ops cycle through the lot).
LOT_SIZE = 256


def lot_draws(seed: int, size: int = LOT_SIZE) -> Tuple[list, List[int]]:
    """A seeded ``ProcessSpread`` lot plus one measurement-noise seed per chip."""
    from repro.measurement.samples import ProcessSpread

    rng = _rng(seed, "lot_extraction")
    lot_seed = rng.randrange(2**31)
    noise_seeds = [rng.randrange(2**31) for _ in range(size)]
    return ProcessSpread().generate(size, seed=lot_seed), noise_seeds
