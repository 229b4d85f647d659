"""Campaign recorder: append one ``--bench`` run to the index.

A recorded campaign is a *claim about the code*: these counters and
wall times are what this git SHA does on this host.  Two rules keep the
claim honest:

* **Provenance rides every entry** — recording date (injectable clock),
  git SHA (best-effort), and the host fingerprint — so a later
  ``--bench-check`` can prefer baselines whose counters were produced
  by the same numeric stack.
* **A perturbed run can never become a baseline**: recording (and
  gating) refuses outright while a :mod:`repro.faultinject` plan is
  armed, because injected retries/crashes bend the very counters the
  gates trust.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from ..errors import BenchRegError
from . import schema


def ensure_unperturbed(action: str = "record") -> None:
    """Refuse to ``action`` a campaign while fault injection is armed.

    Consults :func:`repro.faultinject.active_spec`, so both the
    ``REPRO_FAULTS`` environment spec and a programmatically installed
    plan are caught.
    """
    from .. import faultinject

    spec = faultinject.active_spec()
    if spec is not None:
        raise BenchRegError(
            f"refusing to {action} a benchmark campaign: fault injection is "
            f"armed (spec {spec!r}). A perturbed run must never become a "
            "baseline — unset REPRO_FAULTS (or uninstall the fault plan) "
            "and re-run."
        )


def make_entry(
    rows: List[Mapping[str, object]],
    *,
    entry_id: str,
    command: str = "",
    label: str = "",
    notes: str = "",
    pr: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    host: Optional[Mapping[str, object]] = None,
    sha: Optional[str] = None,
) -> Dict[str, object]:
    """Build one schema-valid campaign entry from ``--bench`` rows.

    ``clock`` returns epoch seconds (defaults to the wall clock); tests
    inject it for byte-stable entries.  ``host``/``sha`` override the
    live provenance probes the same way.
    """
    if clock is None:
        import time

        clock = time.time
    stamp = datetime.fromtimestamp(clock(), tz=timezone.utc)
    entry = {
        "id": entry_id,
        "date": stamp.strftime("%Y-%m-%d"),
        "recorded_at": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "label": label,
        "pr": pr,
        "command": command,
        "notes": notes,
        "source": None,
        "git_sha": schema.git_sha() if sha is None else sha,
        "host": dict(schema.host_fingerprint() if host is None else host),
        "rows": [dict(row) for row in rows],
    }
    return schema.validate_entry(entry)


def record_campaign(
    index_path,
    rows: List[Mapping[str, object]],
    *,
    command: str = "",
    label: str = "",
    notes: str = "",
    pr: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    host: Optional[Mapping[str, object]] = None,
    sha: Optional[str] = None,
) -> Dict[str, object]:
    """Append a campaign entry to the index at ``index_path``.

    Creates a fresh index when the file does not exist yet.  Returns
    the recorded entry (its ``id`` identifies it as a future
    ``--baseline`` ref).  Raises :class:`BenchRegError` when fault
    injection is armed or the rows are empty.
    """
    ensure_unperturbed("record")
    if not rows:
        raise BenchRegError("refusing to record an empty campaign (no bench rows)")
    index_path = Path(index_path)
    index = schema.load_index(index_path) if index_path.exists() else schema.new_index()
    entry = make_entry(
        rows,
        entry_id=schema.next_entry_id(index),
        command=command,
        label=label,
        notes=notes,
        pr=pr,
        clock=clock,
        host=host,
        sha=sha,
    )
    index["entries"].append(entry)
    schema.save_index(index, index_path)
    return entry
