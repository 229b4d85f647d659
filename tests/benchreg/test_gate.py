"""Baseline resolution and gate-classification tests."""

from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.benchreg import compare, schema
from repro.benchreg.record import make_entry
from repro.errors import BenchRegError

CLOCK = datetime(2026, 7, 28, tzinfo=timezone.utc).timestamp()
COMMITTED_INDEX = Path(__file__).resolve().parents[2] / "benchmarks" / "index.json"


def host(tag):
    return {"machine": "x86_64", "python": "3.12.0", "numpy": "2.0.0",
            "scipy": "1.14.0", "cpus": 4, "platform": f"OS-{tag}",
            "fingerprint": f"host-{tag}"}


def entry(entry_id, host_tag="A", label="", date_offset=0, rows=None):
    return make_entry(
        rows if rows is not None else [base_row()],
        entry_id=entry_id,
        label=label,
        clock=lambda: CLOCK + date_offset * 86400,
        host=host(host_tag),
        sha=f"sha-{entry_id}",
    )


def base_row(**overrides):
    row = {
        "experiment": "demo",
        "wall_s": 1.0,
        "factorizations": 100,
        "newton_solves": 10,
        "op_cache_hits": 2,
        "op_cache_warm_starts": 1,
        "iterations": 300,
        "strategies": {"newton": 3, "gain-stepping": 1},
    }
    row.update(overrides)
    return row


def index_of(*entries):
    return {"schema": schema.INDEX_SCHEMA, "entries": list(entries)}


class TestBaselineResolution:
    def test_empty_index_raises(self):
        with pytest.raises(BenchRegError, match="index is empty"):
            compare.resolve_baseline(index_of(), host=host("A"))

    def test_latest_same_host_preferred(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"),
                       entry("c0003", "A"), entry("c0004", "B"))
        chosen, how = compare.resolve_baseline(idx, host=host("A"))
        assert chosen["id"] == "c0003"
        assert "same-host" in how

    def test_no_same_host_falls_back_to_latest_with_loud_note(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"))
        chosen, how = compare.resolve_baseline(idx, host=host("C"))
        assert chosen["id"] == "c0002"
        assert "NO same-host entry" in how

    def test_explicit_ref_by_id_label_and_date(self):
        idx = index_of(entry("c0001", "A", label="pr4"),
                       entry("c0002", "B", date_offset=1))
        assert compare.resolve_baseline(idx, ref="c0001")[0]["id"] == "c0001"
        assert compare.resolve_baseline(idx, ref="pr4")[0]["id"] == "c0001"
        by_date, _ = compare.resolve_baseline(idx, ref="2026-07-29")
        assert by_date["id"] == "c0002"

    def test_explicit_ref_latest_ignores_host(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"))
        chosen, how = compare.resolve_baseline(idx, ref="latest", host=host("A"))
        assert chosen["id"] == "c0002"
        assert "latest" in how

    def test_date_ref_picks_latest_matching_entry(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "A"))
        chosen, _ = compare.resolve_baseline(idx, ref="2026-07-28")
        assert chosen["id"] == "c0002"

    def test_unknown_ref_raises_with_known_ids(self):
        idx = index_of(entry("c0001"))
        with pytest.raises(BenchRegError, match="known ids: c0001"):
            compare.resolve_baseline(idx, ref="c9999")


class TestClassify:
    def test_counter_exact(self):
        assert compare.classify(10, 10, "lower", 0.0) == "stable"
        assert compare.classify(10, 11, "lower", 0.0) == "regressed"
        assert compare.classify(10, 9, "lower", 0.0) == "improved"

    def test_higher_is_better_flips_direction(self):
        assert compare.classify(10, 11, "higher", 0.0) == "improved"
        assert compare.classify(10, 9, "higher", 0.0) == "regressed"

    def test_wall_band_is_relative(self):
        assert compare.classify(1.0, 1.2, "lower", 0.25) == "stable"
        assert compare.classify(1.0, 0.8, "lower", 0.25) == "stable"
        assert compare.classify(1.0, 1.3, "lower", 0.25) == "regressed"
        assert compare.classify(1.0, 0.7, "lower", 0.25) == "improved"

    def test_missing_baseline_is_new_metric(self):
        assert compare.classify(None, 5, "lower", 0.0) == "new-metric"


class TestGate:
    def test_identical_run_passes_all_stable(self):
        comparison = compare.compare_rows(entry("c0001"), [base_row()])
        assert comparison.ok
        counts = comparison.counts()
        assert counts["regressed"] == 0 and counts["new-metric"] == 0
        assert counts["stable"] == len(comparison.deltas)

    def test_counter_up_fails_the_gate_naming_the_metric(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(factorizations=200)]
        )
        assert not comparison.ok
        failures = comparison.hard_failures
        assert [f.metric for f in failures] == ["factorizations"]
        text = compare.render_check(comparison)
        assert "FAIL" in text
        assert "demo.factorizations" in text
        assert "100 -> 200" in text

    def test_cache_hit_drop_fails_higher_is_better_gate(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(op_cache_hits=0)]
        )
        assert [f.metric for f in comparison.hard_failures] == ["op_cache_hits"]

    def test_ladder_rung_appearing_fails(self):
        comparison = compare.compare_rows(
            entry("c0001"),
            [base_row(strategies={"newton": 3, "gain-stepping": 2})],
        )
        assert [f.metric for f in comparison.hard_failures] == [
            "strategies.gain-stepping"
        ]

    def test_wall_drift_within_band_is_stable(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(wall_s=1.2)], tolerance=0.25
        )
        assert comparison.ok
        wall = [d for d in comparison.deltas if d.metric == "wall_s"][0]
        assert wall.status == "stable" and wall.severity == "advisory"

    def test_wall_blowup_is_advisory_only_never_fatal(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(wall_s=10.0)], tolerance=0.25
        )
        assert comparison.ok  # advisory regressions never gate
        wall = [d for d in comparison.deltas if d.metric == "wall_s"][0]
        assert wall.status == "regressed"
        text = compare.render_check(comparison)
        assert "advisory" in text and "PASS" in text

    def test_info_counter_regression_does_not_gate(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(iterations=999)]
        )
        assert comparison.ok
        delta = [d for d in comparison.deltas if d.metric == "iterations"][0]
        assert delta.status == "regressed" and delta.severity == "info"

    def test_counter_improvement_reported(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(newton_solves=5)]
        )
        assert comparison.ok
        assert "improved" in compare.render_check(comparison)

    def test_new_metric_never_fails_schema_growth(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(op_cache_misses=7, retries=0)]
        )
        assert comparison.ok
        new = {d.metric for d in comparison.deltas if d.status == "new-metric"}
        assert "op_cache_misses" in new and "retries" in new

    def test_new_experiment_is_all_new_metrics(self):
        comparison = compare.compare_rows(
            entry("c0001"), [dict(base_row(), experiment="fresh")]
        )
        assert comparison.ok
        assert all(d.status == "new-metric" for d in comparison.deltas)

    def test_partial_run_lists_uncompared_experiments(self):
        two = entry(
            "c0001",
            rows=[base_row(), dict(base_row(), experiment="other")],
        )
        comparison = compare.compare_rows(two, [base_row()])
        assert comparison.uncompared == ["other"]
        assert "other not in this run" in compare.render_check(comparison)

    def test_alternate_baseline_legs_ignored(self):
        legs = entry(
            "c0001",
            rows=[
                dict(base_row(), leg="default"),
                dict(base_row(factorizations=9999),
                     leg="grouped-forced (REPRO_GROUP_MIN=1)"),
            ],
        )
        comparison = compare.compare_rows(legs, [base_row()])
        assert comparison.ok

    def test_check_against_index_end_to_end(self):
        idx = index_of(entry("c0001", "B"), entry("c0002", "A"))
        comparison = compare.check_against_index(
            idx, [base_row(factorizations=150)], host=host("A")
        )
        assert comparison.baseline_id == "c0002"
        assert not comparison.ok

    def test_delta_as_dict_round_trip(self):
        comparison = compare.compare_rows(entry("c0001"), [base_row()])
        row = comparison.deltas[0].as_dict()
        assert set(row) == {"experiment", "metric", "severity", "direction",
                            "baseline", "candidate", "status"}


class TestLegacyHostBaseline:
    """c0001/c0002 in the committed index predate native recording:
    they carry a ``legacy:`` host fingerprint and cite their original
    ``BENCH_*.json`` snapshot as ``source``.  They stay usable as
    explicit baselines."""

    @pytest.fixture
    def committed(self):
        return schema.load_index(COMMITTED_INDEX)

    def test_legacy_hosts_never_match_a_live_fingerprint(self, committed):
        live = schema.host_fingerprint()["fingerprint"]
        legacy = [e for e in committed["entries"] if e["source"] is not None]
        assert [e["id"] for e in legacy] == ["c0001", "c0002"]
        for e in legacy:
            assert e["host"]["fingerprint"].startswith("legacy:")
            assert e["host"]["fingerprint"] != live

    def test_c0001_gates_identical_counters_clean(self, committed):
        """A candidate whose hard counters equal c0001's default row
        passes, and the counters grown since classify as new metrics."""
        baseline, how = compare.resolve_baseline(committed, ref="c0001")
        c0001_row = schema.default_row(baseline, "startup_transient")
        candidate = dict(c0001_row)
        candidate.pop("leg", None)
        candidate.update({"op_cache_misses": 4, "session_plans": 4})
        comparison = compare.compare_rows(baseline, [candidate], resolution=how)
        assert comparison.ok
        statuses = {d.metric: d.status for d in comparison.deltas}
        assert statuses["factorizations"] == "stable"
        assert statuses["op_cache_misses"] == "new-metric"

    def test_doubled_factorizations_fail_against_c0001(self, committed):
        baseline, _ = compare.resolve_baseline(committed, ref="c0001")
        row = dict(schema.default_row(baseline, "startup_transient"))
        row.pop("leg", None)
        row["factorizations"] *= 2
        comparison = compare.compare_rows(baseline, [row])
        assert not comparison.ok
        assert [f.metric for f in comparison.hard_failures] == ["factorizations"]
