"""Tests for the serving layer: shards, traffic, SLO windows, the comparison."""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.backends.proc import proc_available
from repro.chaos.metrics import compute_metrics
from repro.errors import ServeError, StudyError
from repro.registry import available, render_available
from repro.serve import (
    STATUS_DROPPED_WRITE,
    STATUS_OK,
    STATUS_STALE_READ,
    KvService,
    RequestGenerator,
    ServeSpec,
    ShardMap,
    WindowTracker,
    check_serve_invariants,
    load_requests,
    render_markdown,
    run_service,
    run_slo_comparison,
    trace_lines,
    write_requests,
)
from repro.serve.__main__ import main as serve_main, quick_spec
from repro.serve.engine import build_plan
from repro.serve.report import validate_request_row
from repro.serve.slo import (
    SEGMENT_CHECKPOINT,
    SEGMENT_RECOVERY,
    SEGMENT_STEADY,
    build_slo_report,
)
from repro.stats import latency_percentiles, percentile
from repro.study.workloads import make_workload

pytestmark = pytest.mark.usefixtures("proc_hygiene")

PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)

TRAFFIC_SHAPE = dict(steps=10, nprocs=4, key_space=64, rate_per_step=4.0)


def _trace(seed: int) -> str:
    """Canonical serialization of one seeded trace (picklable helper)."""
    generator = RequestGenerator(seed=seed, **TRAFFIC_SHAPE)
    return "\n".join(trace_lines(generator.generate()))


@pytest.fixture(scope="module")
def comparison():
    """The quick sim comparison every report-level test reads from."""
    return run_slo_comparison(quick_spec())


def cell(results, recovery: str):
    return next(r for r in results if r.spec.recovery == recovery)


# ----------------------------------------------------------------------
# Shared percentile helper (repro.stats)
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 50.0) == 2.0
    assert percentile(xs, 75.0) == 3.0
    assert percentile(xs, 100.0) == 4.0
    assert percentile(xs, 1.0) == 1.0


def test_percentile_rejects_empty_and_bad_quantile():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_latency_percentiles_empty_is_none_never_nan():
    assert latency_percentiles([]) is None


def test_latency_percentiles_single_sample():
    assert latency_percentiles([3.0]) == {"p50": 3.0, "p95": 3.0, "p99": 3.0}


def test_latency_percentiles_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        latency_percentiles([1.0, math.nan])


# ----------------------------------------------------------------------
# Shard placement
# ----------------------------------------------------------------------
def test_shard_map_locates_in_range():
    shards = ShardMap(nshards=8, slots=16)
    for key in range(500):
        owner, offset = shards.locate(key)
        assert 0 <= owner < 8 and 0 <= offset < 16
        assert shards.owner(key) == owner


def test_shard_map_scatters_hot_keys():
    # Zipf traffic concentrates on low key ids; the multiplicative hash must
    # spread them over several shards instead of melting the low-slot owner.
    shards = ShardMap(nshards=8, slots=16)
    owners = {shards.owner(key) for key in range(8)}
    assert len(owners) > 2


def test_shard_map_validation():
    with pytest.raises(ServeError):
        ShardMap(nshards=0, slots=16)
    with pytest.raises(ServeError):
        ShardMap(nshards=8, slots=16).locate(-1)


# ----------------------------------------------------------------------
# Traffic: seeded determinism across executors (satellite 3)
# ----------------------------------------------------------------------
def test_generator_identical_seeds_identical_traces():
    assert _trace(7) == _trace(7)


def test_generator_trace_identical_across_executors():
    serial = _trace(2026)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(_trace, [2026, 2026]))
    with ProcessPoolExecutor(max_workers=2) as pool:
        forked = list(pool.map(_trace, [2026, 2026]))
    assert threaded == [serial, serial]
    assert forked == [serial, serial]


def test_generator_disjoint_seeds_disjoint_traces():
    a = RequestGenerator(seed=1, **TRAFFIC_SHAPE).generate()
    b = RequestGenerator(seed=2, **TRAFFIC_SHAPE).generate()
    assert {r.frac for r in a}.isdisjoint({r.frac for r in b})


def test_generator_admission_table_covers_trace():
    generator = RequestGenerator(seed=5, **TRAFFIC_SHAPE)
    requests = generator.generate()
    table = generator.by_step_frontend(requests)
    assert sum(len(v) for v in table.values()) == len(requests)
    for (step, frontend), batch in table.items():
        assert 0 <= step < TRAFFIC_SHAPE["steps"]
        assert 0 <= frontend < TRAFFIC_SHAPE["nprocs"]
        assert all(r.step == step and r.frontend == frontend for r in batch)


def test_generator_validation():
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=0, nprocs=4, key_space=8)
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=4, nprocs=4, key_space=8, rate_per_step=0.0)
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=4, nprocs=4, key_space=8, read_fraction=1.5)


# ----------------------------------------------------------------------
# Registry (satellite 1)
# ----------------------------------------------------------------------
def test_kv_service_registered_as_workload():
    assert "kv_service" in available("workload")
    assert "kv_service" in render_available()
    service = make_workload("kv_service", nprocs=4, slots=8, key_space=32, steps=4)
    assert isinstance(service, KvService)


def test_make_workload_unknown_name_lists_registered():
    with pytest.raises(StudyError, match="kv_service"):
        make_workload("kv_disservice")


def test_serve_spec_unknown_axis_lists_registered():
    with pytest.raises(ServeError, match="registered recoveries"):
        ServeSpec(recovery="time-travel")
    with pytest.raises(ServeError, match="registered backends"):
        ServeSpec(backend="quantum")
    with pytest.raises(ServeError, match="pod_kill"):
        ServeSpec(kill_kind="asteroid")


def test_serve_spec_rejects_bad_traffic_shape():
    with pytest.raises(ServeError, match="rate_per_step"):
        ServeSpec(rate_per_step=-1.0)
    with pytest.raises(ServeError, match="steps, key_space and slots"):
        ServeSpec(steps=0)
    with pytest.raises(ServeError, match="steps, key_space and slots"):
        ServeSpec(slots=0)
    with pytest.raises(ServeError, match="zipf_s"):
        ServeSpec(zipf_s=-0.5)
    with pytest.raises(ServeError, match="read_fraction"):
        ServeSpec(read_fraction=1.5)


def test_cli_list_mentions_kv_service(capsys):
    assert serve_main(["--list"]) == 0
    assert "kv_service" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Kill-plan construction
# ----------------------------------------------------------------------
def test_build_plan_excludes_comparison_axes():
    base = quick_spec()
    plans = [
        build_plan(replace(base, backend=b, recovery=r), ops_total=4000)
        for b in ("sim", "proc")
        for r in ("global", "localized", "degraded")
    ]
    reference = [(e.after_ops, e.rank, e.kind) for e in plans[0].events]
    assert all(
        [(e.after_ops, e.rank, e.kind) for e in plan.events] == reference
        for plan in plans
    )


def test_build_plan_zero_kills_empty():
    assert not build_plan(replace(quick_spec(), kills=0), ops_total=4000).events


# ----------------------------------------------------------------------
# Window segmentation
# ----------------------------------------------------------------------
def test_window_tracker_segment_precedence():
    tracker = WindowTracker()
    tracker.checkpoint_windows.append((10.0, 12.0, 3, False))
    tracker.recovery_windows.append((11.0, 15.0))
    assert tracker.segment_of(5.0) == SEGMENT_STEADY
    assert tracker.segment_of(10.5) == SEGMENT_CHECKPOINT
    assert tracker.segment_of(11.5) == SEGMENT_RECOVERY  # recovery wins overlap
    assert tracker.segment_of(14.0) == SEGMENT_RECOVERY
    assert tracker.segment_of(16.0) == SEGMENT_STEADY
    seconds = tracker.segment_seconds(20.0)
    assert seconds[SEGMENT_RECOVERY] == 4.0
    assert seconds[SEGMENT_CHECKPOINT] == 2.0
    assert seconds[SEGMENT_STEADY] == 14.0


def test_window_tracker_finish_closes_open_outage():
    tracker = WindowTracker()
    tracker.on_failure_detected(3, 7, 42.0)
    tracker.finish(50.0)
    assert tracker.recovery_windows == [(42.0, 50.0)]


def test_build_slo_report_empty_segments_are_none():
    tracker = WindowTracker()
    report = build_slo_report([], tracker, total_s=0.0)
    for segment in (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY, "overall"):
        assert report[segment]["latency_ms"] is None
        assert report[segment]["error_rate"] is None


# ----------------------------------------------------------------------
# Chaos metrics reuse the shared estimator (satellite 2)
# ----------------------------------------------------------------------
def test_chaos_metrics_mttr_percentiles():
    events = [
        {"type": "failure_detected", "t": 10.0},
        {"type": "service_restored", "t": 12.0},
        {"type": "failure_detected", "t": 20.0},
        {"type": "service_restored", "t": 26.0},
        {"type": "soak_completed", "t": 30.0},
    ]
    metrics = compute_metrics(events)
    assert metrics.mttr_p50_s == 2.0
    assert metrics.mttr_p99_s == 6.0


def test_chaos_metrics_mttr_percentiles_none_without_outages():
    metrics = compute_metrics([{"type": "soak_completed", "t": 30.0}])
    assert metrics.mttr_p50_s is None and metrics.mttr_p99_s is None


# ----------------------------------------------------------------------
# The serving runs: determinism, correctness, invariants
# ----------------------------------------------------------------------
def test_run_service_rerun_byte_identical():
    spec = replace(quick_spec(), recovery="localized")
    first = json.dumps(run_service(spec).as_dict(), sort_keys=True)
    second = json.dumps(run_service(spec).as_dict(), sort_keys=True)
    assert first == second


def test_comparison_fires_and_recovers(comparison):
    for result in comparison:
        assert result.aborted is None
        assert [k for k in result.kills if not k["skipped"]]
        assert result.recoveries >= 1
        assert result.recovery_windows


def test_comparison_invariants_hold(comparison):
    assert check_serve_invariants(comparison) == []


def test_full_recovery_tables_match_failure_free(comparison):
    # Rollback and replay must restore the exact failure-free table — the
    # digest oracle the study workloads gate on, under serving traffic.
    service = quick_spec().service()
    expected = service.digest(service.expected())
    assert cell(comparison, "global").digest == expected
    assert cell(comparison, "localized").digest == expected
    assert cell(comparison, "degraded").digest != expected


def test_statuses_by_protocol(comparison):
    for recovery in ("global", "localized"):
        statuses = {row["status"] for row in cell(comparison, recovery).rows}
        assert statuses == {STATUS_OK}
    degraded = {row["status"] for row in cell(comparison, "degraded").rows}
    assert STATUS_OK in degraded
    assert degraded & {STATUS_STALE_READ, STATUS_DROPPED_WRITE}


def test_localized_stalls_fewer_requests_than_global(comparison):
    touched_global = cell(comparison, "global").slo[SEGMENT_RECOVERY]["requests"]
    touched_localized = cell(comparison, "localized").slo[SEGMENT_RECOVERY]["requests"]
    assert 0 < touched_localized < touched_global


def test_checkpoint_windows_observed(comparison):
    for result in comparison:
        assert result.checkpoint_windows
        for t0, t1, step, demand in result.checkpoint_windows:
            assert 0.0 <= t0 <= t1
            assert isinstance(demand, bool)


# ----------------------------------------------------------------------
# Request log and report gates (satellite 5 machinery)
# ----------------------------------------------------------------------
def test_request_log_roundtrip(tmp_path, comparison):
    path = tmp_path / "requests.jsonl"
    count = write_requests(comparison, path)
    rows = load_requests(path)
    assert len(rows) == count == sum(len(r.rows) for r in comparison)
    assert {row["cell"] for row in rows} == {r.spec.cell_key for r in comparison}


def test_request_log_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"rid": 1}\n')
    with pytest.raises(ServeError, match="missing"):
        load_requests(path)
    row = {
        "rid": 0, "frontend": 0, "owner": 0, "step": 0, "op": "read", "key": 3,
        "arrival_t": 0.1, "completion_t": 0.2, "latency_s": 0.1,
        "status": "ok", "segment": "steady",
    }
    validate_request_row(row)
    with pytest.raises(ServeError, match="unknown op"):
        validate_request_row(dict(row, op="delete"))
    with pytest.raises(ServeError, match="unknown status"):
        validate_request_row(dict(row, status="lost"))
    with pytest.raises(ServeError, match="unknown segment"):
        validate_request_row(dict(row, segment="warmup"))


def test_markdown_covers_every_cell_and_segment(comparison):
    markdown = render_markdown(comparison)
    for result in comparison:
        assert result.spec.cell_key in markdown
    for segment in (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY, "overall"):
        assert f"| {segment} |" in markdown


def test_invariant_catches_slow_localized(comparison):
    # Force the localized recovery-window p99 above global's and make sure
    # the invariant trips.
    doctored = []
    for result in comparison:
        if result.spec.recovery == "localized":
            slo = json.loads(json.dumps(result.slo))
            slo[SEGMENT_RECOVERY]["latency_ms"]["p99"] = 1e9
            result = replace(result, slo=slo)
        doctored.append(result)
    assert any("not strictly below" in v for v in check_serve_invariants(doctored))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_quick_writes_artifacts(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    output = tmp_path / "serve.json"
    markdown = tmp_path / "serve.md"
    status = serve_main([
        "--quick",
        "--requests", str(requests),
        "--output", str(output),
        "--markdown", str(markdown),
    ])
    assert status == 0
    assert "invariants hold" in capsys.readouterr().out
    assert load_requests(requests)
    document = json.loads(output.read_text())
    assert document["meta"]["engine"] == "repro.serve"
    assert "| overall |" in markdown.read_text()


# ----------------------------------------------------------------------
# Cross-backend: the proc backend serves the identical rows
# ----------------------------------------------------------------------
@PROC_SKIP
@pytest.mark.parametrize("recovery", ["global", "localized", "degraded"])
def test_proc_backend_rows_identical_to_sim(comparison, recovery):
    sim = cell(comparison, recovery)
    proc = run_service(replace(quick_spec(), backend="proc", recovery=recovery))
    assert proc.rows == sim.rows
    assert json.dumps(proc.slo, sort_keys=True) == json.dumps(sim.slo, sort_keys=True)
    assert proc.digest == sim.digest
