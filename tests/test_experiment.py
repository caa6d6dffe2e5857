"""The experiment core shared by study, chaos, serve and qos."""

from __future__ import annotations

import copy
import functools
import json

import numpy as np
import pytest

from repro.chaos import __main__ as chaos_cli
from repro.chaos import report as chaos_report
from repro.chaos.soak import SoakSpec, run_comparison
from repro.errors import CampaignError, ChaosError, TraceError
from repro.experiment import (
    Dispatcher,
    check_against_baseline,
    plan_seed,
    report_json,
    validate_names,
)
from repro.qos import __main__ as qos_cli
from repro.qos import report as qos_report
from repro.qos.engine import QosSpec, run_qos
from repro.serve import __main__ as serve_cli
from repro.serve import report as serve_report
from repro.serve.engine import run_slo_comparison
from repro.serve.slo import SEGMENTS
from repro.study import __main__ as study_cli
from repro.study import campaign
from repro.study.campaign import CampaignSpec, run_campaign
from repro.trace.tracer import tracing

pytestmark = pytest.mark.usefixtures("proc_hygiene")


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def _tag(group: str, trial: int) -> tuple[str, int]:
    return group, trial


@pytest.mark.parametrize("workers", [1, 2, 4, 16])
def test_map_trials_covers_every_trial_in_order(workers):
    groups = ["c0", "c1", "c2"]
    with Dispatcher("thread", workers) as pool:
        per_group = pool.map_trials(_tag, groups, 5)
    assert per_group == [[(g, t) for t in range(5)] for g in groups]


def test_dispatcher_rejects_unknown_and_unsupported_executors():
    with pytest.raises(CampaignError, match="unknown executor 'fibers'"):
        Dispatcher("fibers", error=CampaignError)
    with pytest.raises(ChaosError, match="'serial', 'thread'"):
        Dispatcher("process", choices=("serial", "thread"), error=ChaosError)


def test_process_executor_refused_while_tracing():
    with tracing() as hub:
        with pytest.raises(TraceError, match="process executor"):
            Dispatcher("process")
        with Dispatcher("thread") as pool:
            assert pool.map(abs, [-1, 2]) == [1, 2]
    assert hub.events() == []


@pytest.mark.parametrize("main", [study_cli.main, qos_cli.main], ids=["study", "qos"])
def test_trace_with_process_executor_is_an_error(main, tmp_path):
    # Worker-process tracers never reach the parent's hub: refuse instead of
    # writing an empty trace and exiting 0.
    with pytest.raises(TraceError):
        main([
            "--quick", "--executor", "process",
            "--trace", str(tmp_path / "trace.jsonl"),
            "--output", str(tmp_path / "report.json"),
        ])
    assert not (tmp_path / "report.json").exists()


# ----------------------------------------------------------------------
# Executors: byte-identical reports
# ----------------------------------------------------------------------
_STUDY = CampaignSpec(
    workloads=("stencil",),
    intervals=(6,),
    trials=3,
    seed=42,
    workload_params={"stencil": {"n_local": 8, "iters": 18}},
)
_CHAOS = SoakSpec(
    rounds=3, interval=6, rate_per_round=1.0,
    workload_params={"n_local": 16, "iters": 24},
)
_QOS = QosSpec(
    backends=("sim",), trials=2, interval=3,
    workload_params={"slots": 16, "updates_per_step": 4, "steps": 12},
)

_ENGINES = {
    "study": lambda executor: report_json(
        run_campaign(_STUDY, executor=executor, max_workers=2)
    ),
    "chaos": lambda executor: report_json(chaos_report.report_document(
        run_comparison(_CHAOS, executor=executor, max_workers=3)
    )),
    "serve": lambda executor: report_json(serve_report.report_document(
        run_slo_comparison(serve_cli.quick_spec(), executor=executor, max_workers=3)
    )),
    "qos": lambda executor: report_json(
        run_qos(_QOS, executor=executor, max_workers=2)
    ),
}


@functools.cache
def _serial_report(engine: str) -> str:
    return _ENGINES[engine]("serial")


@pytest.mark.parametrize("engine,executor", [
    ("study", "thread"),
    ("study", "process"),
    ("chaos", "thread"),
    ("serve", "thread"),
    ("qos", "thread"),
    ("qos", "process"),
])
def test_executors_produce_byte_identical_reports(engine, executor):
    assert _ENGINES[engine](executor) == _serial_report(engine)


# ----------------------------------------------------------------------
# --quick honours --seed
# ----------------------------------------------------------------------
def _cell_seeds(report: dict) -> set[int]:
    return {cell["spec"]["seed"] for cell in report["cells"].values()}


@pytest.mark.parametrize("cli,narrow,seeds", [
    (chaos_cli, ["--countermeasures", "rollback"], _cell_seeds),
    (serve_cli, ["--recoveries", "global"], _cell_seeds),
    (qos_cli, [], lambda report: {report["meta"]["seed"]}),
], ids=["chaos", "serve", "qos"])
def test_quick_seed_reaches_the_report(cli, narrow, seeds, tmp_path):
    output = tmp_path / "report.json"
    cli.main([
        "--quick", "--seed", "7", "--skip-invariants", "--output", str(output),
        *narrow,
    ])
    assert seeds(json.loads(output.read_text())) == {7}


def test_study_quick_seed_reaches_the_report(tmp_path):
    seeded, default = tmp_path / "seed7.json", tmp_path / "default.json"
    study_cli.main([
        "--quick", "--seed", "7", "--skip-invariants", "--output", str(seeded),
    ])
    study_cli.main(["--quick", "--skip-invariants", "--output", str(default)])
    assert json.loads(seeded.read_text())["meta"]["seed"] == 7
    assert json.loads(default.read_text())["meta"]["seed"] == 0
    assert seeded.read_text() != default.read_text()


# ----------------------------------------------------------------------
# Plan seed and spec validation
# ----------------------------------------------------------------------
def test_plan_seed_hashes_strings_stably():
    state = plan_seed(2026, "stencil", "poisson").generate_state(2).tolist()
    assert state == plan_seed(2026, "stencil", "poisson").generate_state(2).tolist()
    assert state != plan_seed(2026, "stencil", "flaky").generate_state(2).tolist()
    # Ints enter as-is: the study's historical entropy tuple is unchanged.
    assert (
        plan_seed(0, 1, 2).generate_state(1).tolist()
        == np.random.SeedSequence((0, 1, 2)).generate_state(1).tolist()
    )


def test_validate_names_lists_registered_choices():
    validate_names("soak", ChaosError, {"store": "memory", "backend": ("sim",)})
    with pytest.raises(ChaosError, match="unknown store 'tape' in soak spec; "
                                          "registered stores are: 'disk'"):
        validate_names("soak", ChaosError, {"store": ("memory", "tape")})


# ----------------------------------------------------------------------
# The shared baseline gate, one row per engine rule
# ----------------------------------------------------------------------
_GATES = {
    "study": (campaign.BASELINE_EXACT, campaign.BASELINE_RATIO),
    "chaos": (chaos_report.BASELINE_EXACT, chaos_report.BASELINE_RATIO),
    "serve": (serve_report.BASELINE_EXACT, serve_report.BASELINE_RATIO),
    "qos": (qos_report.BASELINE_EXACT, qos_report.BASELINE_RATIO),
}
_CELLS = {
    "study": {"survival_rate": 1.0, "recoveries": 3, "mean_measured_overhead": 0.2},
    "chaos": {
        "metrics": {"kills_fired": 2, "mttr_s": 10.0, "availability": 0.9},
        "plan": [[120, 3, "pod_kill"]],
        "aborted": None,
    },
    "serve": {
        "status_counts": {"ok": 40},
        "slo": {s: {"latency_ms": {"p99": 4.0}} for s in (*SEGMENTS, "overall")},
    },
    "qos": {
        "mean_quality": 1.0,
        "mean_elapsed_s": 0.5,
        "trials": [{"digest": "aa"}, {"digest": "bb"}],
    },
}


_ROWS = {
    "study-exact": ("study", ("survival_rate",), 0.75,
                    "survival_rate changed from 1.0 to 0.75"),
    "study-ratio-past": ("study", ("mean_measured_overhead",), 0.6,
                         "is 3.00x the baseline's"),
    "study-ratio-inside": ("study", ("mean_measured_overhead",), 0.3, None),
    "study-missing-cell": ("study", None, None, "cell missing from current report"),
    "chaos-exact": ("chaos", ("metrics", "kills_fired"), 3, "metrics.kills_fired changed"),
    "chaos-plan": ("chaos", ("plan",), [[121, 3, "pod_kill"]], "plan changed"),
    "chaos-unavailability": ("chaos", ("metrics", "availability"), 0.7, "unavailability"),
    "chaos-mttr-inside": ("chaos", ("metrics", "mttr_s"), 19.0, None),
    "serve-census": ("serve", ("status_counts", "ok"), 39, "status_counts changed"),
    "serve-p99": ("serve", ("slo", "overall", "latency_ms", "p99"), 12.0,
                  "slo.overall.latency_ms.p99"),
    "serve-latency-presence": ("serve", ("slo", "recovery", "latency_ms"), None,
                               "presence changed"),
    "qos-trial-digest": ("qos", ("trials", 1, "digest"), "cc", "trial digests changed"),
    "qos-makespan": ("qos", ("mean_elapsed_s",), 1.5, "mean_elapsed_s"),
}


@pytest.mark.parametrize(
    "engine,path,value,expected", list(_ROWS.values()), ids=list(_ROWS)
)
def test_baseline_gate(engine, path, value, expected):
    exact, ratio = _GATES[engine]
    baseline = {"cells": {"cell": _CELLS[engine]}}
    assert check_against_baseline(baseline, baseline, exact=exact, ratio=ratio) == []
    report = copy.deepcopy(baseline)
    if path is None:
        del report["cells"]["cell"]
    else:
        target = report["cells"]["cell"]
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    failures = check_against_baseline(
        report, baseline, exact=exact, ratio=ratio, max_ratio=2.0
    )
    if expected is None:
        assert failures == []
    else:
        assert len(failures) == 1 and expected in failures[0], failures
