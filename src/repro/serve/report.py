"""Serve reports: JSON document, request-log JSONL, SLO tables, gates.

The report restates the paper's recovery-protocol trade-off in the language
operators actually use — a per-window SLO table::

    | cell | segment | requests | errors | p50 | p95 | p99 | throughput |

:func:`check_serve_invariants` encodes the headline the comparison exists to
show, on identical seeds and kill plans: a **localized replay** stalls only
the failed shard's requests (its recovery-window p99 stays strictly below a
**global rollback**'s, which re-executes — and re-prices — every key), while
a **degraded continuation** keeps latency flat at the cost of a measurable
error rate.  :data:`BASELINE_EXACT` and :data:`BASELINE_RATIO` are the
fields of the CI regression gate (:func:`repro.experiment.check_against_baseline`),
and :func:`write_requests` / :func:`load_requests` carry the canonical JSONL
request log whose schema CI validates.
"""

from __future__ import annotations

import json

from repro.errors import ServeError
from repro.serve.engine import ServeResult
from repro.serve.service import STATUSES
from repro.serve.slo import SEGMENT_RECOVERY, SEGMENT_STEADY, SEGMENTS
from repro.serve.traffic import READ, WRITE

__all__ = [
    "report_document",
    "render_markdown",
    "check_serve_invariants",
    "BASELINE_EXACT",
    "BASELINE_RATIO",
    "write_requests",
    "load_requests",
    "validate_request_row",
]

#: Required keys of one JSONL request-log row (the log's schema).
REQUEST_FIELDS = (
    "rid",
    "frontend",
    "owner",
    "step",
    "op",
    "key",
    "arrival_t",
    "completion_t",
    "latency_s",
    "status",
    "segment",
)


def report_document(results: list[ServeResult]) -> dict:
    """The comparison as one report document (serialize with
    :func:`repro.experiment.report_json`).

    The per-request rows travel separately (:func:`write_requests`); the
    report keeps the reduced SLO document plus a status census per cell.
    """
    cells = {}
    for result in results:
        cell = result.as_dict()
        rows = cell.pop("requests")
        census: dict[str, int] = {}
        for row in rows:
            census[row["status"]] = census.get(row["status"], 0) + 1
        cell["request_count"] = len(rows)
        cell["status_counts"] = dict(sorted(census.items()))
        cells[result.spec.cell_key] = cell
    return {
        "meta": {"engine": "repro.serve", "cells": len(results)},
        "cells": cells,
    }


# ----------------------------------------------------------------------
# The request log (canonical JSONL)
# ----------------------------------------------------------------------
def validate_request_row(row: dict) -> None:
    """Schema check for one request-log row; raises :class:`ServeError`."""
    missing = [key for key in REQUEST_FIELDS if key not in row]
    if missing:
        raise ServeError(f"request row missing fields: {', '.join(missing)}")
    if row["op"] not in (READ, WRITE):
        raise ServeError(f"request row has unknown op {row['op']!r}")
    if row["status"] not in STATUSES:
        raise ServeError(f"request row has unknown status {row['status']!r}")
    if row["segment"] not in SEGMENTS:
        raise ServeError(f"request row has unknown segment {row['segment']!r}")
    for key in ("rid", "frontend", "owner", "step", "key"):
        if not isinstance(row[key], int):
            raise ServeError(f"request row field {key!r} must be an integer")
    if not isinstance(row["arrival_t"], (int, float)):
        raise ServeError("request row field 'arrival_t' must be numeric")
    for key in ("completion_t", "latency_s"):
        if row[key] is not None and not isinstance(row[key], (int, float)):
            raise ServeError(f"request row field {key!r} must be numeric or null")


def write_requests(results: list[ServeResult], path) -> int:
    """Write every cell's request rows as canonical JSONL; returns the count.

    Each line carries its ``cell`` key so one file holds the whole grid.
    """
    count = 0
    with open(path, "w") as fh:
        for result in results:
            for row in result.rows:
                line = dict(row, cell=result.spec.cell_key)
                fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
                count += 1
    return count


def load_requests(path) -> list[dict]:
    """Read and schema-validate a JSONL request log."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServeError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if "cell" not in row:
                raise ServeError(f"{path}:{lineno}: request row missing 'cell'")
            try:
                validate_request_row(row)
            except ServeError as exc:
                raise ServeError(f"{path}:{lineno}: {exc}") from exc
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def _fmt_ms(value: float | None) -> str:
    return "—" if value is None else f"{value:.3f}"


def _fmt_rate(value: float | None) -> str:
    return "—" if value is None else f"{value * 100.0:.2f}%"


def _fmt_rps(value: float | None) -> str:
    return "—" if value is None else f"{value:.1f}"


def render_markdown(results: list[ServeResult]) -> str:
    """The grid as markdown: one SLO row per (cell, segment) plus overall."""
    lines = [
        "| cell | segment | requests | errors | error rate "
        "| p50 (ms) | p95 (ms) | p99 (ms) | rps |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for result in results:
        cell = result.spec.cell_key
        if result.aborted:
            cell += f" [{result.aborted}]"
        for segment in (*SEGMENTS, "overall"):
            entry = result.slo[segment]
            lat = entry["latency_ms"] or {}
            lines.append(
                f"| {cell} | {segment} | {entry['requests']} | {entry['errors']} "
                f"| {_fmt_rate(entry['error_rate'])} "
                f"| {_fmt_ms(lat.get('p50'))} | {_fmt_ms(lat.get('p95'))} "
                f"| {_fmt_ms(lat.get('p99'))} "
                f"| {_fmt_rps(entry['throughput_rps'])} |"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _segment_p99(result: ServeResult, segment: str) -> float | None:
    latency = result.slo[segment]["latency_ms"]
    return latency["p99"] if latency else None


def check_serve_invariants(results: list[ServeResult]) -> list[str]:
    """The comparison-mode invariants; returns human-readable violations.

    Within every group of cells sharing ``(backend, store)`` — identical
    seed, traffic and kill plan by construction:

    * **localized** recovery-window p99 must be **strictly below global's**
      (replay stalls one shard; rollback re-prices every key) — a group
      where either protocol has no recovery-window requests to compare is a
      violation, not a skip: the plan was built to land mid-traffic;
    * **global** and **localized** must serve with **zero errors** (both
      restore full membership — correctness is their whole price);
    * **degraded** must show a **measurable overall error rate** (the
      excised shard's requests are answered wrong or not at all) while its
      recovery-window p99 stays **flat** — within ``spec.flatness`` × its
      own steady-state p99 (vacuously flat if no request completed in the
      recovery window, which is the point: it barely has one).

    Across backends, cells sharing ``(store, recovery)`` must produce
    byte-identical SLO documents — the house cross-backend guarantee
    extended to the serving layer.
    """
    violations: list[str] = []
    groups: dict[tuple, dict[str, ServeResult]] = {}
    for result in results:
        spec = result.spec
        groups.setdefault((spec.backend, spec.store), {})[spec.recovery] = result

    for (backend, store), cells in sorted(groups.items()):
        label = f"{backend}/{store}"
        for name, result in sorted(cells.items()):
            if result.aborted:
                violations.append(
                    f"{label}/{name}: run aborted with {result.aborted}"
                )
        global_ = cells.get("global")
        localized = cells.get("localized")
        degraded = cells.get("degraded")
        if (
            global_ is not None and localized is not None
            and not global_.aborted and not localized.aborted
        ):
            p99_g = _segment_p99(global_, SEGMENT_RECOVERY)
            p99_l = _segment_p99(localized, SEGMENT_RECOVERY)
            if p99_g is None or p99_l is None:
                violations.append(
                    f"{label}: no recovery-window requests to compare "
                    f"(global p99={p99_g}, localized p99={p99_l})"
                )
            elif p99_l >= p99_g:
                violations.append(
                    f"{label}: localized recovery-window p99 {p99_l:.3f}ms is "
                    f"not strictly below global's {p99_g:.3f}ms"
                )
        for full in (global_, localized):
            if full is None or full.aborted:
                continue
            errors = full.slo["overall"]["errors"]
            if errors:
                violations.append(
                    f"{label}/{full.spec.recovery}: {errors} request errors in a "
                    f"full-recovery cell (must serve everything correctly)"
                )
        if degraded is not None and not degraded.aborted:
            rate = degraded.slo["overall"]["error_rate"]
            if not rate:
                violations.append(
                    f"{label}/degraded: error rate is {rate!r} but the excised "
                    f"shard's requests must surface as errors"
                )
            p99_r = _segment_p99(degraded, SEGMENT_RECOVERY)
            p99_s = _segment_p99(degraded, SEGMENT_STEADY)
            if p99_r is not None and p99_s is not None:
                limit = degraded.spec.flatness * p99_s
                if p99_r > limit:
                    violations.append(
                        f"{label}/degraded: recovery-window p99 {p99_r:.3f}ms "
                        f"exceeds {degraded.spec.flatness:.1f}x steady-state "
                        f"p99 {p99_s:.3f}ms — latency is not flat"
                    )

    by_config: dict[tuple, dict[str, ServeResult]] = {}
    for result in results:
        spec = result.spec
        by_config.setdefault((spec.store, spec.recovery), {})[spec.backend] = result
    for (store, recovery), backends in sorted(by_config.items()):
        if len(backends) < 2:
            continue
        docs = {
            backend: json.dumps(result.slo, sort_keys=True)
            for backend, result in sorted(backends.items())
        }
        reference_backend, reference = next(iter(docs.items()))
        for backend, doc in docs.items():
            if doc != reference:
                violations.append(
                    f"{store}/{recovery}: SLO report differs between backends "
                    f"{reference_backend!r} and {backend!r} — cross-backend "
                    f"determinism broken"
                )
    return violations


#: Baseline gate: everything in a serving run is virtual-time deterministic,
#: so the schedule-shaped quantities (request census, kill plan, recovery
#: counts) must match exactly; each segment's p99 may drift within the
#: tolerated ratio, and a segment gaining or losing its latency sample fails.
BASELINE_EXACT = (
    "request_count", "status_counts", "plan", "checkpoints", "recoveries",
    "excised_ranks", "aborted", "probe_ops",
)
BASELINE_RATIO = tuple(
    f"slo.{segment}.latency_ms.p99" for segment in (*SEGMENTS, "overall")
)
