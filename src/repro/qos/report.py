"""Rendering and baseline gate fields for ``python -m repro.qos`` reports."""

from __future__ import annotations

__all__ = ["render_markdown", "BASELINE_EXACT", "BASELINE_RATIO"]


def render_markdown(report: dict) -> str:
    """The trade-off as a markdown table — one row per (backend, store, delivery)."""
    reliable_elapsed: dict[tuple[str, str], float] = {}
    for cell in report["cells"].values():
        if cell["delivery"] == "reliable":
            reliable_elapsed[(cell["backend"], cell["store"])] = cell["mean_elapsed_s"]

    lines = [
        "| backend | store | delivery | quality (mean/min) | makespan (virt ms) "
        "| speedup vs reliable | tolerated ops | repairs | recoveries "
        "| upper-level bytes (moved/full) |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for key in sorted(report["cells"]):
        cell = report["cells"][key]
        baseline = reliable_elapsed.get((cell["backend"], cell["store"]))
        if baseline and cell["mean_elapsed_s"] > 0:
            speedup = f"{baseline / cell['mean_elapsed_s']:.2f}x"
        else:
            speedup = "—"
        if cell["multilevel_full_bytes"]:
            moved = (
                f"{cell['multilevel_moved_bytes']:,} / "
                f"{cell['multilevel_full_bytes']:,}"
            )
        else:
            moved = "—"
        lines.append(
            "| {backend} | {store} | {delivery} | {qmean:.4f} / {qmin:.4f} "
            "| {ms:.3f} | {speedup} | {tolerated} | {repairs} | {recoveries} "
            "| {moved} |".format(
                backend=cell["backend"],
                store=cell["store"],
                delivery=cell["delivery"],
                qmean=cell["mean_quality"],
                qmin=cell["min_quality"],
                ms=cell["mean_elapsed_s"] * 1e3,
                speedup=speedup,
                tolerated=cell["tolerated_ops"],
                repairs=cell["repairs"],
                recoveries=cell["recoveries"],
                moved=moved,
            )
        )
    return "\n".join(lines) + "\n"


#: Baseline gate: digests, qualities, tolerated-operation and byte counts
#: are seeded outcomes and must match exactly; the virtual makespan may
#: drift within the tolerated ratio.
BASELINE_EXACT = (
    "mean_quality", "min_quality", "recoveries", "repairs", "tolerated_ops",
    "checkpoint_bytes", "multilevel_moved_bytes", "multilevel_full_bytes",
    ("trial digests", lambda cell: [t.get("digest") for t in cell.get("trials", [])]),
)
BASELINE_RATIO = ("mean_elapsed_s",)
