"""Query execution reports: ``explain(result)``.

Every query result carries a :class:`SimulationLedger` recording what the
execution cost and where; ``explain`` renders it as the EXPLAIN-ANALYZE-
style report operators expect from a database — answer summary, per-stage
simulated costs, and the access statistics (partitions loaded, candidates
examined, pruning counts) the result type exposes.
"""

from __future__ import annotations

__all__ = ["explain"]


def _fmt_seconds(seconds: float) -> str:
    """Local time formatter (kept here to avoid importing the experiments
    package from core, which would create an import cycle)."""
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.2f} ms"

#: Result attributes surfaced as access statistics when present.
_STAT_FIELDS = (
    ("partitions_loaded", "partitions loaded"),
    ("candidates_examined", "candidates examined"),
    ("rows_refined", "rows refined"),
    ("rows_scored", "rows scored"),
    ("nodes_pruned", "subtrees pruned"),
    ("splits_performed", "adaptive splits"),
    ("leaves_materialized", "leaves materialized"),
    ("bloom_rejected", "bloom rejected"),
)


def explain(result) -> str:
    """Render a query result's execution as a multi-line report.

    Accepts any result type in the library (exact match, approximate and
    exact kNN, range, batch, baseline, ADS) — anything carrying a
    ``ledger`` plus optional answer/statistics attributes.
    """
    lines: list[str] = []
    answer = _answer_summary(result)
    if answer:
        lines.append(answer)
    stats = [
        f"{label}: {getattr(result, attr)}"
        for attr, label in _STAT_FIELDS
        if getattr(result, attr, None) not in (None, 0, False)
    ]
    if stats:
        lines.append("stats: " + ", ".join(stats))
    ledger = getattr(result, "ledger", None)
    if ledger is None or not ledger.stages:
        lines.append("no execution stages recorded")
        return "\n".join(lines)
    total = ledger.clock_s
    lines.append(f"simulated time: {_fmt_seconds(total)}")
    width = max(len(label) for label in ledger.stages)
    for label, stats_obj in ledger.stages.items():
        share = (stats_obj.wall_s / total) if total else 0.0
        bar = "#" * round(share * 24)
        lines.append(
            f"  {label.ljust(width)}  {_fmt_seconds(stats_obj.wall_s):>10}  "
            f"{share:>5.1%}  {bar}"
        )
    return "\n".join(lines)


def _answer_summary(result) -> str:
    neighbors = getattr(result, "neighbors", None)
    if neighbors is not None:
        if not neighbors:
            return "answer: empty"
        return (
            f"answer: {len(neighbors)} neighbors, distances "
            f"{neighbors[0].distance:.4f} .. {neighbors[-1].distance:.4f}"
        )
    record_ids = getattr(result, "record_ids", None)
    if record_ids is not None:
        return f"answer: record ids {record_ids}" if record_ids else "answer: not found"
    results = getattr(result, "results", None)
    if results is not None:
        return f"answer: batch of {len(results)} queries"
    return ""
