"""Schema validation CLI for emitted telemetry files.

Used by the CI telemetry/observability steps to fail the build when a
trace, metrics, journal, or perf file stops matching its documented
schema::

    python -m repro.telemetry.validate --trace trace.json \
        --metrics metrics.prom --journal journal.jsonl \
        --perf perf.json --expect-roots serve/request

``--expect-roots`` (repeatable, comma-separable) additionally fails any
``--trace`` file containing a root span whose name is not in the allowed
set — the orphan-span check: after parent handoff, a serving trace must
contain only ``serve/request`` roots.

A trace with no spans, a metrics file with no samples or a perf report
with no kernels fails too: the run it describes recorded nothing, so
there is nothing to pass.  A journal may be empty (a clean run may log
no event).

Exit code 0 when every given file validates, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exporters import orphan_roots, validate_metrics_text, validate_trace
from .journal import validate_journal_lines
from .perf import validate_perf

__all__ = ["main"]


def _nonempty(count: int, what: str) -> int:
    if count == 0:
        raise ValueError(f"0 {what}: the run recorded nothing")
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.validate",
        description="validate emitted trace JSON / metrics / journal files",
    )
    parser.add_argument("--trace", action="append", default=[],
                        help="trace JSON file (repeatable)")
    parser.add_argument("--metrics", action="append", default=[],
                        help="Prometheus text file (repeatable)")
    parser.add_argument("--journal", action="append", default=[],
                        help="JSON-lines event journal file (repeatable)")
    parser.add_argument("--perf", action="append", default=[],
                        help="repro.perf/v1 kernel report (repeatable)")
    parser.add_argument("--expect-roots", action="append", default=[],
                        metavar="NAMES",
                        help="allowed root span names for --trace files "
                             "(repeatable or comma-separated); any other "
                             "root span fails the check")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.journal or args.perf):
        parser.error(
            "give at least one --trace, --metrics, --journal or --perf file"
        )
    expected_roots = [
        name.strip()
        for chunk in args.expect_roots
        for name in chunk.split(",")
        if name.strip()
    ]
    failures = 0
    for path in args.trace:
        try:
            doc = json.loads(Path(path).read_text())
            n_spans = _nonempty(validate_trace(doc), "spans")
            if expected_roots:
                orphans = orphan_roots(doc, expected_roots)
                if orphans:
                    raise ValueError(
                        f"{len(orphans)} orphan root span(s): "
                        f"{sorted(set(orphans))}"
                    )
            print(f"ok: {path}: {n_spans} spans")
        except (OSError, ValueError) as exc:
            print(f"FAIL: {path}: {exc}")
            failures += 1
    for path in args.metrics:
        try:
            n_samples = _nonempty(
                validate_metrics_text(Path(path).read_text()), "samples"
            )
            print(f"ok: {path}: {n_samples} samples")
        except (OSError, ValueError) as exc:
            print(f"FAIL: {path}: {exc}")
            failures += 1
    for path in args.journal:
        try:
            n_records = validate_journal_lines(Path(path).read_text())
            print(f"ok: {path}: {n_records} journal records")
        except (OSError, ValueError) as exc:
            print(f"FAIL: {path}: {exc}")
            failures += 1
    for path in args.perf:
        try:
            n_kernels = _nonempty(
                validate_perf(json.loads(Path(path).read_text())), "kernels"
            )
            print(f"ok: {path}: {n_kernels} kernels")
        except (OSError, ValueError) as exc:
            print(f"FAIL: {path}: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
