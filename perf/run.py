"""The repo benchmark: ``python3 perf/run.py`` (see perf/README.md).

One workload, as the regression driver calls it::

    python3 perf/run.py --workload lib-mpa --seed 97 --seconds 8 --trace 0

prints one ``workload metric value unit`` line per metric and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.

Without ``--workload`` it runs all four, each in a fresh interpreter, and
writes ``perf/out/result.json``; ``--selfcheck`` does that twice and fails
if the two disagree by more than a metric's bound; ``--smoke`` shrinks the
dataset and the timed interval for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC_FILE = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def metric_table(spec: dict, trace: bool) -> dict:
    """``name -> unit`` of the metrics a run with this ``trace`` reports."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# One workload, in this interpreter
# ---------------------------------------------------------------------------


def run_one(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    units = metric_table(spec, args.trace)
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    run = workloads.Run(args.workload, args.seed, args.seconds, scale, args.trace)
    try:
        if args.trace:
            values = dict.fromkeys(units, 0.0)  # a layer that did no work
            values.update(layers.LEDGERS[args.workload](run))
            layers.write_trace(run)
        else:
            values = workloads.WORKLOADS[args.workload](run)
    finally:
        run.close()
    if set(values) != set(units):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    for note in run.tally.notes:
        print(f"{args.workload} note {note}", file=sys.stderr)
    print(args.workload, "phases", " ".join(
        f"{label}={b - a:.1f}s"
        for (_, a), (label, b) in zip(run.phases, run.phases[1:])
    ), file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": run.tally.failed == 0 and finite,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# The suite: every workload in a fresh interpreter
# ---------------------------------------------------------------------------


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_suite(args, spec: dict) -> dict:
    """``{workload: result}``; a workload that did not finish maps to None."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable, str(PERF / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            # e.g. "shard-mpa skipped(host: nproc<2)": reported, and failed.
            print("\n".join(lines) or f"{workload} failed({done.returncode})")
            results[workload] = None
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return results


def suite_ok(results: dict) -> bool:
    return all(r is not None and r["correct"] for r in results.values())


def write_result(args, results: dict) -> None:
    out = PERF / "out"
    out.mkdir(exist_ok=True)
    (out / "result.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "smoke": args.smoke, "host": host_info(), "workloads": results,
    }, indent=2) + "\n")
    if args.trace:
        # One file for the suite: each workload's spans under its name.
        traces = {
            w: json.loads((out / f"trace-{w}.json").read_text())
            for w in results if (out / f"trace-{w}.json").exists()
        }
        (out / "trace.json").write_text(
            json.dumps({"schema": "perf.trace/v1", "workloads": traces}) + "\n")


def selfcheck(args, spec: dict) -> int:
    """Two untraced suites on the same code must agree within the bounds."""
    first, second = run_suite(args, spec), run_suite(args, spec)
    write_result(args, {"first": first, "second": second})
    if not (suite_ok(first) and suite_ok(second)):
        print("selfcheck: a workload failed")
        return 1
    worst = 0
    print(f"{'workload':14}{'metric':28}{'first':>12}{'second':>12}{'diff':>8}{'bound':>7}")
    for workload in first:
        for m in spec["end_to_end"]:
            a = first[workload]["metrics"][m["name"]]["value"]
            b = second[workload]["metrics"][m["name"]]["value"]
            diff = abs(b - a) / abs(a)
            over = diff > m["bound"]
            worst += over
            print(f"{workload:14}{m['name']:28}{a:12.4f}{b:12.4f}"
                  f"{diff:8.1%}{m['bound']:7.0%}{'  OVER' if over else ''}")
    print(f"selfcheck: {worst} metric(s) over their bound")
    return 1 if worst else 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="5 k series, 1 s timed (the smoke test's size)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    if args.selfcheck:
        return selfcheck(args, spec)
    results = run_suite(args, spec)
    write_result(args, results)
    return 0 if suite_ok(results) else 1


if __name__ == "__main__":
    sys.exit(main())
