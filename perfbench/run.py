"""Lookup benchmark: two workloads over ``repro.serving.LookupEngine``.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload cells_churn --seed 1 --seconds 25 --trace 0

or all of them in turn with ``--workload all``.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped; ``--trace 1`` measures an
untraced window, then wraps each layer's public calls and measures a
traced window from the same starting state, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced
``latency_mean_ms``).  Freshness and the load generator's numbers come
from the untraced window.  Spans of the traced window are written to
``perfbench/.work/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
host record and the details behind each number.  The exit code is 1 when
any output check fails.  The first run in a checkout trains the shared
model (about a minute on two cores); see ``fixture.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cells_churn", "columns_typo_50k")


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not this checkout")


def _spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        sys.exit("perfbench: BENCHMARK.json workloads differ from run.py")
    return spec


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool
) -> int:
    from perfbench import workloads as wl
    from perfbench.fixture import Fixture
    from repro.index.shm import owned_segment_names

    fixture = Fixture()
    run = wl.Run(seed, seconds, trace)
    segments_before = set(owned_segment_names())
    if name == "columns_typo_50k":
        result = wl.columns(run, fixture)
    else:
        result = wl.cells(run, fixture)
    wl.hygiene(run, segments_before)
    _stop_resource_tracker()

    setup = wl.median_setup(run)
    latency, fresh = result["latency"], result["freshness"]
    values = {
        "setup_s": setup["setup_s"],
        "latency_mean_ms": latency["mean_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "slo_met_ratio": result["slo_met_ratio"],
        "throughput_qps": result["throughput_qps"],
        "recall_at_10": result["recall_at_10"],
        "index_bytes_per_row": result["index_bytes_per_row"],
        "peak_rss_mb": wl.peak_rss_mb(run.worker_hwm_kb),
        "success_ratio": result["success_ratio"],
    }
    table = spec["end_to_end"]
    if trace:
        tracer = result.pop("tracer")
        spans = tracer.dump(
            BENCH / ".work" / "traces" / f"{name}-seed{seed}.jsonl"
        )
        values = {
            **result["layers"],
            "ingest.backlog_max": result["ingest.backlog_max"],
            "ingest.freshness_p50_ms": fresh["p50_ms"],
            "ingest.freshness_tail_ms": fresh["tail_ms"],
            "setup.pipeline_load_s": setup["setup.pipeline_load_s"],
            "setup.engine_build_s": setup["setup.engine_build_s"],
            "setup.embed_rows_s": setup["setup.embed_rows_s"],
            "loadgen.lateness_tail_ms": result["loadgen.lateness_tail_ms"],
            "loadgen.backlog_max": result["loadgen.backlog_max"],
            "trace.overhead_mean_ms": (
                result["traced_mean_ms"] - latency["mean_ms"]
            ),
        }
        table = spec["per_layer"]
    if set(values) != {m["name"] for m in table}:
        sys.exit(f"perfbench: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ {m['name'] for m in table})}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table
    }

    report = {
        "workload": name,
        "host": wl.host_record(run),
        "latency": latency,
        "freshness": fresh,
        "generator": {
            "lateness_tail_ms": result["loadgen.lateness_tail_ms"],
            "backlog_max": result["loadgen.backlog_max"],
        },
        "setup_reps": run.setup,
        "fixture_prepare_s": fixture.prepare_s,
        "checks_failed": run.failures,
    }
    if trace:
        report["spans"] = str(spans.relative_to(ROOT))
        report["traced_mean_ms"] = result["traced_mean_ms"]
    width = max(len(m["name"]) for m in table)
    for m in table:
        print(f"{name:17s} {m['name']:{width}s} {values[m['name']]:14.6g} {m['unit']}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(report, default=str))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not run.failures else 1


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker if the workers started one.

    It is a process this benchmark started (through ``multiprocessing``),
    so it is stopped and waited for here rather than left to exit after us.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if callable(stop):
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    spec = _spec()
    if args.workload != "all":
        return run_workload(
            spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    status = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status |= subprocess.run(argv, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
