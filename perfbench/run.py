"""End-to-end benchmark of shared state between two architectures over TCP.

Usage::

    python3 perfbench/run.py --workload small-sections|sparse-32mb|dense-8mb|all
        [--seed N] [--seconds S] [--trace 0|1]

The program is imported from the ``src/`` next to this directory.
``--trace 0`` sets up ``SETUPS`` times (reporting the median set-up time),
then measures ``--seconds`` of closed-loop sections untraced and prints
the end-to-end metrics.  ``--trace 1`` splits ``--seconds`` between an
untraced phase and a traced one (span wrappers installed in this process
and, through ``launcher.py``, in the server) and prints the per-layer
metrics; the spans go to ``perfbench/out/``.

Every metric is printed as ``name = value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when a read disagrees with the benchmark's
model, the server's version or request count does not reconcile, or the
program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: errors printed per run (a broken program fails every read)
MAX_ERRORS_SHOWN = 10


def pin_to_one_cpu() -> int:
    """Pin this process, and so the server it starts, to one CPU.

    The closed loop has one request in flight, so a second CPU adds no
    parallelism; it only adds cross-CPU wake-ups and exposure to the
    other CPU's scheduling noise, which made run-to-run spreads several
    times wider on a shared 2-CPU machine.  Returns the CPU chosen.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _run_untraced(workload, seconds: float, setups: int):
    """Set up ``setups`` times (a fresh server each time), then measure on
    the last set-up; returns the phase, every set-up time and the server's
    peak RSS."""
    import harness

    setup_runs = []
    world = None
    try:
        for _ in range(setups):
            if world is not None:
                world.close()
                gc.collect()
            world = harness.set_up(workload)
            setup_runs.append(world.setup_s)
        phase = harness.measure(world, workload, seconds)
        server_rss = world.server.peak_rss_mb()
    finally:
        if world is not None:
            world.close()
    return phase, setup_runs, server_rss


def _run_traced(workload_cls, seed: int, seconds: float):
    """An untraced phase, then a traced one on a fresh set-up, each for
    half of ``seconds``; returns both phases and the joined spans."""
    import harness
    import layers
    import spans as spans_mod

    phase_untraced, _, _ = _run_untraced(workload_cls(seed), seconds / 2, 1)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    stem = os.path.join(harness.OUT_DIR, f"{workload_cls.name}-seed{seed}")
    server_file = stem + ".server-spans.jsonl.gz"
    recorder = spans_mod.SpanRecorder()
    layers.install(recorder, layers.CLIENT_TARGETS)
    world = None
    try:
        workload = workload_cls(seed)
        world = harness.set_up(workload, spans_out=server_file)
        phase = harness.measure(world, workload, seconds / 2, recorder)
    finally:
        if world is not None:
            world.close()
        recorder.uninstall()
    server_spans = spans_mod.read_spans(server_file)
    unmatched = spans_mod.join_requests(recorder.spans, server_spans)
    if unmatched:
        phase.errors.append(f"{unmatched} server requests matched no "
                            f"client request in the trace")
    spans_mod.write_spans(stem + ".spans.jsonl.gz",
                          {"client": recorder.spans, "server": server_spans})
    os.remove(server_file)
    return phase_untraced, phase, recorder.spans, server_spans


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and prints the metrics."""
    import summary
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    if trace:
        untraced, phase, client_spans, server_spans = _run_traced(
            workload_cls, seed, seconds)
        phases = [untraced, phase]
        metrics, notes = summary.per_layer(
            phase, client_spans, server_spans,
            untraced.sections / untraced.seconds)
    else:
        phase, setup_runs, server_rss = _run_untraced(workload_cls(seed), seconds,
                                                    SETUPS)
        phases = [phase]
        metrics, notes = summary.end_to_end(phase, setup_runs, server_rss)
    errors = [error for p in phases for error in p.errors]
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"# ERROR: {error}")
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"# ... and {len(errors) - MAX_ERRORS_SHOWN} more errors")
    return {
        "correct": not errors,
        "attempted": sum(p.sections for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cpu = pin_to_one_cpu()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    print(f"# load generator and server pinned to CPU {cpu}")
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
