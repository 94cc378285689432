"""Run one benchmark workload and print its result as one JSON line.

Usage (from the repository root)::

    python3 repobench/run.py --workload video-static --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with every
layer wrapper off. With ``--trace 1`` it alternates traced, untraced
and telemetry-off phases and prints the per-layer metrics instead. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run's conditions. The exit
code is 0 for a correct run, 1 when a correctness check failed and 2
when the repository's sources are missing.
"""

import os

# One BLAS thread, set before numpy loads anywhere in the process. Forked
# cell workers inherit it; without it they oversubscribe the two CPUs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("video-static", "video-full", "cells-sharded", "train-parrot")

#: Workloads whose whole load runs in this one process. Their threads take
#: turns on the GIL, so a second CPU adds cross-CPU wake-ups and, on a
#: shared host, steal time, but no speed. ``cells-sharded`` forks two
#: workers and keeps every CPU.
ONE_CPU_WORKLOADS = ("video-static", "video-full", "train-parrot")


def pin_to_one_cpu() -> None:
    """Confine this process, and every thread it starts later, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def make_workload(name: str, tiny: bool):
    """The workload object behind a ``--workload`` name."""
    if name.startswith("video-"):
        from video import VideoWorkload

        return VideoWorkload(name[len("video-"):], tiny=tiny)
    if name == "cells-sharded":
        from cells import CellsWorkload

        return CellsWorkload(tiny=tiny)
    from train import TrainWorkload

    return TrainWorkload(tiny=tiny)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import harness
    from layers import LayerTracer
    from video import detector_lamr

    workload = make_workload(name, tiny)
    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    stamp.update(harness.conditions(ROOT, BLAS_THREAD_VARS))
    stamp["before"] = harness.host_state()
    min_ops = 4 if tiny else harness.MIN_OPS

    tracer = LayerTracer()
    try:
        if trace:
            workload.install(tracer)
        workload.generate(seed, seconds)
        if trace:
            workload.setup()
            setup_s = None
        else:
            setup_s = harness.timed_setups(
                workload.setup, workload.teardown, harness.SETUP_REPEATS
            )
        try:
            lamr = workload.prepare()
            if lamr is None and not trace:
                lamr = detector_lamr(tiny)
            if trace:
                traced = harness.traced_loop(
                    workload.op, workload.clients, seconds, tracer, workload.snapshot
                )
                loop = harness.LoopResult()
                for arm in traced.arms.values():
                    loop.merge(arm)
                layers = workload.layer_metrics(tracer, traced)
                layers["trace.overhead_fraction"] = traced.overhead("traced", "plain")
                layers["obs.overhead_fraction"] = traced.overhead("plain", "obs_off")
            else:
                loop = harness.closed_loop(
                    workload.op, workload.clients, seconds, min_ops
                )
            workload.check()
        finally:
            workload.teardown()
    finally:
        tracer.restore()

    stamp["after"] = harness.host_state()
    stamp["steal_fraction"] = harness.steal_fraction(stamp["before"], stamp["after"])
    stamp["mismatches"] = workload.mismatches
    stamp["loop"] = {
        "units": loop.units,
        "elapsed_s": loop.elapsed,
        "latencies_ms": [round(x * 1e3, 3) for x in loop.latencies],
    }
    print("conditions " + json.dumps(stamp), flush=True)

    if trace:
        metrics = {
            metric: (layers.get(metric, 0.0), unit)
            for metric, unit in harness.PER_LAYER_UNITS.items()
        }
    else:
        values = {
            "setup_s": setup_s,
            "throughput_per_s": loop.throughput,
            "latency_ms_p50": harness.latency_ms(loop.latencies, 50),
            "latency_ms_p75": harness.latency_ms(loop.latencies, 75),
            "peak_rss_mb": harness.peak_rss_mb(),
            "lamr": lamr,
        }
        metrics = {
            metric: (values[metric], unit)
            for metric, unit in harness.END_TO_END_UNITS.items()
        }
    correct = not workload.mismatches and loop.failed == 0
    for mismatch in workload.mismatches:
        print(f"correctness check failed: {mismatch}", file=sys.stderr)
    harness.emit(correct, loop.attempted, loop.failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs and a 4-operation floor, for the smoke tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload in ONE_CPU_WORKLOADS:
        pin_to_one_cpu()
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
