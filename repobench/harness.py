"""Shared machinery of the benchmark: loops, set-up, arms, conditions.

Every workload is a closed loop: each client sends its next operation
only when the previous one has completed. The end-to-end run times one
loop with tracing off; the traced run alternates three arms in short
phases so the per-layer numbers and both overhead fractions come from
the same run without touching the end-to-end figures.
"""

import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.obs import flight, hwcounters, tracing

#: Complete set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Operations a run completes at least, so p75 has ten samples beyond it.
MIN_OPS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p75": "ms",
    "peak_rss_mb": "MB",
    "lamr": "ratio",
}

PER_LAYER_UNITS = {
    # video-* layers
    "pyramid.ms_per_frame": "ms",
    "window.ms_per_frame": "ms",
    "nms.ms_per_frame": "ms",
    "nms.candidates_per_frame": "count",
    "extract.ms_per_frame": "ms",
    "pool.ms_per_frame": "ms",
    "frame.layer_coverage": "ratio",
    "serve.ms_per_frame": "ms",
    "serve.frontend_ms_per_frame": "ms",
    "serve.submits_per_frame": "count",
    "cache.hit_rate": "ratio",
    "batch.calls_per_frame": "count",
    "batch.rows_mean": "count",
    "model.ms_per_frame": "ms",
    "tick.ms_per_frame": "ms",
    "encode.ms_per_frame": "ms",
    "hw.synaptic_events_per_frame": "count",
    "hw.active_core_fraction": "ratio",
    "energy.uj_per_frame": "uJ",
    "obs.overhead_fraction": "ratio",
    # cells-sharded layers
    "serve.submit_ms_per_block": "ms",
    "shard.score_ms_per_row": "ms",
    "shard.busy_fraction": "ratio",
    "ipc.ms_per_block": "ms",
    "shard.spawn_ms": "ms",
    "shard.respawns": "count",
    "hw.synaptic_events_per_row": "count",
    "energy.uj_per_cell": "uJ",
    # train-parrot layers
    "train.ms_per_epoch": "ms",
    "forward.ms_per_epoch": "ms",
    "backward.ms_per_epoch": "ms",
    "trinarize.ms_per_epoch": "ms",
    "trinarize.calls_per_epoch": "count",
    "datagen_s": "s",
    # every workload
    "trace.overhead_fraction": "ratio",
}

#: Traced-run arms: (name, layer wrappers on, flight/hwcounters/tracing on).
ARMS = (("traced", True, True), ("plain", False, True), ("obs_off", False, False))

#: Rounds of the three arms in a traced run (order reversed every round).
TRACE_ROUNDS = 2

#: Operations each traced-run phase completes at least.
MIN_PHASE_OPS = 2


@dataclass
class LoopResult:
    """What one closed loop did.

    Attributes:
        latencies: seconds per completed operation.
        units: work units completed (frames, cells, samples x epochs).
        elapsed: seconds from the loop's start to its last completion.
        attempted: operations started.
        failed: operations that raised.
    """

    latencies: List[float] = field(default_factory=list)
    units: float = 0.0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0

    def merge(self, other: "LoopResult") -> None:
        """Add another loop's operations to this one."""
        self.latencies += other.latencies
        self.units += other.units
        self.elapsed += other.elapsed
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def throughput(self) -> float:
        """Work units per second over the loop's elapsed time."""
        return self.units / self.elapsed if self.elapsed > 0 else 0.0


def closed_loop(
    op: Callable[[int], float], clients: int, seconds: float, min_ops: int
) -> LoopResult:
    """Run ``clients`` closed-loop callers of ``op`` for ``seconds``.

    Each caller starts its next operation only after the previous one
    returned. The loop ends once ``seconds`` have passed and at least
    ``min_ops`` operations were started. ``op(client)`` returns the work
    units it completed; an exception counts as a failed operation and
    is printed to stderr.
    """
    result = LoopResult()
    lock = threading.Lock()
    started = last_done = time.perf_counter()

    def caller(client: int) -> None:
        nonlocal last_done
        while True:
            with lock:
                if (
                    time.perf_counter() - started >= seconds
                    and result.attempted >= min_ops
                ):
                    return
                result.attempted += 1
            op_started = time.perf_counter()
            try:
                units = op(client)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                with lock:
                    result.failed += 1
                continue
            done = time.perf_counter()
            with lock:
                result.latencies.append(done - op_started)
                result.units += units
                last_done = max(last_done, done)

    if clients == 1:
        caller(0)
    else:
        threads = [
            threading.Thread(target=caller, args=(i,), name=f"bench-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.elapsed = last_done - started
    return result


def set_observability(on: bool) -> None:
    """Switch the flight recorder, hw counters and span tracing together."""
    flight.configure(on)
    hwcounters.configure(on)
    tracing.configure(on)


@dataclass
class TracedResult:
    """Per-arm loops of a traced run plus counter deltas of its traced arm."""

    arms: Dict[str, LoopResult]
    deltas: Dict[str, float]

    def overhead(self, slow: str, fast: str) -> float:
        """Extra time per unit of arm ``slow`` over arm ``fast``."""
        slow_rate = self.arms[slow].throughput
        fast_rate = self.arms[fast].throughput
        return fast_rate / slow_rate - 1.0 if slow_rate > 0 else 0.0


def traced_loop(
    op: Callable[[int], float],
    clients: int,
    seconds: float,
    tracer,
    snapshot: Callable[[], Dict[str, float]],
) -> TracedResult:
    """Alternate the three arms in short closed-loop phases.

    Layer wrappers are on only in the ``traced`` arm, and ``snapshot``
    deltas are summed over that arm's phases alone, so every per-layer
    figure describes the same operations. The arm order is reversed
    every round to cancel slow drift of the host.
    """
    phase_seconds = seconds / (TRACE_ROUNDS * len(ARMS))
    arms = {name: LoopResult() for name, _, _ in ARMS}
    deltas: Dict[str, float] = {}
    for round_index in range(TRACE_ROUNDS):
        order = ARMS if round_index % 2 == 0 else tuple(reversed(ARMS))
        for name, wrappers_on, obs_on in order:
            set_observability(obs_on)
            before = snapshot() if wrappers_on else None
            tracer.on = wrappers_on
            try:
                arms[name].merge(closed_loop(op, clients, phase_seconds, MIN_PHASE_OPS))
            finally:
                tracer.on = False
                set_observability(True)
            if before is not None:
                after = snapshot()
                for key, value in after.items():
                    deltas[key] = deltas.get(key, 0.0) + value - before.get(key, 0.0)
    return TracedResult(arms=arms, deltas=deltas)


def timed_setups(setup: Callable[[], None], teardown: Callable[[], None], repeats: int) -> float:
    """Median seconds of ``repeats`` complete set-ups; the last one stays up."""
    samples = []
    for index in range(repeats):
        started = time.perf_counter()
        setup()
        samples.append(time.perf_counter() - started)
        if index < repeats - 1:
            teardown()
    return statistics.median(samples)


def latency_ms(latencies: List[float], q: float) -> float:
    """The ``q``-th percentile of ``latencies`` in milliseconds."""
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Run conditions (recorded, never used to scale a metric)
# ----------------------------------------------------------------------
def _numpy_blas_threads():
    """BLAS threads as the OpenBLAS bundled with numpy reports them."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_probe_s() -> float:
    """Seconds taken by a fixed mix of numpy and interpreter work."""
    rng = np.random.default_rng(0)
    matrix = rng.random((192, 192))
    started = time.perf_counter()
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 192.0)
    total = 0
    for value in range(200_000):
        total += value & 7
    return time.perf_counter() - started


def _commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def source_hash(src: str) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``src``."""
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def conditions(root: str, blas_thread_vars) -> Dict:
    """Static run conditions: CPUs and the CPUs allowed, BLAS threads, commit, source hash."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads_set": {name: os.environ.get(name) for name in blas_thread_vars},
        "blas_threads_numpy": _numpy_blas_threads(),
        "commit": _commit(root),
        "src_sha256": source_hash(os.path.join(root, "src")),
    }


def _cpu_jiffies():
    """Busy-or-idle and stolen jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return {"total": sum(fields), "steal": fields[7] if len(fields) == 8 else 0}


def host_state() -> Dict:
    """Load average, CPU jiffies and host-speed probe at one point of the run."""
    return {
        "loadavg": list(os.getloadavg()),
        "cpu_jiffies": _cpu_jiffies(),
        "host_probe_s": host_probe_s(),
    }


def steal_fraction(before: Dict, after: Dict):
    """Share of CPU time the hypervisor took between two host states."""
    if before["cpu_jiffies"] is None or after["cpu_jiffies"] is None:
        return None
    total = after["cpu_jiffies"]["total"] - before["cpu_jiffies"]["total"]
    steal = after["cpu_jiffies"]["steal"] - before["cpu_jiffies"]["steal"]
    return steal / total if total > 0 else 0.0


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
