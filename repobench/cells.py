"""cells-sharded: 10x10 patches through two forked NApprox cell workers.

Flattened patches go through :class:`~repro.serve.ShardedInferenceService`
with two forked workers over :class:`~repro.serve.NApproxCellModel` on
the ``batch`` engine, the paper's 22-core HoG cell module. Two client
threads each submit a block of distinct patches and wait for it before
sending the next, so the cache never hits and every block crosses the
process boundary.

Worker-side time cannot be wrapped in a forked process; it is read from
the ``serve.shard.worker.score`` span series that the parent registry
merges under a ``shard`` label.
"""

import threading
import time

import numpy as np

from repro.obs import hwcounters, span_metric_name
from repro.serve import NApproxCellModel, ShardedInferenceService, random_patch_rows

WORKERS = 2
CLIENTS = 2
BLOCK = 16
MAX_BATCH_SIZE = 32
CACHE_CAPACITY = 4096
WINDOW = 32
TINY_WINDOW = 8

#: Patches generated per second of run time; well above the ~50 cells/s
#: the workers reach, so no patch repeats.
ROWS_PER_SECOND = 160

WORKER_SPAN = span_metric_name("serve.shard.worker.score")

#: A fixed probe row; no generated random patch equals it.
PROBE_ROW = np.linspace(0.0, 1.0, 100)


class CellsWorkload:
    """Two closed-loop clients sending blocks of distinct patches."""

    clients = CLIENTS

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        self.service = None
        self.mismatches = []
        self.spawn_s = []

    def generate(self, seed: int, seconds: float) -> None:
        """Distinct patches from ``seed``."""
        n_rows = int(seconds * ROWS_PER_SECOND) + 4 * BLOCK * 40
        self.rows = random_patch_rows(n_rows, rng=seed)

    def setup(self) -> None:
        """Build the cell model, fork the workers, score a probe."""
        self.model = NApproxCellModel(
            window=TINY_WINDOW if self.tiny else WINDOW, engine="batch"
        )
        self.service = ShardedInferenceService(
            self.model,
            workers=WORKERS,
            max_batch_size=MAX_BATCH_SIZE,
            cache_capacity=CACHE_CAPACITY,
        )
        started = time.perf_counter()
        self.service.start()
        self.spawn_s.append(time.perf_counter() - started)
        probe = self.service.score(PROBE_ROW)
        if np.shape(probe) != (18,):
            raise RuntimeError(f"set-up probe returned shape {np.shape(probe)}")

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def prepare(self) -> None:
        self.next_block = 0
        self.results = {}
        self._lock = threading.Lock()

    def op(self, client: int) -> float:
        """Score the next block of distinct patches; one block per operation."""
        with self._lock:
            block = self.next_block
            self.next_block += 1
        rows = self.rows[block * BLOCK : (block + 1) * BLOCK]
        if rows.shape[0] < BLOCK:
            raise RuntimeError("ran out of distinct patches")
        self.results[block] = self.service.score_many(rows)
        return float(BLOCK)

    def check(self) -> None:
        """Sampled blocks equal a direct model call; no worker respawned."""
        if not self.results:
            self.mismatches.append("no timed block completed")
            return
        blocks = sorted(self.results)
        for block in sorted({blocks[0], blocks[len(blocks) // 2], blocks[-1]}):
            rows = self.rows[block * BLOCK : (block + 1) * BLOCK]
            if not np.array_equal(self.results[block], self.model(rows)):
                self.mismatches.append(f"block {block}: served histograms != direct")
        respawns = self.service.stats.counter("worker_respawns")
        if respawns:
            self.mismatches.append(f"{respawns} worker respawns")

    # -- traced run ----------------------------------------------------
    def install(self, tracer) -> None:
        tracer.wrap(ShardedInferenceService, "submit", "submit")
        tracer.wrap(
            hwcounters,
            "record_run",
            "hw",
            counts=lambda activity, *args, **kwargs: {
                "synaptic_events": float(activity.synaptic_events.sum())
            },
        )

    def snapshot(self) -> dict:
        stats = self.service.stats
        registry = stats.registry
        batches = registry.get("serve_batch_size")
        worker_s = 0.0
        for shard in range(WORKERS):
            series = registry.get(WORKER_SPAN, labels={"shard": str(shard)})
            if series is not None:
                worker_s += series.sum
        return {
            "batch_calls": batches.count,
            "batch_rows": batches.sum,
            "energy_nj": float(stats.counter("energy_nanojoules")),
            "worker_s": worker_s,
        }

    def layer_metrics(self, tracer, traced) -> dict:
        loop = traced.arms["traced"]
        blocks = max(len(loop.latencies), 1)
        deltas = traced.deltas
        rows = max(deltas["batch_rows"], 1.0)
        worker_ms = deltas["worker_s"] * 1e3
        mean_block_ms = float(np.mean(loop.latencies)) * 1e3 if loop.latencies else 0.0
        return {
            "serve.submit_ms_per_block": tracer["submit"].ms() / blocks,
            "shard.score_ms_per_row": worker_ms / rows,
            "shard.busy_fraction": (
                deltas["worker_s"] / (loop.elapsed * WORKERS) if loop.elapsed else 0.0
            ),
            "ipc.ms_per_block": mean_block_ms - worker_ms / blocks,
            "shard.spawn_ms": float(np.median(self.spawn_s)) * 1e3 / WORKERS,
            "shard.respawns": float(self.service.stats.counter("worker_respawns")),
            "batch.rows_mean": (
                deltas["batch_rows"] / deltas["batch_calls"] if deltas["batch_calls"] else 0.0
            ),
            "hw.synaptic_events_per_row": tracer["hw"].count("synaptic_events") / rows,
            "energy.uj_per_cell": deltas["energy_nj"] / 1e3 / rows,
        }
