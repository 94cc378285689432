"""video-static and video-full: frames through VideoPipeline over one service.

Both workloads stream 240x320 synthetic frames through
:class:`~repro.video.VideoPipeline` over one warm in-process
:class:`~repro.serve.InferenceService` on the ``event`` engine, with the
classifier at the ``benchmarks/bench_video.py`` defaults. They differ
only in motion: a static scene makes every timed window a cache hit,
full motion makes every window a miss.

The detector's log-average miss rate is measured on a fixed evaluation
set (:data:`EVAL_SEED`), never on the timed frames, so it repeats
exactly whatever the loop reached.
"""

import numpy as np

from repro.detection.evaluate import evaluate_detections
from repro.detection.nms import non_maximum_suppression
from repro.detection.pipeline import TrueNorthBinaryScorer, sliding_window_features
from repro.detection.pyramid import ImagePyramid
from repro.napprox import NApproxDescriptor
from repro.obs import hwcounters
from repro.serve import InferenceService
from repro.truenorth.simulator import Simulator
from repro.video import (
    VideoConfig,
    VideoPipeline,
    VideoPipelineConfig,
    build_video_workload,
    pool_feature_rows,
    synthesize_sequence,
)
from repro.video import pipeline as video_pipeline

#: Classifier settings of ``benchmarks/bench_video.py``; seed fixed so
#: the deployed model, and therefore ``lamr``, never depends on --seed.
CLASSIFIER = dict(ticks=6, hidden=16, n_train=48, epochs=12, rng=0)
TINY_CLASSIFIER = dict(ticks=6, hidden=16, n_train=8, epochs=2, rng=0)
SHAPE = (240, 320)
TINY_SHAPE = (144, 96)
SCALE_FACTOR = 1.2
MAX_LEVELS = 6
MAX_BATCH_SIZE = 64
CACHE_CAPACITY = 8192

#: The fixed evaluation set behind ``lamr``: walking frames, same every run.
EVAL_SEED = 2017
EVAL_FRAMES = 4

#: Full-motion frames generated per second of run time; well above the
#: ~2 frames/s the pipeline reaches (~60 on tiny frames), so no frame
#: ever repeats.
FULL_FRAMES_PER_SECOND = 4
TINY_FULL_FRAMES_PER_SECOND = 120


def _chunks(rows: np.ndarray, size: int):
    for start in range(0, rows.shape[0], size):
        yield rows[start : start + size]


class Detector:
    """The deployed classifier plus a direct, service-free detection path."""

    def __init__(self, tiny: bool) -> None:
        self.model = build_video_workload(
            engine="event", **(TINY_CLASSIFIER if tiny else CLASSIFIER)
        )
        self.config = VideoPipelineConfig(
            scale_factor=SCALE_FACTOR,
            max_levels=MAX_LEVELS,
            feature_scale=self.model.feature_scale,
        )

    def detect(self, image: np.ndarray) -> tuple:
        """Detections of one frame, scored straight through the scorer.

        Mirrors ``VideoPipeline.process_frame`` step by step (levels
        coarsest first, the same box order into NMS), so the result must
        equal the served frame's ``detections_key()`` bit for bit.
        """
        config = self.config
        extractor = self.model.extractor
        cell_size = int(extractor.config.cell_size)
        n_bins = int(extractor.config.n_bins)
        window_h, window_w = config.window_shape
        window_cells = (window_h // cell_size, window_w // cell_size)
        levels = ImagePyramid(
            image,
            window_shape=config.window_shape,
            scale_factor=config.scale_factor,
            max_levels=config.max_levels,
        ).levels()
        boxes, scores = [], []
        for level in reversed(levels):
            grid = np.asarray(extractor.cell_grid(level.image), dtype=np.float64)
            raw, positions = sliding_window_features(grid, window_cells)
            if raw.shape[0] == 0:
                continue
            rows = np.clip(
                pool_feature_rows(
                    raw, window_cells, n_bins, config.pool, config.bin_merge
                )
                * config.feature_scale,
                0.0,
                1.0,
            )
            level_scores = np.concatenate(
                [
                    np.asarray(self.model.scorer.decision_function(chunk), dtype=np.float64)
                    for chunk in _chunks(rows, MAX_BATCH_SIZE)
                ]
            )
            for hit in np.where(level_scores > config.score_threshold)[0]:
                cy, cx = positions[hit]
                boxes.append(
                    [
                        cx * cell_size * level.scale,
                        cy * cell_size * level.scale,
                        window_w * level.scale,
                        window_h * level.scale,
                    ]
                )
                scores.append(float(level_scores[hit]))
        if not boxes:
            return ()
        box_arr = np.asarray(boxes, dtype=np.float64)
        kept = non_maximum_suppression(box_arr, np.asarray(scores), config.nms_epsilon)
        return tuple(
            (
                float(box_arr[i, 0]),
                float(box_arr[i, 1]),
                float(box_arr[i, 2]),
                float(box_arr[i, 3]),
                float(scores[i]),
            )
            for i in kept
        )


def eval_sequence(tiny: bool):
    """The fixed evaluation frames behind ``lamr``."""
    return synthesize_sequence(
        VideoConfig(shape=TINY_SHAPE if tiny else SHAPE, n_frames=EVAL_FRAMES, motion="walk"),
        rng=EVAL_SEED,
    )


def lamr_of(keys, ground_truth) -> float:
    """Log-average miss rate of per-frame detection keys."""
    per_frame = [
        (
            np.asarray([k[:4] for k in key], dtype=np.float64).reshape(-1, 4),
            np.asarray([k[4] for k in key], dtype=np.float64),
        )
        for key in keys
    ]
    return evaluate_detections(per_frame, list(ground_truth)).log_average_miss_rate()


def detector_lamr(tiny: bool) -> float:
    """``lamr`` of the deployed detector on the fixed evaluation set.

    Workloads that make no detections of their own report this, so
    every run prints the same quality figure next to its speed.
    """
    detector = Detector(tiny)
    sequence = eval_sequence(tiny)
    keys = [detector.detect(scene.image) for scene in sequence]
    return lamr_of(keys, sequence.ground_truth())


def _activity_counts(activity):
    return {
        "synaptic_events": float(activity.synaptic_events.sum()),
        "active_core_ticks": float(activity.active_core_ticks.sum()),
        "core_ticks": float(activity.n_cores * activity.ticks * activity.batch),
    }


class VideoWorkload:
    """One motion level streamed frame by frame (a single closed-loop client)."""

    clients = 1

    def __init__(self, motion: str, tiny: bool = False) -> None:
        self.motion = motion
        self.tiny = tiny
        self.shape = TINY_SHAPE if tiny else SHAPE
        self.service = None
        self.mismatches = []

    # -- inputs and set-up ---------------------------------------------
    def generate(self, seed: int, seconds: float) -> None:
        """Timed frames from ``seed`` (the evaluation set is fixed)."""
        n_frames = 1
        if self.motion == "full":
            rate = TINY_FULL_FRAMES_PER_SECOND if self.tiny else FULL_FRAMES_PER_SECOND
            n_frames = int(max(seconds, 2.0) * rate) + 40
        sequence = synthesize_sequence(
            VideoConfig(shape=self.shape, n_frames=n_frames, motion=self.motion),
            rng=seed,
        )
        # Kept as 8-bit camera frames so a long full-motion input does not
        # dominate peak memory; each operation decodes its frame to float.
        self.frames = [
            np.round(scene.image * 255.0).astype(np.uint8) for scene in sequence
        ]
        self.eval = eval_sequence(self.tiny)

    def setup(self) -> None:
        """Train and deploy the classifier, start the service, score a probe."""
        self.detector = Detector(self.tiny)
        self.service = InferenceService(
            self.detector.model.scorer,
            max_batch_size=MAX_BATCH_SIZE,
            cache_capacity=CACHE_CAPACITY,
        ).start()
        self.pipeline = VideoPipeline(
            self.detector.model.extractor, self.service, self.detector.config
        )
        n_features = self.detector.model.network.layers[0].n_in
        probe = self.service.score(np.full(n_features, 0.5))
        if not np.isfinite(probe):
            raise RuntimeError(f"set-up probe scored {probe!r}")

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def prepare(self) -> float:
        """Score the evaluation set served and direct; warm the service.

        Returns the evaluation set's ``lamr``. Served detections that
        differ from the direct path are recorded as mismatches.
        """
        served = [
            self.pipeline.process_frame(scene.image, -1 - i).detections_key()
            for i, scene in enumerate(self.eval)
        ]
        direct = [self.detector.detect(scene.image) for scene in self.eval]
        if served != direct:
            self.mismatches.append("evaluation frames: served detections != direct")
        lamr = lamr_of(direct, self.eval.ground_truth())
        # Warm-up is untimed: the static scene's first frame is its only
        # cold one; full motion only warms allocators and the batcher.
        warmup = 2 if self.motion == "static" else 1
        for index in range(warmup):
            self.pipeline.process_frame(self._image(0), index)
        self.next_frame = 1 if self.motion == "full" else 0
        self.keys = {}
        return lamr

    # -- timed operation and checks ------------------------------------
    def op(self, client: int) -> float:
        """Stream the next frame; one frame per operation."""
        index = self.next_frame
        self.next_frame += 1
        image = self._image(index)
        self.keys[index] = self.pipeline.process_frame(image, index).detections_key()
        return 1.0

    def _image(self, index: int) -> np.ndarray:
        """Frame ``index`` decoded to [0, 1] floats (the static scene repeats)."""
        frame = self.frames[index if self.motion == "full" else 0]
        return frame / 255.0

    def check(self) -> None:
        """Timed frames must match the direct path.

        The static scene has one image, so every timed frame is checked;
        full motion checks its first and last timed frames.
        """
        if not self.keys:
            self.mismatches.append("no timed frame completed")
            return
        if self.motion == "static":
            expected = self.detector.detect(self._image(0))
            sampled = {index: expected for index in self.keys}
        else:
            sampled = {
                index: self.detector.detect(self._image(index))
                for index in (min(self.keys), max(self.keys))
            }
        for index, expected in sorted(sampled.items()):
            if self.keys[index] != expected:
                self.mismatches.append(f"frame {index}: served detections != direct")

    # -- traced run ----------------------------------------------------
    def install(self, tracer) -> None:
        """Wrap every video-path layer (names the pipeline imported too)."""
        tracer.wrap(ImagePyramid, "levels", "pyramid")
        tracer.wrap(NApproxDescriptor, "cell_grid", "extract")
        tracer.wrap(video_pipeline, "sliding_window_features", "window")
        tracer.wrap(video_pipeline, "pool_feature_rows", "pool")
        tracer.wrap(
            video_pipeline,
            "non_maximum_suppression",
            "nms",
            counts=lambda boxes, *args, **kwargs: {"candidates": float(len(boxes))},
        )
        tracer.wrap(InferenceService, "score_many", "serve")
        tracer.wrap(InferenceService, "submit", "submit")
        tracer.wrap(TrueNorthBinaryScorer, "decision_function", "model")
        tracer.wrap(Simulator, "run_batch", "tick")
        tracer.wrap(
            hwcounters,
            "record_run",
            "hw",
            counts=lambda activity, *args, **kwargs: _activity_counts(activity),
        )

    def snapshot(self) -> dict:
        stats = self.service.stats
        batches = stats.registry.get("serve_batch_size")
        return {
            "cache_hits": stats.counter("cache_hits"),
            "cache_misses": stats.counter("cache_misses"),
            "batch_calls": batches.count,
            "batch_rows": batches.sum,
            "energy_nj": float(stats.counter("energy_nanojoules")),
        }

    def layer_metrics(self, tracer, traced) -> dict:
        loop = traced.arms["traced"]
        frames = max(len(loop.latencies), 1)
        wall_ms = sum(loop.latencies) * 1e3
        deltas = traced.deltas

        def per_frame(name: str) -> float:
            return tracer[name].ms() / frames

        frame_layers = ("pyramid", "extract", "window", "pool", "serve", "nms")
        lookups = deltas["cache_hits"] + deltas["cache_misses"]
        hw = tracer["hw"]
        return {
            "pyramid.ms_per_frame": per_frame("pyramid"),
            "window.ms_per_frame": per_frame("window"),
            "nms.ms_per_frame": per_frame("nms"),
            "nms.candidates_per_frame": tracer["nms"].count("candidates") / frames,
            "extract.ms_per_frame": per_frame("extract"),
            "pool.ms_per_frame": per_frame("pool"),
            "frame.layer_coverage": (
                sum(tracer[name].ms() for name in frame_layers) / wall_ms
                if wall_ms
                else 0.0
            ),
            "serve.ms_per_frame": per_frame("serve"),
            "serve.frontend_ms_per_frame": per_frame("serve") - per_frame("model"),
            "serve.submits_per_frame": tracer["submit"].calls / frames,
            "cache.hit_rate": deltas["cache_hits"] / lookups if lookups else 0.0,
            "batch.calls_per_frame": deltas["batch_calls"] / frames,
            "batch.rows_mean": (
                deltas["batch_rows"] / deltas["batch_calls"]
                if deltas["batch_calls"]
                else 0.0
            ),
            "model.ms_per_frame": per_frame("model"),
            "tick.ms_per_frame": per_frame("tick"),
            "encode.ms_per_frame": per_frame("model") - per_frame("tick"),
            "hw.synaptic_events_per_frame": hw.count("synaptic_events") / frames,
            "hw.active_core_fraction": (
                hw.count("active_core_ticks") / hw.count("core_ticks")
                if hw.count("core_ticks")
                else 0.0
            ),
            "energy.uj_per_frame": deltas["energy_nj"] / 1e3 / frames,
        }
