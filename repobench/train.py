"""train-parrot: repeated parrot training on one pre-generated dataset.

Each operation is one :func:`~repro.parrot.trainer.train_parrot` call
(hidden 512) on the same seeded dataset with the same training seed,
so every call must return the same loss and accuracy to the last bit.
This is the only workload where ``repro.eedn`` training runs for more
than a moment.
"""

import time

from repro.eedn import layers as eedn_layers
from repro.eedn.layers import TrinaryDense
from repro.parrot import trainer as parrot_trainer
from repro.parrot.datagen import generate_parrot_samples
from repro.parrot.trainer import train_parrot

HIDDEN = 512
N_SAMPLES = 1024
EPOCHS = 10
TINY = dict(hidden=64, n_samples=128, epochs=2)

#: Training seed of every call; the dataset alone comes from --seed.
TRAIN_SEED = 0


class TrainWorkload:
    """One closed-loop client training the parrot again and again."""

    clients = 1

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        self.hidden = TINY["hidden"] if tiny else HIDDEN
        self.n_samples = TINY["n_samples"] if tiny else N_SAMPLES
        self.epochs = TINY["epochs"] if tiny else EPOCHS
        self.mismatches = []

    def generate(self, seed: int, seconds: float) -> None:
        started = time.perf_counter()
        self.dataset = generate_parrot_samples(self.n_samples, rng=seed)
        self.datagen_s = time.perf_counter() - started

    def _train(self, epochs: int) -> dict:
        _, _, diagnostics = train_parrot(
            hidden=self.hidden,
            epochs=epochs,
            rng=TRAIN_SEED,
            dataset=self.dataset,
        )
        return diagnostics

    def setup(self) -> None:
        """Build the network and score a probe: one epoch plus diagnostics."""
        loss = self._train(1)["final_loss"]
        if loss != loss:
            raise RuntimeError("set-up probe loss is NaN")

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        self.outcomes = set()

    def op(self, client: int) -> float:
        """One full training call; its units are samples x epochs."""
        diagnostics = self._train(self.epochs)
        self.outcomes.add(
            (diagnostics["final_loss"].hex(), float(diagnostics["angle_accuracy"]).hex())
        )
        return float(self.n_samples * self.epochs)

    def check(self) -> None:
        """Every call returned the same loss and accuracy, bit for bit."""
        if len(self.outcomes) != 1:
            self.mismatches.append(
                f"{len(self.outcomes)} distinct (final_loss, angle_accuracy) results"
            )

    # -- traced run ----------------------------------------------------
    def install(self, tracer) -> None:
        tracer.wrap(parrot_trainer, "train_network", "train")
        tracer.wrap(TrinaryDense, "forward", "forward")
        tracer.wrap(TrinaryDense, "backward", "backward")
        tracer.wrap(eedn_layers, "trinarize", "trinarize")

    def snapshot(self) -> dict:
        return {}

    def layer_metrics(self, tracer, traced) -> dict:
        epochs = max(len(traced.arms["traced"].latencies) * self.epochs, 1)
        return {
            "train.ms_per_epoch": tracer["train"].ms() / epochs,
            "forward.ms_per_epoch": tracer["forward"].ms() / epochs,
            "backward.ms_per_epoch": tracer["backward"].ms() / epochs,
            "trinarize.ms_per_epoch": tracer["trinarize"].ms() / epochs,
            "trinarize.calls_per_epoch": tracer["trinarize"].calls / epochs,
            "datagen_s": self.datagen_s,
        }
