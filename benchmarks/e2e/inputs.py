"""Inputs of every workload, made from the seed alone.

The program under test receives only the objects built here: the windowed
SQL dataset, the 72 hypothesis functions and K training checkpoints of one
character LSTM.  Checkpoints are trained once per set-up and saved; every
cold and disk-warm iteration regenerates the dataset, rebuilds the
hypotheses and reloads the checkpoints (:func:`fresh_objects`), because all
of them memoise identity hashes and labels on first use — a second "cold"
run on reused objects would be a warm one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.data import generate_sql_workload
from repro.hypotheses import grammar_hypotheses
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.nn import CharLSTMModel, TrainConfig, train_model
from repro.nn.serialize import load_model, save_model
from repro.util.rng import new_rng

from .spec import BATCH_SIZE, BLOCK, LR, STRIDE, WINDOW, Scale


@dataclass
class Objects:
    """One set of never-used objects (dataset, hypotheses, checkpoints)."""

    workload: object
    hypotheses: list
    models: list

    @property
    def dataset(self):
        return self.workload.dataset

    @property
    def n_records(self) -> int:
        return int(self.dataset.n_records)

    @property
    def n_blocks(self) -> int:
        return math.ceil(self.n_records / BLOCK)


def generate(scale: Scale, seed: int):
    """The dataset and its hypotheses; deterministic in ``seed``."""
    workload = generate_sql_workload(
        "default", n_queries=scale.n_queries, window=WINDOW, stride=STRIDE,
        max_records=scale.max_records, seed=seed)
    n = workload.dataset.n_records
    if scale.max_records is not None and n != scale.max_records:
        raise RuntimeError(
            f"seed {seed} produced {n} records, fewer than the "
            f"{scale.max_records} the {scale.name} scale fixes")
    hypotheses = grammar_hypotheses(
        workload.grammar, workload.queries, workload.trees,
        mode="derivation") + sql_keyword_hypotheses()
    return workload, hypotheses


def checkpoint_dir(root: Path, epoch: int) -> Path:
    return Path(root) / f"ckpt_{epoch}"


def train_checkpoints(scale: Scale, seed: int, workload, root: Path) -> None:
    """Train one model for K epochs, saving a snapshot after each."""
    model = CharLSTMModel(len(workload.vocab), n_units=scale.n_units,
                          rng=new_rng(seed), model_id="char_lstm")

    def snapshot(epoch: int, trained) -> None:
        trained.model_id = f"epoch_{epoch}"
        save_model(trained, str(checkpoint_dir(root, epoch)))

    train_model(model, workload.dataset.symbols, workload.targets,
                TrainConfig(epochs=scale.n_checkpoints,
                            batch_size=BATCH_SIZE, lr=LR,
                            patience=10 ** 6, seed=seed),
                snapshot_hook=snapshot)


def fresh_objects(scale: Scale, seed: int, root: Path) -> Objects:
    """Regenerate the dataset and hypotheses, reload the checkpoints."""
    workload, hypotheses = generate(scale, seed)
    models = [load_model(str(checkpoint_dir(root, e)))
              for e in range(scale.n_checkpoints)]
    return Objects(workload, hypotheses, models)


def register_all(session, objects: Objects, recorder) -> None:
    """Fill a session's registries the way every workload does."""
    with recorder.span("register_dataset"):
        session.register_dataset("d0", objects.dataset)
    with recorder.span("register_hypotheses"):
        session.register_hypotheses(objects.hypotheses)
    for epoch, model in enumerate(objects.models):
        with recorder.span("register_model"):
            session.register_model(f"epoch_{epoch}", model, epoch=epoch)
