"""The reference synthetic benchmark: one config, all methods, a few seeds.

This is the desk-scale stand-in for the big image benchmarks: branching-3
depth-4 hierarchy over 32-dimensional features, 20% of the leaves held out
as out-of-distribution classes, 10 labels per in-distribution class, 100
epochs. Method comparisons are paired: within a seed every method sees the
same dataset, and the seed also drives training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import NO_LABEL, SPLIT_TEST, FeatureDataset, SyntheticConfig, generate, sample_labeled_subset
from .hierarchy import Hierarchy
from .metrics import confidence_accuracy_bins
from .prohoc import predict_nodes, subtree_confidences
from .trainer import EpochReport, TrainConfig, Trainer, predict_dataset, run_training

REFERENCE_SEEDS = (0, 1, 2)
LABELS_PER_CLASS = 10


def reference_dataset(seed: int) -> tuple[Hierarchy, FeatureDataset]:
    config = SyntheticConfig(
        branching=3,
        depth=4,
        feature_dim=32,
        train_per_leaf=14,
        test_per_leaf=8,
        sigma_level=0.5,
        sigma_noise=0.45,
        ood_fraction=0.2,
        root_ood_per_split=0,
        seed=seed,
    )
    hierarchy, dataset = generate(config)
    dataset = sample_labeled_subset(dataset, hierarchy, LABELS_PER_CLASS, seed)
    return hierarchy, dataset


def reference_train_config(method: str, seed: int, epochs: int = 100) -> TrainConfig:
    # EMA momentum is shortened relative to the large-scale default 0.999:
    # these runs take ~100 optimizer steps, so the teacher horizon must fit.
    return TrainConfig(
        method=method,
        epochs=epochs,
        labeled_batch_size=128,
        unlabeled_ratio=4,
        lr=0.1,
        dropout=0.3,
        ema_momentum=0.95,
        tau=0.95,
        gate_bin_width=1,
        gate_drop_threshold=0.01,
        hidden_dim=512,
        seed=seed,
    )


@dataclass
class ArmResult:
    method: str
    seed: int
    bmhd_id: float
    bmhd_ood: float
    bmhd_mix: float
    final_purity: float | None
    final_avg_depth: float | None
    reports: list[EpochReport]
    trainer: Trainer
    wall_clock: float


def run_arm(method: str, seed: int, epochs: int = 100) -> ArmResult:
    hierarchy, dataset = reference_dataset(seed)
    config = reference_train_config(method, seed, epochs)
    reports, trainer = run_training(config, hierarchy, dataset)
    final = reports[-1]
    clock = sum(r.wall_clock for r in reports)
    return ArmResult(
        method=method,
        seed=seed,
        bmhd_id=final.bmhd_id,
        bmhd_ood=final.bmhd_ood,
        bmhd_mix=final.bmhd_mix,
        final_purity=final.purity,
        final_avg_depth=final.avg_depth,
        reports=reports,
        trainer=trainer,
        wall_clock=clock,
    )


def seed_mean(results: list[ArmResult], attr: str) -> float:
    values = [getattr(r, attr) for r in results]
    if any(v is None for v in values):
        raise ValueError(f"{attr} missing for some seeds")
    return float(np.mean(values))


def ood_subtree_bins(trainer: Trainer, n_bins: int = 20):
    """Subtree-confidence/accuracy table for test samples predicted as OOD.

    Correctness here is subtree membership (the ground truth lies inside the
    predicted node's subtree), the property pseudo-labeling relies on.
    """
    dataset = trainer.dataset
    hierarchy = trainer.hierarchy
    idx = dataset.indices(SPLIT_TEST)
    probs = predict_dataset(trainer.heads, hierarchy, dataset.features[idx])
    preds = predict_nodes(probs)
    conf = subtree_confidences(probs, hierarchy)

    ood = np.flatnonzero(~hierarchy.is_leaf(preds))
    if not len(ood):
        return None, None
    gts = dataset.labels[idx[ood]]
    known = gts != NO_LABEL
    correct = known & hierarchy.in_subtree(np.where(known, gts, 0), preds[ood])
    return confidence_accuracy_bins(conf[ood, preds[ood]], correct, n_bins=n_bins), float(np.mean(correct))
