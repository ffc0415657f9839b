"""Evaluation and diagnostics: tree-distance scores, error decomposition,
pseudo-label purity, gate quality, and confidence-accuracy tables.

The headline score is the class-balanced mean hierarchical distance: samples
are grouped by ground-truth node, per-class mean tree distances are macro-
averaged separately over leaf (ID) and internal (OOD) ground truths, and the
mixed score is the arithmetic mean of the two, so rare classes and the OOD
side carry full weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import Hierarchy


@dataclass(frozen=True)
class BmhdReport:
    id: float | None
    ood: float | None

    @property
    def mix(self) -> float | None:
        """The mean of the two scores; None unless both are defined."""
        return 0.5 * (self.id + self.ood) if self.id is not None and self.ood is not None else None


def bmhd(predictions, ground_truths, hierarchy: Hierarchy) -> BmhdReport:
    """Class-balanced mean tree distance, split by leaf/internal ground truth."""
    predictions = np.asarray(predictions, dtype=np.int64)
    ground_truths = np.asarray(ground_truths, dtype=np.int64)
    classes, inverse = np.unique(ground_truths, return_inverse=True)
    distance = hierarchy.tree_distance(predictions, ground_truths)
    means = np.bincount(inverse, weights=distance, minlength=len(classes)) / np.bincount(inverse)
    is_id = hierarchy.is_leaf(classes)
    return BmhdReport(
        id=float(np.mean(means[is_id])) if is_id.any() else None,
        ood=float(np.mean(means[~is_id])) if not is_id.all() else None,
    )


def decomposition_matrix(predictions, ground_truths, hierarchy: Hierarchy, subset: str) -> np.ndarray:
    """Percentage matrix of (underprediction, overprediction) distances.

    Row: distance from the lowest common ancestor to the ground truth.
    Column: distance from the LCA to the prediction. `subset` selects the
    samples by what was predicted: 'id' keeps leaf predictions, 'ood'
    internal ones. Cell (0, 0) is the exactly-correct fraction.
    """
    if subset not in ("id", "ood"):
        raise ValueError("subset must be 'id' or 'ood'")
    predictions = np.asarray(predictions, dtype=np.int64)
    ground_truths = np.asarray(ground_truths, dtype=np.int64)
    keep = hierarchy.is_leaf(predictions) == (subset == "id")
    pred, gt = predictions[keep], ground_truths[keep]
    if len(pred) == 0:
        return np.zeros((0, 0))
    anc_depth = hierarchy.depths[hierarchy.lca(pred, gt)]
    under = hierarchy.depths[gt] - anc_depth
    over = hierarchy.depths[pred] - anc_depth
    size = hierarchy.max_depth + 1
    counts = np.bincount(under * size + over, minlength=size * size).reshape(size, size)
    return counts * (100.0 / len(pred))


def spl_purity_and_depth(assigned: np.ndarray, ground_truths, hierarchy: Hierarchy) -> tuple[float, float] | None:
    """Purity and mean depth of the deepest assigned node, over the rows of a
    table of assigned node ids, -1 for none; None when no row has one.

    The deepest node is the assigned one largest by (depth, id). Purity
    counts a sample as correct when its ground truth lies inside that node's
    subtree.
    """
    key = np.where(assigned >= 0, hierarchy.depths[assigned] * hierarchy.n_nodes + assigned, -1)
    has = key.max(axis=1, initial=-1) >= 0
    if not has.any():
        return None
    deepest = key[has].max(axis=1) % hierarchy.n_nodes
    pure = hierarchy.in_subtree(np.asarray(ground_truths)[has], deepest)
    return float(np.mean(pure)), float(np.mean(hierarchy.depths[deepest]))


@dataclass(frozen=True)
class GateReport:
    fpr: float
    coverage: float
    n_assignments: int
    n_incorrect: int

    @property
    def fpr_defined(self) -> bool:
        return self.n_incorrect > 0


def gate_fpr_coverage(nodes, epochs, incorrect, cutoffs: np.ndarray) -> GateReport:
    """Micro-averaged gate quality over first-assignment records.

    Record i assigned node nodes[i] at epochs[i]; it passes the gate when
    that epoch does not exceed the node's entry in `cutoffs`. FPR is the
    fraction of incorrect assignments that pass (reported as 0 when there
    are none, flagged via fpr_defined); coverage is the fraction of all
    assignments that pass.
    """
    passed = np.asarray(epochs) <= cutoffs[np.asarray(nodes, dtype=np.int64)]
    incorrect = np.asarray(incorrect, dtype=bool)
    total, n_incorrect = len(passed), int(incorrect.sum())
    coverage = int(passed.sum()) / total if total else 1.0
    fpr = int((passed & incorrect).sum()) / n_incorrect if n_incorrect else 0.0
    return GateReport(fpr=fpr, coverage=coverage, n_assignments=total, n_incorrect=n_incorrect)


@dataclass(frozen=True)
class ConfidenceBins:
    """Equal-width confidence bins with per-bin accuracy and frequency."""

    edges: np.ndarray  # n_bins + 1 edges over [0, 1]
    accuracy: np.ndarray  # nan for empty bins
    frequency: np.ndarray  # sums to 1 when any sample present
    counts: np.ndarray


def confidence_accuracy_bins(confidences, correct, n_bins: int = 30) -> ConfidenceBins:
    """Bin confidences into [0,1] and average correctness per bin."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    if n_bins < 1:
        raise ValueError("need at least one bin")
    idx = np.clip(confidences * n_bins, 0, n_bins - 1).astype(np.int64)  # a value outside [0, 1] goes to an end bin
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    hits = np.bincount(idx, weights=correct, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        accuracy = np.where(counts > 0, hits / np.maximum(counts, 1), math.nan)
    total = counts.sum()
    frequency = counts / total if total else counts.astype(np.float64)
    return ConfidenceBins(
        edges=np.linspace(0.0, 1.0, n_bins + 1),
        accuracy=accuracy,
        frequency=frequency,
        counts=counts,
    )
