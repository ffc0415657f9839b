"""Subtree pseudo-labels, their assignment log, and age-gating.

A subtree pseudo-label on node c asserts that a sample lives somewhere in
c's subtree. It is assigned when the summed probability of the subtree
exceeds a threshold; with a threshold above one half the assigned nodes of a
sample always form a single root-anchored path, because sibling subtree
confidences cannot both exceed 1/2.

Everything here works on whole batches of boolean assignment masks (rows x
nodes; the root column is never set). The log is a dense array of
first-assignment epochs over (unlabeled row, node), -1 where the pair is
not currently assigned; checkpoints keep only its set entries, as
(sample id, node, epoch) triples.

Age-gating counters a failure mode of self-training on open-set data: nodes
keep collecting new, increasingly deep assignments late in training, well
after the initial wave of correct ones. Per node we detect the first
significant drop after the assignment-frequency peak (histogram over
first-assignment epochs) and block any assignment that happened after that
cutoff. Cutoffs only ever tighten; reopening a node later would defeat the
purpose of the gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .hierarchy import Hierarchy
from .prohoc import subtree_confidences


@dataclass(frozen=True)
class SplChain:
    """Assigned non-root nodes for one sample, ordered shallow to deep."""

    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


def assign(probs: np.ndarray, hierarchy: Hierarchy, tau: float) -> np.ndarray:
    """Mask of nodes whose subtree confidence strictly exceeds tau, root excluded.

    tau = 1 is allowed and assigns nothing: the strict comparison makes it
    the degenerate supervised-only setting. The mask is row-major, like the
    log rows it is merged into.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    assigned = np.ascontiguousarray(subtree_confidences(probs, hierarchy) > tau)
    assigned[..., 0] = False
    return assigned


def compute_spls_batch(probs: np.ndarray, hierarchy: Hierarchy, tau: float) -> list[SplChain]:
    """The assignments of a batch of node distributions as chains, one per
    row, nodes in ascending (depth, id) order."""
    order = np.asarray(hierarchy.topo_order)
    return [SplChain(tuple(order[row].tolist())) for row in assign(probs, hierarchy, tau)[:, order]]


def epoch_dtype(epochs: int) -> np.dtype:
    """Smallest signed integer type that holds every epoch of a run and -1."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= epochs)


class SplLog:
    """First-assignment epoch per (row, node), -1 for none; row r belongs to
    the sample sample_ids[r]."""

    def __init__(self, sample_ids: np.ndarray, n_nodes: int, dtype=np.int64):
        self.sample_ids = sample_ids
        self.first = np.full((len(sample_ids), n_nodes), -1, dtype=dtype)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.first >= 0))

    def state_dict(self) -> dict:
        """The set entries as (sample id, node, epoch) arrays."""
        rows, nodes = np.nonzero(self.first >= 0)
        return {"sample_id": self.sample_ids[rows], "node": nodes, "epoch": self.first[rows, nodes]}

    def load_state_dict(self, state: dict) -> None:
        rows_known = np.isin(state["sample_id"], self.sample_ids).all()
        if not rows_known or np.any((state["node"] < 0) | (state["node"] >= self.first.shape[1])):
            raise ValueError("checkpoint log names samples or nodes this log has no row or column for")
        order = np.argsort(self.sample_ids)
        rows = order[np.searchsorted(self.sample_ids, state["sample_id"], sorter=order)]
        self.first[...] = -1
        self.first[rows, state["node"]] = state["epoch"]


def update_log(log: SplLog, rows: np.ndarray, assigned: np.ndarray, epoch: int) -> None:
    """First-assignment epochs are kept; pairs no longer assigned drop out,
    so a later reassignment re-enters with the later epoch."""
    current = log.first[rows]
    np.copyto(current, epoch, where=assigned & (current < 0))
    np.copyto(current, -1, where=~assigned)
    log.first[rows] = current


def update_history(history: SplLog, rows: np.ndarray, assigned: np.ndarray, epoch: int) -> None:
    """Like update_log, but an entry once made is never dropped: the epoch of
    the first assignment ever."""
    current = history.first[rows]
    np.copyto(current, epoch, where=assigned & (current < 0))
    history.first[rows] = current


def detect_cutoff(epochs, current_epoch: int, bin_width: int, drop_threshold: float) -> float:
    """First histogram bin whose count drops below a fraction of the peak.

    Epochs are binned into consecutive width-w bins anchored at zero and
    covering [0, current_epoch], empty bins included. Scanning in order, a
    bin that exceeds the running maximum raises it; otherwise a count
    strictly below drop_threshold * maximum ends the scan and its left edge
    is returned. Returns infinity when no such drop occurs.
    """
    if bin_width < 1:
        raise ValueError("bin width must be >= 1")
    if not 0.0 < drop_threshold < 1.0:
        raise ValueError("drop threshold must be in (0, 1)")
    epochs = np.asarray(epochs, dtype=np.int64)
    outside = (epochs < 0) | (epochs > current_epoch)
    if outside.any():
        raise ValueError(f"assignment epoch {epochs[outside][0]} outside [0, {current_epoch}]")
    counts = np.bincount(epochs // bin_width, minlength=current_epoch // bin_width + 1)

    max_count = 0
    for i, count in enumerate(counts.tolist()):
        if count > max_count:
            max_count = count
        elif count < drop_threshold * max_count:
            return float(i * bin_width)
    return math.inf


@dataclass
class AgeGateState:
    """Per-node cutoff epochs plus the detector hyperparameters."""

    bin_width: int = 1
    drop_threshold: float = 0.01
    cutoffs: dict[int, float] = field(default_factory=dict)

    def vector(self, n_nodes: int) -> np.ndarray:
        """Cutoff per node id, infinity where none is set."""
        out = np.full(n_nodes, math.inf)
        out[list(self.cutoffs)] = list(self.cutoffs.values())
        return out

    def state_dict(self) -> dict:
        return asdict(self)

    def load_state_dict(self, state: dict) -> None:
        self.bin_width = int(state["bin_width"])
        self.drop_threshold = float(state["drop_threshold"])
        self.cutoffs = {int(c): float(t) for c, t in state["cutoffs"].items()}


def update_cutoffs(state: AgeGateState, log: SplLog, current_epoch: int) -> None:
    """End-of-epoch cutoff detection over each node's logged epochs; a cutoff
    can only ever decrease."""
    flat = np.flatnonzero(log.first >= 0)  # about ten times faster than a 2-D nonzero
    rows, nodes = np.divmod(flat[np.argsort(flat % log.first.shape[1], kind="stable")], log.first.shape[1])
    epochs = log.first[rows, nodes]  # grouped by node, rows ascending inside a group
    starts = np.flatnonzero(np.diff(nodes, prepend=-1))
    for node, node_epochs in zip(nodes[starts].tolist(), np.split(epochs, starts[1:])):
        detected = detect_cutoff(node_epochs, current_epoch, state.bin_width, state.drop_threshold)
        if detected < state.cutoffs.get(node, math.inf):
            state.cutoffs[node] = detected


def apply_gating(assigned: np.ndarray, first: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Drop assignments whose logged first epoch is strictly past the node's
    cutoff; `first` holds the log rows of the assigned mask's rows."""
    return assigned & ~(first > cutoffs)
