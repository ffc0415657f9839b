"""Subtree pseudo-labels, their assignment log, and age-gating.

A subtree pseudo-label on node c asserts that a sample lives somewhere in
c's subtree. It is assigned when the summed probability of the subtree
exceeds a threshold tau >= 1/2. A parent's subtree confidence is never below
a child's, and sibling confidences cannot both exceed 1/2, so the assigned
nodes of a sample form a single root-anchored path with at most one node
per depth.

So assignments are chain tables, (rows x depths 1..D) of node ids, -1 for
none. The log is such a table over the unlabeled rows with each node's
first-assignment epoch beside it, plus an append-only record of its entries.
Every first-ever assignment of a (row, node) is an entry, so the record's
first entry per pair is the history of first-ever epochs, which can switch
branches. Checkpoints keep the log and the history as (sample id, node,
epoch) triples in (row, node) order.

Age-gating counters a failure mode of self-training on open-set data: nodes
keep collecting new, increasingly deep assignments late in training, well
after the initial wave of correct ones. Per node we detect the first
significant drop after the assignment-frequency peak (histogram over
first-assignment epochs) and block any assignment that happened after that
cutoff. All logged nodes' histograms are one (nodes x bins) count table,
scanned at once. Cutoffs only ever tighten; reopening a node later would
defeat the purpose of the gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import NO_LABEL, id_rows
from .hierarchy import Hierarchy
from .metrics import spl_purity_and_depth
from .prohoc import subtree_confidences


@dataclass(frozen=True)
class SplChain:
    """Assigned non-root nodes for one sample, ordered shallow to deep."""

    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


def assign(probs: np.ndarray, hierarchy: Hierarchy, tau: float) -> np.ndarray:
    """Chain table of the nodes whose subtree confidence strictly exceeds tau,
    root excluded: entry (i, d - 1) is row i's node at depth d, or -1.

    tau = 1 is allowed and assigns nothing: the strict comparison makes it
    the degenerate supervised-only setting. Two nodes of one depth can pass
    only through rounding at tau = 1/2; that raises a ValueError naming the
    depth.
    """
    if not 0.5 <= tau <= 1.0:
        raise ValueError("tau must be in [1/2, 1]")
    passing = subtree_confidences(probs, hierarchy).T > tau  # node-major
    passing[0] = False
    nodes, rows = np.divmod(np.flatnonzero(passing), passing.shape[1])  # a 2-D nonzero takes far longer
    cols = hierarchy.depths[nodes] - 1
    table = np.full((passing.shape[1], hierarchy.max_depth), -1, dtype=np.int64)
    table[rows, cols] = nodes
    if np.count_nonzero(table >= 0) != len(nodes):
        depth = np.flatnonzero(np.bincount(rows * hierarchy.max_depth + cols) > 1)[0] % hierarchy.max_depth + 1
        raise ValueError(f"two nodes of depth {depth} pass tau = {tau}")
    return table


def compute_spls_batch(probs: np.ndarray, hierarchy: Hierarchy, tau: float) -> list[SplChain]:
    """The assignments of a batch of node distributions as chains, one per row, shallow to deep."""
    return [SplChain(tuple(row[row >= 0].tolist())) for row in assign(probs, hierarchy, tau)]


def epoch_dtype(epochs: int) -> np.dtype:
    """Smallest signed integer type that holds every epoch of a run and -1."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= epochs)


def _checkpoint_rows(sample_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of each of the sample ids `ids`; ValueError for one with no row."""
    rows = id_rows(sample_ids, ids)
    if (rows < 0).any():
        raise ValueError(f"sample {ids[rows < 0][0]} has no row in this log")
    return rows


class SplLog:
    """Chain table of the current assignments: node[r, d - 1] is sample_ids[r]'s node at depth d,
    -1 for none, and first[r, d - 1] the epoch it was first assigned in since. `entered` records
    every entry in order as (row * n_nodes + node keys, epochs) chunks."""

    def __init__(self, sample_ids: np.ndarray, depths: np.ndarray, dtype=np.int64):
        self.sample_ids, self.depths = sample_ids, depths
        self.node = np.full((len(sample_ids), int(depths.max())), -1, dtype=np.int64)
        self.first = np.full(self.node.shape, -1, dtype=dtype)
        self.entered = [(np.empty(0, np.int64), np.empty(0, dtype))]

    def state_dict(self) -> dict:
        """The set entries as (sample id, node, epoch) arrays, in (row, node) order."""
        rows, cols = np.nonzero(self.node >= 0)
        order = np.lexsort((self.node[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        return {"sample_id": self.sample_ids[rows], "node": self.node[rows, cols], "epoch": self.first[rows, cols]}

    def history_state(self) -> dict:
        """The first entry ever of each (row, node) as (sample id, node, epoch)
        arrays, in (row, node) order. The record keeps only these afterwards."""
        keys, epochs = (np.concatenate(parts) for parts in zip(*self.entered))
        keys, at = np.unique(keys, return_index=True)
        self.entered = [(keys, epochs[at])]
        rows, nodes = np.divmod(keys, len(self.depths))
        return {"sample_id": self.sample_ids[rows], "node": nodes, "epoch": self.entered[0][1]}

    def load_state_dict(self, log: dict, history: dict) -> None:
        """The current entries from `log` and the entry record from
        `history`, triples that load_checkpoint has checked against the tree;
        ValueError for a sample with no row."""
        rows, cols = _checkpoint_rows(self.sample_ids, log["sample_id"]), self.depths[log["node"]] - 1
        keys = _checkpoint_rows(self.sample_ids, history["sample_id"]) * len(self.depths) + history["node"].astype(np.int64)
        self.node[...], self.first[...] = -1, -1
        self.node[rows, cols], self.first[rows, cols] = log["node"], log["epoch"]
        self.entered = [(keys, history["epoch"].astype(self.first.dtype))]


def update_log(log: SplLog, rows: np.ndarray, assigned: np.ndarray, epoch: int) -> None:
    """Merge a chain table of `rows`' assignments. A node still assigned at
    its depth keeps its first epoch; a new one enters with `epoch`, so a
    node dropped and later reassigned re-enters with the later epoch. Every
    entry also goes on the log's record."""
    first, entering = log.first[rows], assigned != log.node[rows]
    np.copyto(first, epoch, where=entering)
    np.copyto(first, -1, where=assigned < 0)
    at, cols = np.nonzero(entering & (assigned >= 0))
    log.entered.append((rows[at] * len(log.depths) + assigned[at, cols], np.full(len(at), epoch, log.first.dtype)))
    log.node[rows], log.first[rows] = assigned, first


@dataclass
class AgeGateState:
    """Per-node cutoff epochs plus the detector hyperparameters."""

    bin_width: int = 1
    drop_threshold: float = 0.01
    cutoffs: dict[int, float] = field(default_factory=dict)

    def vector(self, n_nodes: int) -> np.ndarray:
        """Cutoff per node id, infinity where none is set. The cutoffs' nodes
        are non-root nodes of an n_nodes tree."""
        out = np.full(n_nodes, math.inf)
        out[list(self.cutoffs)] = list(self.cutoffs.values())
        return out

    def state_dict(self) -> dict:
        return asdict(self)

    def load_state_dict(self, state: dict) -> None:
        """Copy a gate state that load_checkpoint has checked."""
        self.bin_width, self.drop_threshold = int(state["bin_width"]), float(state["drop_threshold"])
        self.cutoffs = {int(c): float(t) for c, t in state["cutoffs"].items()}


def update_cutoffs(state: AgeGateState, log: SplLog, current_epoch: int) -> bool:
    """End-of-epoch cutoff detection for every logged node at once; a cutoff
    can only ever decrease. True when some cutoff changed.

    A node's first-assignment epochs are counted in width-w bins anchored at
    zero over [0, current_epoch]. Its cutoff is the left edge of the first bin
    below drop_threshold times the largest count before it. Nodes given their
    first cutoff go after the others, in ascending id. The (nodes x bins)
    count table is built in chunks of nodes no larger than the log's node table.
    """
    logged = log.node >= 0
    epochs = log.first[logged].astype(np.int64)
    outside = (epochs < 0) | (epochs > current_epoch)
    if outside.any():
        raise ValueError(f"assignment epoch {epochs[outside][0]} outside [0, {current_epoch}]")
    nodes, rank = np.unique(log.node[logged], return_inverse=True)
    n_bins = current_epoch // state.bin_width + 1
    keys = np.sort(rank * n_bins + epochs // state.bin_width)
    chunk = max(1, log.node.size // n_bins)
    cutoffs = np.full(len(nodes), math.inf)
    for lo in range(0, len(nodes), chunk):
        rows = min(chunk, len(nodes) - lo)
        a, b = np.searchsorted(keys, [lo * n_bins, (lo + rows) * n_bins])
        counts = np.bincount(keys[a:b] - lo * n_bins, minlength=rows * n_bins).reshape(rows, n_bins)
        below = counts[:, 1:] < state.drop_threshold * np.maximum.accumulate(counts, axis=1)[:, :-1]
        cutoffs[lo : lo + rows] = np.where(below, np.arange(1, n_bins) * state.bin_width, math.inf).min(axis=1, initial=math.inf)
    found = np.isfinite(cutoffs)
    tighter = {c: t for c, t in zip(nodes[found].tolist(), cutoffs[found].tolist()) if t < state.cutoffs.get(c, math.inf)}
    state.cutoffs.update(tighter)  # a tightened node keeps its place
    return bool(tighter)


def apply_gating(assigned: np.ndarray, first: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """The chain table `assigned` with -1 where the logged first epoch is
    strictly past the node's cutoff; `first` holds the log rows of its rows."""
    return np.where(first > cutoffs[assigned], -1, assigned)


def log_summary(log: SplLog, cutoffs: np.ndarray, ground_truths: np.ndarray, hierarchy: Hierarchy) -> tuple:
    """(entries of `log`, entries gating under `cutoffs` keeps, purity, mean
    depth): the last two by spl_purity_and_depth over the gated rows whose
    ground truth, one per log row and NO_LABEL where unknown, is an internal
    node, and None when none of those rows keeps an entry."""
    gated = apply_gating(log.node, log.first, cutoffs)
    known = ground_truths != NO_LABEL
    ood = known & ~hierarchy.is_leaf(np.where(known, ground_truths, 0))
    purity, depth = spl_purity_and_depth(gated[ood], ground_truths[ood], hierarchy) or (None, None)
    return np.count_nonzero(log.node >= 0), np.count_nonzero(gated >= 0), purity, depth
