"""Fuse depth-specific class probabilities into one hierarchical distribution.

Every internal node gets a local branch distribution over its children, read
off the depth network one level below and renormalized, plus a stop
probability: the normalized entropy of that branch distribution, clamped
away from 0 and 1. A node's probability is its stop probability times the
product of (continue x branch) factors along the path from the root, so the
whole-tree distribution telescopes to exactly one. High child entropy means
the depth networks cannot commit below a node, which is precisely when
stopping there (predicting out-of-distribution at that node) should be
likely.

Fusion (shallowest first) and subtree sums (deepest first) walk
`Hierarchy.groups`, the internal nodes split by depth and child count, on
node-major (n_nodes, n) arrays, so a group's parents and children are
contiguous rows of samples; both functions return the transposed (n, n_nodes)
view. A group's gather `outputs[:, cols]` is laid out (g, k, n) in memory and
is used as such through `np.moveaxis`, so a sum over a node's k children adds
whole sample rows one child after another, in the order of a per-node loop:
the results are the same bit for bit.

The rest of the system depends only on the resulting distribution over all
nodes, so this fusion is a pluggable seam: any other rule that maps depth
outputs to a normalized node distribution could be swapped in.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import Hierarchy, sorted_unique

STOP_EPS = 1e-4


def fuse_batch(depth_outputs: list[np.ndarray], hierarchy: Hierarchy) -> np.ndarray:
    """Hierarchical node distributions for a batch, one row per sample.

    depth_outputs[d-1] holds the depth-d probabilities over depth space d,
    shaped (n, |space_d|); each row must sum to one.
    """
    if len(depth_outputs) != hierarchy.max_depth:
        raise ValueError(f"expected {hierarchy.max_depth} depth outputs, got {len(depth_outputs)}")
    outputs = [np.asarray(out, dtype=np.float64) for out in depth_outputs]
    for d, out in enumerate(outputs, start=1):
        if out.shape[1] != hierarchy.classes[d - 1]:
            raise ValueError(f"depth {d} output has {out.shape[1]} classes, space has {hierarchy.classes[d - 1]}")
    n = outputs[0].shape[0]
    if any(out.shape[0] != n for out in outputs):
        raise ValueError("depth outputs disagree on the batch size")

    # a node's row holds its incoming mass until its own group applies its stop
    probs = np.zeros((hierarchy.n_nodes, n))
    probs[0] = 1.0
    for d, parents, kids, cols in hierarchy.groups:
        k = kids.shape[1]
        branch = np.moveaxis(outputs[d - 1][:, cols], 0, -1)  # a fresh (g, k, n) block, updated in place
        total = branch.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            branch /= total
        np.copyto(branch, 1.0 / k, where=total <= 0.0)

        if k == 1:
            stop = STOP_EPS
        else:
            plogp = np.where(branch > 0.0, branch, 1.0)  # log(1) = 0 where the branch is 0 or NaN
            np.log(plogp, out=plogp)
            plogp *= branch
            stop = np.clip(-plogp.sum(axis=1) / np.log(k), STOP_EPS, 1.0 - STOP_EPS)
            del plogp  # freed before the next group's blocks are allocated

        mass = probs[parents]
        probs[parents] = mass * stop
        mass *= 1.0 - stop
        branch *= mass[:, None, :]
        probs[kids] = branch
    return probs.T


def subtree_confidences(probs: np.ndarray, hierarchy: Hierarchy) -> np.ndarray:
    """Per-node subtree probability sums, accumulated bottom-up.

    Accumulating child sums into the parent keeps the telescoping exact in
    floating point: a parent's value can never fall below any child's.
    """
    conf = np.array(probs.T, dtype=np.float64, order="C")
    for _, parents, kids, _ in reversed(hierarchy.groups):
        # one child rank at a time, highest id first, with no (g, k, n) temporary
        acc = conf[parents]
        for j in range(kids.shape[1] - 1, -1, -1):
            acc += conf[kids[:, j]]
        conf[parents] = acc
    return conf.T


def format_prediction_block(
    hierarchy: Hierarchy, sample_ids: np.ndarray, preds: np.ndarray, node_conf: np.ndarray, subtree_conf: np.ndarray
) -> str:
    """Prediction-dump lines of a block, each ending in a newline: id, the
    predicted node, its probability `node_conf`, and the chain of
    `subtree_conf` (one row per sample, one column per node) along the
    root-to-node path. Rows are formatted in groups of one node depth, so each
    group's chain has one length; floats go out through `repr`."""
    paths = hierarchy.ancestors[preds]
    chains = np.take_along_axis(subtree_conf, paths, axis=1)
    depths = hierarchy.depths[preds]
    lines = [""] * len(preds)
    for depth in sorted_unique(depths).tolist():
        rows = np.flatnonzero(depths == depth)
        fmt = "{}\t{}\t{!r}\t" + ",".join(["{}:{!r}"] * (depth + 1)) + "\n"
        cols = [sample_ids[rows], preds[rows], node_conf[rows]]
        cols += [a[rows, j] for j in range(depth + 1) for a in (paths, chains)]
        for r, values in zip(rows.tolist(), zip(*(c.tolist() for c in cols))):
            lines[r] = fmt.format(*values)
    return "".join(lines)
