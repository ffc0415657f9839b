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
`Hierarchy.groups`, the internal nodes split by depth and child count, so each
branch block is a dense (n, g, k) array with no padding and the memory order
of a per-node (n, k) gather: numpy adds a node's k children in the same order
as a per-node loop would, and the results are the same bit for bit.

The rest of the system depends only on the resulting distribution over all
nodes, so this fusion is a pluggable seam: any other rule that maps depth
outputs to a normalized node distribution could be swapped in.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import Hierarchy

STOP_EPS = 1e-4


def fuse_batch(depth_outputs: list[np.ndarray], hierarchy: Hierarchy, eps: float = STOP_EPS) -> np.ndarray:
    """Hierarchical node distributions for a batch, one row per sample.

    depth_outputs[d-1] holds the depth-d probabilities over depth space d,
    shaped (n, |space_d|); each row must sum to one.
    """
    if len(depth_outputs) != hierarchy.max_depth:
        raise ValueError(
            f"expected {hierarchy.max_depth} depth outputs, got {len(depth_outputs)}"
        )
    outputs = []
    for d, out in enumerate(depth_outputs, start=1):
        out = np.asarray(out, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        if out.shape[1] != len(hierarchy.depth_space(d)):
            raise ValueError(
                f"depth {d} output has {out.shape[1]} classes, space has "
                f"{len(hierarchy.depth_space(d))}"
            )
        outputs.append(out)
    n = outputs[0].shape[0]
    if any(out.shape[0] != n for out in outputs):
        raise ValueError("depth outputs disagree on the batch size")

    # a node's slot holds its incoming mass until its own group applies its stop
    probs = np.zeros((n, hierarchy.n_nodes))
    probs[:, 0] = 1.0
    for d, parents, kids, cols in hierarchy.groups:
        k = kids.shape[1]
        branch = outputs[d - 1][:, cols]  # a fresh block, updated in place below
        total = branch.sum(axis=2, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            branch /= total
        np.copyto(branch, 1.0 / k, where=total <= 0.0)

        if k == 1:
            stop = eps
        else:
            plogp = np.log(branch, out=np.zeros_like(branch), where=branch > 0.0)
            plogp *= branch
            stop = np.clip(-plogp.sum(axis=2) / np.log(k), eps, 1.0 - eps)
            del plogp  # freed before the next group's blocks are allocated

        mass = probs[:, parents]
        probs[:, parents] = mass * stop
        branch *= (mass * (1.0 - stop))[:, :, None]
        probs[:, kids] = branch
    return probs


def predict_nodes(probs: np.ndarray) -> np.ndarray:
    """Row-wise argmax over a batch of node distributions; exact ties go to
    the smallest node id."""
    return np.argmax(probs, axis=1)


def subtree_confidences(probs: np.ndarray, hierarchy: Hierarchy) -> np.ndarray:
    """Per-node subtree probability sums, accumulated bottom-up.

    Accumulating child sums into the parent keeps the telescoping exact in
    floating point: a parent's value can never fall below any child's.
    """
    single = probs.ndim == 1
    conf = np.atleast_2d(np.asarray(probs, dtype=np.float64)).copy()
    for _, parents, kids, _ in reversed(hierarchy.groups):
        # one child rank at a time, highest id first, with no (n, g, k) temporary
        acc = conf[:, parents]
        for j in range(kids.shape[1] - 1, -1, -1):
            acc += conf[:, kids[:, j]]
        conf[:, parents] = acc
    return conf[0] if single else conf


def format_prediction_line(
    hierarchy: Hierarchy, sample_id: int, probs: np.ndarray, subtree_conf: np.ndarray
) -> str:
    """One prediction-dump row: id, argmax node, its probability, and the
    subtree-confidence chain along the root-to-argmax path."""
    node = int(np.argmax(probs))
    path = hierarchy.ancestors[node, : hierarchy.depths[node] + 1]
    chain = ",".join(f"{c}:{float(subtree_conf[c])!r}" for c in path)
    return f"{sample_id}\t{node}\t{float(probs[node])!r}\t{chain}"
