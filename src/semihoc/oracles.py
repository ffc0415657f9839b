"""Independent brute-force oracles and the randomized check runners.

Each oracle re-derives a result through a different route than the library
code it checks: shortest paths by breadth-first search instead of ancestor
climbing, lowest common ancestors by ancestor-set intersection, each node's
cutoff from a histogram of its own epochs with a prefix-maximum scan instead
of one count table over all nodes, and gradients by central finite
differences. The runners below drive the oracles on seeded random
instances; `fault` wires in a deliberate corruption so the check itself can
be shown to catch regressions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import heads as heads_mod
from .hierarchy import Hierarchy, random_tree
from .prohoc import fuse_batch, subtree_confidences
from .rng import named_rng
from .spl import AgeGateState, SplLog, update_cutoffs


def tree_adjacency(hierarchy: Hierarchy) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(hierarchy.n_nodes)]
    for c in range(1, hierarchy.n_nodes):
        p = int(hierarchy.parents[c])
        adjacency[c].append(p)
        adjacency[p].append(c)
    return adjacency


def bfs_distance(hierarchy: Hierarchy, a: int, b: int, adjacency: list[list[int]] | None = None) -> int:
    """Edge count of the a-b path via BFS over the undirected tree."""
    if a == b:
        return 0
    if adjacency is None:
        adjacency = tree_adjacency(hierarchy)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                if nxt == b:
                    return dist[nxt]
                queue.append(nxt)
    raise AssertionError("tree is connected; unreachable")


def ancestor_set_lca(hierarchy: Hierarchy, a: int, b: int) -> int:
    """Deepest member of the intersection of the two ancestor-or-self sets."""
    anc_a = set(hierarchy.ancestors_or_self(a))
    common = [c for c in hierarchy.ancestors_or_self(b) if c in anc_a]
    return max(common, key=lambda c: int(hierarchy.depths[c]))


def histogram_scan_cutoff(epochs, current_epoch: int, bin_width: int, drop_threshold: float) -> float:
    """Cutoff via an explicit numpy histogram and prefix-maximum scan."""
    n_bins = current_epoch // bin_width + 1
    if len(epochs) == 0:
        counts = np.zeros(n_bins, dtype=np.int64)
    else:
        counts = np.bincount(np.asarray(epochs, dtype=np.int64) // bin_width, minlength=n_bins)
    prefix_max = np.maximum.accumulate(counts)
    below = np.nonzero(counts[1:] < drop_threshold * prefix_max[:-1])[0]
    if len(below) == 0:
        return math.inf
    return float((below[0] + 1) * bin_width)


def finite_difference_grads(head, x, targets, masks=None, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the summed cross-entropy loss, a flat
    vector in the layout backward gives (parameters w0, b0, w1, ...)."""

    def loss_only() -> float:
        value, _ = heads_mod.ce_loss_and_grad(head, x, targets, masks=masks)
        return value

    params = [p for pair in zip(head[0], head[1]) for p in pair]
    grad = np.zeros(sum(p.size for p in params), head[0][0].dtype)
    for param, gview in zip(params, heads_mod.flat_views(grad, [p.shape for p in params])):
        flat, gflat = param.reshape(-1), gview.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_only()
            flat[i] = original - step
            down = loss_only()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * step)
    return grad


def gradient_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Normalized L2 distance between two flat whole-gradient vectors."""
    denom = max(float(np.linalg.norm(analytic) + np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


# -- randomized check runners -----------------------------------------------------


@dataclass
class OracleResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_tree_algebra(cases: int, seed: int, fault: bool = False) -> OracleResult:
    """lca and tree_distance vs ancestor-set and BFS oracles on random trees."""
    rng = named_rng(seed, "oracle-tree")
    failures = 0
    detail = ""
    pairs_per_tree = 8
    for _ in range(cases):
        tree = random_tree(rng, int(rng.integers(3, 201)))
        adjacency = tree_adjacency(tree)
        for _ in range(pairs_per_tree):
            a, b = int(rng.integers(tree.n_nodes)), int(rng.integers(tree.n_nodes))
            got_lca = tree.lca(a, b)
            got_dist = tree.tree_distance(a, b)
            if fault:
                got_dist += 1
                got_lca = int(tree.parents[got_lca]) if got_lca != 0 else got_lca + 1
            if got_lca != ancestor_set_lca(tree, a, b) or got_dist != bfs_distance(tree, a, b, adjacency):
                failures += 1
                if not detail:
                    detail = f"first mismatch: nodes ({a},{b}) on a {tree.n_nodes}-node tree"
    return OracleResult("tree-algebra", cases * pairs_per_tree, failures, detail)


def check_fusion(cases: int, seed: int, fault: bool = False) -> OracleResult:
    """Normalization and path monotonicity of fused distributions."""
    rng = named_rng(seed, "oracle-fusion")
    failures = 0
    detail = ""
    for _ in range(cases):
        tree = random_tree(rng, int(rng.integers(4, 60)))
        outputs = []
        for d in range(1, tree.max_depth + 1):
            raw = rng.random((1, tree.classes[d - 1])) + 1e-9
            outputs.append(raw / raw.sum(axis=1, keepdims=True))
        probs = fuse_batch(outputs, tree)[0]
        if fault:
            probs = probs * 1.001
        conf = subtree_confidences(probs[None], tree)[0]
        total, low = float(probs.sum()), float(probs.min())
        rising = np.flatnonzero(conf[1:] > conf[tree.parents[1:]]) + 1
        problem = (not abs(total - 1.0) <= 1e-9 and f"sum {total} is not 1") or (not low >= 0.0 and f"mass {low} is negative")
        problem = problem or (len(rising) and f"node {rising[0]}'s subtree confidence exceeds its parent's")
        if problem:
            failures += 1
            if not detail:
                detail = f"{problem} on a {tree.n_nodes}-node tree"
    return OracleResult("fusion-normalization", cases, failures, detail)


def check_cutoff(cases: int, seed: int, fault: bool = False) -> OracleResult:
    """update_cutoffs on random logs and earlier cutoffs vs the histogram-and-scan
    oracle, node by node: a cutoff is kept where it tightens, in the earlier
    node's place or else after the earlier ones, in ascending id."""
    rng = named_rng(seed, "oracle-cutoff")
    failures = 0
    detail = ""
    for _ in range(cases):
        current, n_nodes = int(rng.integers(0, 60)), int(rng.integers(2, 8))
        nodes = rng.integers(0, n_nodes, int(rng.integers(0, 40)))  # 0 for no entry
        width = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.01, 0.95))
        log, logged = SplLog(np.arange(len(nodes)), np.ones(n_nodes, np.int64)), nodes > 0
        log.node[logged, 0], log.first[logged, 0] = nodes[logged], rng.integers(0, current + 1, logged.sum())
        earlier = {int(c): float(rng.integers(0, current + 2)) for c in rng.permutation(n_nodes) if c and rng.random() < 0.3}
        gate = AgeGateState(width, gamma, dict(earlier))
        changed = update_cutoffs(gate, log, current)
        if fault:
            gate.cutoffs = {c: t + width for c, t in gate.cutoffs.items()} or {1: 0.0}
        scanned = {c: histogram_scan_cutoff(log.first[log.node == c], current, width, gamma) for c in range(1, n_nodes)}
        want = earlier | {c: t for c, t in scanned.items() if t < earlier.get(c, math.inf)}
        if list(gate.cutoffs.items()) != list(want.items()) or changed != (want != earlier):
            failures += 1
            if not detail:
                epochs = log.first[:, 0].tolist()
                detail = f"nodes={nodes.tolist()} epochs={epochs} earlier={earlier} E={current} w={width} gamma={gamma:.3f}"
    return OracleResult("cutoff-detection", cases, failures, detail)


def check_gradients(cases: int, seed: int, fault: bool = False, tolerance: float = 1e-6) -> OracleResult:
    """Analytic vs central-difference gradients on random small heads."""
    rng = named_rng(seed, "oracle-grad")
    failures = 0
    detail = ""
    for case in range(cases):
        in_dim = int(rng.integers(3, 7))
        hidden = int(rng.integers(4, 10))
        classes = int(rng.integers(2, 5))
        params = [np.zeros(shape) for shape in heads_mod.param_shapes(in_dim, classes, hidden)]
        head = (params[0::2], params[1::2], 0.4)
        heads_mod.init_weights(head[0], rng)
        # random biases keep pre-activations off the exact ReLU kink, where
        # a central difference would straddle the nondifferentiable point
        for b in head[1]:
            b[...] = rng.normal(0.0, 0.3, b.shape)
        x = rng.normal(0.0, 1.0, (2, in_dim))
        raw = rng.random((2, classes)) + 1e-6
        targets = raw / raw.sum(axis=1, keepdims=True)

        train_mode = case % 2 == 1
        masks = heads_mod.sample_masks(head, 2, rng) if train_mode else None
        _, analytic = heads_mod.ce_loss_and_grad(head, x, targets, masks=masks)
        if fault:
            analytic = analytic + 1e-3
        numeric = finite_difference_grads(head, x, targets, masks=masks)
        err = gradient_relative_error(analytic, numeric)
        if not err <= tolerance:
            failures += 1
            if not detail:
                detail = f"relative error {err:.3e} ({'train' if train_mode else 'eval'} mode)"
    return OracleResult("gradient-check", cases, failures, detail)


ALL_CHECKS = {
    "tree": check_tree_algebra,
    "fusion": check_fusion,
    "cutoff": check_cutoff,
    "gradient": check_gradients,
}


def run_all(cases: int, seed: int, fault: str | None = None) -> list[OracleResult]:
    results = []
    for name, runner in ALL_CHECKS.items():
        results.append(runner(cases, seed, fault=(fault == name)))
    return results
