"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 7-9 rerun the reference synthetic benchmark (three seeds, several
minutes); set SEMIHOC_ACCEPT_FAST=1 to skip those during development.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import one_node_cutoff
from semihoc import heads as heads_mod
from semihoc import trainer as trainer_mod
from semihoc.benchmark import REFERENCE_SEEDS, ood_subtree_bins, run_arm, seed_mean
from semihoc.datagen import SyntheticConfig, generate, sample_labeled_subset
from semihoc.hierarchy import random_tree
from semihoc.oracles import (
    ancestor_set_lca,
    bfs_distance,
    finite_difference_grads,
    gradient_relative_error,
    histogram_scan_cutoff,
    tree_adjacency,
)
from semihoc.prohoc import fuse_batch, subtree_confidences
from semihoc.rng import named_rng
from semihoc.trainer import TrainConfig, run_training

FAST = os.environ.get("SEMIHOC_ACCEPT_FAST") == "1"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[ACCEPTANCE] criterion {number} ({name}): PASS")


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_tree_algebra_oracle():
    with criterion(1, "tree-algebra oracle, 1000 random trees"):
        rng = named_rng(101, "accept-tree")
        start = time.perf_counter()
        for _ in range(1000):
            tree = random_tree(rng, int(rng.integers(3, 201)))
            adjacency = tree_adjacency(tree)
            for _ in range(8):
                a = int(rng.integers(tree.n_nodes))
                b = int(rng.integers(tree.n_nodes))
                assert tree.lca(a, b) == ancestor_set_lca(tree, a, b)
                assert tree.tree_distance(a, b) == bfs_distance(tree, a, b, adjacency)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_2_fusion_normalization():
    with criterion(2, "fusion normalization and subtree monotonicity"):
        rng = named_rng(102, "accept-fusion")
        for _ in range(1000):
            tree = random_tree(rng, int(rng.integers(4, 60)))
            outputs = []
            for d in range(1, tree.max_depth + 1):
                raw = rng.random((1, len(tree.depth_space(d)))) + 1e-9
                outputs.append(raw / raw.sum(axis=1, keepdims=True))
            probs = fuse_batch(outputs, tree)[0]
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert probs.min() >= 0.0
            conf = subtree_confidences(probs[None], tree)[0]
            for c in range(1, tree.n_nodes):
                assert conf[c] <= conf[int(tree.parents[c])]


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_cutoff_oracle():
    with criterion(3, "cutoff-detection oracle, 10000 epoch lists"):
        assert one_node_cutoff([1, 1, 2, 2, 2, 3, 10], 10, 1, 0.2) == 4
        assert one_node_cutoff([5, 5, 5], 20, 1, 0.5) == 6
        rng = named_rng(103, "accept-cutoff")
        for _ in range(10_000):
            current = int(rng.integers(0, 60))
            epochs = rng.integers(0, current + 1, size=int(rng.integers(0, 40))).tolist()
            width = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.01, 0.95))
            assert one_node_cutoff(epochs, current, width, gamma) == histogram_scan_cutoff(
                epochs, current, width, gamma
            )


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_gradient_check():
    with criterion(4, "gradient check, 100 random heads, rel err <= 1e-6"):
        rng = named_rng(104, "accept-grad")
        start = time.perf_counter()
        for case in range(100):
            in_dim = int(rng.integers(3, 7))
            hidden = int(rng.integers(4, 10))
            classes = int(rng.integers(2, 5))
            params = [np.zeros(shape) for shape in heads_mod.param_shapes(in_dim, classes, hidden)]
            head = (params[0::2], params[1::2], 0.4)
            heads_mod.init_weights(head[0], rng)
            for b in head[1]:
                b[...] = rng.normal(0.0, 0.3, b.shape)
            x = rng.normal(0.0, 1.0, (2, in_dim))
            raw = rng.random((2, classes)) + 1e-6
            targets = raw / raw.sum(axis=1, keepdims=True)
            masks = heads_mod.sample_masks(head, 2, rng) if case % 2 else None
            _, analytic = heads_mod.ce_loss_and_grad(head, x, targets, masks=masks)
            numeric = finite_difference_grads(head, x, targets, masks=masks, step=1e-6)
            assert gradient_relative_error(analytic, numeric) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- criterion 5 -------------------------------------------------------------------


def _independent_relatives(parents, node):
    """Ancestors-or-self plus descendants, derived from the parent array."""
    ancestors = {node}
    c = node
    while parents[c] != -1:
        c = parents[c]
        ancestors.add(c)
    descendants = set()
    frontier = [node]
    while frontier:
        a = frontier.pop()
        for child in range(len(parents)):
            if parents[child] == a:
                descendants.add(child)
                frontier.append(child)
    return ancestors | descendants


def _independent_depths(parents):
    depths = {0: 0}
    changed = True
    while changed:
        changed = False
        for c in range(1, len(parents)):
            if c not in depths and parents[c] in depths:
                depths[c] = depths[parents[c]] + 1
                changed = True
    return depths


def test_criterion_5_target_distribution_properties():
    with criterion(5, "target distributions: sum, support, one-hot"):
        rng = named_rng(105, "accept-targets")
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(4, 60)))
            parents = [int(p) for p in tree.parents]
            depths = _independent_depths(parents)
            for c in range(tree.n_nodes):
                relatives = _independent_relatives(parents, c)
                for d in range(1, tree.max_depth + 1):
                    space = {
                        n for n in range(tree.n_nodes) if depths[n] == d
                    } | {n for n in tree.id_leaves if depths[n] < d}
                    support = relatives & space
                    t = tree.targets(d, c)
                    if not support:
                        assert not t.any()
                        continue
                    assert abs(t.sum() - 1.0) <= 1e-9
                    nonzero = {tree.depth_space(d)[j] for j in np.nonzero(t)[0]}
                    assert nonzero == support
                    assert (len(support) == 1) == (t.max() == 1.0)


# -- criterion 6 -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_training_setup():
    config = SyntheticConfig(
        branching=2, depth=3, feature_dim=8, train_per_leaf=8, test_per_leaf=4, seed=1
    )
    hierarchy, dataset = generate(config)
    return hierarchy, sample_labeled_subset(dataset, hierarchy, 3, seed=1)


def _cfg(**kw):
    base = dict(
        method="semihoc", epochs=4, labeled_batch_size=8, unlabeled_ratio=2,
        lr=0.05, dropout=0.3, hidden_dim=32, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_criterion_6_degeneracy_equivalences(small_training_setup, monkeypatch):
    with criterion(6, "exact degeneracy equivalences"):
        hierarchy, dataset = small_training_setup
        r_tau, _ = run_training(_cfg(tau=1.0), hierarchy, dataset)
        r_sup, _ = run_training(_cfg(method="supervised"), hierarchy, dataset)
        for a, b in zip(r_tau, r_sup):
            assert a.loss_labeled == b.loss_labeled
            assert all(u == 0.0 for u in a.loss_unlabeled)

        r_nogate, _ = run_training(_cfg(method="semihoc-no-gate"), hierarchy, dataset)
        monkeypatch.setattr(trainer_mod, "update_cutoffs", lambda *a: False)
        r_inf, _ = run_training(_cfg(), hierarchy, dataset)
        for a, b in zip(r_nogate, r_inf):
            assert a.loss_labeled == b.loss_labeled
            assert a.loss_unlabeled == b.loss_unlabeled
            assert a.spl_total == b.spl_total
            assert a.gated_count == b.gated_count == 0


# -- criteria 7-9: the reference benchmark ------------------------------------------


@pytest.fixture(scope="module")
def benchmark_results():
    if FAST:
        pytest.skip("SEMIHOC_ACCEPT_FAST=1 skips benchmark-scale criteria")
    results = {}
    timed = 0.0
    for method in ("semihoc", "supervised", "ssl-per-depth", "spl-oracle", "semihoc-no-gate"):
        arms = [run_arm(method, seed) for seed in REFERENCE_SEEDS]
        results[method] = arms
        if method != "semihoc-no-gate":
            timed += sum(a.wall_clock for a in arms)
    results["timed_wall_clock"] = timed
    return results


def per_seed(benchmark_results, attr, *methods):
    """The per-seed values behind seed means, so one collapsed seed shows in a failure."""
    return "; ".join(
        f"{m} per seed: {[round(getattr(a, attr), 3) for a in benchmark_results[m]]}" for m in methods
    )


def test_criterion_7_method_ordering(benchmark_results):
    with criterion(7, "benchmark ordering over 3-seed means"):
        mix = {m: seed_mean(benchmark_results[m], "bmhd_mix") for m in ("semihoc", "supervised", "spl-oracle")}
        ood = {m: seed_mean(benchmark_results[m], "bmhd_ood") for m in ("semihoc", "ssl-per-depth")}
        print(
            f"\n  mix: semihoc={mix['semihoc']:.3f} supervised={mix['supervised']:.3f} "
            f"oracle={mix['spl-oracle']:.3f}; ood: semihoc={ood['semihoc']:.3f} "
            f"per-depth={ood['ssl-per-depth']:.3f}"
        )
        assert mix["semihoc"] < mix["supervised"], per_seed(benchmark_results, "bmhd_mix", "semihoc", "supervised")
        assert ood["semihoc"] < ood["ssl-per-depth"], per_seed(benchmark_results, "bmhd_ood", "semihoc", "ssl-per-depth")
        assert mix["spl-oracle"] <= mix["semihoc"], per_seed(benchmark_results, "bmhd_mix", "spl-oracle", "semihoc")
        wall = benchmark_results["timed_wall_clock"]
        assert wall < 600.0, f"benchmark took {wall:.0f}s"


def test_criterion_8_age_gating_purity_and_depth(benchmark_results):
    with criterion(8, "age-gating keeps purity up and depth down"):
        gated = benchmark_results["semihoc"]
        ungated = benchmark_results["semihoc-no-gate"]
        purity_gated = seed_mean(gated, "final_purity")
        purity_ungated = seed_mean(ungated, "final_purity")
        depth_gated = seed_mean(gated, "final_avg_depth")
        depth_ungated = seed_mean(ungated, "final_avg_depth")
        print(
            f"\n  purity: gated={purity_gated:.3f} ungated={purity_ungated:.3f}; "
            f"avg depth: gated={depth_gated:.2f} ungated={depth_ungated:.2f}"
        )
        assert purity_gated >= purity_ungated
        assert depth_gated <= depth_ungated


def test_criterion_9_subtree_confidence_accuracy(benchmark_results):
    with criterion(9, "high subtree confidence implies high accuracy (OOD preds)"):
        hits = total = correct_all = n_all = 0
        for arm in benchmark_results["semihoc"]:
            table, overall = ood_subtree_bins(arm.trainer, n_bins=20)
            assert table is not None, "no test samples predicted as OOD"
            top = table.edges[:-1] >= 0.95
            hits += float((table.accuracy[top] * table.counts[top])[table.counts[top] > 0].sum())
            total += int(table.counts[top].sum())
            n = int(table.counts.sum())
            correct_all += overall * n
            n_all += n
        assert total > 0, "no OOD predictions above 0.95 subtree confidence"
        top_accuracy = hits / total
        overall_accuracy = correct_all / n_all
        print(f"\n  accuracy above 0.95: {top_accuracy:.3f} vs overall {overall_accuracy:.3f} (n={total})")
        assert top_accuracy >= overall_accuracy


# -- criterion 10 ------------------------------------------------------------------


def test_criterion_10_determinism_and_resume(small_training_setup, tmp_path):
    with criterion(10, "byte-identical reruns and exact resume"):
        hierarchy, dataset = small_training_setup
        cfg = _cfg(epochs=6, checkpoint_every=3)
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "a")
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "c", resume=tmp_path / "a" / "ckpt_epoch0003.bin")
        full = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
        resumed = (tmp_path / "c" / "metrics.csv").read_text().splitlines()
        assert resumed[1:] == full[4:]
