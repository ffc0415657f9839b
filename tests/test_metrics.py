import math

import numpy as np
import pytest

from semihoc.metrics import (
    bmhd,
    confidence_accuracy_bins,
    decomposition_matrix,
    gate_fpr_coverage,
    spl_purity_and_depth,
)
from semihoc.spl import AgeGateState

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)


def masks(*chains):
    """Assignment mask over the animal tree, one row per node tuple."""
    out = np.zeros((len(chains), 7), dtype=bool)
    for i, chain in enumerate(chains):
        out[i, list(chain)] = True
    return out


def gate_report(records, gate):
    """gate_fpr_coverage over (node, epoch, correct) records."""
    nodes, epochs, correct = (np.array(column) for column in zip(*records))
    return gate_fpr_coverage(nodes, epochs, ~correct, gate.vector(7))


def micro_mean_distance(preds, gts, tree):
    return float(np.mean([tree.tree_distance(p, g) for p, g in zip(preds, gts)]))


class TestBmhd:
    def test_perfect_predictions(self, animals):
        preds = [CAT, DOG, MAMMAL, BIRD]
        report = bmhd(preds, preds, animals)
        assert report.id == 0.0 and report.ood == 0.0 and report.mix == 0.0

    def test_parent_predictions_give_one(self, animals):
        report = bmhd([BIRD, BIRD], [JUNCO, MAMMAL], animals)
        # Junco (ID) predicted at parent: distance 1; Mammal (OOD) predicted
        # at sibling: distance 2
        assert report.id == 1.0
        assert report.ood == 2.0
        assert report.mix == 1.5

    def test_macro_not_micro(self, animals):
        # class Cat: one sample at distance 1; class Junco: nine at distance 3
        preds = [MAMMAL] + [MAMMAL] * 9
        gts = [CAT] + [JUNCO] * 9
        report = bmhd(preds, gts, animals)
        assert report.id == 2.0  # (1 + 3) / 2, class-balanced
        assert micro_mean_distance(preds, gts, animals) == pytest.approx(2.8)

    def test_missing_component_makes_mix_undefined(self, animals):
        report = bmhd([CAT], [CAT], animals)
        assert report.ood is None
        with pytest.raises(ValueError):
            _ = report.mix

    def test_matches_bruteforce_grouping(self, animals):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 7, 50)
        gts = rng.integers(0, 7, 50)
        report = bmhd(preds, gts, animals)
        groups = {}
        for p, g in zip(preds, gts):
            groups.setdefault(int(g), []).append(animals.tree_distance(int(p), int(g)))
        id_means = [np.mean(v) for c, v in groups.items() if animals.is_leaf(c)]
        ood_means = [np.mean(v) for c, v in groups.items() if not animals.is_leaf(c)]
        assert report.id == pytest.approx(np.mean(id_means))
        assert report.ood == pytest.approx(np.mean(ood_means))


class TestDecomposition:
    def test_exact_prediction_in_origin_cell(self, animals):
        m = decomposition_matrix([CAT], [CAT], animals, "id")
        assert m[0, 0] == 100.0

    def test_parent_prediction(self, animals):
        # prediction = parent of gt: LCA is the prediction
        m = decomposition_matrix([MAMMAL], [CAT], animals, "ood")
        assert m[1, 0] == 100.0

    def test_child_prediction(self, animals):
        m = decomposition_matrix([CAT], [MAMMAL], animals, "id")
        assert m[0, 1] == 100.0

    def test_percentages_sum_to_100(self, animals):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 7, 40)
        gts = rng.integers(0, 7, 40)
        for subset in ("id", "ood"):
            m = decomposition_matrix(preds, gts, animals, subset)
            if m.size:
                assert abs(m.sum() - 100.0) < 1e-9

    def test_empty_subset(self, animals):
        m = decomposition_matrix([CAT], [CAT], animals, "ood")
        assert m.size == 0

    def test_origin_cell_is_exact_accuracy(self, animals):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 7, 60)
        gts = rng.integers(0, 7, 60)
        m = decomposition_matrix(preds, gts, animals, "id")
        id_rows = [i for i in range(60) if animals.is_leaf(int(preds[i]))]
        exact = np.mean([preds[i] == gts[i] for i in id_rows])
        assert m[0, 0] == pytest.approx(100.0 * exact)


class TestDeepestNode:
    def test_deepest_is_max_by_depth_then_id(self, animals):
        # two depth-2 nodes on different branches: the larger id wins
        assert spl_purity_and_depth(masks((MAMMAL, CAT, JUNCO)), [JUNCO], animals) == (1.0, 2.0)
        assert spl_purity_and_depth(masks((BIRD, CAT)), [CAT], animals) == (1.0, 2.0)


class TestPurityAndDepth:
    def test_pure_at_internal(self, animals):
        out = spl_purity_and_depth(masks((MAMMAL,)), [MAMMAL], animals)
        assert out == (1.0, 1.0)

    def test_wrong_branch_impure(self, animals):
        out = spl_purity_and_depth(masks((BIRD,)), [MAMMAL], animals)
        assert out[0] == 0.0

    def test_overprediction_impure_at_depth_two(self, animals):
        out = spl_purity_and_depth(masks((MAMMAL, CAT)), [MAMMAL], animals)
        assert out == (0.0, 2.0)

    def test_empty_chains_excluded(self, animals):
        out = spl_purity_and_depth(masks((), (MAMMAL,)), [MAMMAL, MAMMAL], animals)
        assert out == (1.0, 1.0)

    def test_no_assigned_samples(self, animals):
        assert spl_purity_and_depth(masks(()), [MAMMAL], animals) is None


class TestGateFprCoverage:
    def test_gate_passes_everything(self):
        gate = AgeGateState(1, 0.2)
        records = [(1, 3, True), (1, 5, False), (2, 7, False)]
        out = gate_report(records, gate)
        assert out.coverage == 1.0 and out.fpr == 1.0 and out.fpr_defined

    def test_gate_blocks_everything(self):
        gate = AgeGateState(1, 0.2, cutoffs={1: -1.0, 2: -1.0})
        records = [(1, 3, True), (1, 5, False), (2, 7, False)]
        out = gate_report(records, gate)
        assert out.coverage == 0.0 and out.fpr == 0.0

    def test_counting(self):
        gate = AgeGateState(1, 0.2, cutoffs={1: 5.0})
        records = [(1, e, e != 6) for e in range(1, 9)] + [(2, 1, False), (2, 1, True)]
        # node 1: epochs 1..8, cutoff 5 -> 5 pass; node 2: both pass
        out = gate_report(records, gate)
        assert out.coverage == 7 / 10
        # incorrect: (1, 6) blocked, (2, 1) passes -> fpr 1/2
        assert out.fpr == 0.5

    def test_no_incorrect_flagged(self):
        gate = AgeGateState(1, 0.2)
        out = gate_report([(1, 3, True)], gate)
        assert out.fpr == 0.0 and not out.fpr_defined


class TestGateUnknownCorrectness:
    def test_unknown_counts_toward_coverage_only(self):
        gate = AgeGateState(1, 0.2, cutoffs={1: 3.0})
        out = gate_fpr_coverage([1, 1, 2], [3, 5, 7], [False, False, False], gate.vector(3))
        assert out.n_assignments == 3 and out.n_incorrect == 0 and not out.fpr_defined
        assert out.coverage == 2 / 3 and out.fpr == 0.0


class TestConfidenceBins:
    def test_all_correct_high_confidence(self):
        table = confidence_accuracy_bins([0.99] * 8, [True] * 8, n_bins=10)
        assert table.accuracy[-1] == 1.0
        assert table.counts[-1] == 8 and table.counts[:-1].sum() == 0

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(3)
        table = confidence_accuracy_bins(rng.random(100), rng.random(100) > 0.5, n_bins=7)
        assert math.isclose(table.frequency.sum(), 1.0)

    def test_confidence_one_lands_in_top_bin(self):
        table = confidence_accuracy_bins([1.0], [True], n_bins=4)
        assert table.counts[-1] == 1

    def test_empty_bins_are_nan(self):
        table = confidence_accuracy_bins([0.05], [False], n_bins=4)
        assert np.isnan(table.accuracy[2])

    def test_subtree_conf_at_least_node_conf(self, animals):
        # superset sum: argmax node's subtree confidence >= its own mass
        from semihoc.prohoc import fuse_batch, predict_nodes, subtree_confidences

        rng = np.random.default_rng(4)
        for _ in range(20):
            d1 = rng.random(2) + 1e-9
            d2 = rng.random(4) + 1e-9
            probs = fuse_batch([d1 / d1.sum(), d2 / d2.sum()], animals)[0]
            node = predict_nodes(probs[None])[0]
            conf = subtree_confidences(probs, animals)
            assert conf[node] >= probs[node]


class TestAgainstOracles:
    """The array forms of bmhd and the decomposition, recomputed per sample
    with the brute-force tree oracles."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trees(self, seed):
        from semihoc.hierarchy import random_tree
        from semihoc.oracles import ancestor_set_lca, bfs_distance

        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(5, 60)))
        preds = rng.integers(0, tree.n_nodes, 80)
        gts = rng.integers(0, tree.n_nodes, 80)
        groups = {}
        for p, g in zip(preds, gts):
            groups.setdefault(int(g), []).append(bfs_distance(tree, int(p), int(g)))
        id_means = [np.mean(v) for c, v in sorted(groups.items()) if not tree.children[c]]
        ood_means = [np.mean(v) for c, v in sorted(groups.items()) if tree.children[c]]
        report = bmhd(preds, gts, tree)
        assert report.id == (float(np.mean(id_means)) if id_means else None)
        assert report.ood == (float(np.mean(ood_means)) if ood_means else None)

        for subset in ("id", "ood"):
            rows = [i for i in range(80) if (not tree.children[int(preds[i])]) == (subset == "id")]
            expected = np.zeros((tree.max_depth + 1, tree.max_depth + 1))
            for i in rows:
                anc = ancestor_set_lca(tree, int(preds[i]), int(gts[i]))
                expected[bfs_distance(tree, anc, int(gts[i])), bfs_distance(tree, anc, int(preds[i]))] += 1
            got = decomposition_matrix(preds, gts, tree, subset)
            assert np.array_equal(got, expected * (100.0 / len(rows)) if rows else np.zeros((0, 0)))
