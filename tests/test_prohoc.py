import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc.hierarchy import random_tree
from semihoc.prohoc import STOP_EPS, fuse_batch, predict_nodes, subtree_confidences

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)
EPS = STOP_EPS


@st.composite
def tree_with_outputs(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(4, 50))
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n)
    outputs = []
    for d in range(1, tree.max_depth + 1):
        raw = rng.random((3, len(tree.depth_space(d)))) + 1e-9
        outputs.append(raw / raw.sum(axis=1, keepdims=True))
    return tree, outputs


class TestFuse:
    def test_uniform_outputs_stop_at_root(self, animals):
        p = fuse_batch([np.full(2, 0.5), np.full(4, 0.25)], animals)[0]
        assert np.isclose(p[ROOT], 1 - EPS)
        # symmetry groups: both internals equal, all four leaves equal
        assert np.isclose(p[MAMMAL], EPS * 0.5 * (1 - EPS))
        assert p[MAMMAL] == p[BIRD]
        assert np.isclose(p[CAT], 0.25 * EPS * EPS)
        assert p[CAT] == p[DOG] == p[EAGLE] == p[JUNCO]
        assert predict_nodes(p[None])[0] == ROOT

    def test_one_hot_path_concentrates_on_leaf(self, animals):
        p = fuse_batch([np.array([0.0, 1.0]), np.array([0.0, 0.0, 0.0, 1.0])], animals)[0]
        assert p[JUNCO] >= 1 - 3 * EPS
        assert p.sum() - p[JUNCO] <= 3 * EPS
        assert predict_nodes(p[None])[0] == JUNCO

    def test_always_normalized(self, animals):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d1 = rng.random(2) + 1e-9
            d2 = rng.random(4) + 1e-9
            p = fuse_batch([d1 / d1.sum(), d2 / d2.sum()], animals)[0]
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_misshapen_input_rejected(self, animals):
        import pytest

        with pytest.raises(ValueError):
            fuse_batch([np.full(3, 1 / 3), np.full(4, 0.25)], animals)
        with pytest.raises(ValueError):
            fuse_batch([np.full(2, 0.5)], animals)

    def test_single_child_stop_is_eps(self):
        from semihoc.hierarchy import Hierarchy

        # chain r -> a -> b with one ID leaf
        tree = Hierarchy([-1, 0, 1], ["r", "a", "b"], id_leaves=[2])
        p = fuse_batch([np.array([1.0]), np.array([1.0])], tree)[0]
        assert np.isclose(p[0], EPS)
        assert np.isclose(p[1], (1 - EPS) * EPS)
        assert np.isclose(p[2], (1 - EPS) * (1 - EPS))

    @given(tree_with_outputs())
    @settings(max_examples=60, deadline=None)
    def test_normalization_and_monotonicity(self, case):
        tree, outputs = case
        probs = fuse_batch(outputs, tree)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert probs.min() >= 0.0
        conf = subtree_confidences(probs, tree)
        for c in range(1, tree.n_nodes):
            assert np.all(conf[:, c] <= conf[:, int(tree.parents[c])])

    def test_consistent_one_hot_chain_predicts_leaf(self, animals):
        # all depth outputs one-hot along Cat's ancestor path
        d1 = np.array([1.0, 0.0])
        d2 = np.array([1.0, 0.0, 0.0, 0.0])
        assert predict_nodes(fuse_batch([d1, d2], animals))[0] == CAT

    def test_batch_matches_single(self, animals):
        rng = np.random.default_rng(1)
        d1 = rng.random((4, 2)) + 1e-9
        d1 /= d1.sum(axis=1, keepdims=True)
        d2 = rng.random((4, 4)) + 1e-9
        d2 /= d2.sum(axis=1, keepdims=True)
        batch = fuse_batch([d1, d2], animals)
        for i in range(4):
            single = fuse_batch([d1[i], d2[i]], animals)[0]
            assert np.array_equal(batch[i], single)


class TestPredictNode:
    def test_concentrated(self, animals):
        p = np.zeros(7)
        p[JUNCO] = 1.0
        assert predict_nodes(p[None])[0] == JUNCO

    def test_tie_breaks_to_smaller_id(self):
        p = np.array([0.1, 0.4, 0.4, 0.1, 0.0])
        assert predict_nodes(p[None])[0] == 1


class TestSubtreeConfidences:
    def test_exact_sums(self, animals):
        p = np.array([0.1, 0.2, 0.05, 0.25, 0.1, 0.2, 0.1])
        conf = subtree_confidences(p, animals)
        assert np.isclose(conf[MAMMAL], 0.2 + 0.25 + 0.1)
        assert np.isclose(conf[BIRD], 0.05 + 0.2 + 0.1)
        assert np.isclose(conf[ROOT], p.sum())
        assert conf[CAT] == p[CAT]
