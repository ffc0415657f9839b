import numpy as np
import pytest

from semihoc.datagen import (
    NO_LABEL,
    SPLIT_LABELED,
    SPLIT_TEST,
    SPLIT_UNLABELED,
    FeatureFileError,
    SyntheticConfig,
    generate,
    load_features,
    sample_labeled_subset,
    save_features,
)
from semihoc.hierarchy import hierarchy_hash


@pytest.fixture(scope="module")
def reference():
    config = SyntheticConfig(
        branching=3, depth=4, feature_dim=16, train_per_leaf=6, test_per_leaf=3, ood_fraction=0.2, seed=0
    )
    return generate(config)


class TestGenerate:
    def test_leaf_counts(self, reference):
        hierarchy, _ = reference
        # 81 leaves before pruning, round(0.2 * 81) = 16 pruned (frozen seed:
        # the keep-one-leaf-per-parent repair did not trigger)
        assert len(hierarchy.id_leaves) == 65
        assert hierarchy.leaf_mask.sum() == 65
        assert hierarchy.max_depth == 4

    def test_ood_ground_truth_is_internal(self, reference):
        hierarchy, dataset = reference
        for i in dataset.indices(SPLIT_UNLABELED):
            assert not hierarchy.is_leaf(int(dataset.labels[i]))

    def test_labeled_ground_truth_is_id_leaf(self, reference):
        hierarchy, dataset = reference
        idx = dataset.indices(SPLIT_LABELED)
        assert len(idx) > 0
        for i in idx:
            assert int(dataset.labels[i]) in hierarchy.id_leaves

    def test_pruned_leaf_samples_relabeled_to_ancestor(self):
        config = SyntheticConfig(
            branching=2, depth=2, feature_dim=4, train_per_leaf=5, test_per_leaf=2, ood_fraction=0.26, seed=3
        )
        hierarchy, dataset = generate(config)
        # 4 leaves, one pruned: its samples carry a depth-1 internal node
        ood_labels = {int(dataset.labels[i]) for i in dataset.indices(SPLIT_UNLABELED)}
        assert len(ood_labels) == 1
        gt = ood_labels.pop()
        assert hierarchy.depths[gt] == 1 and not hierarchy.is_leaf(gt)

    def test_deterministic(self):
        config = SyntheticConfig(branching=2, depth=3, feature_dim=8, train_per_leaf=4, test_per_leaf=2, seed=9)
        h1, d1 = generate(config)
        h2, d2 = generate(config)
        assert h1.names == h2.names
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)
        assert np.array_equal(d1.splits, d2.splits)

    def test_sibling_geometry(self, reference):
        """Sibling-leaf samples are closer than cross-root-branch samples."""
        hierarchy, dataset = reference
        rng = np.random.default_rng(0)
        by_class = {}
        for i in dataset.indices(SPLIT_TEST):
            by_class.setdefault(int(dataset.labels[i]), []).append(dataset.features[i])
        leaves = [c for c in by_class if hierarchy.is_leaf(c)]

        def mean_dist(a, b):
            fa, fb = np.stack(by_class[a]), np.stack(by_class[b])
            return float(np.mean(np.linalg.norm(fa[:, None] - fb[None, :], axis=2)))

        sibling, distant = [], []
        for _ in range(60):
            a, b = rng.choice(leaves, 2, replace=False)
            d = hierarchy.tree_distance(int(a), int(b))
            if d == 2:
                sibling.append(mean_dist(a, b))
            elif hierarchy.lca(int(a), int(b)) == 0:
                distant.append(mean_dist(a, b))
        assert sibling and distant
        assert np.mean(sibling) < np.mean(distant)

    def test_root_ood_cluster(self):
        config = SyntheticConfig(
            branching=2, depth=2, feature_dim=4, train_per_leaf=4, test_per_leaf=2,
            ood_fraction=0.26, root_ood_per_split=5, seed=1,
        )
        hierarchy, dataset = generate(config)
        root_rows = np.nonzero(dataset.labels == 0)[0]
        assert len(root_rows) == 10
        splits = dataset.splits[root_rows]
        assert (splits == SPLIT_UNLABELED).sum() == 5 and (splits == SPLIT_TEST).sum() == 5

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SyntheticConfig(ood_fraction=0.0).validate()
        with pytest.raises(ValueError):
            SyntheticConfig(ood_fraction=1.0).validate()


class TestSampleLabeledSubset:
    def test_exact_count(self, reference):
        hierarchy, dataset = reference
        out = sample_labeled_subset(dataset, hierarchy, 4, seed=5)
        labels = out.labels[out.indices(SPLIT_LABELED)]
        for c in hierarchy.id_leaves:
            assert (labels == c).sum() == 4

    def test_n_larger_than_class_size_takes_all(self, reference):
        hierarchy, dataset = reference
        out = sample_labeled_subset(dataset, hierarchy, 1000, seed=5)
        # every ID-class train sample labeled again
        assert np.array_equal(out.splits, dataset.splits)

    def test_deterministic(self, reference):
        hierarchy, dataset = reference
        a = sample_labeled_subset(dataset, hierarchy, 3, seed=5)
        b = sample_labeled_subset(dataset, hierarchy, 3, seed=5)
        assert np.array_equal(a.splits, b.splits)

    def test_internal_ground_truth_never_labeled(self, reference):
        hierarchy, dataset = reference
        out = sample_labeled_subset(dataset, hierarchy, 1000, seed=5)
        for i in out.indices(SPLIT_LABELED):
            assert hierarchy.is_leaf(int(out.labels[i]))

    def test_test_split_untouched(self, reference):
        hierarchy, dataset = reference
        out = sample_labeled_subset(dataset, hierarchy, 2, seed=5)
        assert np.array_equal(out.mask(SPLIT_TEST), dataset.mask(SPLIT_TEST))


class TestFeatureFile:
    def test_roundtrip(self, reference, tmp_path):
        hierarchy, dataset = reference
        path = tmp_path / "f.bin"
        save_features(dataset, path)
        back = load_features(path, hierarchy)
        assert np.array_equal(back.features, dataset.features)
        assert np.array_equal(back.labels, dataset.labels)
        assert np.array_equal(back.sample_ids, dataset.sample_ids)
        assert np.array_equal(back.splits, dataset.splits)
        assert back.hierarchy_hash == dataset.hierarchy_hash

    def test_truncated_file(self, reference, tmp_path):
        _, dataset = reference
        path = tmp_path / "f.bin"
        save_features(dataset, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(FeatureFileError, match="truncated|trailing"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(FeatureFileError, match="magic"):
            load_features(path)

    def test_unknown_node_id(self, reference, tmp_path):
        hierarchy, dataset = reference
        bad = dataset.labels.copy()
        bad[0] = hierarchy.n_nodes + 7
        path = tmp_path / "f.bin"
        save_features(
            type(dataset)(dataset.features, bad, dataset.sample_ids, dataset.splits, dataset.hierarchy_hash),
            path,
        )
        with pytest.raises(FeatureFileError, match="record 1"):
            load_features(path, hierarchy)

    def test_duplicate_sample_id(self, reference, tmp_path):
        hierarchy, dataset = reference
        ids = dataset.sample_ids.copy()
        ids[1] = ids[0]
        path = tmp_path / "f.bin"
        save_features(
            type(dataset)(dataset.features, dataset.labels, ids, dataset.splits, dataset.hierarchy_hash),
            path,
        )
        with pytest.raises(FeatureFileError, match="duplicate"):
            load_features(path)

    def test_hash_mismatch_detected(self, reference, tmp_path):
        hierarchy, dataset = reference
        path = tmp_path / "f.bin"
        save_features(
            type(dataset)(dataset.features, dataset.labels, dataset.sample_ids, dataset.splits, 12345),
            path,
        )
        with pytest.raises(FeatureFileError, match="hash"):
            load_features(path, hierarchy)

    def test_no_label_sentinel_roundtrip(self, reference, tmp_path):
        hierarchy, dataset = reference
        labels = dataset.labels.copy()
        unl = dataset.indices(SPLIT_UNLABELED)
        labels[unl] = NO_LABEL
        path = tmp_path / "f.bin"
        save_features(
            type(dataset)(dataset.features, labels, dataset.sample_ids, dataset.splits, dataset.hierarchy_hash),
            path,
        )
        back = load_features(path, hierarchy)
        assert (back.labels[unl] == NO_LABEL).all()
