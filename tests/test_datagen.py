import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from semihoc import datagen
from semihoc.datagen import (
    NO_LABEL,
    SPLIT_LABELED,
    SPLIT_TEST,
    SPLIT_UNLABELED,
    FeatureFileError,
    SyntheticConfig,
    exceeds_memory,
    generate,
    load_features,
    sample_labeled_subset,
    save_features,
)
from semihoc.rng import named_rng
from semihoc.trainer import PREDICT_BATCH


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

    def test_draws_past_the_memory_refused(self, monkeypatch):
        """generate's peak is counted as full-tree nodes x (16 x dim + 1024)
        plus samples x max(12 x dim, 4 x dim + 40) bytes: for the default
        config 121 x 1,536 + 81 x 22 x 384 = 870,144 bytes, held against a
        machine of that many bytes and one page less."""
        assert exceeds_memory(10**30, "x") and exceeds_memory(2**1100, "x").startswith("x need over 2^1100 bytes")
        config = SyntheticConfig()
        monkeypatch.setattr(datagen.os, "sysconf", {"SC_PAGE_SIZE": 4, "SC_PHYS_PAGES": 870_144 // 4}.get)
        config.validate()
        monkeypatch.setattr(datagen.os, "sysconf", {"SC_PAGE_SIZE": 4, "SC_PHYS_PAGES": 870_144 // 4 - 1}.get)
        with pytest.raises(ValueError, match="float64 draws and float32 features of the synthetic data need 0.00081 GiB"):
            config.validate()

        def unreported(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(datagen.os, "sysconf", unreported)
        assert exceeds_memory(10**30, "x") is None


    @pytest.mark.parametrize("dim, per_leaf, share", [(32, 150, 0.9), (1, 1500, 0.8)])
    def test_peak_memory_within_the_refused_count(self, monkeypatch, dim, per_leaf, share):
        """The count that validate holds against the machine bounds generate's tracemalloc peak: within 10%
        of it where the float64 sample draw dominates, within 20% at dim 1, where the per-sample ints do.
        It used to hold 2.5 times the count: every per-leaf draw, their concatenation and the float32 copy."""
        counted = []
        monkeypatch.setattr(datagen, "exceeds_memory", lambda nbytes, what: counted.append(nbytes))
        config = SyntheticConfig(feature_dim=dim, train_per_leaf=per_leaf, test_per_leaf=per_leaf // 3, root_ood_per_split=50)
        generate(replace(config, train_per_leaf=1))  # first-call allocations of numpy's random module are not the data's
        tracemalloc.start()
        try:
            generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert share * counted[-1] <= peak <= counted[-1]


def labeled_per_class(dataset, hierarchy, n, seed):
    """The splits of sample_labeled_subset from one mask and one draw per ID class, ascending."""
    rng = named_rng(seed, "labeled-subset")
    splits, train = dataset.splits.copy(), dataset.splits != SPLIT_TEST
    splits[train] = SPLIT_UNLABELED
    for c in sorted(hierarchy.id_leaves):
        pool = np.flatnonzero(train & (dataset.labels == c))
        if len(pool):
            splits[pool if len(pool) <= n else rng.choice(pool, size=n, replace=False)] = SPLIT_LABELED
    return splits


class TestSampleLabeledSubset:
    @pytest.mark.parametrize("n, seed", [(1, 0), (4, 5), (1000, 2)])
    def test_equal_to_a_draw_per_class(self, reference, n, seed):
        """Also with the rows shuffled, so that a class's rows are neither adjacent nor in label order."""
        hierarchy, dataset = reference
        order = np.random.default_rng(seed).permutation(len(dataset))
        shuffled = replace(dataset, features=dataset.features[order], labels=dataset.labels[order],
                           sample_ids=dataset.sample_ids[order], splits=dataset.splits[order])
        for rows in (dataset, shuffled):
            assert np.array_equal(sample_labeled_subset(rows, hierarchy, n, seed).splits,
                                  labeled_per_class(rows, hierarchy, n, seed))

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
        assert np.array_equal(out.splits == SPLIT_TEST, dataset.splits == SPLIT_TEST)


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
        with pytest.raises(FeatureFileError, match="record 2: duplicate"):
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

    def test_bytes_follow_the_record_layout(self, reference, tmp_path):
        """Header, then per record: sample id u64, label u32 (0xFFFFFFFF for
        none), split u8 and the features as little-endian f32."""
        _, dataset = reference
        labels = dataset.labels.copy()
        labels[::7] = NO_LABEL
        dataset = replace(dataset, labels=labels)
        expected = [struct.pack("<4sIQIQ", b"SHOC", 1, len(dataset), dataset.dim, dataset.hierarchy_hash)]
        for i in range(len(dataset)):
            label = 0xFFFFFFFF if labels[i] == NO_LABEL else int(labels[i])
            expected.append(struct.pack("<QIB", int(dataset.sample_ids[i]), label, int(dataset.splits[i])))
            expected.append(dataset.features[i].astype("<f4").tobytes())
        save_features(dataset, tmp_path / "f.bin")
        assert (tmp_path / "f.bin").read_bytes() == b"".join(expected)

    def test_huge_count_refused_before_allocating(self, tmp_path, monkeypatch):
        """A 28-byte file whose header claims 2**40 samples."""
        path = tmp_path / "f.bin"
        path.write_bytes(struct.pack("<4sIQIQ", b"SHOC", 1, 2**40, 16, 0))

        def refuse(*args, **kwargs):
            raise AssertionError("allocated for a sample count the file size rules out")

        for name in ("empty", "zeros", "fromfile", "frombuffer"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(FeatureFileError, match="record 1: truncated"):
            load_features(path)

    def test_trailing_bytes(self, reference, tmp_path):
        _, dataset = reference
        path = tmp_path / "f.bin"
        save_features(dataset, path)
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(FeatureFileError, match="trailing"):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_refused(self, reference, tmp_path, value):
        _, dataset = reference
        features = dataset.features.copy()
        features[4, 2] = value
        path = tmp_path / "f.bin"
        save_features(replace(dataset, features=features), path)
        with pytest.raises(FeatureFileError, match="record 5: non-finite"):
            load_features(path)

    def test_invalid_split_tag(self, reference, tmp_path):
        _, dataset = reference
        splits = dataset.splits.copy()
        splits[9] = 7
        path = tmp_path / "f.bin"
        save_features(replace(dataset, splits=splits), path)
        with pytest.raises(FeatureFileError, match="record 10: invalid split tag 7"):
            load_features(path)


@pytest.fixture(scope="module")
def three_chunks():
    """2,430 rows: a feature file of three read chunks."""
    return generate(SyntheticConfig(branching=3, depth=4, feature_dim=4, train_per_leaf=20, test_per_leaf=10))[1]


def count_reads(monkeypatch) -> list[int]:
    """The record count of every np.fromfile call from now on."""
    counts, fromfile = [], np.fromfile

    def counted(*args, **kwargs):
        records = fromfile(*args, **kwargs)
        counts.append(len(records))
        return records

    monkeypatch.setattr(np, "fromfile", counted)
    return counts


class TestChunkedReader:
    """load_features checks a file in chunks of PREDICT_BATCH records and keeps no vector; FeatureRows reads them."""

    def test_split_tag_in_a_later_chunk_is_reported_before_an_earlier_non_finite_value(self, three_chunks, tmp_path):
        features, splits = three_chunks.features.copy(), three_chunks.splits.copy()
        features[5, 1], splits[2000] = np.nan, 9
        save_features(replace(three_chunks, features=features, splits=splits), tmp_path / "f.bin")
        with pytest.raises(FeatureFileError, match="^record 2001: invalid split tag 9$"):
            load_features(tmp_path / "f.bin")

    def test_first_non_finite_value_across_chunks(self, three_chunks, tmp_path):
        features = three_chunks.features.copy()
        features[2100, 0], features[1500, 3] = np.inf, np.nan
        save_features(replace(three_chunks, features=features), tmp_path / "f.bin")
        with pytest.raises(FeatureFileError, match="^record 1501: non-finite feature value$"):
            load_features(tmp_path / "f.bin")

    def test_duplicate_id_across_chunks_names_the_first_repeat_in_file_order(self, three_chunks, tmp_path):
        ids = three_chunks.sample_ids.copy()
        ids[2000], ids[2300] = ids[10], ids[1200]
        save_features(replace(three_chunks, sample_ids=ids), tmp_path / "f.bin")
        with pytest.raises(FeatureFileError, match="^record 2001: duplicate sample id 10$"):
            load_features(tmp_path / "f.bin")
        ids = three_chunks.sample_ids.copy()
        ids[1100] = ids[2400]
        save_features(replace(three_chunks, sample_ids=ids), tmp_path / "f.bin")
        with pytest.raises(FeatureFileError, match="^record 2401: duplicate sample id 2400$"):
            load_features(tmp_path / "f.bin")

    def test_rows_read_as_indexing_in_memory_reads_them(self, three_chunks, tmp_path):
        save_features(three_chunks, tmp_path / "f.bin")
        rows, memory = load_features(tmp_path / "f.bin").features, three_chunks.features
        gen = np.random.default_rng(3)
        keys = [
            gen.permutation(len(memory)), np.sort(gen.choice(len(memory), 700, replace=False)), gen.integers(0, 2430, 50),
            7, -1, np.int64(2429), [3, 3, 0], [], slice(None), slice(2400, 5, -9), gen.random(len(memory)) < 0.1,
            gen.integers(-2430, 2430, (6, 5)), (slice(None), slice(None, 2)), (gen.permutation(100), 3), (-5, [0, 2]),
        ]
        for key in keys:
            got, want = rows[key], memory[key]
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.asarray(rows), memory) and rows.shape == memory.shape
        for key in (2430, -2431, [0, 2430], np.array([1.0]), np.ones(5, dtype=bool)):
            with pytest.raises(IndexError):
                rows[key]

    def test_loading_keeps_the_columns_and_reads_at_most_a_block_at_once(self, three_chunks, tmp_path, monkeypatch):
        save_features(three_chunks, tmp_path / "f.bin")
        reads = count_reads(monkeypatch)
        dataset = load_features(tmp_path / "f.bin")
        assert reads == [1024, 1024, 382]
        assert not any(isinstance(value, np.ndarray) and value.ndim == 2 for value in vars(dataset.features).values())
        reads.clear()
        sparse = np.sort(np.random.default_rng(0).choice(len(dataset), 900, replace=False))
        assert np.array_equal(dataset.features[sparse], three_chunks.features[sparse])
        assert max(reads) <= PREDICT_BATCH and len(reads) == 3  # the span of 2,430 records, in chunks

    def test_columns_past_the_memory_refused_before_reading(self, three_chunks, tmp_path, monkeypatch):
        """17 bytes a row: 41,310 for 2,430 rows."""
        save_features(three_chunks, tmp_path / "f.bin")
        monkeypatch.setattr(datagen.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 41_310}.get)
        assert len(load_features(tmp_path / "f.bin")) == 2430
        monkeypatch.setattr(datagen.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 41_309}.get)
        reads = count_reads(monkeypatch)
        with pytest.raises(FeatureFileError, match="^the id, label and split columns of 2430 records need 3.85e-05 GiB"):
            load_features(tmp_path / "f.bin")
        assert reads == []
