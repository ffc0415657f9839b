"""Synthetic hierarchical feature data and the binary feature-file format.

The generator builds a balanced class tree, gives every class a mean via a
hierarchical Gaussian random walk (children drift from their parent), and
draws per-class samples around those means, so classes that are close in the
tree are close in feature space. A random subset of leaves is then pruned
from the hierarchy handed to the model; samples of pruned leaves keep living
in the unlabeled/test splits with their deepest surviving ancestor as ground
truth, which makes them out-of-distribution at internal nodes.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .hierarchy import Hierarchy, hierarchy_hash
from .rng import named_rng

SPLIT_LABELED = 0
SPLIT_UNLABELED = 1
SPLIT_TEST = 2

NO_LABEL = -1  # in-memory marker for "ground truth unavailable"
_NO_LABEL_U32 = 0xFFFFFFFF

FILE_MAGIC = b"SHOC"
FILE_VERSION = 1


class FeatureFileError(ValueError):
    """Raised for malformed or inconsistent feature files."""


@dataclass
class FeatureDataset:
    """Feature vectors with ground-truth nodes, stable ids and split tags."""

    features: np.ndarray  # (n, dim) float32
    labels: np.ndarray  # (n,) int64 node ids, NO_LABEL when unknown
    sample_ids: np.ndarray  # (n,) uint64, unique
    splits: np.ndarray  # (n,) uint8
    hierarchy_hash: int

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def mask(self, split: int) -> np.ndarray:
        return self.splits == split

    def indices(self, split: int) -> np.ndarray:
        return np.nonzero(self.mask(split))[0]

    def labels_of(self, sample_ids) -> np.ndarray:
        """Ground truth per sample id; NO_LABEL for ids this dataset lacks."""
        sample_ids = np.asarray(sample_ids, dtype=self.sample_ids.dtype)
        present = np.isin(sample_ids, self.sample_ids)
        order = np.argsort(self.sample_ids)
        out = np.full(len(sample_ids), NO_LABEL, dtype=np.int64)
        out[present] = self.labels[order[np.searchsorted(self.sample_ids, sample_ids[present], sorter=order)]]
        return out

    def validate(self, hierarchy: Hierarchy) -> None:
        if len(np.unique(self.sample_ids)) != len(self):
            raise FeatureFileError("duplicate sample ids")
        known = self.labels != NO_LABEL
        if known.any():
            lo, hi = self.labels[known].min(), self.labels[known].max()
            if lo < 0 or hi >= hierarchy.n_nodes:
                raise FeatureFileError(f"ground-truth node id {hi if hi >= hierarchy.n_nodes else lo} unknown")
        bad = np.flatnonzero(self.mask(SPLIT_LABELED) & ~np.isin(self.labels, list(hierarchy.id_leaves)))
        if len(bad):
            sample = int(self.sample_ids[bad[0]])
            raise FeatureFileError(f"sample {sample}: labeled-train ground truth must be an ID leaf")

    def summary(self, hierarchy: Hierarchy | None = None) -> str:
        lines = [f"samples: {len(self)}  dim: {self.dim}"]
        for split, tag in ((SPLIT_LABELED, "labeled-train"), (SPLIT_UNLABELED, "unlabeled-train"), (SPLIT_TEST, "test")):
            m = self.mask(split)
            row = f"{tag}: {int(m.sum())}"
            if hierarchy is not None and m.any():
                labels = self.labels[m]
                known = labels != NO_LABEL
                is_leaf = known & hierarchy.is_leaf(np.where(known, labels, 0))
                row += f" (ID {int(is_leaf.sum())}, OOD {int((known & ~is_leaf).sum())})"
            lines.append(row)
        if hierarchy is not None:
            labeled = self.labels[self.labels != NO_LABEL]
            ood_nodes = np.unique(labeled[~hierarchy.is_leaf(labeled)])
            lines.append(f"distinct OOD ground-truth nodes: {len(ood_nodes)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SyntheticConfig:
    branching: int = 3
    depth: int = 4
    feature_dim: int = 32
    train_per_leaf: int = 14
    test_per_leaf: int = 8
    sigma_level: float = 1.0
    sigma_noise: float = 0.9
    ood_fraction: float = 0.2
    root_ood_per_split: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.feature_dim < 1 or self.train_per_leaf < 1 or self.test_per_leaf < 0:
            raise ValueError("sizes must be positive")
        if self.sigma_level <= 0 or self.sigma_noise <= 0:
            raise ValueError("scales must be > 0")
        if not 0.0 < self.ood_fraction < 1.0:
            raise ValueError("ood_fraction must be in (0, 1)")
        if self.root_ood_per_split < 0:
            raise ValueError("root_ood_per_split must be >= 0")


def _balanced_tree(branching: int, depth: int) -> tuple[np.ndarray, list[list[int]]]:
    """Parent array of the full balanced tree plus the node ids per level."""
    levels = [[0]]
    parents = [-1]
    for _ in range(depth):
        nxt = []
        for p in levels[-1]:
            for _ in range(branching):
                nxt.append(len(parents))
                parents.append(p)
        levels.append(nxt)
    return np.array(parents, dtype=np.int64), levels


def generate(config: SyntheticConfig) -> tuple[Hierarchy, FeatureDataset]:
    """Build the pruned hierarchy and its feature dataset, deterministically.

    All in-distribution train samples start out labeled; use
    sample_labeled_subset to restrict to n labels per class.
    """
    config.validate()
    rng = named_rng(config.seed, "datagen")

    full_parents, levels = _balanced_tree(config.branching, config.depth)
    n_full = len(full_parents)
    leaves = levels[-1]

    means = np.zeros((n_full, config.feature_dim))
    for c in range(1, n_full):
        means[c] = means[full_parents[c]] + rng.normal(0.0, config.sigma_level, config.feature_dim)

    # Choose pruned (OOD) leaves; keep at least one leaf per parent so every
    # internal node of the pruned tree stays internal.
    n_prune = int(round(config.ood_fraction * len(leaves)))
    prune = set(int(c) for c in rng.choice(leaves, size=n_prune, replace=False))
    for p in levels[-2]:
        kids = [c for c in range(len(full_parents)) if full_parents[c] == p]
        if all(k in prune for k in kids):
            prune.discard(int(rng.choice(kids)))
    id_per_parent = {}
    for leaf in leaves:
        if leaf not in prune:
            id_per_parent.setdefault(int(full_parents[leaf]), 0)
            id_per_parent[int(full_parents[leaf])] += 1
    if any(v < 2 for v in id_per_parent.values()):
        warnings.warn("some internal nodes keep only one ID leaf after pruning")

    # Dense re-index of the surviving nodes, original (breadth-first) order.
    keep = [c for c in range(n_full) if c not in prune]
    new_id = {c: i for i, c in enumerate(keep)}
    parents = np.array([-1] + [new_id[int(full_parents[c])] for c in keep[1:]], dtype=np.int64)
    names = [f"c{c}" for c in keep]
    id_leaves = [new_id[c] for c in leaves if c not in prune]
    hierarchy = Hierarchy(parents, names, id_leaves)
    h_hash = hierarchy_hash(hierarchy)

    def surviving_ancestor(c: int) -> int:
        while c in prune:
            c = int(full_parents[c])
        return new_id[c]

    feats, labels, splits = [], [], []
    for leaf in leaves:
        gt = surviving_ancestor(leaf)
        is_ood = leaf in prune
        n_train, n_test = config.train_per_leaf, config.test_per_leaf
        draws = rng.normal(0.0, config.sigma_noise, (n_train + n_test, config.feature_dim))
        feats.append(means[leaf] + draws)
        labels.extend([gt] * (n_train + n_test))
        train_tag = SPLIT_UNLABELED if is_ood else SPLIT_LABELED
        splits.extend([train_tag] * n_train + [SPLIT_TEST] * n_test)

    if config.root_ood_per_split > 0:
        direction = rng.normal(0.0, 1.0, config.feature_dim)
        direction /= np.linalg.norm(direction)
        center = 10.0 * config.sigma_level * direction
        n = 2 * config.root_ood_per_split
        draws = rng.normal(0.0, config.sigma_noise, (n, config.feature_dim))
        feats.append(center + draws)
        labels.extend([0] * n)
        splits.extend([SPLIT_UNLABELED] * config.root_ood_per_split + [SPLIT_TEST] * config.root_ood_per_split)

    features = np.concatenate(feats).astype(np.float32)
    dataset = FeatureDataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        sample_ids=np.arange(len(labels), dtype=np.uint64),
        splits=np.array(splits, dtype=np.uint8),
        hierarchy_hash=h_hash,
    )
    dataset.validate(hierarchy)
    return hierarchy, dataset


def sample_labeled_subset(
    dataset: FeatureDataset, hierarchy: Hierarchy, n: int, seed: int
) -> FeatureDataset:
    """Keep at most n labeled-train samples per ID class, rest unlabeled.

    Candidates are all train samples whose ground truth is an ID leaf;
    samples with internal (or unknown) ground truth are never labeled. The
    test split is left untouched.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = named_rng(seed, "labeled-subset")
    splits = dataset.splits.copy()
    train = dataset.splits != SPLIT_TEST
    labels = dataset.labels

    splits[train] = SPLIT_UNLABELED
    for c in sorted(hierarchy.id_leaves):
        pool = np.nonzero(train & (labels == c))[0]
        if len(pool) == 0:
            continue
        chosen = pool if len(pool) <= n else rng.choice(pool, size=n, replace=False)
        splits[np.sort(chosen)] = SPLIT_LABELED
    return replace(dataset, splits=splits)


# -- binary feature file ----------------------------------------------------------

_HEADER = struct.Struct("<4sIQIQ")
_SAMPLE_HEAD = struct.Struct("<QIB")


def save_features(dataset: FeatureDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(FILE_MAGIC, FILE_VERSION, len(dataset), dataset.dim, dataset.hierarchy_hash)
        )
        for i in range(len(dataset)):
            label = int(dataset.labels[i])
            stored = _NO_LABEL_U32 if label == NO_LABEL else label
            fh.write(_SAMPLE_HEAD.pack(int(dataset.sample_ids[i]), stored, int(dataset.splits[i])))
            fh.write(dataset.features[i].astype("<f4").tobytes())


def load_features(path, hierarchy: Hierarchy | None = None) -> FeatureDataset:
    """Read a feature file; validates against a hierarchy when given.

    Errors mention the 1-based record number of the offending sample.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FeatureFileError("truncated header")
        magic, version, count, dim, h_hash = _HEADER.unpack(head)
        if magic != FILE_MAGIC:
            raise FeatureFileError("not a feature file (bad magic)")
        if version != FILE_VERSION:
            raise FeatureFileError(f"unsupported format version {version}")

        features = np.empty((count, dim), dtype=np.float32)
        labels = np.empty(count, dtype=np.int64)
        sample_ids = np.empty(count, dtype=np.uint64)
        splits = np.empty(count, dtype=np.uint8)
        row_bytes = _SAMPLE_HEAD.size + 4 * dim
        for i in range(count):
            row = fh.read(row_bytes)
            if len(row) < row_bytes:
                raise FeatureFileError(f"record {i + 1}: truncated file")
            sid, stored, split = _SAMPLE_HEAD.unpack_from(row)
            if split not in (SPLIT_LABELED, SPLIT_UNLABELED, SPLIT_TEST):
                raise FeatureFileError(f"record {i + 1}: invalid split tag {split}")
            sample_ids[i] = sid
            labels[i] = NO_LABEL if stored == _NO_LABEL_U32 else stored
            splits[i] = split
            features[i] = np.frombuffer(row, dtype="<f4", offset=_SAMPLE_HEAD.size)
        if fh.read(1):
            raise FeatureFileError("trailing bytes after the declared sample count")

    seen = {}
    for i, sid in enumerate(sample_ids):
        if sid in seen:
            raise FeatureFileError(f"record {i + 1}: duplicate sample id {int(sid)}")
        seen[int(sid)] = i

    dataset = FeatureDataset(features, labels, sample_ids, splits, h_hash)
    if hierarchy is not None:
        expected = hierarchy_hash(hierarchy)
        if expected != h_hash:
            raise FeatureFileError(
                f"hierarchy hash mismatch: file has {h_hash:#018x}, hierarchy is {expected:#018x}"
            )
        bad = np.flatnonzero(labels >= hierarchy.n_nodes)  # NO_LABEL is negative
        if len(bad):
            raise FeatureFileError(f"record {bad[0] + 1}: unknown node id {int(labels[bad[0]])}")
        dataset.validate(hierarchy)
    return dataset
