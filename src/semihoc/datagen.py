"""Synthetic hierarchical feature data and the binary feature-file format.

The generator builds a balanced class tree, gives every class a mean via a
hierarchical Gaussian random walk (children drift from their parent), and
draws per-class samples around those means, so classes that are close in the
tree are close in feature space. A random subset of leaves is then pruned
from the hierarchy handed to the model; samples of pruned leaves keep living
in the unlabeled/test splits with their deepest surviving ancestor as ground
truth, which makes them out-of-distribution at internal nodes.

A feature file is read in chunks of PREDICT_BATCH records, keeping its id, label and split columns; `FeatureRows` reads vectors.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .hierarchy import Hierarchy, exceeds_memory, sorted_unique
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


def id_rows(sample_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of each of `ids` in the unique `sample_ids`, -1 for none; np.isin on sparse ids imports numpy.ma."""
    order = np.argsort(sample_ids)
    at = np.searchsorted(sample_ids, ids, sorter=order)
    known = at < len(order)  # and then the id found there is the one sought
    known[known] = sample_ids[order[at[known]]] == ids[known]
    rows = np.full(len(ids), -1)
    rows[known] = order[at[known]]
    return rows


@dataclass
class FeatureDataset:
    """Feature vectors with ground-truth nodes, stable ids and split tags."""

    features: np.ndarray  # (n, dim) float32, or the FeatureRows of a feature file
    labels: np.ndarray  # (n,) int64 node ids, NO_LABEL when unknown
    sample_ids: np.ndarray  # (n,) uint64, unique
    splits: np.ndarray  # (n,) uint8
    hierarchy_hash: int

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def indices(self, split: int) -> np.ndarray:
        return np.nonzero(self.splits == split)[0]

    def labels_of(self, sample_ids) -> np.ndarray:
        """Ground truth per sample id; NO_LABEL for ids this dataset lacks."""
        rows = id_rows(self.sample_ids, np.asarray(sample_ids, dtype=self.sample_ids.dtype))
        out = np.full(len(rows), NO_LABEL, dtype=np.int64)
        out[rows >= 0] = self.labels[rows[rows >= 0]]
        return out

    def validate(self, hierarchy: Hierarchy) -> None:
        if len(sorted_unique(self.sample_ids)) != len(self):
            raise FeatureFileError("duplicate sample ids")
        bad = np.flatnonzero((self.labels != NO_LABEL) & ((self.labels < 0) | (self.labels >= hierarchy.n_nodes)))
        if len(bad):
            raise FeatureFileError(f"record {bad[0] + 1}: unknown node id {int(self.labels[bad[0]])}")
        bad = np.flatnonzero((self.splits == SPLIT_LABELED) & ~np.isin(self.labels, hierarchy.id_leaves))
        if len(bad):
            sample = int(self.sample_ids[bad[0]])
            raise FeatureFileError(f"sample {sample}: labeled-train ground truth must be an ID leaf")

    def summary(self, hierarchy: Hierarchy | None = None) -> str:
        lines = [f"samples: {len(self)}  dim: {self.dim}"]
        for split, tag in ((SPLIT_LABELED, "labeled-train"), (SPLIT_UNLABELED, "unlabeled-train"), (SPLIT_TEST, "test")):
            m = self.splits == split
            row = f"{tag}: {int(m.sum())}"
            if hierarchy is not None and m.any():
                labels = self.labels[m]
                known = labels != NO_LABEL
                is_leaf = known & hierarchy.is_leaf(np.where(known, labels, 0))
                row += f" (ID {int(is_leaf.sum())}, OOD {int((known & ~is_leaf).sum())})"
            lines.append(row)
        if hierarchy is not None:
            labeled = self.labels[self.labels != NO_LABEL]
            ood_nodes = sorted_unique(labeled[~hierarchy.is_leaf(labeled)])
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
        nodes = (self.branching ** (self.depth + 1) - 1) // (self.branching - 1)  # of the full tree, before pruning
        samples = self.branching**self.depth * (self.train_per_leaf + self.test_per_leaf) + 2 * self.root_ood_per_split
        # generate's peak. Per node: the float64 means and their draw, and under 1 KiB of tree at any depth that fits.
        # Per sample: the float64 draw beside the float32 features, or later the features beside 34 bytes of ints.
        nbytes = nodes * (16 * self.feature_dim + 1024) + samples * max(12 * self.feature_dim, 4 * self.feature_dim + 40)
        if problem := exceeds_memory(nbytes, "the float64 draws and float32 features of the synthetic data"):
            raise ValueError(problem)


def generate(config: SyntheticConfig) -> tuple[Hierarchy, FeatureDataset]:
    """Build the pruned hierarchy and its feature dataset, deterministically.

    All in-distribution train samples start out labeled; use
    sample_labeled_subset to restrict to n labels per class.
    """
    config.validate()
    rng = named_rng(config.seed, "datagen")
    b, dim = config.branching, config.feature_dim
    # the full tree in breadth-first ids: node c > 0 hangs under (c - 1) // b, and level l is starts[l]:starts[l + 1]
    starts = (b ** np.arange(config.depth + 2) - 1) // (b - 1)
    n_full, first_leaf = int(starts[-1]), int(starts[-2])
    n_leaves = n_full - first_leaf

    means = np.concatenate((np.zeros((1, dim)), rng.normal(0.0, config.sigma_level, (n_full - 1, dim))))
    for parent_lo, lo, hi in zip(starts[:-2], starts[1:-1], starts[2:]):  # each level drifts from the one above
        level = means[lo:hi].reshape(-1, b, dim)
        level += means[parent_lo:lo, None]

    # Choose pruned (OOD) leaves; keep at least one leaf per parent so every
    # internal node of the pruned tree stays internal.
    pruned = np.zeros(n_full, dtype=bool)
    pruned_leaf = pruned[first_leaf:]
    pruned_leaf[rng.choice(n_leaves, size=int(round(config.ood_fraction * n_leaves)), replace=False)] = True
    groups = pruned_leaf.reshape(-1, b)  # each last-level parent's children
    for g in np.flatnonzero(groups.all(axis=1)):
        groups[g, rng.choice(b)] = False
    if ((~groups).sum(axis=1) == 1).any():
        warnings.warn("some internal nodes keep only one ID leaf after pruning")

    # Dense re-index of the surviving nodes in id order. Only leaves are pruned: a pruned leaf's truth is its parent.
    new_id = np.cumsum(~pruned) - 1
    leaves = np.arange(first_leaf, n_full)
    truth = new_id[np.where(pruned_leaf, (leaves - 1) // b, leaves)]

    n_train, n_root = config.train_per_leaf, config.root_ood_per_split
    per_leaf = n_train + config.test_per_leaf
    n_rows = n_leaves * per_leaf  # the root-OOD rows follow
    features = np.empty((n_rows + 2 * n_root, dim), dtype=np.float32)
    draws = rng.normal(0.0, config.sigma_noise, (n_leaves, per_leaf, dim))
    draws += means[first_leaf:, None]
    features[:n_rows] = draws.reshape(n_rows, dim)
    del draws
    if n_root > 0:
        direction = rng.normal(0.0, 1.0, dim)
        direction /= np.linalg.norm(direction)
        draws = rng.normal(0.0, config.sigma_noise, (2 * n_root, dim))
        draws += 10.0 * config.sigma_level * direction
        features[n_rows:] = draws

    labels = np.zeros(len(features), dtype=np.int64)  # the root's id is 0
    labels[:n_rows].reshape(n_leaves, per_leaf)[:] = truth[:, None]
    splits = np.full(len(features), SPLIT_TEST, dtype=np.uint8)
    splits[:n_rows].reshape(n_leaves, per_leaf)[:, :n_train] = np.where(pruned_leaf, SPLIT_UNLABELED, SPLIT_LABELED)[:, None]
    splits[n_rows : n_rows + n_root] = SPLIT_UNLABELED

    keep = np.flatnonzero(~pruned)
    parents = np.concatenate(([-1], new_id[(keep[1:] - 1) // b]))
    hierarchy = Hierarchy(parents, np.char.add("c", keep.astype(str)).tolist(), truth[~pruned_leaf])
    dataset = FeatureDataset(features, labels, np.arange(len(features), dtype=np.uint64), splits, hierarchy.hash)
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
    rows = np.flatnonzero(train & np.isin(labels, hierarchy.id_leaves))
    rows = rows[np.argsort(labels[rows], kind="stable")]
    for pool in np.split(rows, np.flatnonzero(np.diff(labels[rows])) + 1):  # one per class, ascending
        splits[pool if len(pool) <= n else rng.choice(pool, size=n, replace=False)] = SPLIT_LABELED
    return replace(dataset, splits=splits)


# -- binary feature file ----------------------------------------------------------

_HEADER = struct.Struct("<4sIQIQ")
PREDICT_BATCH = 1024  # rows of each teacher forward of trainer.predict_blocks, and records of each feature-file read


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("sample_id", "<u8"), ("label", "<u4"), ("split", "u1"), ("features", "<f4", (dim,))])


def save_features(dataset: FeatureDataset, path) -> None:
    records = np.empty(len(dataset), dtype=_record_dtype(dataset.dim))
    records["sample_id"] = dataset.sample_ids
    records["label"] = np.where(dataset.labels == NO_LABEL, _NO_LABEL_U32, dataset.labels)
    records["split"] = dataset.splits
    records["features"] = dataset.features
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, FILE_VERSION, len(dataset), dataset.dim, dataset.hierarchy_hash))
        records.tofile(fh)


class FeatureRows:
    """A feature file's (n, dim) float32 vectors: `rows[key]` reads, in chunks, what indexing them in memory gives."""

    def __init__(self, path, count: int, dim: int):
        self.path, self.shape, self._record = os.path.abspath(path), (count, dim), _record_dtype(dim)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:]

    def __getitem__(self, key) -> np.ndarray:
        (rows, *cols), (n, dim), record = key if isinstance(key, tuple) else (key,), self.shape, self._record
        np.broadcast_to(0, n)[rows]  # numpy's IndexError for a row index that is out of range, or not one
        rows = np.arange(n)[rows] if isinstance(rows, slice) or np.asarray(rows).dtype == bool else np.asarray(rows, np.intp)
        order = np.argsort(flat := rows.ravel() % max(n, 1), kind="stable")
        wanted, out, i = flat[order], np.empty((len(flat), dim), dtype=np.float32), 0
        while i < len(wanted):  # from the next row wanted through the last one wanted within PREDICT_BATCH records
            start, end = wanted[i], np.searchsorted(wanted, wanted[i] + PREDICT_BATCH)
            chunk = np.fromfile(self.path, record, wanted[end - 1] + 1 - start, offset=_HEADER.size + start * record.itemsize)
            out[order[i:end]] = chunk["features"][wanted[i:end] - start]
            i = end
        return out.reshape(rows.shape + (dim,))[(slice(None),) * rows.ndim + tuple(cols)]


def load_features(path, hierarchy: Hierarchy | None = None) -> FeatureDataset:
    """Read a feature file; validates against a hierarchy when given.

    The header's record count is checked against the file size before
    anything is allocated. Errors mention the 1-based record number of the
    offending sample.
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
        if dim == 0:
            raise FeatureFileError("header feature dim is 0; a record needs at least one feature")
        record = _record_dtype(dim)
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body < count * record.itemsize:
            raise FeatureFileError(f"record {body // record.itemsize + 1}: truncated file")
        if body > count * record.itemsize:
            raise FeatureFileError("trailing bytes after the declared sample count")
        if problem := exceeds_memory(17 * count, f"the id, label and split columns of {count} records"):
            raise FeatureFileError(problem)
        (sample_ids, labels, splits), non_finite = (np.empty(count, t) for t in (np.uint64, np.int64, np.uint8)), []
        for start in range(0, count, PREDICT_BATCH):
            records = np.fromfile(fh, dtype=record, count=min(PREDICT_BATCH, count - start))
            if len(bad := np.flatnonzero(records["split"] > SPLIT_TEST)):
                raise FeatureFileError(f"record {start + bad[0] + 1}: invalid split tag {records['split'][bad[0]]}")
            non_finite += (start + np.flatnonzero(~np.isfinite(records["features"]).all(axis=1))[:1]).tolist()
            for column, name in ((sample_ids, "sample_id"), (labels, "label"), (splits, "split")):
                column[start : start + PREDICT_BATCH] = records[name]
    if non_finite:  # the first, now that no record has a bad split tag
        raise FeatureFileError(f"record {non_finite[0] + 1}: non-finite feature value")
    order = np.argsort(sample_ids, kind="stable")
    repeats = order[1:][sample_ids[order[1:]] == sample_ids[order[:-1]]]
    if len(repeats):
        raise FeatureFileError(f"record {repeats.min() + 1}: duplicate sample id {sample_ids[repeats.min()]}")
    labels[labels == _NO_LABEL_U32] = NO_LABEL
    dataset = FeatureDataset(FeatureRows(path, count, dim), labels, sample_ids, splits, h_hash)
    if hierarchy is not None:
        if hierarchy.hash != h_hash:
            raise FeatureFileError(f"hierarchy hash mismatch: file has {h_hash:#018x}, hierarchy is {hierarchy.hash:#018x}")
        dataset.validate(hierarchy)
    return dataset
