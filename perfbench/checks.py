"""Independent references for checking the program's outputs.

Nothing here imports semihoc. The feature file is read with one numpy
structured dtype, written from the format description in the README; tree
distances come from ancestor sets built off the hierarchy file's parent
column; BMHD and the error decomposition are recomputed from those. Every
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<4sIQIQ")  # magic, version, count, dim, hierarchy hash
NO_LABEL_U32 = 0xFFFFFFFF
SPLITS = {0: "labeled-train", 1: "unlabeled-train", 2: "test"}


def record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("gt", "<u4"), ("split", "u1"), ("x", "<f4", (dim,))])


@dataclass
class Features:
    dim: int
    ids: np.ndarray
    gts: np.ndarray  # int64, -1 where the ground truth is unknown
    splits: np.ndarray
    x: np.ndarray


def read_features(path) -> Features:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the header")
    magic, _version, count, dim, _hash = HEADER.unpack_from(raw)
    if magic != b"SHOC":
        raise ValueError(f"{path}: bad magic {magic!r}")
    dtype = record_dtype(dim)
    if len(raw) != HEADER.size + count * dtype.itemsize:
        raise ValueError(f"{path}: {len(raw)} bytes, header implies {HEADER.size + count * dtype.itemsize}")
    rec = np.frombuffer(raw, dtype=dtype, count=count, offset=HEADER.size)
    gts = rec["gt"].astype(np.int64)
    gts[rec["gt"] == NO_LABEL_U32] = -1
    return Features(dim, rec["id"].copy(), gts, rec["split"].copy(), rec["x"].copy())


class Tree:
    """Parents, ancestor sets and leaves, parsed from `child<TAB>parent` lines.

    Node ids follow the file: the root is 0, the rest in order of appearance.
    """

    def __init__(self, path):
        edges = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip() == "#id":
                break
            if line.strip():
                child, parent = line.strip().split("\t")
                edges.append((child, parent))
        children = {c for c, _ in edges}
        (root,) = {p for _, p in edges} - children
        ids = {root: 0}
        for child, _ in edges:
            ids[child] = len(ids)
        self.n = len(ids)
        self.parent = [-1] * self.n
        for child, parent in edges:
            self.parent[ids[child]] = ids[parent]
        self.anc: list[frozenset[int]] = [frozenset()] * self.n
        for c in range(self.n):
            self.anc[c] = self._ancestors(c)
        has_child = set(self.parent[1:])
        self.is_leaf = [c not in has_child for c in range(self.n)]
        self.max_depth = max(len(a) for a in self.anc) - 1

    def _ancestors(self, c: int) -> frozenset[int]:
        out = []
        while c != -1:
            out.append(c)
            c = self.parent[c]
        return frozenset(out)

    def distance(self, a: int, b: int) -> int:
        return len(self.anc[a] ^ self.anc[b])

    def is_root_path(self, nodes) -> bool:
        """True when nodes run parent to child, starting just below the root."""
        expected_parent = 0
        for c in nodes:
            if not 0 <= c < self.n or self.parent[c] != expected_parent:
                return False
            expected_parent = c
        return True


def bmhd(tree: Tree, preds, gts) -> tuple[float | None, float | None, float | None]:
    """Class-balanced mean tree distance: (ID, OOD, mix); rows with gt -1 skipped."""
    per_class: dict[int, list[int]] = {}
    for p, g in zip(preds, gts):
        if g >= 0:
            per_class.setdefault(int(g), []).append(tree.distance(int(p), int(g)))
    means = {c: math.fsum(d) / len(d) for c, d in per_class.items()}
    leaf = [m for c, m in means.items() if tree.is_leaf[c]]
    inner = [m for c, m in means.items() if not tree.is_leaf[c]]
    id_ = math.fsum(leaf) / len(leaf) if leaf else None
    ood = math.fsum(inner) / len(inner) if inner else None
    mix = 0.5 * (id_ + ood) if id_ is not None and ood is not None else None
    return id_, ood, mix


def decomposition(tree: Tree, preds, gts, subset: str) -> np.ndarray:
    """Percent of (LCA-to-gt, LCA-to-prediction) distances over leaf ('id') or
    internal ('ood') predictions; empty when no prediction is in the subset."""
    size = tree.max_depth + 1
    counts = np.zeros((size, size))
    for p, g in zip(preds, gts):
        p, g = int(p), int(g)
        if g < 0 or tree.is_leaf[p] != (subset == "id"):
            continue
        counts[len(tree.anc[g] - tree.anc[p]), len(tree.anc[p] - tree.anc[g])] += 1
    total = counts.sum()
    return counts * (100.0 / total) if total else np.zeros((0, 0))


def close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def num(text: str) -> float | None:
    return float(text) if text != "" else None


# -- training outputs ----------------------------------------------------------


def check_metrics_csv(path, epochs: int) -> tuple[list[str], dict]:
    """One finite row per epoch with spl_count >= gated_count; returns the last row."""
    rows = _read_csv(path)
    problems = []
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        problems.append(f"{path}: epochs {[r['epoch'] for r in rows][:5]}... are not 0..{epochs - 1}")
    for r in rows:
        losses = [float(v) for k, v in r.items() if k.startswith("loss_")]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"{path}: epoch {r['epoch']} has a non-finite loss")
        if int(r["spl_count"]) < int(r["gated_count"]):
            problems.append(f"{path}: epoch {r['epoch']} gated more pseudo-labels than it assigned")
    return problems, (rows[-1] if rows else {})


def check_cutoffs(snapshots: list[dict]) -> list[str]:
    """Age-gate cutoffs, one dict per epoch end, may only fall."""
    problems = []
    for epoch in range(1, len(snapshots)):
        before, after = snapshots[epoch - 1], snapshots[epoch]
        for node, cutoff in before.items():
            if after.get(node, math.inf) > cutoff:
                problems.append(f"epoch {epoch}: cutoff of node {node} rose from {cutoff} to {after.get(node)}")
    return problems


def check_fused_rows(probs: np.ndarray) -> list[str]:
    problems = []
    if (probs < 0).any():
        problems.append(f"{int((probs < 0).any(axis=1).sum())} fused rows hold a negative probability")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max()) if len(probs) else 0.0
    if worst > 1e-9:
        problems.append(f"a fused row sums to 1 {worst:+.3g}")
    return problems


def check_chains(tree: Tree, chains) -> list[str]:
    bad = [i for i, nodes in enumerate(chains) if not tree.is_root_path(nodes)]
    return [f"{len(bad)} pseudo-label chains are not root-anchored paths, first row {bad[0]}"] if bad else []


def check_reported_bmhd(tree: Tree, preds, gts, reported, limit: float | None) -> list[str]:
    """Reported (ID, OOD, mix) against the recomputation and the all-root predictor."""
    problems = []
    ours = bmhd(tree, preds, gts)
    for name, got, want in zip(("bmhd_id", "bmhd_ood", "bmhd_mix"), reported, ours):
        if not close(got, want, 1e-12):
            problems.append(f"{name} reported {got!r}, recomputed {want!r}")
    root_mix = bmhd(tree, np.zeros(len(gts), dtype=np.int64), gts)[2]
    mix = reported[2]
    if mix is None or root_mix is None or not mix < root_mix:
        problems.append(f"bmhd_mix {mix!r} is not below the all-root predictor's {root_mix!r}")
    if limit is not None and (mix is None or not mix < limit):
        problems.append(f"bmhd_mix {mix!r} is not below {limit}")
    return problems


# -- eval outputs --------------------------------------------------------------


def read_predictions(path) -> tuple[list[str], dict]:
    """Parse a prediction dump: sample id -> (node, p(node), [(node, conf), ...])."""
    problems, out = [], {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 4:
            problems.append(f"{path}:{lineno}: {len(parts)} fields, expected 4")
            continue
        chain = [(int(n), float(c)) for n, c in (item.split(":") for item in parts[3].split(","))]
        sid = int(parts[0])
        if sid in out:
            problems.append(f"{path}:{lineno}: sample {sid} listed twice")
        out[sid] = (int(parts[1]), float(parts[2]), chain)
    return problems, out


def check_predictions(tree: Tree, feats: Features, preds: dict) -> list[str]:
    problems = []
    if len(preds) != len(feats.ids) or set(preds) != {int(g) for g in feats.ids}:
        problems.append(f"predictions cover {len(preds)} samples, the split has {len(feats.ids)}")
    for sid, (node, p, chain) in preds.items():
        nodes = [n for n, _ in chain]
        confs = [c for _, c in chain]
        if not 0 <= node < tree.n or not 0.0 <= p <= 1.0:
            problems.append(f"sample {sid}: invalid node {node} or probability {p}")
        elif nodes[0] != 0 or nodes[-1] != node or not tree.is_root_path(nodes[1:]):
            problems.append(f"sample {sid}: chain {nodes} is not the root-to-{node} path")
        elif abs(confs[0] - 1.0) > 1e-9 or any(b > a for a, b in zip(confs, confs[1:])):
            problems.append(f"sample {sid}: subtree confidences {confs} do not start at 1 and fall")
        if len(problems) > 10:
            break
    return problems


def check_eval_dir(tree: Tree, feats: Features, out_dir, preds: dict) -> list[str]:
    """bmhd.csv, decomposition_{id,ood}.csv and confidence_bins.csv against
    recomputations from the prediction dump and the feature file."""
    out_dir = Path(out_dir)
    gt_of = {int(g): int(c) for g, c in zip(feats.ids, feats.gts)}
    sids = sorted(preds)
    nodes = [preds[s][0] for s in sids]
    gts = [gt_of.get(s, -1) for s in sids]
    problems = []

    (row,) = _read_csv(out_dir / "bmhd.csv")
    reported = (num(row["bmhd_id"]), num(row["bmhd_ood"]), num(row["bmhd_mix"]))
    for name, got, want in zip(("bmhd_id", "bmhd_ood", "bmhd_mix"), reported, bmhd(tree, nodes, gts)):
        if not close(got, want, 1e-12):
            problems.append(f"{out_dir / 'bmhd.csv'}: {name} {got!r}, recomputed {want!r}")

    for subset in ("id", "ood"):
        path = out_dir / f"decomposition_{subset}.csv"
        rows = _read_csv(path)
        got = np.array([[float(v) for k, v in r.items() if k != "under_dist"] for r in rows]) if rows else np.zeros((0, 0))
        want = decomposition(tree, nodes, gts, subset)
        if got.size and abs(got.sum() - 100.0) > 1e-9:
            problems.append(f"{path}: cells sum to {got.sum()!r}, not 100")
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-9):
            problems.append(f"{path}: differs from the recomputed decomposition")

    totals: dict[tuple[str, str], float] = {}
    for r in _read_csv(out_dir / "confidence_bins.csv"):
        key = (r["mode"], r["panel"])
        totals[key] = totals.get(key, 0.0) + float(r["frequency"])
    for key, total in totals.items():
        if abs(total - 1.0) > 1e-9:
            problems.append(f"confidence_bins.csv {key}: frequencies sum to {total!r}")
    return problems


def check_inspect(output: str, tree: Tree, feats: Features) -> list[str]:
    """`semihoc inspect --features` sample and per-split counts against the reader."""
    problems = []
    lines = {ln.split(":")[0].strip(): ln for ln in output.splitlines() if ":" in ln}
    want_samples = f"samples: {len(feats.ids)}  dim: {feats.dim}"
    if lines.get("samples") != want_samples:
        problems.append(f"inspect printed {lines.get('samples')!r}, the reader finds {want_samples!r}")
    for split, tag in SPLITS.items():
        m = feats.splits == split
        known = feats.gts[m][feats.gts[m] >= 0]
        n_id = sum(tree.is_leaf[g] for g in known)
        want = f"{tag}: {int(m.sum())} (ID {n_id}, OOD {len(known) - n_id})" if m.any() else f"{tag}: 0"
        if lines.get(tag) != want:
            problems.append(f"inspect printed {lines.get(tag)!r}, the reader finds {want!r}")
    return problems
