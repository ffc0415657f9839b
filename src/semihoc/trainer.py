"""Epoch-level training loops for the self-training framework and baselines.

An epoch is one full pass over the unlabeled split; labeled batches cycle
independently (without replacement inside a cycle). Per step every depth
head accumulates a labeled cross-entropy term, the chosen method adds its
unlabeled term, and the per-depth loss is l_d = l_d^labeled/N +
l_d^unlabeled/M with N and M the batch sizes actually used. Before the
SGD step, the combined gradient of each depth head is rescaled so its
global L2 norm (over all weights and biases of that head) is at most
GRAD_CLIP_NORM; gradients already inside the bound pass unchanged. Without
it, the first steps at a high learning rate with momentum can push the
head's hidden ReLUs dead for good (seen on the reference benchmark, where a
depth-1 head collapsed to a uniform output and every prediction stopped at
the root). Cutoff detection runs at every epoch end, and the first step
whose loss at some depth is not finite stops training with a ValueError
naming the epoch and the depth.

A row supervised at node c learns `Hierarchy.targets(d, c)` at each depth
d. A labeled row's c is its label; each method fills one (unlabeled rows x
depths) table of nodes, -1 for none, in which a subtree pseudo-label chain
puts its node in depth space d, whose target is one-hot. Each depth's
student sees only its rows with a target.

Determinism contract: all randomness flows through named substreams of the
run seed (weight init, labeled/unlabeled shuffling, labeled/unlabeled
dropout), so two runs with the same config produce byte-identical metrics,
and a resumed checkpoint replays the interrupted run exactly. Keeping the
labeled streams separate from the unlabeled ones means methods that never
touch unlabeled data still see the exact same labeled batches and dropout
masks as methods that do.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import time
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from . import heads as heads_mod
from .datagen import NO_LABEL, PREDICT_BATCH, SPLIT_LABELED, SPLIT_TEST, SPLIT_UNLABELED, FeatureDataset
from .heads import HEAD_DTYPE, DepthHeads, entry_shapes
from .hierarchy import Hierarchy
from .metrics import bmhd
from .prohoc import fuse_batch, subtree_confidences
from .rng import StreamSet, advanced
from .spl import AgeGateState, SplLog, apply_gating, assign, epoch_dtype, log_summary, update_cutoffs, update_log

METHODS = ("semihoc", "semihoc-no-gate", "supervised", "ssl-node", "ssl-per-depth", "spl-oracle")
SUBTREE_METHODS = ("semihoc", "semihoc-no-gate")  # whose pseudo-labels are chain tables, so tau >= 1/2

# Upper bound on the global L2 norm of one depth head's gradient per step.
GRAD_CLIP_NORM = 5.0

# A depth's matmul work per step, (labeled + unlabeled batch rows) x hidden^2 multiply-adds, from
# which the depths of a step share the cores: numpy keeps the interpreter lock on small arrays, so
# below it threads lose. run_training on a 2-core host, 1 BLAS thread, seconds serial -> 2 workers:
#
#   hidden                        64           128          256          384          512          768
#   reference data, 40/30 epochs  0.35 -> 0.76 0.63 -> 1.31 1.48 -> 2.11 2.08 -> 1.97 4.15 -> 3.35 8.18 -> 5.29
#   wide-tree data, 10 epochs     -            1.66 -> 2.59 2.83 -> 3.33
#
# The reference config (612 rows at hidden 512: 1.6e8) shares; wide-tree (640 rows at 64) does not.
PARALLEL_WORK = 1 << 27

# predict_blocks, the chunker under predict_rows (the one scorer of the teacher outside training),
# forwards datagen.PREDICT_BATCH rows at a time, fixed as the teacher's bits depend on the matmul's rows.
# It fuses a block in chunks of (rows x n_nodes) float64 of at most FUSE_BYTES: fusion goes row by
# row, so a caller that streams holds one block's teacher outputs and one chunk's fused rows at a time.
FUSE_BYTES = 1 << 20

CHECKPOINT_MAGIC = b"SHCK"
CHECKPOINT_VERSION = 4
LOG_KEYS = ("sample_id", "node", "epoch")  # a log's entries: log.sample_id, ...


@dataclass
class TrainConfig:
    method: str = "semihoc"
    epochs: int = 400
    labeled_batch_size: int = 128
    unlabeled_ratio: int = 4
    lr: float = 0.01
    dropout: float = 0.3
    weight_decay: float = 0.001
    momentum: float = 0.9
    ema_momentum: float = 0.999
    tau: float = 0.95
    gate_bin_width: int = 1
    gate_drop_threshold: float = 0.01
    hidden_dim: int = 512
    seed: int = 0
    eval_every: int = 0
    checkpoint_every: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if type(f.default) is int and type(value) is not int:  # a bool too
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if type(f.default) is float and type(value) is bool:  # True passes every range check as 1
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        if self.epochs < 1 or self.labeled_batch_size < 1 or self.unlabeled_ratio < 1:
            raise ValueError("epochs, batch size and ratio must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.momentum < 1.0 or not 0.0 <= self.ema_momentum <= 1.0:
            raise ValueError("momenta must be in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.method in SUBTREE_METHODS and self.tau < 0.5:
            raise ValueError(f"tau must be >= 0.5 for method {self.method!r}, got {self.tau}")
        if self.gate_bin_width < 1 or not 0.0 < self.gate_drop_threshold < 1.0:
            raise ValueError("invalid gate parameters")
        if self.hidden_dim < 1 or self.seed < 0:
            raise ValueError("invalid hidden_dim or seed")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ValueError("eval_every and checkpoint_every must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; valid keys: {sorted(valid)}")
        config = cls(**data)
        config.validate()
        return config


@dataclass
class EpochReport:
    epoch: int
    method: str
    loss_labeled: tuple[float, ...]
    loss_unlabeled: tuple[float, ...]
    spl_total: int = 0
    gated_count: int = 0
    coverage: float | None = None
    purity: float | None = None
    avg_depth: float | None = None
    bmhd_id: float | None = None
    bmhd_ood: float | None = None
    bmhd_mix: float | None = None
    wall_clock: float = 0.0


class _LabeledLoader:
    """Cycles through labeled indices without replacement inside a cycle.

    When the whole labeled set fits in one batch, every step simply uses the
    full set and no randomness is consumed.
    """

    def __init__(self, indices: np.ndarray, batch_size: int, rng):
        self.indices = indices
        self.batch_size = batch_size
        self.rng = rng
        self.perm = np.empty(0, dtype=np.int64)
        self.pos = 0

    def next_batch(self) -> np.ndarray:
        if len(self.indices) <= self.batch_size:
            return self.indices
        out = []
        need = self.batch_size
        while need > 0:
            if self.pos >= len(self.perm):
                self.perm = self.rng.permutation(len(self.indices))
                self.pos = 0
            take = min(need, len(self.perm) - self.pos)
            out.append(self.indices[self.perm[self.pos : self.pos + take]])
            self.pos += take
            need -= take
        return np.concatenate(out)


class Trainer:
    """Owns the heads, pseudo-label log, gate state and RNG streams."""

    def __init__(self, config: TrainConfig, hierarchy: Hierarchy, dataset: FeatureDataset):
        config.validate()
        keep_freed_memory()  # for library callers too, not only the CLI
        if dataset.hierarchy_hash != hierarchy.hash:
            hashes = f"{dataset.hierarchy_hash:#018x} != {hierarchy.hash:#018x}"
            raise ValueError(f"dataset was built against a different hierarchy (hash {hashes})")
        dataset.validate(hierarchy)
        self.config = config
        self.hierarchy = hierarchy
        self.dataset = dataset = replace(dataset, features=np.asarray(dataset.features))  # a file's vectors, read once

        self.streams = StreamSet(config.seed)
        self.heads = DepthHeads(hierarchy, dataset.dim, hidden=config.hidden_dim, dropout=config.dropout)
        self.heads.init_params(self.streams.get("init"))
        self.depths = self.heads.depths

        self.gate = AgeGateState(config.gate_bin_width, config.gate_drop_threshold)
        self.epoch = 0

        self.labeled_idx = dataset.indices(SPLIT_LABELED)
        self.unlabeled_idx = dataset.indices(SPLIT_UNLABELED)
        self.test_idx = dataset.indices(SPLIT_TEST)
        self.workers = depth_workers(config, len(self.depths), len(self.labeled_idx), len(self.unlabeled_idx))
        # Pseudo-label state: a chain table over (unlabeled row, depth) and the record of its entries.
        self.log = SplLog(dataset.sample_ids[self.unlabeled_idx], hierarchy.depths, epoch_dtype(config.epochs))
        self._cutoffs = self.gate.vector(hierarchy.n_nodes)  # rebuilt whenever a cutoff changes
        self._has_target = np.stack([np.less(*hierarchy.target_runs(d, np.arange(hierarchy.n_nodes))) for d in self.depths], 1)
        if config.method != "supervised" and len(self.unlabeled_idx) == 0:
            raise ValueError(f"method {config.method!r} needs a non-empty unlabeled split")
        if len(self.labeled_idx) == 0:
            raise ValueError("training needs a non-empty labeled split")
        if config.method == "spl-oracle" and (dataset.labels[self.unlabeled_idx] == NO_LABEL).any():
            raise ValueError("spl-oracle needs ground truth for every unlabeled sample")

        self.loader = _LabeledLoader(self.labeled_idx, config.labeled_batch_size, self.streams.get("shuffle/labeled"))
        # per depth, the generators that each step sets to that depth's runs of the two dropout streams
        self._mask_rngs = [(np.random.default_rng(0), np.random.default_rng(0)) for _ in self.depths]

    # -- small helpers -----------------------------------------------------------

    def _steps_per_epoch(self) -> int:
        if len(self.unlabeled_idx) == 0:
            return max(1, math.ceil(len(self.labeled_idx) / self.config.labeled_batch_size))
        return math.ceil(len(self.unlabeled_idx) / (self.config.labeled_batch_size * self.config.unlabeled_ratio))

    # -- per-method unlabeled target construction ---------------------------------

    def _assign_semihoc(self, batch_u: np.ndarray, x_u: np.ndarray) -> np.ndarray:
        """Log this batch's subtree pseudo-labels and return them gated."""
        fused = fuse_batch(self.heads.teacher_forward_all(x_u, self.workers), self.hierarchy)
        assigned = assign(fused, self.hierarchy, self.config.tau)
        rows = np.searchsorted(self.unlabeled_idx, batch_u)
        update_log(self.log, rows, assigned, self.epoch)
        return apply_gating(assigned, self.log.first[rows], self._cutoffs)

    def _unlabeled_targets(self, batch_u: np.ndarray, x_u: np.ndarray) -> np.ndarray:
        """Rows of batch_u by depths: entry (i, d - 1) is the node whose
        `Hierarchy.targets` at depth d is row i's depth-d target, -1 for none."""
        cfg, hierarchy = self.config, self.hierarchy
        if cfg.method == "supervised":
            return np.full((0, len(self.depths)), -1)
        if cfg.method == "spl-oracle":  # every non-root ancestor-or-self of the ground truth
            gts = self.dataset.labels[batch_u]
            chains = np.where(np.arange(1, len(self.depths) + 1) <= hierarchy.depths[gts, None], hierarchy.ancestors[gts, 1:], -1)
        elif cfg.method in SUBTREE_METHODS:
            chains = self._assign_semihoc(batch_u, x_u)
        elif cfg.method == "ssl-node":  # the confident argmax node supervises every depth, like a label
            fused = fuse_batch(self.heads.teacher_forward_all(x_u, self.workers), hierarchy)
            preds, passing = fused.argmax(axis=1), fused.max(axis=1) > cfg.tau
            return np.where(passing[:, None] & self._has_target[preds], preds[:, None], -1)
        else:  # ssl-per-depth: each depth's own confident argmax
            probs = self.heads.teacher_forward_all(x_u, self.workers)
            nodes = [hierarchy.depth_space(d)[p.argmax(axis=1)] for d, p in zip(self.depths, probs)]
            return np.stack([np.where(p.max(axis=1) > cfg.tau, n, -1) for p, n in zip(probs, nodes)], axis=1)
        # A chain's node in depth space d, at most one: its depth-d node, or a chain-ending ID leaf above depth d.
        table = np.full_like(chains, -1)
        for d in self.depths:
            rows, at = np.nonzero((chains >= 0) & (hierarchy.columns[d - 1][chains] >= 0))
            table[rows, d - 1] = chains[rows, at]
        return table

    # -- one optimization step ------------------------------------------------------

    def _train_step(self, batch_l: np.ndarray, batch_u: np.ndarray) -> tuple[list[float], list[float]]:
        """One step of every depth's student, the depths shared by self.workers
        threads. Each depth's dropout masks are one run of `dropout/labeled`
        and one of `dropout/unlabeled`, in depth order, so depth d draws from
        a copy of each stream advanced past the runs of the depths before it,
        and the streams then move past all D runs: the masks and the streams'
        end states are those of drawing depth after depth. A depth with no
        unlabeled target row draws no unlabeled masks."""
        cfg = self.config
        x_l, x_u = self.dataset.features[batch_l], self.dataset.features[batch_u]
        labels_l = self.dataset.labels[batch_l]
        n_l, m_u = len(batch_l), len(batch_u)
        table = self._unlabeled_targets(batch_u, x_u)

        drop_l, drop_u = (self.streams.get(f"dropout/{name}") for name in ("labeled", "unlabeled"))
        run_l, run_u = (heads_mod.mask_draws(self.heads.students[0], n) for n in (n_l, m_u))  # alike at every depth

        def depth_step(d: int) -> tuple[float, float]:
            student, targets, (rng_l, rng_u) = self.heads.students[d - 1], self.hierarchy.targets, self._mask_rngs[d - 1]
            masks_l = heads_mod.sample_masks(student, n_l, advanced(drop_l, (d - 1) * run_l, rng_l))
            loss_l, g = heads_mod.ce_loss_and_grad(student, x_l, targets(d, labels_l), masks=masks_l)
            g *= 1.0 / n_l

            loss_u, nodes = 0.0, table[:, d - 1]
            live = nodes >= 0
            if live.any():  # forward and backward on the rows with a target, masks drawn for all
                masks_u = heads_mod.sample_masks(student, m_u, advanced(drop_u, (d - 1) * run_u, rng_u), live)
                loss_u, g_u = heads_mod.ce_loss_and_grad(student, x_u[live], targets(d, nodes[live]), masks=masks_u)
                g += np.multiply(g_u, 1.0 / m_u, out=g_u)
                del g_u, masks_u  # freed before the SGD step allocates its weight-decay term

            scale = clip_scale([g[s] for s in self.heads.param_slices[d - 1]], GRAD_CLIP_NORM)  # float64 sums per parameter
            self.heads.sgd_step(d, g, cfg.lr, cfg.momentum, cfg.weight_decay, scale=scale)
            return loss_l / n_l, loss_u / m_u if m_u else 0.0

        losses = heads_mod.map_depths(depth_step, self.depths, self.workers)  # in depth order
        drop_l.bit_generator.advance(len(self.depths) * run_l)
        drop_u.bit_generator.advance(len(self.depths) * run_u)
        self.heads.ema_update_all(cfg.ema_momentum)
        return [l for l, _ in losses], [u for _, u in losses]

    # -- epochs -------------------------------------------------------------------

    def run_epoch(self) -> EpochReport:
        cfg = self.config
        start = time.perf_counter()
        sum_l = np.zeros(len(self.depths))
        sum_u = np.zeros(len(self.depths))

        if cfg.method == "supervised":
            batches_u = [np.empty(0, dtype=np.int64)] * self._steps_per_epoch()
        else:
            perm = self.streams.get("shuffle/unlabeled").permutation(len(self.unlabeled_idx))
            order = self.unlabeled_idx[perm]
            batch = cfg.labeled_batch_size * cfg.unlabeled_ratio
            batches_u = [order[i : i + batch] for i in range(0, len(order), batch)]

        for batch_u in batches_u:
            batch_l = self.loader.next_batch()
            loss_l, loss_u = self._train_step(batch_l, batch_u)
            for d, l, u in zip(self.depths, loss_l, loss_u):
                if not (math.isfinite(l) and math.isfinite(u)):
                    raise ValueError(f"epoch {self.epoch} depth {d}: non-finite loss (labeled {l}, unlabeled {u})")
            sum_l += loss_l
            sum_u += loss_u

        report = EpochReport(self.epoch, cfg.method, tuple(sum_l / len(batches_u)), tuple(sum_u / len(batches_u)))
        if cfg.method in SUBTREE_METHODS:  # the epoch logged every unlabeled row once, under these cutoffs
            gts = self.dataset.labels[self.unlabeled_idx]
            report.spl_total, kept, report.purity, report.avg_depth = log_summary(self.log, self._cutoffs, gts, self.hierarchy)
            report.gated_count = report.spl_total - kept
            report.coverage = kept / report.spl_total if report.spl_total else None
        if cfg.method == "semihoc" and update_cutoffs(self.gate, self.log, self.epoch):
            self._cutoffs = self.gate.vector(self.hierarchy.n_nodes)
        report.wall_clock = time.perf_counter() - start
        self.epoch += 1
        return report

    def evaluate(self) -> tuple[float | None, float | None, float | None]:
        """Teacher-model scores on the test split's samples with ground truth."""
        idx = self.test_idx[self.dataset.labels[self.test_idx] != NO_LABEL]
        if len(idx) == 0:
            return None, None, None
        preds, _, _ = predict_rows(self.heads, self.hierarchy, self.dataset.features, idx)
        report = bmhd(preds, self.dataset.labels[idx], self.hierarchy)
        return report.id, report.ood, report.mix

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> dict:
        """The checkpoint entries by name: `meta`, the scalar state as a
        JSON-able dict, and the arrays. The head and velocity entries are
        views into the heads' three role buffers and the loader's is its live
        array, not copies; the logs are their sparse triples."""
        meta = {"config": asdict(self.config), "hierarchy_hash": self.hierarchy.hash, "epoch": self.epoch}
        meta.update(feature_dim=self.dataset.dim, classes=list(self.hierarchy.classes))
        meta.update(streams=self.streams.state_dict(), loader_pos=self.loader.pos, gate=self.gate.state_dict())
        state = {"meta": meta, **self.heads.state_dict(), "loader.perm": self.loader.perm}
        for name, triples in (("log", self.log.state_dict()), ("history", self.log.history_state())):
            state.update({f"{name}.{key}": triples[key] for key in LOG_KEYS})
        return state

    def load_state_dict(self, state: dict) -> None:
        """Copy a state that load_checkpoint has checked against this run's
        hierarchy and feature dim; ValueError when its config is not this
        run's or its loader permutation does not cover the labeled split."""
        meta, n_perm = state["meta"], len(state["loader.perm"])
        if meta["config"] != asdict(self.config):
            raise ValueError("entry meta: config does not match the requested config")
        if n_perm not in (0, len(self.labeled_idx)):
            raise ValueError(f"entry loader.perm holds {n_perm} indices, not 0 or the {len(self.labeled_idx)} labeled rows")
        self.heads.load_state_dict(state)
        self.log.load_state_dict(*({key: state[f"{name}.{key}"] for key in LOG_KEYS} for name in ("log", "history")))
        self.epoch, self.loader.pos = meta["epoch"], meta["loader_pos"]
        self.loader.perm = np.array(state["loader.perm"], dtype=np.int64)
        self.streams.load_state_dict(meta["streams"])
        self.gate.load_state_dict(meta["gate"])
        self._cutoffs = self.gate.vector(self.hierarchy.n_nodes)


def keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse: each training step allocates and frees arrays of a
    few MB, and under its dynamic thresholds the heap top could go back to the OS after every
    depth or step and be page-faulted in again by the next. A no-op where the C library has no
    mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays below 32 MB come from the heap,
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: which shrinks only past 256 MB of free top


def blas_library() -> str:
    """Name and version of the BLAS library numpy was built against, as numpy reports them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def usable_cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def blas_threads() -> int:
    """Threads per BLAS call, from the variables the BLAS library reads when
    numpy loads, in the order it reads them; every usable core, its default,
    when neither holds a positive count."""
    own = "MKL_NUM_THREADS" if "mkl" in blas_library().lower() else "OPENBLAS_NUM_THREADS"
    for var in (own, "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cores()


def depth_workers(config: TrainConfig, n_depths: int, n_labeled: int, n_unlabeled: int) -> int:
    """Threads that share each training step's depths: as many as the cores
    hold at blas_threads() each, at most one per depth, and 1 (the depths run
    inline) when a depth's matmul work per step is below PARALLEL_WORK. The
    outputs do not depend on it: each depth's arithmetic is the same on any
    thread."""
    rows = min(config.labeled_batch_size, n_labeled)
    if config.method != "supervised":
        rows += min(config.labeled_batch_size * config.unlabeled_ratio, n_unlabeled)
    if rows * config.hidden_dim**2 < PARALLEL_WORK:
        return 1
    return max(1, min(n_depths, usable_cores() // blas_threads()))


def l2_norm(arrays: list[np.ndarray]) -> float:
    """Global L2 norm of `arrays`, the squares summed in float64 whatever
    their dtype."""
    wide = (a.astype(np.float64) for a in arrays)  # one copy each: vdot of mixed dtypes misses BLAS
    return math.sqrt(sum(float(np.vdot(w, w)) for w in wide))


def clip_scale(grads: list[np.ndarray], max_norm: float) -> float:
    """Factor that brings the global L2 norm of `grads` down to `max_norm`.

    1.0 when the norm is already within the bound, so small gradients are
    applied exactly as computed.
    """
    norm = l2_norm(grads)
    return max_norm / norm if norm > max_norm else 1.0


def predict_blocks(heads: DepthHeads, hierarchy: Hierarchy, features: np.ndarray, rows: np.ndarray):
    """Yield (slice of `rows`, fused teacher node distributions of those rows
    of `features`) per chunk, in order: each block of PREDICT_BATCH rows the
    teacher forwards is fused in the fewest chunks of at most FUSE_BYTES, and
    at least 3 rows, of sizes within a row of each other. So no chunk has a
    lone row its block lacks: numpy sums a lone row's 8+ children pairwise."""
    most = max(3, FUSE_BYTES // (8 * hierarchy.n_nodes))
    for start in range(0, len(rows), PREDICT_BATCH):
        outputs = heads.teacher_forward_all(features[rows[start : start + PREDICT_BATCH]])
        n = len(outputs[0])
        chunks = -(-n // most)
        for lo, hi in ((n * i // chunks, n * (i + 1) // chunks) for i in range(chunks)):
            fused = fuse_batch([out[lo:hi] for out in outputs], hierarchy)
            if hi == n:
                del outputs  # released before the block's last chunk is yielded
            yield slice(start + lo, start + hi), fused
            del fused  # before the next chunk is computed


def predict_rows(heads: DepthHeads, hierarchy: Hierarchy, features: np.ndarray, rows: np.ndarray, write=None):
    """(predicted node, its probability, its subtree confidence) of each of
    `rows` of `features` under the fused teacher: the argmax node, ties to
    the smallest id. Each chunk of predict_blocks, with its subtree sums,
    goes to `write(block, preds, node_conf, conf)` when one is given, and is
    dropped before the next: only the three per-row arrays outlive a chunk."""
    preds = np.empty(len(rows), dtype=np.int64)
    node_conf, sub_conf = np.empty(len(rows)), np.empty(len(rows))
    for block, fused in predict_blocks(heads, hierarchy, features, rows):
        preds[block] = fused.argmax(axis=1)
        node_conf[block] = np.take_along_axis(fused, preds[block, None], axis=1)[:, 0]
        conf = subtree_confidences(fused, hierarchy)  # after the gathers: before them, wide-tree's RSS rose 1 MB
        sub_conf[block] = np.take_along_axis(conf, preds[block, None], axis=1)[:, 0]
        if write is not None:
            write(block, preds[block], node_conf[block], conf)
        del fused, conf  # before predict_blocks computes the next chunk
    return preds, node_conf, sub_conf


def predict_dataset(heads: DepthHeads, hierarchy: Hierarchy, features: np.ndarray) -> np.ndarray:
    """Fused teacher node distributions for a whole feature matrix: the chunks of predict_blocks, joined."""
    blocks = [fused for _, fused in predict_blocks(heads, hierarchy, features, np.arange(len(features)))]
    return np.concatenate(blocks) if blocks else np.zeros((0, hierarchy.n_nodes))


def save_checkpoint(trainer: Trainer, path) -> None:
    """Magic, version u32, then an uncompressed .npz of trainer.state_dict()
    with `meta` as a JSON string. It is written beside `path` and renamed
    into place, so `path` never holds a partial checkpoint."""
    state, path = trainer.state_dict(), Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
            np.savez(fh, **{**state, "meta": np.array(json.dumps(state["meta"]))})
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path, hierarchy: Hierarchy | None = None, feature_dim: int | None = None) -> dict:
    """The state saved by save_checkpoint, held by _check_entries to every
    rule that a reader with this hierarchy and feature dim, each optional,
    can check; ValueError naming the file and the entry otherwise."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != CHECKPOINT_MAGIC:
                raise ValueError("not a checkpoint file")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            state, size = {}, os.fstat(fh.fileno()).st_size
            with np.load(fh) as npz:  # object arrays are refused by default
                for info in npz.zip.infolist():  # np.savez stores entries; a deflated one can expand 1,000-fold
                    name = info.filename.removesuffix(".npy")
                    if info.compress_type != zipfile.ZIP_STORED:
                        raise ValueError(f"entry {name} is compressed, not stored")
                    try:
                        _check_claim(npz.zip, info, size)
                    except Exception as exc:
                        raise ValueError(f"entry {name}: {exc}") from exc
                for name in npz.files:
                    try:
                        state[name] = np.asarray(npz[name])  # an entry that is no .npy reads as bytes
                    except Exception as exc:
                        raise ValueError(f"entry {name}: {exc}") from exc
            _check_entries(state, hierarchy, feature_dim)
            return state
        except Exception as exc:  # zipfile and numpy fail on damaged bytes in many ways
            raise ValueError(f"{path}: {exc}") from exc


def _check_claim(archive: zipfile.ZipFile, info: zipfile.ZipInfo, size: int) -> None:
    """ValueError for a stored .npy member whose header, the only part read, claims more bytes of array
    data than the member or the `size`-byte file holds after it: numpy reserves a claim before it reads."""
    with archive.open(info) as fp:
        if fp.read(len(npy_format.MAGIC_PREFIX)) != npy_format.MAGIC_PREFIX:
            return  # not .npy: np.load reads it as bytes, which _check_entries refuses
        fp.seek(0)
        version = npy_format.read_magic(fp)
        shape, _, dtype = (npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0)(fp)
        claim, held = math.prod(shape) * dtype.itemsize, min(info.file_size, size) - fp.tell()
    if claim > held and not dtype.hasobject:  # an object array is pickled, and refused unread
        raise ValueError(f"header claims {claim} bytes of array data, the entry holds {held}")


def _outside(name: str, values: np.ndarray, low: int, high) -> str | None:
    out = values[(values < low) | (values >= high)]
    return f"entry {name} holds {name.split('.')[1]} {out[0]}, outside [{low}, {high})" if len(out) else None


def _differs(key: str, value, own, source: str, spec: str = "") -> str | None:
    """Problem of a key of meta that the reader's `source` gives too, as `own`: none where it has no value."""
    return None if own in (None, value) else f"{key} {value:{spec}} does not match the {source}'s {own:{spec}}"


def _gate(gate: dict, n_nodes, config: TrainConfig) -> str | None:
    """Cutoffs that detect_cutoff can give, on non-root nodes of the tree, and the config's detector."""
    for node, t in ((int(node), float(t)) for node, t in gate["cutoffs"].items()):
        if not t >= 0.0:  # NaN fails too
            return f"cutoff of node {node} is {t}, not an epoch in [0, inf]"
        if not 1 <= node < n_nodes:
            return f"cutoff on node {node}, which is not a non-root node of the tree"
    detector = gate["bin_width"], float(gate["drop_threshold"])
    if not float(detector[0]).is_integer():
        return f"gate bin_width {detector[0]} is not an integer"
    if detector != (config.gate_bin_width, config.gate_drop_threshold):
        return "gate bin_width {} and drop_threshold {} differ from the config".format(*detector)


def _streams(streams: dict) -> str | None:
    """PCG64 states, which StreamSet.load_state_dict sets as they are. Checked by hand: a
    generator to set them on would load numpy.random, 5 MB, into eval and inspect."""
    for stream, state in streams.items():
        try:
            ints = state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]
            valid = state["bit_generator"] == "PCG64" and all(type(i) is int for i in ints)
            valid = valid and all(0 <= i < 2**bits for i, bits in zip(ints, (128, 128, 1, 32)))
        except (TypeError, KeyError):
            valid = False
        if not valid:
            return f"RNG stream {stream!r}: not a PCG64 state"


def _nodes(name: str, nodes: np.ndarray, ids: np.ndarray, n_nodes, depths: np.ndarray | None) -> str | None:
    """Non-root nodes of the tree; a sample's history nodes all different, its log nodes of different depths."""
    if problem := _outside(name, nodes, 1, n_nodes):
        return f"{problem}: checkpoint log names samples or nodes this log has no row or column for"
    history = name.startswith("history")
    if not history and depths is None:
        return None
    keys = nodes if history else depths[nodes]
    order = np.lexsort((keys, ids))
    for i in order[1:][(ids[order[1:]] == ids[order[:-1]]) & (keys[order[1:]] == keys[order[:-1]])][:1]:
        if history:  # the record keeps the first entry of a (sample, node) pair
            return f"entries history.* hold sample {ids[i]} node {nodes[i]} twice"
        return f"checkpoint log holds two nodes of one depth for one sample: sample {ids[i]}, depth {keys[i]}"


def _integers(state: dict, name: str, along: str | None = None) -> np.ndarray:
    """Entry `name`, refused unless it is a 1-D integer array, as long as entry `along` where one is named."""
    if name not in state:
        raise ValueError(f"missing entry {name}")
    array = state[name]
    if array.dtype.kind not in "iu" or array.ndim != 1 or (along and len(array) != len(state[along])):
        as_long = f" as long as {along}" if along else ""
        raise ValueError(f"entry {name} is {array.dtype} {array.shape}, not a 1-D integer array{as_long}")
    return array


def _check_entries(state: dict, hierarchy: Hierarchy | None, feature_dim: int | None) -> None:
    """Parse `meta` in place, then hold it and every array to the rules of the README's checkpoint
    table, in the table's order. A rule that needs the tree or the features holds only for a reader
    that has them."""
    if "meta" not in state:
        raise ValueError("missing entry meta")
    n_nodes, tree_hash, classes, depths = math.inf, None, None, None
    if hierarchy is not None:
        n_nodes, tree_hash, classes, depths = hierarchy.n_nodes, hierarchy.hash, list(hierarchy.classes), hierarchy.depths
    kinds = dict(config=dict, hierarchy_hash=int, epoch=int, gate=dict, streams=dict, feature_dim=int, classes=list, loader_pos=int)
    try:
        meta = state["meta"] = json.loads(state["meta"].item())
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        for key, kind in kinds.items():  # in the order of the table
            if type(meta.get(key)) is not kind:
                raise ValueError(f"{key!r} is missing or not a JSON {kind.__name__}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"entry meta: {exc}") from exc
    try:
        config, epoch = TrainConfig.from_dict(meta["config"]), meta["epoch"]
        problem = (
            _differs("hierarchy_hash", meta["hierarchy_hash"], tree_hash, "hierarchy", "#018x")
            or (not 0 <= epoch <= config.epochs and f"epoch {epoch} is outside [0, {config.epochs}]")
            or _gate(meta["gate"], n_nodes, config)
            or _streams(meta["streams"])
        )
    except Exception as exc:
        problem = exc
    if problem:
        raise ValueError(f"entry meta: {problem}")
    # the heads of the config for the reader's features and tree, or meta's
    heads = entry_shapes(meta["feature_dim"] if feature_dim is None else feature_dim, classes or meta["classes"], config.hidden_dim)
    for name, shape in heads.items():
        if name not in state:
            raise ValueError(f"missing entry {name}")
        if (state[name].dtype, state[name].shape) != (HEAD_DTYPE, shape):
            role, depth, param = name.split(".")
            found = f"{state[name].dtype} {state[name].shape}"
            raise ValueError(f"entry {name}, depth {depth[1:]} {role} parameter {param}, is {found}, not {HEAD_DTYPE} {shape}")
    for key, own, source in (("feature_dim", feature_dim, "feature file"), ("classes", classes, "hierarchy")):
        if problem := _differs(key, meta[key], own, source):
            raise ValueError(f"entry meta: {problem}")
    perm = _integers(state, "loader.perm")
    if not np.array_equal(np.sort(perm), np.arange(len(perm))):
        raise ValueError(f"entry loader.perm is neither empty nor a permutation of range({len(perm)})")
    if not 0 <= meta["loader_pos"] <= len(perm):
        raise ValueError(f"entry meta: loader_pos {meta['loader_pos']} is outside [0, {len(perm)}]")
    logs = ("log", "history")
    ids = {log: _integers(state, f"{log}.sample_id") for log in logs}
    for name in ("log.epoch", "history.epoch", "log.node", "history.node"):
        log, key = name.split(".")
        values = _integers(state, name, f"{log}.sample_id")
        if problem := _outside(name, values, 0, epoch) if key == "epoch" else _nodes(name, values, ids[log], n_nodes, depths):
            raise ValueError(problem)
    if unexpected := sorted(state.keys() - {"meta", *heads, "loader.perm", *(f"{log}.{key}" for log in logs for key in LOG_KEYS)}):
        raise ValueError(f"unexpected entry {unexpected[0]}")


# -- metrics CSV ------------------------------------------------------------------


def metrics_columns(n_depths: int) -> list[str]:
    cols = ["epoch", "method"]
    cols += [f"loss_labeled_d{d}" for d in range(1, n_depths + 1)]
    cols += [f"loss_unlabeled_d{d}" for d in range(1, n_depths + 1)]
    cols += ["spl_count", "gated_count", "coverage", "purity", "avg_depth", "bmhd_id", "bmhd_ood", "bmhd_mix"]
    return cols


def format_field(value) -> str:
    """CSV field: empty for None, plain-float repr for floats (numpy scalars too)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def metrics_row(report: EpochReport) -> list[str]:
    row = [report.epoch, report.method, *map(float, report.loss_labeled + report.loss_unlabeled)]
    row += [report.spl_total, report.gated_count, report.coverage, report.purity, report.avg_depth]
    row += [report.bmhd_id, report.bmhd_ood, report.bmhd_mix]
    return [format_field(v) for v in row]


def run_training(
    config: TrainConfig,
    hierarchy: Hierarchy,
    dataset: FeatureDataset,
    out_dir=None,
    resume=None,
    log_fn=None,
) -> tuple[list[EpochReport], Trainer]:
    """Train for config.epochs epochs, optionally writing artifacts to out_dir.

    `resume` takes a checkpoint path, read against this hierarchy and the
    dataset's feature dim; training continues from its epoch counter and
    reproduces the uninterrupted run exactly. An unreadable or refused
    checkpoint raises a ValueError that starts with "checkpoint: ". The
    final epoch always evaluates on the test split, as do multiples of
    eval_every.
    """
    trainer = Trainer(config, hierarchy, dataset)
    if resume is not None:
        try:
            trainer.load_state_dict(load_checkpoint(resume, hierarchy, dataset.dim))
        except (OSError, ValueError) as exc:
            raise ValueError(f"checkpoint: {exc}") from exc

    csv_fh = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(asdict(config), indent=2) + "\n")
        csv_fh = open(out / "metrics.csv", "w", encoding="utf-8", newline="")
        csv_fh.write(",".join(metrics_columns(len(trainer.depths))) + "\n")

    reports = []
    try:
        while trainer.epoch < config.epochs:
            report = trainer.run_epoch()
            is_final = trainer.epoch == config.epochs
            if is_final or (config.eval_every > 0 and trainer.epoch % config.eval_every == 0):
                report.bmhd_id, report.bmhd_ood, report.bmhd_mix = trainer.evaluate()
            reports.append(report)
            if csv_fh is not None:
                csv_fh.write(",".join(metrics_row(report)) + "\n")
                csv_fh.flush()
            if out_dir is not None and (
                is_final or (config.checkpoint_every > 0 and trainer.epoch % config.checkpoint_every == 0)
            ):
                save_checkpoint(trainer, Path(out_dir) / f"ckpt_epoch{trainer.epoch:04d}.bin")
            if log_fn is not None:
                log_fn(report)
    finally:
        if csv_fh is not None:
            csv_fh.close()
    return reports, trainer
