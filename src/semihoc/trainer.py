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
the root). Cutoff detection runs at every epoch end, and an epoch whose
mean loss at some depth is not finite stops training with a ValueError
naming the epoch and the depth.

Targets come from the hierarchy's per-depth matrices: a labeled sample at
node c is supervised at depth d by row c of Q_d. Pseudo-labels are boolean
assignment masks A (rows x nodes), and their depth-d targets are
A @ (Q_d * appears_d[:, None]), which is A's columns for depth space d.

Determinism contract: all randomness flows through named substreams of the
run seed (weight init, labeled/unlabeled shuffling, labeled/unlabeled
dropout), so two runs with the same config produce byte-identical metrics,
and a resumed checkpoint replays the interrupted run exactly. Keeping the
labeled streams separate from the unlabeled ones means methods that never
touch unlabeled data still see the exact same labeled batches and dropout
masks as methods that do.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import heads as heads_mod
from .datagen import NO_LABEL, SPLIT_LABELED, SPLIT_TEST, SPLIT_UNLABELED, FeatureDataset
from .heads import DepthHeads, OptimizerParams, entry_shapes
from .hierarchy import Hierarchy, hierarchy_hash
from .metrics import bmhd, spl_purity_and_depth
from .prohoc import fuse_batch, predict_nodes
from .rng import StreamSet
from .spl import AgeGateState, SplLog, apply_gating, assign, epoch_dtype, update_cutoffs, update_history, update_log

METHODS = ("semihoc", "semihoc-no-gate", "supervised", "ssl-node", "ssl-per-depth", "spl-oracle")

# Upper bound on the global L2 norm of one depth head's gradient per step.
GRAD_CLIP_NORM = 5.0

CHECKPOINT_MAGIC = b"SHCK"
CHECKPOINT_VERSION = 3
_LOG_KEYS = ("sample_id", "node", "epoch")  # a log's entries: log.sample_id, ...
_META_TYPES = dict(
    config=dict, hierarchy_hash=int, epoch=int, feature_dim=int, classes=list, streams=dict, loader_pos=int, gate=dict
)


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
    spl_total: int
    gated_count: int
    coverage: float | None
    purity: float | None
    avg_depth: float | None
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
        expected = hierarchy_hash(hierarchy)
        if dataset.hierarchy_hash != expected:
            raise ValueError(
                f"dataset was built against a different hierarchy "
                f"(hash {dataset.hierarchy_hash:#018x} != {expected:#018x})"
            )
        dataset.validate(hierarchy)
        self.config = config
        self.hierarchy = hierarchy
        self.dataset = dataset
        self.hash = expected

        self.streams = StreamSet(config.seed)
        self.heads = DepthHeads(hierarchy, dataset.dim, hidden=config.hidden_dim, dropout=config.dropout)
        self.heads.init_params(self.streams.get("init"))
        self.opt = OptimizerParams(lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay)

        self.gate = AgeGateState(config.gate_bin_width, config.gate_drop_threshold)
        self.gating_active = config.method == "semihoc"
        self.epoch = 0

        self.labeled_idx = dataset.indices(SPLIT_LABELED)
        self.unlabeled_idx = dataset.indices(SPLIT_UNLABELED)
        self.test_idx = dataset.indices(SPLIT_TEST)
        # Pseudo-label state over (unlabeled row, node): the current log, and
        # for analysis the epoch of the first assignment ever.
        unlabeled_ids, dtype = dataset.sample_ids[self.unlabeled_idx], epoch_dtype(config.epochs)
        self.log = SplLog(unlabeled_ids, hierarchy.n_nodes, dtype)
        self.history = SplLog(unlabeled_ids, hierarchy.n_nodes, dtype)
        gts = dataset.labels[self.unlabeled_idx]
        known = gts != NO_LABEL
        self._ood_rows = known & ~hierarchy.is_leaf(np.where(known, gts, 0))
        if config.method != "supervised" and len(self.unlabeled_idx) == 0:
            raise ValueError(f"method {config.method!r} needs a non-empty unlabeled split")
        if len(self.labeled_idx) == 0:
            raise ValueError("training needs a non-empty labeled split")
        if config.method == "spl-oracle" and not known.all():
            raise ValueError("spl-oracle needs ground truth for every unlabeled sample")

        self.loader = _LabeledLoader(
            self.labeled_idx, config.labeled_batch_size, self.streams.get("shuffle/labeled")
        )

    # -- small helpers -----------------------------------------------------------

    @property
    def depths(self) -> list[int]:
        return self.heads.depths

    def _steps_per_epoch(self) -> int:
        batch = self.config.labeled_batch_size * self.config.unlabeled_ratio
        if len(self.unlabeled_idx) == 0:
            return max(1, math.ceil(len(self.labeled_idx) / self.config.labeled_batch_size))
        return math.ceil(len(self.unlabeled_idx) / batch)

    def _features(self, idx: np.ndarray) -> np.ndarray:
        return self.dataset.features[idx].astype(np.float64)

    # -- per-method unlabeled target construction ---------------------------------

    def _assign_semihoc(self, batch_u: np.ndarray, x_u: np.ndarray, stats: dict) -> np.ndarray:
        """Log this batch's subtree pseudo-labels and return them gated."""
        fused = fuse_batch(self.heads.teacher_forward_all(x_u), self.hierarchy)
        assigned = assign(fused, self.hierarchy, self.config.tau)
        rows = np.searchsorted(self.unlabeled_idx, batch_u)
        update_log(self.log, rows, assigned, self.epoch)
        update_history(self.history, rows, assigned, self.epoch)
        gated = apply_gating(assigned, self.log.first[rows], self.gate.vector(self.hierarchy.n_nodes))
        stats["spl_total"] += int(assigned.sum())
        stats["gated"] += int(assigned.sum() - gated.sum())
        ood = self._ood_rows[rows]
        stats["ood"].append((gated[ood], self.dataset.labels[batch_u][ood]))
        return gated

    def _assign_oracle(self, gts: np.ndarray) -> np.ndarray:
        """Every non-root ancestor-or-self of the ground truth."""
        assigned = self.hierarchy.in_subtree(gts[:, None], np.arange(self.hierarchy.n_nodes))
        assigned[:, 0] = False
        return assigned

    def _pseudo_targets(self, assigned: np.ndarray) -> list[np.ndarray]:
        """Per-depth targets A @ (Q_d * appears_d[:, None]) of an assignment
        mask A, where appears_d marks the nodes of depth space d. Q_d is the
        identity on those rows, so this is A's depth-space-d columns."""
        return [assigned[:, list(self.hierarchy.depth_space(d).nodes)].astype(np.float64) for d in self.depths]

    def _unlabeled_targets(self, batch_u: np.ndarray, x_u: np.ndarray, stats: dict) -> list[np.ndarray]:
        cfg = self.config
        if cfg.method in ("semihoc", "semihoc-no-gate"):
            return self._pseudo_targets(self._assign_semihoc(batch_u, x_u, stats))
        if cfg.method == "spl-oracle":
            return self._pseudo_targets(self._assign_oracle(self.dataset.labels[batch_u]))
        if cfg.method == "ssl-node":
            # the confident argmax node supervises every depth, like a label
            fused = fuse_batch(self.heads.teacher_forward_all(x_u), self.hierarchy)
            preds = predict_nodes(fused)
            passing = fused[np.arange(len(preds)), preds] > cfg.tau
            return [self.hierarchy.Q[d - 1][preds] * passing[:, None] for d in self.depths]
        targets = []  # ssl-per-depth: each depth's own confident argmax
        for d in self.depths:
            probs = heads_mod.forward(self.heads.teacher(d), x_u, mode="eval")
            preds = np.argmax(probs, axis=1)
            passing = probs[np.arange(len(preds)), preds] > cfg.tau
            targets.append(((preds[:, None] == np.arange(probs.shape[1])) & passing[:, None]).astype(np.float64))
        return targets

    # -- one optimization step ------------------------------------------------------

    def _train_step(self, batch_l: np.ndarray, batch_u: np.ndarray, stats: dict) -> tuple[list[float], list[float]]:
        cfg = self.config
        x_l = self._features(batch_l)
        labels_l = self.dataset.labels[batch_l]
        n_l = len(batch_l)

        uses_unlabeled = cfg.method != "supervised"
        x_u = self._features(batch_u) if uses_unlabeled else None
        m_u = len(batch_u) if uses_unlabeled else 0

        d_targets = self._unlabeled_targets(batch_u, x_u, stats) if uses_unlabeled else None

        drop_l = self.streams.get("dropout/labeled")
        drop_u = self.streams.get("dropout/unlabeled")
        loss_l_out, loss_u_out = [], []
        for d in self.depths:
            student = self.heads.student(d)
            t_l = self.hierarchy.Q[d - 1][labels_l]
            masks_l = heads_mod.sample_masks(student, n_l, drop_l)
            loss_l, grads = heads_mod.ce_loss_and_grad(student, x_l, t_l, mode="train", masks=masks_l)
            for g in grads:
                g *= 1.0 / n_l

            loss_u = 0.0
            if uses_unlabeled:
                masks_u = heads_mod.sample_masks(student, m_u, drop_u)
                t_u = d_targets[d - 1]
                if t_u.any():
                    loss_u, grads_u = heads_mod.ce_loss_and_grad(student, x_u, t_u, mode="train", masks=masks_u)
                    for g, gu in zip(grads, grads_u):
                        g += gu * (1.0 / m_u)

            self.heads.sgd_step(d, grads, self.opt, scale=clip_scale(grads, GRAD_CLIP_NORM))
            loss_l_out.append(loss_l / n_l)
            loss_u_out.append(loss_u / m_u if m_u else 0.0)
        self.heads.ema_update_all(cfg.ema_momentum)
        return loss_l_out, loss_u_out

    # -- epochs -------------------------------------------------------------------

    def run_epoch(self) -> EpochReport:
        cfg = self.config
        start = time.perf_counter()
        stats = {"spl_total": 0, "gated": 0, "ood": []}
        sum_l = np.zeros(len(self.depths))
        sum_u = np.zeros(len(self.depths))

        if cfg.method == "supervised" or len(self.unlabeled_idx) == 0:
            batches_u = [np.empty(0, dtype=np.int64)] * self._steps_per_epoch()
        else:
            perm = self.streams.get("shuffle/unlabeled").permutation(len(self.unlabeled_idx))
            order = self.unlabeled_idx[perm]
            batch = cfg.labeled_batch_size * cfg.unlabeled_ratio
            batches_u = [order[i : i + batch] for i in range(0, len(order), batch)]

        for batch_u in batches_u:
            batch_l = self.loader.next_batch()
            loss_l, loss_u = self._train_step(batch_l, batch_u, stats)
            for d, l, u in zip(self.depths, loss_l, loss_u):
                if not (math.isfinite(l) and math.isfinite(u)):
                    raise ValueError(f"epoch {self.epoch} depth {d}: non-finite loss (labeled {l}, unlabeled {u})")
            sum_l += loss_l
            sum_u += loss_u

        if self.gating_active:
            update_cutoffs(self.gate, self.log, self.epoch)

        purity = avg_depth = None
        if stats["ood"]:
            gated, gts = (np.concatenate(parts) for parts in zip(*stats["ood"]))
            result = spl_purity_and_depth(gated, gts, self.hierarchy)
            if result is not None:
                purity, avg_depth = result

        mean_l, mean_u = sum_l / len(batches_u), sum_u / len(batches_u)
        report = EpochReport(
            epoch=self.epoch,
            method=cfg.method,
            loss_labeled=tuple(mean_l),
            loss_unlabeled=tuple(mean_u),
            spl_total=stats["spl_total"],
            gated_count=stats["gated"],
            coverage=(stats["spl_total"] - stats["gated"]) / stats["spl_total"] if stats["spl_total"] else None,
            purity=purity,
            avg_depth=avg_depth,
            wall_clock=time.perf_counter() - start,
        )
        self.epoch += 1
        return report

    def evaluate(self, idx: np.ndarray | None = None) -> tuple[float | None, float | None, float | None]:
        """Teacher-model scores on a sample subset (default: the test split)."""
        if idx is None:
            idx = self.test_idx
        idx = idx[self.dataset.labels[idx] != NO_LABEL]
        if len(idx) == 0:
            return None, None, None
        probs = predict_dataset(self.heads, self.hierarchy, self.dataset.features[idx])
        preds = predict_nodes(probs)
        report = bmhd(preds, self.dataset.labels[idx], self.hierarchy)
        mix = 0.5 * (report.id + report.ood) if report.id is not None and report.ood is not None else None
        return report.id, report.ood, mix

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> dict:
        """The checkpoint entries by name: `meta`, the scalar state as a
        JSON-able dict, and the arrays. Head, velocity and loader arrays are
        the live buffers, not copies; the logs are their sparse triples."""
        meta = {"config": asdict(self.config), "hierarchy_hash": self.hash, "epoch": self.epoch}
        meta.update(feature_dim=self.dataset.dim, classes=[len(self.hierarchy.depth_space(d)) for d in self.depths])
        meta.update(streams=self.streams.state_dict(), loader_pos=self.loader.pos, gate=self.gate.state_dict())
        state = {"meta": meta, **self.heads.state_dict(), "loader.perm": self.loader.perm}
        for name, log in (("log", self.log), ("history", self.history)):
            state.update({f"{name}.{key}": array for key, array in log.state_dict().items()})
        return state

    def load_state_dict(self, state: dict) -> None:
        meta = state["meta"]
        if meta["hierarchy_hash"] != self.hash:
            raise ValueError("checkpoint was trained against a different hierarchy")
        if meta["config"] != asdict(self.config):
            raise ValueError("checkpoint config does not match the requested config")
        self.heads.load_state_dict(state)
        for name, log in (("log", self.log), ("history", self.history)):
            log.load_state_dict({key: state[f"{name}.{key}"] for key in _LOG_KEYS})
        self.epoch, self.loader.pos = meta["epoch"], meta["loader_pos"]
        self.loader.perm = np.array(state["loader.perm"], dtype=np.int64)
        self.streams.load_state_dict(meta["streams"])
        self.gate.load_state_dict(meta["gate"])


def clip_scale(grads: list[np.ndarray], max_norm: float) -> float:
    """Factor that brings the global L2 norm of `grads` down to `max_norm`.

    1.0 when the norm is already within the bound, so small gradients are
    applied exactly as computed.
    """
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    return max_norm / norm if norm > max_norm else 1.0


def predict_dataset(heads: DepthHeads, hierarchy: Hierarchy, features: np.ndarray, batch: int = 1024) -> np.ndarray:
    """Fused teacher node distributions for a feature matrix."""
    rows = []
    for i in range(0, len(features), batch):
        x = features[i : i + batch].astype(np.float64)
        rows.append(fuse_batch(heads.teacher_forward_all(x), hierarchy))
    return np.concatenate(rows) if rows else np.zeros((0, hierarchy.n_nodes))


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


def load_checkpoint(path) -> dict:
    """The state saved by save_checkpoint, every entry checked; ValueError
    naming the file and the entry when it is not a complete checkpoint of
    this version."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != CHECKPOINT_MAGIC:
                raise ValueError("not a checkpoint file")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            state = {}
            with np.load(fh) as npz:  # object arrays are refused by default
                for name in npz.files:
                    try:
                        state[name] = np.asarray(npz[name])  # an entry that is no .npy reads as bytes
                    except Exception as exc:
                        raise ValueError(f"entry {name}: {exc}") from exc
            _check_entries(state)
            return state
        except Exception as exc:  # zipfile and numpy fail on damaged bytes in many ways
            raise ValueError(f"{path}: {exc}") from exc


def _check_entries(state: dict) -> None:
    """Parse `meta` in place, then require exactly the arrays it implies:
    float64 heads of the recorded shapes, and 1-D integer loader and log
    arrays."""
    if "meta" not in state:
        raise ValueError("missing entry meta")
    try:
        meta = state["meta"] = json.loads(state["meta"].item())
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        for key, kind in _META_TYPES.items():
            if not isinstance(meta.get(key), kind):
                raise ValueError(f"{key!r} is missing or not a JSON {kind.__name__}")
        TrainConfig.from_dict(meta["config"])
        AgeGateState().load_state_dict(meta["gate"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"entry meta: {exc}") from exc
    expected = entry_shapes(meta["feature_dim"], meta["classes"], meta["config"]["hidden_dim"])
    expected.update({f"{name}.{key}": None for name in ("log", "history") for key in _LOG_KEYS})
    expected["loader.perm"] = None
    for name in sorted(expected.keys() | (state.keys() - {"meta"})):
        if name not in state or name not in expected:
            raise ValueError(f"{'missing' if name not in state else 'unexpected'} entry {name}")
        array, shape = state[name], expected[name]
        if shape is None and (array.dtype.kind not in "iu" or array.ndim != 1):
            raise ValueError(f"entry {name} is {array.dtype} {array.shape}, not a 1-D integer array")
        if shape is not None and (array.dtype, array.shape) != (np.float64, shape):
            raise ValueError(f"entry {name} is {array.dtype} {array.shape}, not float64 {shape}")
    for name in ("log", "history"):
        if len({len(state[f"{name}.{key}"]) for key in _LOG_KEYS}) != 1:
            raise ValueError(f"entries {name}.* differ in length")


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
    resume: dict | None = None,
    log_fn=None,
) -> tuple[list[EpochReport], Trainer]:
    """Train for config.epochs epochs, optionally writing artifacts to out_dir.

    `resume` takes a loaded checkpoint state; training continues from its
    epoch counter and reproduces the uninterrupted run exactly. The final
    epoch always evaluates on the test split, as do multiples of
    eval_every.
    """
    trainer = Trainer(config, hierarchy, dataset)
    if resume is not None:
        trainer.load_state_dict(resume)

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
