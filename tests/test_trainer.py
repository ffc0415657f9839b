import json
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc import heads as heads_mod
from semihoc import spl as spl_mod
from semihoc import trainer as trainer_mod
from semihoc.benchmark import ood_subtree_bins, reference_dataset, reference_train_config
from semihoc.datagen import (
    NO_LABEL,
    SPLIT_LABELED,
    SPLIT_TEST,
    SPLIT_UNLABELED,
    FeatureDataset,
    SyntheticConfig,
    generate,
    sample_labeled_subset,
)
from semihoc.heads import DepthHeads
from semihoc.hierarchy import Hierarchy, random_tree
from semihoc.metrics import bmhd, confidence_accuracy_bins, spl_purity_and_depth
from semihoc.prohoc import fuse_batch, subtree_confidences
from semihoc.trainer import (
    FUSE_BYTES,
    GRAD_CLIP_NORM,
    LOG_KEYS,
    METHODS,
    PREDICT_BATCH,
    TrainConfig,
    Trainer,
    load_checkpoint,
    predict_blocks,
    predict_dataset,
    predict_rows,
    run_training,
    save_checkpoint,
)
from test_cli import read_entries, write_checkpoint


def config(**kw):
    base = dict(
        method="semihoc",
        epochs=4,
        labeled_batch_size=8,
        unlabeled_ratio=2,
        lr=0.05,
        dropout=0.3,
        hidden_dim=32,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_unknown_key_lists_valid(self):
        with pytest.raises(ValueError, match="unknown config keys.*learning_rate"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            config(method="sgd").validate()

    def test_tau_one_allowed(self):
        config(tau=1.0).validate()

    @pytest.mark.parametrize("method", ["semihoc", "semihoc-no-gate"])
    def test_tau_below_one_half_refused_for_subtree_labels(self, method):
        config(method=method, tau=0.5).validate()
        with pytest.raises(ValueError, match="tau must be >= 0.5"):
            config(method=method, tau=0.4999).validate()

    @pytest.mark.parametrize("method", ["ssl-node", "ssl-per-depth", "spl-oracle"])
    def test_other_methods_take_any_tau_in_the_unit_interval(self, method):
        for tau in (1e-9, 0.4, 1.0):
            config(method=method, tau=tau).validate()
        for tau in (0.0, 1.5):
            with pytest.raises(ValueError, match="tau"):
                config(method=method, tau=tau).validate()

    @pytest.mark.parametrize("field", ["lr", "weight_decay", "dropout", "momentum", "ema_momentum", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            config(**{field: value}).validate()

    def test_negative_weight_decay_refused(self):
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            config(weight_decay=-5.0).validate()

    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig) if type(f.default) is int])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_integer_field_refuses_a_non_integer(self, field, value):
        """2.5 epochs used to train 3 and write no final checkpoint; 2.5 in
        the other integer fields ended in a TypeError."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig.from_dict({field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig) if type(f.default) is float])
    def test_float_field_refuses_a_bool(self, field):
        """true passed every range check as 1: `"ema_momentum": true` froze
        the teacher and `"tau": true` assigned no pseudo-label."""
        with pytest.raises(ValueError, match=f"{field} must be a number, got True"):
            TrainConfig.from_dict({field: True})

    def test_nan_lr_refused_from_dict(self):
        data = dict(vars(reference_train_config("semihoc", 0, 3)), lr=math.nan)
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig.from_dict(data)


# A short run whose log keeps changing, so that age-gating removes entries within 5 epochs.
CHANGING_LOG = dict(lr=0.2, tau=0.5, gate_drop_threshold=0.5, ema_momentum=0.5)


class TestLossContract:
    def test_loss_normalization(self, tiny_data):
        """l_d = l_d^labeled/N + l_d^unlabeled/M, recomputed from a manual step."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        report = trainer.run_epoch()
        for l, u in zip(report.loss_labeled, report.loss_unlabeled):
            assert math.isfinite(l) and math.isfinite(u)
            assert l >= 0.0 and u >= 0.0
        assert any(u > 0 for u in report.loss_unlabeled)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_stops_at_first_non_finite_step(self, tiny_data, monkeypatch):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(lr=1e300), hierarchy, dataset)
        losses = []
        step = trainer._train_step

        def spy(*args):
            losses.append(step(*args))
            return losses[-1]

        monkeypatch.setattr(trainer, "_train_step", spy)
        with pytest.raises(ValueError, match="epoch 0 depth .*non-finite loss"):
            trainer.run_epoch()
        finite = [all(map(math.isfinite, l + u)) for l, u in losses]
        assert len(losses) < trainer._steps_per_epoch() and finite == [True] * (len(losses) - 1) + [False]

    def test_supervised_has_no_unlabeled_loss(self, tiny_data):
        hierarchy, dataset = tiny_data
        reports, _ = run_training(config(method="supervised", epochs=2), hierarchy, dataset)
        assert all(u == 0.0 for r in reports for u in r.loss_unlabeled)

    def test_zero_weight_heads_start_at_log_k(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(method="supervised", dropout=0.0), hierarchy, dataset)
        for weights, _, _ in trainer.heads.students:
            for w in weights:
                w[...] = 0.0
        batch_l = trainer.loader.next_batch()
        loss_l, _ = trainer._train_step(batch_l, np.empty(0, dtype=np.int64))
        for d, loss in zip(trainer.depths, loss_l):
            assert loss == pytest.approx(math.log(len(hierarchy.depth_space(d))), rel=1e-9)


class TestGradientClipping:
    def test_step_norm_bounded_and_small_gradients_untouched(self, tiny_data, monkeypatch):
        hierarchy, dataset = tiny_data
        calls = []  # (raw gradient norm, scale) per sgd_step
        original = DepthHeads.sgd_step

        def spy(heads, d, g, lr, momentum, weight_decay, scale=1.0):
            views = [g[s] for s in heads.param_slices[d - 1]]  # per parameter, before sgd_step uses g as scratch
            calls.append((math.sqrt(sum(float((v.astype(np.float64) ** 2).sum()) for v in views)), scale))
            return original(heads, d, g, lr, momentum, weight_decay, scale)

        monkeypatch.setattr(DepthHeads, "sgd_step", spy)
        fresh = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        # zero weights leave only the output-bias gradient, far below the bound
        zeroed = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        for weights, _, _ in zeroed.heads.students:
            for w in weights:
                w[...] = 0.0
        for trainer in (fresh, zeroed):
            batch_u = trainer.unlabeled_idx[: trainer.config.labeled_batch_size * trainer.config.unlabeled_ratio]
            trainer._train_step(trainer.loader.next_batch(), batch_u)

        assert len(calls) == 2 * hierarchy.max_depth  # one pair per depth and step
        assert any(norm > GRAD_CLIP_NORM for norm, _ in calls)
        assert any(norm < GRAD_CLIP_NORM for norm, _ in calls)
        for norm, scale in calls:
            assert scale * norm <= GRAD_CLIP_NORM * (1 + 1e-12)
            if norm < GRAD_CLIP_NORM:
                assert scale == 1.0

    def test_oracle_depth1_head_stays_alive(self):
        """Seed 0 of spl-oracle on the reference setup used to kill ~70% of the
        depth-1 student's hidden units in layers 2-3 within 20 epochs, after
        which the head output was uniform and every prediction was the root."""
        hierarchy, dataset = reference_dataset(0)
        _, trainer = run_training(reference_train_config("spl-oracle", 0, epochs=20), hierarchy, dataset)
        x_u = dataset.features[trainer.unlabeled_idx].astype(np.float64)
        cache = heads_mod.forward_cached(trainer.heads.students[0], x_u, None)
        for layer, a in enumerate(cache["inputs"][2:], start=2):  # post-ReLU, no dropout
            dead = float((~(a > 0).any(axis=0)).mean())
            assert dead < 0.5, f"layer {layer}: {dead:.0%} of hidden units dead on unlabeled rows"


class TestDegeneracies:
    def test_tau_one_equals_supervised(self, tiny_data):
        hierarchy, dataset = tiny_data
        r_tau, _ = run_training(config(method="semihoc", tau=1.0, epochs=3), hierarchy, dataset)
        r_sup, _ = run_training(config(method="supervised", epochs=3), hierarchy, dataset)
        for a, b in zip(r_tau, r_sup):
            assert a.loss_labeled == b.loss_labeled
            assert all(u == 0.0 for u in a.loss_unlabeled)
            assert a.spl_total == 0

    def test_no_gate_equals_infinite_cutoffs(self, tiny_data, monkeypatch):
        hierarchy, dataset = tiny_data
        r_nogate, _ = run_training(config(method="semihoc-no-gate", epochs=3), hierarchy, dataset)
        monkeypatch.setattr(spl_mod, "detect_cutoff", lambda *a, **k: math.inf)
        r_inf, _ = run_training(config(method="semihoc", epochs=3), hierarchy, dataset)
        for a, b in zip(r_nogate, r_inf):
            assert a.loss_labeled == b.loss_labeled
            assert a.loss_unlabeled == b.loss_unlabeled
            assert a.spl_total == b.spl_total and a.gated_count == b.gated_count == 0


def chain_targets(trainer, monkeypatch, chains):
    """The target table of a batch whose gated subtree pseudo-labels are the chain table `chains`."""
    monkeypatch.setattr(trainer, "_assign_semihoc", lambda batch_u, x_u: chains)
    return trainer._unlabeled_targets(np.arange(len(chains)), None)


def uneven_data():
    """Root -> {A, B}, B -> {C, D}, with A, C and D ID classes, so that A is
    also a class of depth 2: one labeled row per class and five unlabeled
    rows, one of them out of distribution at B."""
    tree = Hierarchy([-1, 0, 0, 2, 2], ["Root", "A", "B", "C", "D"], id_leaves=[1, 3, 4])
    splits = np.array([SPLIT_LABELED] * 3 + [SPLIT_UNLABELED] * 5, dtype=np.uint8)
    features = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    labels = np.array([1, 3, 4, 1, 3, 4, 2, 1])
    return tree, FeatureDataset(features, labels, np.arange(8, dtype=np.uint64), splits, tree.hash)


class TestSteps:
    def test_internal_spl_trains_only_its_depth(self, tiny_data, monkeypatch):
        """A depth-1 chain node only contributes where it lives in a space."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)

        depth1_node = int(np.flatnonzero(hierarchy.parents == 0)[0])  # the root's first child
        assigned = np.full((1, hierarchy.max_depth), -1)
        assigned[0, 0] = depth1_node
        table = chain_targets(trainer, monkeypatch, assigned)
        assert table[0, 0] == depth1_node and hierarchy.targets(1, table[0, 0]).any()
        assert (table[0, 1:] == -1).all()

    def test_semihoc_targets_supported_inside_subtree(self, tiny_data, monkeypatch):
        """Chain-node targets at depth d are one-hot at the node itself, so
        their support sits inside Subtree(node) ∩ depth space d."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)

        nodes = np.arange(hierarchy.n_nodes)
        for c in range(1, hierarchy.n_nodes):
            chain = hierarchy.ancestors_or_self(c)[1:]
            assigned = np.full((1, hierarchy.max_depth), -1)
            assigned[0, : len(chain)] = chain
            table = chain_targets(trainer, monkeypatch, assigned)
            for d in trainer.depths:
                node = table[0, d - 1]
                space = hierarchy.depth_space(d)
                support = {space[j] for j in np.nonzero(hierarchy.targets(d, node))[0]} if node >= 0 else set()
                in_space = [n for n in chain if hierarchy.columns[d - 1, n] >= 0]
                allowed = set().union(*(set(nodes[hierarchy.in_subtree(nodes, n)].tolist()) for n in in_space))
                allowed = allowed if support else set()
                assert support <= (allowed & set(space))

    def test_pseudo_targets_equal_the_matrix_product(self, tiny_data, monkeypatch):
        """A @ (Q_d * appears_d[:, None]) for the assignment mask A of random
        chains with gated holes, on the rows where it is not zero."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        rng = np.random.default_rng(0)
        ends = rng.integers(1, hierarchy.n_nodes, 40)
        chains = hierarchy.ancestors[ends, 1:]
        table = np.where((chains == ends[:, None]).cumsum(axis=1) <= 1, chains, -1)  # -1 below the chain's end
        table[rng.random(table.shape) < 0.3] = -1
        mask = np.zeros((40, hierarchy.n_nodes), dtype=bool)
        rows, cols = np.nonzero(table >= 0)
        mask[rows, table[rows, cols]] = True
        targets = chain_targets(trainer, monkeypatch, table)
        for d in trainer.depths:
            appears = hierarchy.columns[d - 1] >= 0
            q = hierarchy.targets(d, np.arange(hierarchy.n_nodes))  # Q_d: every node's target row
            product = mask @ (q * appears[:, None])
            live = targets[:, d - 1] >= 0
            assert np.array_equal(live, product.any(axis=1))
            assert np.array_equal(hierarchy.targets(d, targets[live, d - 1]), product[live])
        assert (targets >= 0).any()

    def test_chain_ending_id_leaf_is_its_node_in_deeper_spaces(self, monkeypatch):
        hierarchy, dataset = uneven_data()
        trainer = Trainer(config(), hierarchy, dataset)
        chains = np.array([[1, -1], [2, 3], [2, -1], [-1, 4], [-1, -1]])
        assert chain_targets(trainer, monkeypatch, chains).tolist() == [[1, 1], [2, 3], [2, -1], [-1, 4], [-1, -1]]
        assert np.array_equal(hierarchy.targets(2, 1), np.eye(3)[hierarchy.columns[1, 1]])  # one-hot at A's depth-2 class
        oracle = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        table = oracle._unlabeled_targets(oracle.unlabeled_idx, dataset.features[oracle.unlabeled_idx])
        assert table.tolist() == [[1, 1], [2, 3], [2, 4], [2, -1], [1, 1]]

    def test_oracle_chain_is_ancestor_path(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        batch_u = trainer.unlabeled_idx[np.isin(dataset.labels[trainer.unlabeled_idx], sorted(hierarchy.id_leaves))][:1]
        assigned = trainer._unlabeled_targets(batch_u, dataset.features[batch_u])[0]
        assert set(assigned[assigned >= 0].tolist()) == set(hierarchy.ancestors_or_self(dataset.labels[batch_u[0]])[1:])

    def test_oracle_refuses_missing_ground_truth(self, tiny_data):
        hierarchy, dataset = tiny_data
        from dataclasses import replace

        labels = dataset.labels.copy()
        labels[dataset.indices(SPLIT_UNLABELED)[0]] = NO_LABEL
        broken = replace(dataset, labels=labels)
        with pytest.raises(ValueError, match="ground truth"):
            Trainer(config(method="spl-oracle"), hierarchy, broken)

    def test_hierarchy_hash_mismatch_rejected(self, tiny_data):
        hierarchy, dataset = tiny_data
        from dataclasses import replace

        with pytest.raises(ValueError, match="hierarchy"):
            Trainer(config(), hierarchy, replace(dataset, hierarchy_hash=1))


class TestUnlabeledTargets:
    """Every method's unlabeled targets are one table of nodes whose target rows the student learns."""

    @pytest.mark.parametrize("method", METHODS)
    def test_every_entry_is_none_or_a_q_row(self, tiny_data, method):
        """For the ssl methods, the target rows equal the dense targets built
        without the table: the target rows of the confident fused argmax where
        they are not zero, or the one-hot of each depth's confident argmax."""
        hierarchy, dataset = tiny_data
        tau = 0.9 if method == "ssl-node" else 0.5  # so that some rows pass and some do not
        trainer = Trainer(config(method=method, tau=tau), hierarchy, dataset)
        batch_u = trainer.unlabeled_idx[:16] if method != "supervised" else np.empty(0, dtype=np.int64)
        x_u = dataset.features[batch_u]
        table = trainer._unlabeled_targets(batch_u, x_u)
        assert table.shape == (len(batch_u), hierarchy.max_depth)
        live = table >= 0
        assert (table[~live] == -1).all()
        for d in trainer.depths:
            assert hierarchy.targets(d, table[live[:, d - 1], d - 1]).any(axis=1).all()
        if method not in ("ssl-node", "ssl-per-depth"):
            return
        probs, rows = trainer.heads.teacher_forward_all(x_u), np.arange(len(batch_u))
        if method == "ssl-node":
            fused = fuse_batch(probs, hierarchy)
            preds = fused.argmax(axis=1)
            q = [hierarchy.targets(d, preds) for d in trainer.depths]
            dense = [((fused[rows, preds] > tau) & t.any(axis=1), t) for t in q]
        else:
            dense = [(p[rows, p.argmax(axis=1)] > tau, np.eye(p.shape[1])[p.argmax(axis=1)]) for p in probs]
        for d, (passing, targets) in zip(trainer.depths, dense):
            assert np.array_equal(live[:, d - 1], passing)
            assert np.array_equal(hierarchy.targets(d, table[passing, d - 1]), targets[passing])
        assert live.any() and not live.all()


class TestDeterminismAndResume:
    def test_identical_runs_byte_identical_csv(self, tiny_data, tmp_path):
        hierarchy, dataset = tiny_data
        run_training(config(), hierarchy, dataset, out_dir=tmp_path / "a")
        run_training(config(), hierarchy, dataset, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_resume_matches_uninterrupted(self, tiny_data, tmp_path):
        hierarchy, dataset = tiny_data
        cfg = config(epochs=6, checkpoint_every=3)
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "full")
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "resumed", resume=tmp_path / "full" / "ckpt_epoch0003.bin")
        full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        assert resumed[0] == full[0]
        assert resumed[1:] == full[4:]

    def test_resumed_checkpoint_holds_the_same_log_and_history(self, tiny_data, tmp_path):
        """The history a resumed run writes keeps the first epochs of entries
        made before the resume, as the uninterrupted run's does."""
        hierarchy, dataset = tiny_data
        cfg = config(epochs=6, checkpoint_every=3, **CHANGING_LOG)
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "full")
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "resumed", resume=tmp_path / "full" / "ckpt_epoch0003.bin")
        full, resumed = (load_checkpoint(tmp_path / run / "ckpt_epoch0006.bin") for run in ("full", "resumed"))
        for name in (f"{log}.{key}" for log in ("log", "history") for key in LOG_KEYS):
            assert full[name].dtype == resumed[name].dtype and np.array_equal(full[name], resumed[name]), name
        assert (full["history.epoch"] < 3).any() and len(full["history.node"]) > len(full["log.node"])

    def test_checkpoint_roundtrip_preserves_state(self, tiny_data, tmp_path):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        trainer.run_epoch()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trainer, path)
        clone = Trainer(config(), hierarchy, dataset)
        clone.load_state_dict(load_checkpoint(path))
        a = trainer.run_epoch()
        b = clone.run_epoch()
        assert a.loss_labeled == b.loss_labeled
        assert a.loss_unlabeled == b.loss_unlabeled

    def test_state_holds_the_live_arrays(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        state = trainer.state_dict()
        assert np.shares_memory(state["student.d1.w0"], trainer.heads.students[0][0][0])
        last_b3 = state[f"velocity.d{hierarchy.max_depth}.b3"]
        assert np.shares_memory(last_b3, trainer.heads.buffers["velocity"][-last_b3.size :])
        assert state["loader.perm"] is trainer.loader.perm

    def test_failed_save_leaves_no_partial_file(self, tiny_data, tmp_path, monkeypatch):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        path = tmp_path / "ckpt_epoch0001.bin"

        def fail_partway(fh, **entries):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trainer, path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        save_checkpoint(trainer, path)
        saved = path.read_bytes()
        monkeypatch.setattr(np, "savez", fail_partway)
        trainer.run_epoch()
        with pytest.raises(OSError):
            save_checkpoint(trainer, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == saved

    def test_wrong_config_resume_rejected(self, tiny_data, tmp_path):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        save_checkpoint(trainer, tmp_path / "c.bin")
        other = Trainer(config(lr=0.123), hierarchy, dataset)
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(load_checkpoint(tmp_path / "c.bin"))


def edited_checkpoint(src, dst, edit):
    """Write to `dst` the checkpoint file `src` with its entries changed by
    edit(entries, meta), meta being the parsed `meta` entry."""
    entries = read_entries(src)
    meta = json.loads(entries["meta"].item())
    edit(entries, meta)
    entries["meta"] = np.array(json.dumps(meta))
    write_checkpoint(dst, entries)
    return dst


def set_triples(entries, name, sample_ids, nodes, epochs):
    """Replace the log or history triples `name`.* of checkpoint entries, in their dtypes."""
    for key, values in zip(LOG_KEYS, (sample_ids, nodes, epochs)):
        entries[f"{name}.{key}"] = np.array(values, dtype=entries[f"{name}.{key}"].dtype)


class TestLoadCheckpoint:
    """load_checkpoint refuses what the loaders it feeds only copy: the heads,
    the log and its history, and the gate."""

    @pytest.fixture(scope="class")
    def saved(self, tiny_data, tmp_path_factory):
        """A checkpoint after 3 of 4 epochs, so that epochs 0-2 can be logged."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        for _ in range(3):
            trainer.run_epoch()
        path = tmp_path_factory.mktemp("saved") / "ckpt.bin"
        save_checkpoint(trainer, path)
        return path

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_load_refuses_a_cutoff_no_detection_gives(self, saved, tmp_path, bad):
        cutoffs = {"3": 0.0, "6": bad, "2": math.inf}
        path = edited_checkpoint(saved, tmp_path / "c.bin", lambda entries, meta: meta["gate"].update(cutoffs=cutoffs))
        with pytest.raises(ValueError, match="entry meta: cutoff of node 6 is"):
            load_checkpoint(path)
        cutoffs["6"] = 1.0  # zero, infinity and whole epochs pass
        path = edited_checkpoint(saved, tmp_path / "c.bin", lambda entries, meta: meta["gate"].update(cutoffs=cutoffs))
        assert load_checkpoint(path)["meta"]["gate"]["cutoffs"] == cutoffs

    @pytest.mark.parametrize("in_dim, hidden", [(4, 6), (5, 7)])
    def test_mismatch_names_depth_and_parameter(self, tiny_data, tmp_path, in_dim, hidden):
        """Heads of in_dim inputs and `hidden` units, read for a 5-feature
        model whose config says 6 units."""
        hierarchy, dataset = tiny_data
        narrow = replace(dataset, features=dataset.features[:, :in_dim].copy())
        save_checkpoint(Trainer(config(hidden_dim=hidden), hierarchy, narrow), tmp_path / "saved.bin")
        path = edited_checkpoint(tmp_path / "saved.bin", tmp_path / "c.bin", lambda e, meta: meta["config"].update(hidden_dim=6))
        with pytest.raises(ValueError, match="depth 1 student parameter w0"):
            load_checkpoint(path, hierarchy, feature_dim=5)

    def test_wrong_dtype_refused(self, saved, tmp_path):
        def edit(entries, meta):
            entries["teacher.d2.b1"] = entries["teacher.d2.b1"].astype(np.float64)

        with pytest.raises(ValueError, match="depth 2 teacher parameter b1"):
            load_checkpoint(edited_checkpoint(saved, tmp_path / "c.bin", edit))

    def test_root_refused(self, tiny_data, saved, tmp_path):
        hierarchy, _ = tiny_data
        for name in ("log", "history"):
            path = edited_checkpoint(saved, tmp_path / f"{name}.bin", lambda e, meta: set_triples(e, name, [3], [0], [1]))
            for tree in (None, hierarchy):
                with pytest.raises(ValueError, match="no row or column"):
                    load_checkpoint(path, tree)

    def test_two_nodes_of_one_depth_refused(self, tiny_data, saved, tmp_path):
        """A sample's log is a chain, one node per depth; its history may
        switch branches. Only a reader with the tree knows the depths."""
        hierarchy, dataset = tiny_data
        sample = dataset.sample_ids[dataset.splits == SPLIT_UNLABELED][0]
        two = ([sample] * 2, np.flatnonzero(hierarchy.depths == 2)[:2], [1, 2])
        path = edited_checkpoint(saved, tmp_path / "log.bin", lambda e, meta: set_triples(e, "log", *two))
        with pytest.raises(ValueError, match="two nodes of one depth"):
            load_checkpoint(path, hierarchy)
        load_checkpoint(path)
        path = edited_checkpoint(saved, tmp_path / "history.bin", lambda e, meta: set_triples(e, "history", *two))
        trainer = Trainer(config(), hierarchy, dataset)
        trainer.load_state_dict(load_checkpoint(path, hierarchy, dataset.dim))
        history = trainer.log.history_state()
        assert history["node"].tolist() == two[1].tolist() and history["epoch"].tolist() == [1, 2]


def force_workers(monkeypatch, workers):
    """Have every Trainer made from here on share its steps' depths among
    `workers` threads (at most one per depth), whatever the gate and the cores."""
    monkeypatch.setattr(trainer_mod, "depth_workers", lambda config, n_depths, *_: min(workers, n_depths))


class TestDepthWorkers:
    """A step's depths shared among threads give the bytes of the depths run
    one after another."""

    @pytest.mark.parametrize("method", METHODS)
    def test_pool_writes_the_serial_bytes(self, tiny_data, tmp_path, monkeypatch, method):
        """Up to one worker per depth, switching threads every 10 µs, so that
        a write one depth made into another's memory would show."""
        hierarchy, dataset = tiny_data
        cfg = config(method=method, epochs=3, eval_every=1, tau=0.5)
        outputs, interval = {}, sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 2, 3):
                force_workers(monkeypatch, workers)
                out = tmp_path / str(workers)
                _, trainer = run_training(cfg, hierarchy, dataset, out_dir=out)
                assert trainer.workers == workers
                outputs[workers] = [(out / name).read_bytes() for name in ("metrics.csv", "ckpt_epoch0003.bin")]
        finally:
            sys.setswitchinterval(interval)
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]

    def test_resume_under_the_pool_matches_the_serial_run(self, tiny_data, tmp_path, monkeypatch):
        hierarchy, dataset = tiny_data
        cfg = config(epochs=6, checkpoint_every=3, **CHANGING_LOG)
        force_workers(monkeypatch, 1)
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "full")
        force_workers(monkeypatch, 3)
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "resumed", resume=tmp_path / "full" / "ckpt_epoch0003.bin")
        full, resumed = ((tmp_path / run / "metrics.csv").read_text().splitlines() for run in ("full", "resumed"))
        assert resumed == full[:1] + full[4:]
        final = [(tmp_path / run / "ckpt_epoch0006.bin").read_bytes() for run in ("full", "resumed")]
        assert final[0] == final[1]

    @pytest.mark.parametrize("method", ["spl-oracle", "supervised"])
    def test_masks_and_streams_are_those_of_sequential_draws(self, tiny_data, monkeypatch, method):
        """Per depth, the labeled and unlabeled masks of one step, and the
        streams' end states, equal drawing depth after depth from the streams,
        with depth 2 given no unlabeled target row: its masks go undrawn but
        its run of the stream is passed over, as if drawn."""
        hierarchy, dataset = tiny_data
        force_workers(monkeypatch, 3)
        trainer = Trainer(config(method=method), hierarchy, dataset)
        batch_l = trainer.loader.next_batch()
        batch_u = trainer.unlabeled_idx[:16] if method != "supervised" else np.empty(0, dtype=np.int64)
        targets = trainer._unlabeled_targets

        def no_depth2_row(batch_u, x_u):
            table = targets(batch_u, x_u)
            if method == "supervised":
                assert table.shape == (0, hierarchy.max_depth)
            else:
                assert (table[:, 1] >= 0).any()  # so that blanking it changes what the step draws
                table[:, 1] = -1
            return table

        monkeypatch.setattr(trainer, "_unlabeled_targets", no_depth2_row)
        drawn = {}  # (depth, "l" or "u") -> masks, from whichever thread drew them
        sample_masks = heads_mod.sample_masks

        def spy(head, n, rng, live=None):
            d = next(d for d, s in zip(trainer.depths, trainer.heads.students) if s is head)
            drawn[d, "l" if live is None else "u"] = masks = sample_masks(head, n, rng, live)
            return masks

        monkeypatch.setattr(heads_mod, "sample_masks", spy)
        streams = {name: trainer.streams.get(f"dropout/{name}") for name in ("labeled", "unlabeled")}
        sequential = {name: np.random.default_rng() for name in streams}
        for name, rng in sequential.items():
            rng.bit_generator.state = streams[name].bit_generator.state
        live = (targets(batch_u, trainer.dataset.features[batch_u]) >= 0).T

        trainer._train_step(batch_l, batch_u)

        for d, student in zip(trainer.depths, trainer.heads.students):
            expected = sample_masks(student, len(batch_l), sequential["labeled"])
            assert all(np.array_equal(a, b) for a, b in zip(drawn[d, "l"], expected, strict=True)), d
            if method == "supervised":
                continue
            expected = sample_masks(student, len(batch_u), sequential["unlabeled"], live[d - 1])
            if d == 2:
                assert (d, "u") not in drawn
            else:
                assert all(np.array_equal(a, b) for a, b in zip(drawn[d, "u"], expected, strict=True)), d
        for name, rng in sequential.items():
            assert streams[name].bit_generator.state == rng.bit_generator.state, name
        assert method != "supervised" or all(key[1] == "l" for key in drawn)  # and dropout/unlabeled did not move

    def test_gate_shares_reference_shapes_only(self, monkeypatch):
        monkeypatch.setattr(trainer_mod, "usable_cores", lambda: 8)
        monkeypatch.setattr(trainer_mod, "blas_threads", lambda: 1)
        reference = reference_train_config("semihoc", 0)
        assert trainer_mod.depth_workers(reference, 4, 650, 484) == 4
        assert trainer_mod.depth_workers(reference, 9, 650, 484) == 8
        assert trainer_mod.depth_workers(reference, 4, 650, 384) == 4  # 128 + 384 rows at 512: 2^27 multiply-adds
        assert trainer_mod.depth_workers(reference, 4, 650, 383) == 1
        assert trainer_mod.depth_workers(reference_train_config("supervised", 0), 4, 650, 484) == 1  # 128 rows
        assert trainer_mod.depth_workers(replace(reference, hidden_dim=64), 4, 1000, 2750) == 1  # wide-tree
        monkeypatch.setattr(trainer_mod, "blas_threads", lambda: 4)
        assert trainer_mod.depth_workers(reference, 4, 650, 484) == 2
        monkeypatch.setattr(trainer_mod, "blas_threads", lambda: 8)  # unpinned: BLAS takes every core
        assert trainer_mod.depth_workers(reference, 4, 650, 484) == 1


class TestEpochAccounting:
    def test_epoch_is_one_unlabeled_pass(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        n_unlabeled = len(dataset.indices(SPLIT_UNLABELED))
        batch = trainer.config.labeled_batch_size * trainer.config.unlabeled_ratio
        assert trainer._steps_per_epoch() == math.ceil(n_unlabeled / batch)

    def test_every_unlabeled_sample_logged_once_per_epoch(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(tau=0.5), hierarchy, dataset)
        seen = []
        original = trainer._assign_semihoc

        def spy(batch_u, x_u):
            seen.extend(int(g) for g in dataset.sample_ids[batch_u])
            return original(batch_u, x_u)

        trainer._assign_semihoc = spy
        trainer.run_epoch()
        assert sorted(seen) == sorted(int(g) for g in dataset.sample_ids[dataset.indices(SPLIT_UNLABELED)])


class TestPseudoLabelLog:
    def test_log_and_history_match_a_per_sample_replay(self, tiny_data):
        """The chain-table log and the dense history hold what a per-sample
        dict log would."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(tau=0.5, epochs=5), hierarchy, dataset)
        replay_log, replay_history = {}, {}
        original = trainer._assign_semihoc

        def spy(batch_u, x_u):
            gated = original(batch_u, x_u)
            fused = fuse_batch(trainer.heads.teacher_forward_all(x_u), hierarchy)
            for g, row in zip(dataset.sample_ids[batch_u], spl_mod.assign(fused, hierarchy, 0.5)):
                nodes = set(row[row >= 0].tolist())
                entries = {c: e for c, e in replay_log.get(int(g), {}).items() if c in nodes}
                replay_log[int(g)] = {c: entries.get(c, trainer.epoch) for c in nodes}
                for c in nodes:
                    replay_history.setdefault((int(g), c), trainer.epoch)
            return gated

        trainer._assign_semihoc = spy
        for _ in range(5):
            trainer.run_epoch()
        state = trainer.state_dict()

        def sparse(name):
            triples = zip(state[f"{name}.sample_id"], state[f"{name}.node"], state[f"{name}.epoch"])
            return {(int(g), int(c)): int(e) for g, c, e in triples}

        logged = sparse("log")
        assert logged == {(g, c): e for g, entries in replay_log.items() for c, e in entries.items()}
        history = sparse("history")
        assert history == replay_history and len(history) >= len(logged) > 0

    def test_epoch_report_equals_a_per_step_recount(self, tiny_data):
        """Each epoch's counts, coverage, purity and depth, read off the log at
        epoch end, equal a recount of what its steps assigned and kept."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(epochs=5, **CHANGING_LOG), hierarchy, dataset)
        steps = []
        original = trainer._assign_semihoc

        def spy(batch_u, x_u):
            fused = fuse_batch(trainer.heads.teacher_forward_all(x_u), hierarchy)
            steps.append((spl_mod.assign(fused, hierarchy, 0.5), original(batch_u, x_u), dataset.labels[batch_u]))
            return steps[-1][1]

        trainer._assign_semihoc = spy
        removed = 0
        for _ in range(5):
            steps.clear()
            report = trainer.run_epoch()
            assigned, gated, gts = (np.concatenate(parts) for parts in zip(*steps))
            total, kept = np.count_nonzero(assigned >= 0), np.count_nonzero(gated >= 0)
            assert (report.spl_total, report.gated_count, report.coverage) == (total, total - kept, kept / total)
            known = gts != NO_LABEL
            ood = known & ~hierarchy.is_leaf(np.where(known, gts, 0))
            recount = spl_purity_and_depth(gated[ood], gts[ood], hierarchy)
            assert recount is not None and (report.purity, report.avg_depth) == recount
            removed += total - kept
        assert removed > 0  # gating removed entries, so gated and assigned counts differ

    def test_smallest_epoch_dtype(self, tiny_data):
        hierarchy, dataset = tiny_data
        assert Trainer(config(epochs=127), hierarchy, dataset).log.first.dtype == np.int8
        assert Trainer(config(epochs=400), hierarchy, dataset).state_dict()["history.epoch"].dtype == np.int16


class TestBenchmarkContract:
    """What the benchmark harness reads from the package."""

    def test_cutoffs_dict_and_chain_rows(self, tiny_data):
        hierarchy, dataset = tiny_data
        _, trainer = run_training(config(epochs=3), hierarchy, dataset)
        cutoffs = dict(trainer.gate.cutoffs)
        assert all(isinstance(c, int) and isinstance(t, float) for c, t in cutoffs.items())
        fused = predict_dataset(trainer.heads, trainer.hierarchy, dataset.features[trainer.unlabeled_idx])
        chains = spl_mod.compute_spls_batch(fused, trainer.hierarchy, 0.95)
        assert len(chains) == len(trainer.unlabeled_idx) and any(len(c.nodes) for c in chains)
        for chain in chains:
            path = hierarchy.ancestors_or_self(chain.nodes[-1])[1:] if chain.nodes else ()
            assert tuple(chain.nodes) == path


class TestTargetRows:
    """ce_loss_and_grad gets only rows that carry a target: the trainer
    selects them per depth, and a labeled sample sits at an ID leaf, whose
    target row is non-zero at every depth."""

    @pytest.mark.parametrize("method", METHODS)
    def test_no_all_zero_target_row_reaches_the_loss(self, tiny_data, monkeypatch, method):
        trainer = Trainer(config(method=method, tau=0.5), *tiny_data)
        seen = []
        original = heads_mod.ce_loss_and_grad

        def spy(head, x, targets, masks=None):
            seen.append((len(x), targets.copy()))
            return original(head, x, targets, masks=masks)

        monkeypatch.setattr(heads_mod, "ce_loss_and_grad", spy)
        trainer._train_step(trainer.loader.next_batch(), trainer.unlabeled_idx[:16])
        assert method == "supervised" or len(seen) > len(trainer.depths)  # unlabeled rows got there too
        assert all(n == len(targets) and targets.any(axis=1).all() for n, targets in seen)

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(3, 80))
    @settings(max_examples=100, deadline=None)
    def test_id_leaf_target_rows_are_never_zero(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n_nodes)
        leaves = sorted(tree.id_leaves)
        ids = rng.choice(leaves, int(rng.integers(1, len(leaves) + 1)), replace=False)
        tree = Hierarchy(tree.parents, tree.names, id_leaves=ids)  # the other leaves out-of-distribution
        for d in range(1, tree.max_depth + 1):
            assert tree.targets(d, ids).any(axis=1).all()


def fused_slices(heads, hierarchy, x):
    """Reference: the teacher's outputs fused over consecutive PREDICT_BATCH-row slices of x."""
    starts = range(0, len(x), PREDICT_BATCH)
    blocks = [fuse_batch(heads.teacher_forward_all(x[i : i + PREDICT_BATCH]), hierarchy) for i in starts]
    return np.concatenate(blocks) if blocks else np.zeros((0, hierarchy.n_nodes))


def whole_split_ood_bins(trainer, n_bins=20):
    """Reference for ood_subtree_bins, with the whole test split's node
    distributions and subtree sums alive at once."""
    dataset, hierarchy = trainer.dataset, trainer.hierarchy
    idx = dataset.indices(SPLIT_TEST)
    probs = fused_slices(trainer.heads, hierarchy, dataset.features[idx])
    preds = probs.argmax(axis=1)
    conf = subtree_confidences(probs, hierarchy)
    ood = np.flatnonzero(~hierarchy.is_leaf(preds))
    if not len(ood):
        return None, None
    gts = dataset.labels[idx[ood]]
    known = gts != NO_LABEL
    correct = known & hierarchy.in_subtree(np.where(known, gts, 0), preds[ood])
    return confidence_accuracy_bins(conf[ood, preds[ood]], correct, n_bins=n_bins), float(np.mean(correct))


def with_test_rows(dataset, n, seed):
    """The labeled and unlabeled rows of `dataset` plus n test rows drawn from
    its test split with jittered features, under fresh sample ids."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.flatnonzero(dataset.splits != SPLIT_TEST), rng.choice(dataset.indices(SPLIT_TEST), n)])
    features = dataset.features[rows] + rng.normal(0.0, 0.1, (len(rows), dataset.dim)).astype(np.float32)
    ids = np.arange(len(rows), dtype=np.uint64)
    return FeatureDataset(features, dataset.labels[rows], ids, dataset.splits[rows], dataset.hierarchy_hash)


BLOCK_EDGE_ROWS = [0, 1, PREDICT_BATCH - 1, PREDICT_BATCH, PREDICT_BATCH + 1, 2 * PREDICT_BATCH + 1]


class TestPredictBlocks:
    @pytest.fixture(scope="class")
    def trained(self, tiny_data):
        return run_training(config(epochs=3, ema_momentum=0.5), *tiny_data)[1]

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_blocks_tile_the_rows_and_join_to_the_sliced_reference(self, tiny_data, trained, n):
        hierarchy, dataset = tiny_data
        features = with_test_rows(dataset, 2 * PREDICT_BATCH + 50, seed=n).features
        rows = np.random.default_rng(n).permutation(len(features))[:n]
        slices, blocks = zip(*predict_blocks(trained.heads, hierarchy, features, rows)) if n else ((), ())
        assert [i for block in slices for i in range(n)[block]] == list(range(n))
        assert [len(b) for b in blocks] == [len(range(n)[block]) for block in slices]
        assert all(len(b) == PREDICT_BATCH for b in blocks[:-1])
        expected = fused_slices(trained.heads, hierarchy, features[rows]).tobytes()
        assert (np.concatenate(blocks) if n else np.zeros((0, hierarchy.n_nodes))).tobytes() == expected
        assert predict_dataset(trained.heads, hierarchy, features[rows]).tobytes() == expected

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_streamed_ood_bins_equal_the_whole_split(self, tiny_data, trained, n):
        hierarchy, dataset = tiny_data
        trainer = Trainer(trained.config, hierarchy, with_test_rows(dataset, n, seed=n))
        trainer.heads.load_state_dict(trained.heads.state_dict())
        table, overall = ood_subtree_bins(trainer)
        expected_table, expected_overall = whole_split_ood_bins(trainer)
        assert (table is None) == (n == 0) and overall == expected_overall
        if n:
            for f in fields(table):
                assert getattr(table, f.name).tobytes() == getattr(expected_table, f.name).tobytes()


# 384 nodes: a root over 20 nodes over 363 leaves (37 of 400 pruned as OOD). predict_blocks fuses a
# block in chunks of at most 341 rows; 341-row chunks would leave a block of 1024 a lone row, whose
# sums over 8 or more children differ in the last bits
CHUNKED_TREE = SyntheticConfig(branching=20, depth=2, feature_dim=8, train_per_leaf=2, test_per_leaf=1, ood_fraction=0.0925, seed=1)


class TestPredictChunks:
    @pytest.fixture(scope="class")
    def chunked(self):
        hierarchy, dataset = generate(CHUNKED_TREE)
        assert hierarchy.n_nodes == 384 and FUSE_BYTES // (8 * hierarchy.n_nodes) == 341
        dataset = sample_labeled_subset(dataset, hierarchy, 1, seed=1)
        return hierarchy, dataset, run_training(config(epochs=1, ema_momentum=0.5), hierarchy, dataset)[1]

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_chunks_tile_the_blocks_and_join_to_the_sliced_reference(self, chunked, n):
        hierarchy, dataset, trained = chunked
        features = with_test_rows(dataset, 2 * PREDICT_BATCH + 50, seed=n).features
        rows = np.random.default_rng(n).permutation(len(features))[:n]
        slices, chunks = zip(*predict_blocks(trained.heads, hierarchy, features, rows)) if n else ((), ())
        assert [i for chunk in slices for i in range(n)[chunk]] == list(range(n))
        assert all(s.start // PREDICT_BATCH == (s.stop - 1) // PREDICT_BATCH for s in slices)  # within a forward
        assert [len(c) for c in chunks] == [len(range(n)[s]) for s in slices]
        assert all(c.nbytes <= FUSE_BYTES for c in chunks) and len(slices) >= 3 * (n // PREDICT_BATCH)
        expected = fused_slices(trained.heads, hierarchy, features[rows]).tobytes()
        assert (np.concatenate(chunks) if n else np.zeros((0, hierarchy.n_nodes))).tobytes() == expected

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_streamed_evaluate_and_ood_bins_equal_the_whole_split(self, chunked, n):
        hierarchy, dataset, trained = chunked
        trainer = Trainer(trained.config, hierarchy, with_test_rows(dataset, n, seed=n))
        trainer.heads.load_state_dict(trained.heads.state_dict())
        table, overall = ood_subtree_bins(trainer)
        expected_table, expected_overall = whole_split_ood_bins(trainer)
        assert (table is None) == (n == 0) and overall == expected_overall
        for f in fields(table) if n else ():
            assert getattr(table, f.name).tobytes() == getattr(expected_table, f.name).tobytes()
        idx = trainer.test_idx[trainer.dataset.labels[trainer.test_idx] != NO_LABEL]
        report = bmhd(fused_slices(trainer.heads, hierarchy, trainer.dataset.features[idx]).argmax(axis=1),
                      trainer.dataset.labels[idx], hierarchy)
        assert trainer.evaluate() == ((report.id, report.ood, report.mix) if len(idx) else (None, None, None))


# The benchmark's wide-tree data at seed 0: 656 nodes, so predict_blocks fuses each block of 1,024 rows
# in 6 chunks of at most 199 rows
WIDE_TREE = SyntheticConfig(branching=5, depth=4, feature_dim=32, train_per_leaf=6, test_per_leaf=2,
                            sigma_level=0.5, sigma_noise=0.45, ood_fraction=0.2, seed=0)


class TestPredictRows:
    @pytest.fixture(scope="class")
    def wide(self):
        hierarchy, dataset = generate(WIDE_TREE)
        assert hierarchy.n_nodes == 656 and -(-PREDICT_BATCH // (FUSE_BYTES // (8 * hierarchy.n_nodes))) == 6
        dataset = sample_labeled_subset(dataset, hierarchy, 2, seed=0)
        return hierarchy, dataset, run_training(config(epochs=1, hidden_dim=64), hierarchy, dataset)[1]

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_scores_equal_the_gathers_over_the_joined_matrix(self, wide, n):
        hierarchy, dataset, trained = wide
        rows = np.random.default_rng(n).permutation(len(dataset))[:n]
        preds, node_conf, sub_conf = predict_rows(trained.heads, hierarchy, dataset.features, rows)
        fused = predict_dataset(trained.heads, hierarchy, dataset.features[rows])
        expected = fused.argmax(axis=1)
        assert preds.dtype == np.int64 and preds.tobytes() == expected.tobytes()
        assert node_conf.tobytes() == np.take_along_axis(fused, expected[:, None], axis=1)[:, 0].tobytes()
        conf = subtree_confidences(fused, hierarchy)
        assert sub_conf.tobytes() == np.take_along_axis(conf, expected[:, None], axis=1)[:, 0].tobytes()

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_write_gets_each_chunk_once_in_row_order(self, wide, n):
        hierarchy, dataset, trained = wide
        rows = np.random.default_rng(n).permutation(len(dataset))[:n]
        calls = []
        scores = predict_rows(trained.heads, hierarchy, dataset.features, rows, lambda *args: calls.append(args))
        chunks = [block for block, _ in predict_blocks(trained.heads, hierarchy, dataset.features, rows)]
        assert [block for block, *_ in calls] == chunks
        assert [i for block in chunks for i in range(n)[block]] == list(range(n))
        assert len(chunks) >= 6 * (n // PREDICT_BATCH)
        fused = predict_dataset(trained.heads, hierarchy, dataset.features[rows])
        for block, preds, node_conf, conf in calls:
            assert preds.tobytes() == scores[0][block].tobytes() and node_conf.tobytes() == scores[1][block].tobytes()
            assert conf.tobytes() == subtree_confidences(fused[block], hierarchy).tobytes()
