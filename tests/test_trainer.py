import math

import numpy as np
import pytest

from semihoc import heads as heads_mod
from semihoc import spl as spl_mod
from semihoc.benchmark import reference_dataset, reference_train_config
from semihoc.datagen import NO_LABEL, SPLIT_UNLABELED
from semihoc.heads import DepthHeads
from semihoc.prohoc import fuse_batch
from semihoc.trainer import (
    GRAD_CLIP_NORM,
    TrainConfig,
    Trainer,
    load_checkpoint,
    predict_dataset,
    run_training,
    save_checkpoint,
)


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

    @pytest.mark.parametrize("field", ["lr", "weight_decay", "dropout", "momentum", "ema_momentum", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            config(**{field: value}).validate()

    def test_negative_weight_decay_refused(self):
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            config(weight_decay=-5.0).validate()

    def test_nan_lr_refused_from_dict(self):
        data = dict(vars(reference_train_config("semihoc", 0, 3)), lr=math.nan)
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig.from_dict(data)


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
        for head in trainer.heads.students:
            for w in head.weights:
                w[...] = 0.0
        stats = {"spl_total": 0, "gated": 0, "ood": []}
        batch_l = trainer.loader.next_batch()
        loss_l, _ = trainer._train_step(batch_l, np.empty(0, dtype=np.int64), stats)
        for d, loss in zip(trainer.depths, loss_l):
            assert loss == pytest.approx(math.log(len(hierarchy.depth_space(d))), rel=1e-9)


class TestGradientClipping:
    def test_step_norm_bounded_and_small_gradients_untouched(self, tiny_data, monkeypatch):
        hierarchy, dataset = tiny_data
        calls = []  # (raw gradient norm, scale) per sgd_step
        original = DepthHeads.sgd_step

        def spy(heads, d, grads, opt, scale=1.0):
            calls.append((math.sqrt(sum(float((g * g).sum()) for g in grads)), scale))
            return original(heads, d, grads, opt, scale)

        monkeypatch.setattr(DepthHeads, "sgd_step", spy)
        fresh = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        # zero weights leave only the output-bias gradient, far below the bound
        zeroed = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        for head in zeroed.heads.students:
            for w in head.weights:
                w[...] = 0.0
        for trainer in (fresh, zeroed):
            stats = {"spl_total": 0, "gated": 0, "ood": []}
            batch_u = trainer.unlabeled_idx[: trainer.config.labeled_batch_size * trainer.config.unlabeled_ratio]
            trainer._train_step(trainer.loader.next_batch(), batch_u, stats)

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
        cache = heads_mod.forward_cached(trainer.heads.student(1), x_u, None)
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


class TestSteps:
    def test_internal_spl_trains_only_its_depth(self, tiny_data):
        """A depth-1 chain node only contributes where it lives in a space."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)

        depth1_node = hierarchy.children[0][0]
        assigned = np.zeros((1, hierarchy.n_nodes), dtype=bool)
        assigned[0, depth1_node] = True
        targets = trainer._pseudo_targets(assigned)
        assert targets[0].any()
        for d in trainer.depths[1:]:
            deeper = targets[d - 1]
            assert not deeper.any()

    def test_semihoc_targets_supported_inside_subtree(self, tiny_data):
        """Chain-node targets at depth d are one-hot at the node itself, so
        their support sits inside Subtree(node) ∩ depth space d."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)

        for c in range(1, hierarchy.n_nodes):
            chain = hierarchy.ancestors_or_self(c)[1:]
            assigned = np.zeros((1, hierarchy.n_nodes), dtype=bool)
            assigned[0, list(chain)] = True
            for d in trainer.depths:
                targets = trainer._pseudo_targets(assigned)[d - 1][0]
                space = hierarchy.depth_space(d).nodes
                support = {space[j] for j in np.nonzero(targets)[0]}
                allowed = set().union(
                    *(hierarchy.subtree(n) for n in chain if hierarchy.columns[d - 1, n] >= 0)
                ) if support else set()
                assert support <= (allowed & set(space))

    def test_pseudo_targets_equal_the_matrix_product(self, tiny_data):
        """A @ (Q_d * appears_d[:, None]) for a random assignment mask A."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(), hierarchy, dataset)
        assigned = np.random.default_rng(0).random((20, hierarchy.n_nodes)) < 0.3
        for d, targets in zip(trainer.depths, trainer._pseudo_targets(assigned)):
            appears = hierarchy.columns[d - 1] >= 0
            assert np.array_equal(targets, assigned @ (hierarchy.Q[d - 1] * appears[:, None]))

    def test_oracle_chain_is_ancestor_path(self, tiny_data):
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(method="spl-oracle"), hierarchy, dataset)
        some_leaf = sorted(hierarchy.id_leaves)[0]
        assigned = trainer._assign_oracle(np.array([some_leaf]))[0]
        assert set(np.flatnonzero(assigned).tolist()) == set(hierarchy.ancestors_or_self(some_leaf)[1:])

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
        state = load_checkpoint(tmp_path / "full" / "ckpt_epoch0003.bin")
        run_training(cfg, hierarchy, dataset, out_dir=tmp_path / "resumed", resume=state)
        full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        assert resumed[0] == full[0]
        assert resumed[1:] == full[4:]

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
        assert state["student.d1.w0"] is trainer.heads.students[0].weights[0]
        assert state[f"velocity.d{hierarchy.max_depth}.b3"] is trainer.heads.velocities[-1][-1]
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

        def spy(batch_u, x_u, stats):
            seen.extend(int(g) for g in dataset.sample_ids[batch_u])
            return original(batch_u, x_u, stats)

        trainer._assign_semihoc = spy
        trainer.run_epoch()
        assert sorted(seen) == sorted(int(g) for g in dataset.sample_ids[dataset.indices(SPLIT_UNLABELED)])


class TestDenseLog:
    def test_log_and_history_match_a_per_sample_replay(self, tiny_data):
        """The dense log and history hold what a per-sample dict log would."""
        hierarchy, dataset = tiny_data
        trainer = Trainer(config(tau=0.5, epochs=5), hierarchy, dataset)
        replay_log, replay_history = {}, {}
        original = trainer._assign_semihoc

        def spy(batch_u, x_u, stats):
            gated = original(batch_u, x_u, stats)
            fused = fuse_batch(trainer.heads.teacher_forward_all(x_u), hierarchy)
            for g, row in zip(dataset.sample_ids[batch_u], spl_mod.assign(fused, hierarchy, 0.5)):
                nodes = set(np.flatnonzero(row).tolist())
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

    def test_smallest_epoch_dtype(self, tiny_data):
        hierarchy, dataset = tiny_data
        assert Trainer(config(epochs=127), hierarchy, dataset).log.first.dtype == np.int8
        assert Trainer(config(epochs=400), hierarchy, dataset).history.first.dtype == np.int16


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
