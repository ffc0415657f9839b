import math
import warnings

import numpy as np
import pytest

from semihoc import heads as H
from semihoc.oracles import finite_difference_grads, gradient_relative_error


def small_head(rng, in_dim=5, hidden=8, classes=3, dropout=0.0):
    head = H.MlpHead(in_dim, classes, hidden=hidden, dropout=dropout)
    head.init_params(rng)
    for b in head.biases:
        b[...] = rng.normal(0.0, 0.3, b.shape)
    return head


class TestForward:
    def test_zero_weights_give_uniform(self):
        head = H.MlpHead(4, 5, hidden=6)
        p = H.forward(head, np.ones(4), mode="eval")
        assert np.allclose(p, 0.2)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(0)
        head = small_head(rng)
        p = H.forward(head, rng.normal(0, 1, (7, 5)), mode="eval")
        assert np.all(p > 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_dropout_zero_train_equals_eval(self):
        rng = np.random.default_rng(1)
        head = small_head(rng, dropout=0.0)
        x = rng.normal(0, 1, (3, 5))
        p_train = H.forward(head, x, mode="train", rng=np.random.default_rng(2))
        p_eval = H.forward(head, x, mode="eval")
        assert np.array_equal(p_train, p_eval)

    def test_eval_deterministic_train_seeded(self):
        rng = np.random.default_rng(3)
        head = small_head(rng, dropout=0.5)
        x = rng.normal(0, 1, (3, 5))
        a = H.forward(head, x, mode="train", rng=np.random.default_rng(9))
        b = H.forward(head, x, mode="train", rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        head = H.MlpHead(4, 2)
        with pytest.raises(ValueError, match="dim"):
            H.forward(head, np.zeros(5))

    def test_large_logits_clamped(self):
        head = H.MlpHead(2, 2, hidden=3)
        for w in head.weights:
            w[...] = 100.0
        p = H.forward(head, np.full(2, 100.0), mode="eval")
        assert np.isfinite(p).all() and p.min() > 0


class TestCeLoss:
    def test_one_hot_loss_is_neg_log_p(self):
        rng = np.random.default_rng(4)
        head = small_head(rng)
        x = rng.normal(0, 1, 5)
        p = H.forward(head, x, mode="eval")
        target = np.zeros(3)
        target[1] = 1.0
        loss, _ = H.ce_loss_and_grad(head, x, target, mode="eval")
        assert math.isclose(loss, -math.log(p[1]), rel_tol=1e-12)

    def test_uniform_on_uniform_is_log_k(self):
        head = H.MlpHead(4, 6, hidden=5)  # zero weights -> uniform output
        target = np.full(6, 1.0 / 6)
        loss, _ = H.ce_loss_and_grad(head, np.ones(4), target, mode="eval")
        assert math.isclose(loss, math.log(6), rel_tol=1e-12)

    def test_zero_target_rows_contribute_nothing(self):
        rng = np.random.default_rng(5)
        head = small_head(rng)
        x = rng.normal(0, 1, (2, 5))
        t = np.zeros((2, 3))
        t[0, 2] = 1.0
        loss_both, grads_both = H.ce_loss_and_grad(head, x, t, mode="eval")
        loss_one, grads_one = H.ce_loss_and_grad(head, x[:1], t[:1], mode="eval")
        assert math.isclose(loss_both, loss_one, rel_tol=1e-12)
        for a, b in zip(grads_both, grads_one):
            assert np.allclose(a, b, atol=1e-12)


class TestGradients:
    def test_eval_mode_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            head = small_head(rng)
            x = rng.normal(0, 1, (2, 5))
            raw = rng.random((2, 3)) + 1e-6
            t = raw / raw.sum(axis=1, keepdims=True)
            _, ga = H.ce_loss_and_grad(head, x, t, mode="eval")
            gn = finite_difference_grads(head, x, t)
            assert gradient_relative_error(ga, gn) <= 1e-6

    def test_train_mode_frozen_masks(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            head = small_head(rng, dropout=0.4)
            x = rng.normal(0, 1, (3, 5))
            t = np.eye(3)[rng.integers(0, 3, 3)]
            t[1] = 0.0  # a row without a target is left out of forward and backward
            masks = H.sample_masks(head, 3, rng)
            _, ga = H.ce_loss_and_grad(head, x, t, mode="train", masks=masks)
            gn = finite_difference_grads(head, x, t, masks=masks)
            assert gradient_relative_error(ga, gn) <= 1e-6

    def test_single_affine_layer(self):
        # degenerate head exercising one affine + softmax only
        rng = np.random.default_rng(8)
        head = small_head(rng, in_dim=3, hidden=4, classes=2)
        x = rng.normal(0, 1, (1, 3))
        t = np.array([[1.0, 0.0]])
        _, ga = H.ce_loss_and_grad(head, x, t, mode="eval")
        gn = finite_difference_grads(head, x, t)
        # last-layer weight gradient alone
        assert gradient_relative_error([ga[-2], ga[-1]], [gn[-2], gn[-1]]) <= 1e-6


def assert_close(a, b, rel=1e-12):
    assert np.abs(a - b).max(initial=0.0) <= rel * np.abs(b).max(initial=0.0)


class TestTargetRowsOnly:
    """ce_loss_and_grad runs forward and backward on the rows that carry a
    target; an all-zero target row has a zero logit gradient exactly."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_interleaved_zero_rows_change_nothing(self, mode):
        rng = np.random.default_rng(12)
        head = small_head(rng, dropout=0.4)
        x = rng.normal(0, 1, (7, 5))
        t = rng.random((7, 3)) * (rng.random((7, 1)) < 0.5)
        t[[0, 3]] = np.eye(3)[[1, 2]]  # at least two target rows, zero rows between them
        live = t.any(axis=1)
        masks = H.sample_masks(head, 7, rng) if mode == "train" else None
        loss, grads = H.ce_loss_and_grad(head, x, t, mode=mode, masks=masks)
        kept = None if masks is None else [m[live] for m in masks]
        loss_live, grads_live = H.ce_loss_and_grad(head, x[live], t[live], mode=mode, masks=kept)
        assert not live.all() and math.isclose(loss, loss_live, rel_tol=1e-12)
        for g, g_live in zip(grads, grads_live):
            assert_close(g, g_live)

    def test_all_zero_targets_give_zero_loss_and_gradients(self):
        rng = np.random.default_rng(13)
        head = small_head(rng, dropout=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grads = H.ce_loss_and_grad(head, rng.normal(0, 1, (4, 5)), np.zeros((4, 3)), mode="train", rng=rng)
        assert loss == 0.0
        assert [g.shape for g in grads] == [p.shape for p in head.parameters()]
        assert all(not g.any() for g in grads)

    def test_forward_sees_only_target_rows(self, monkeypatch):
        rng = np.random.default_rng(14)
        head = small_head(rng, dropout=0.4)
        x = rng.normal(0, 1, (5, 5))
        t = np.zeros((5, 3))
        t[[1, 4], 0] = 1.0
        masks = H.sample_masks(head, 5, rng)
        seen = []
        original = H.forward_cached

        def spy(head, x, masks):
            seen.append((x.copy(), None if masks is None else [m.copy() for m in masks]))
            return original(head, x, masks)

        monkeypatch.setattr(H, "forward_cached", spy)
        H.ce_loss_and_grad(head, x, t, mode="train", masks=masks)
        [(x_seen, masks_seen)] = seen
        assert np.array_equal(x_seen, x[[1, 4]])
        assert all(np.array_equal(a, m[[1, 4]]) for a, m in zip(masks_seen, masks))


class TestMasks:
    def test_masks_carry_the_inverted_dropout_scale(self):
        head = H.MlpHead(5, 3, hidden=8, dropout=0.4)
        masks = H.sample_masks(head, 6, np.random.default_rng(15))
        keep = np.random.default_rng(15).random((6, 5)) >= 0.4  # the same stream's first draw
        assert [m.shape for m in masks] == [(6, 5), (6, 8), (6, 8), (6, 8)]
        assert np.array_equal(masks[0], keep * (1.0 / (1.0 - 0.4)))
        assert all(set(np.unique(m)) <= {0.0, 1.0 / 0.6} for m in masks)


class TestSgd:
    def test_zero_gradient_no_decay_keeps_params(self):
        theta = [np.ones((2, 2))]
        v = [np.zeros((2, 2))]
        H.sgd_step(theta, v, [np.zeros((2, 2))], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(theta[0], np.ones((2, 2)))

    def test_single_step_formula(self):
        theta = [np.full((2,), 2.0)]
        v = [np.zeros(2)]
        g = [np.full((2,), 0.5)]
        H.sgd_step(theta, v, g, lr=0.1, momentum=0.9, weight_decay=0.01)
        # v = g + wd*theta = 0.5 + 0.02; theta = 2 - 0.1*0.52
        assert np.allclose(theta[0], 2.0 - 0.1 * 0.52)

    def test_two_steps_momentum_unroll(self):
        # constant gradient, no decay: after two steps the total change is
        # -lr*(g + (1+mu)*g)
        lr, mu = 0.1, 0.9
        theta = [np.zeros(1)]
        v = [np.zeros(1)]
        g = [np.ones(1)]
        H.sgd_step(theta, v, g, lr=lr, momentum=mu)
        H.sgd_step(theta, v, g, lr=lr, momentum=mu)
        assert np.allclose(theta[0], -lr * (1.0 + (1.0 + mu)))

    def test_scale_applies_to_gradient_only(self):
        theta = [np.full((1,), 1.0)]
        v = [np.zeros(1)]
        H.sgd_step(theta, v, [np.full((1,), 4.0)], lr=1.0, momentum=0.0, weight_decay=0.0, scale=0.25)
        assert np.allclose(theta[0], 0.0)

    def test_in_place_update_is_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(16)
        theta = [rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 4)]
        v = [rng.normal(0, 1, p.shape) for p in theta]
        g = [rng.normal(0, 1, p.shape) for p in theta]
        lr, mu, wd, scale = 0.1, 0.9, 0.001, 0.37
        v_ref = [mu * vi + (scale * gi + wd * ti) for vi, gi, ti in zip(v, g, theta)]
        theta_ref = [ti - lr * vi for ti, vi in zip(theta, v_ref)]
        H.sgd_step(theta, v, g, lr=lr, momentum=mu, weight_decay=wd, scale=scale)
        assert all(np.array_equal(a, b) for a, b in zip(v + theta, v_ref + theta_ref))


class TestEma:
    def test_momentum_one_keeps_teacher(self):
        rng = np.random.default_rng(9)
        s, t = small_head(rng), small_head(rng)
        before = [p.copy() for p in t.parameters()]
        H.ema_update(t, s, momentum=1.0)
        for a, b in zip(t.parameters(), before):
            assert np.array_equal(a, b)

    def test_momentum_zero_copies_student(self):
        rng = np.random.default_rng(10)
        s, t = small_head(rng), small_head(rng)
        H.ema_update(t, s, momentum=0.0)
        for a, b in zip(t.parameters(), s.parameters()):
            assert np.array_equal(a, b)

    def test_small_update(self):
        s = H.MlpHead(2, 2, hidden=2)
        t = H.MlpHead(2, 2, hidden=2)
        for p in s.parameters():
            p[...] = 1.0
        H.ema_update(t, s, momentum=0.999)
        for p in t.parameters():
            assert np.allclose(p, 0.001)

    def test_in_place_update_is_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        s, t = small_head(rng), small_head(rng)
        expected = [0.999 * a + (1.0 - 0.999) * b for a, b in zip(t.parameters(), s.parameters())]
        H.ema_update(t, s, momentum=0.999)
        assert all(np.array_equal(a, b) for a, b in zip(t.parameters(), expected))

    def test_contraction(self):
        rng = np.random.default_rng(11)
        s, t = small_head(rng), small_head(rng)
        m = 0.9
        gap0 = max(np.abs(a - b).max() for a, b in zip(t.parameters(), s.parameters()))
        for _ in range(10):
            H.ema_update(t, s, momentum=m)
        gap = max(np.abs(a - b).max() for a, b in zip(t.parameters(), s.parameters()))
        assert gap <= gap0 * m**10 * (1 + 1e-9)


class TestDepthHeadsState:
    def test_roundtrip_copies_every_array(self, animals):
        src = H.DepthHeads(animals, 5, hidden=6)
        src.init_params(np.random.default_rng(0))
        dst = H.DepthHeads(animals, 5, hidden=6)
        dst.load_state_dict(src.state_dict())
        for name, array in dst.state_dict().items():
            assert np.array_equal(array, src.state_dict()[name]) and array is not src.state_dict()[name]

    def test_names_and_shapes(self, animals):
        heads = H.DepthHeads(animals, 5, hidden=6)
        shapes = {name: a.shape for name, a in heads.state_dict().items()}
        assert shapes == H.entry_shapes(5, [len(animals.depth_space(d)) for d in heads.depths], 6)
        assert shapes["teacher.d2.w0"] == (5, 6) and shapes["velocity.d1.b3"] == (2,)

    @pytest.mark.parametrize("in_dim, hidden", [(4, 6), (5, 7)])
    def test_mismatch_names_depth_and_parameter(self, animals, in_dim, hidden):
        saved = H.DepthHeads(animals, in_dim, hidden=hidden).state_dict()
        live = H.DepthHeads(animals, 5, hidden=6)
        before = {name: a.copy() for name, a in live.state_dict().items()}
        with pytest.raises(ValueError, match="depth 1 student parameter w0"):
            live.load_state_dict(saved)
        assert all(np.array_equal(a, before[name]) for name, a in live.state_dict().items())

    def test_wrong_dtype_refused(self, animals):
        state = H.DepthHeads(animals, 5, hidden=6).state_dict()
        state["teacher.d2.b1"] = state["teacher.d2.b1"].astype(np.float32)
        with pytest.raises(ValueError, match="depth 2 teacher parameter b1"):
            H.DepthHeads(animals, 5, hidden=6).load_state_dict(state)
