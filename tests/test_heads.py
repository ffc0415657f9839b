import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from semihoc import heads as H
from semihoc.benchmark import reference_dataset, reference_train_config
from semihoc.oracles import finite_difference_grads, gradient_relative_error


def make_head(in_dim, out_dim, hidden=512, dropout=0.0, dtype=np.float64):
    """A zero head of standalone arrays, as the gradient oracle builds one."""
    params = [np.zeros(shape, dtype) for shape in H.param_shapes(in_dim, out_dim, hidden)]
    return params[0::2], params[1::2], dropout


def parameters(head):
    """A head's arrays in the order of its gradients: w0, b0, w1, ..."""
    return [p for pair in zip(head[0], head[1]) for p in pair]


def grad_views(head, grad):
    """A flat gradient, as backward gives it, seen per parameter of `head`."""
    return H.flat_views(grad, [p.shape for p in parameters(head)])


def small_head(rng, in_dim=5, hidden=8, classes=3, dropout=0.0):
    head = make_head(in_dim, classes, hidden=hidden, dropout=dropout)
    H.init_weights(head[0], rng)
    for b in head[1]:
        b[...] = rng.normal(0.0, 0.3, b.shape)
    return head


class TestForward:
    def test_zero_weights_give_uniform(self):
        head = make_head(4, 5, hidden=6)
        p = H.forward(head, np.ones((1, 4)))
        assert np.allclose(p, 0.2)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(0)
        head = small_head(rng)
        p = H.forward(head, rng.normal(0, 1, (7, 5)))
        assert np.all(p > 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_dropout_zero_train_equals_eval(self):
        rng = np.random.default_rng(1)
        head = small_head(rng, dropout=0.0)
        x = rng.normal(0, 1, (3, 5))
        p_train = H.forward_cached(head, x, H.sample_masks(head, 3, np.random.default_rng(2)))["probs"]
        p_eval = H.forward(head, x)
        assert np.array_equal(p_train, p_eval)

    def test_eval_deterministic_train_seeded(self):
        rng = np.random.default_rng(3)
        head = small_head(rng, dropout=0.5)
        x = rng.normal(0, 1, (3, 5))
        a = H.forward_cached(head, x, H.sample_masks(head, 3, np.random.default_rng(9)))["probs"]
        b = H.forward_cached(head, x, H.sample_masks(head, 3, np.random.default_rng(9)))["probs"]
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        head = make_head(4, 2)
        with pytest.raises(ValueError, match="dim"):
            H.forward(head, np.zeros((1, 5)))

    def test_large_logits_clamped(self):
        head = make_head(2, 2, hidden=3)
        for w in head[0]:
            w[...] = 100.0
        p = H.forward(head, np.full((1, 2), 100.0))
        assert np.isfinite(p).all() and p.min() > 0


class TestCeLoss:
    def test_one_hot_loss_is_neg_log_p(self):
        rng = np.random.default_rng(4)
        head = small_head(rng)
        x = rng.normal(0, 1, (1, 5))
        p = H.forward(head, x)
        target = np.zeros((1, 3))
        target[0, 1] = 1.0
        loss, _ = H.ce_loss_and_grad(head, x, target)
        assert math.isclose(loss, -math.log(p[0, 1]), rel_tol=1e-12)

    def test_uniform_on_uniform_is_log_k(self):
        head = make_head(4, 6, hidden=5)  # zero weights -> uniform output
        target = np.full((1, 6), 1.0 / 6)
        loss, _ = H.ce_loss_and_grad(head, np.ones((1, 4)), target)
        assert math.isclose(loss, math.log(6), rel_tol=1e-12)

    def test_zero_target_rows_contribute_nothing(self):
        rng = np.random.default_rng(5)
        head = small_head(rng)
        x = rng.normal(0, 1, (2, 5))
        t = np.zeros((2, 3))
        t[0, 2] = 1.0
        loss_both, grads_both = H.ce_loss_and_grad(head, x, t)
        loss_one, grads_one = H.ce_loss_and_grad(head, x[:1], t[:1])
        assert math.isclose(loss_both, loss_one, rel_tol=1e-12)
        for a, b in zip(grad_views(head, grads_both), grad_views(head, grads_one)):
            assert np.allclose(a, b, atol=1e-12)


class TestGradients:
    def test_eval_mode_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            head = small_head(rng)
            x = rng.normal(0, 1, (2, 5))
            raw = rng.random((2, 3)) + 1e-6
            t = raw / raw.sum(axis=1, keepdims=True)
            _, ga = H.ce_loss_and_grad(head, x, t)
            gn = finite_difference_grads(head, x, t)
            assert gradient_relative_error(ga, gn) <= 1e-6

    def test_train_mode_frozen_masks(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            head = small_head(rng, dropout=0.4)
            x = rng.normal(0, 1, (3, 5))
            t = np.eye(3)[rng.integers(0, 3, 3)]
            t[1] = 0.0  # a row without a target adds a zero logit gradient
            masks = H.sample_masks(head, 3, rng)
            _, ga = H.ce_loss_and_grad(head, x, t, masks=masks)
            gn = finite_difference_grads(head, x, t, masks=masks)
            assert gradient_relative_error(ga, gn) <= 1e-6

    def test_single_affine_layer(self):
        # degenerate head exercising one affine + softmax only
        rng = np.random.default_rng(8)
        head = small_head(rng, in_dim=3, hidden=4, classes=2)
        x = rng.normal(0, 1, (1, 3))
        t = np.array([[1.0, 0.0]])
        _, ga = H.ce_loss_and_grad(head, x, t)
        gn = finite_difference_grads(head, x, t)
        # the last layer's weight and bias gradients alone: the tail of the flat vector
        last = head[0][-1].size + head[1][-1].size
        assert gradient_relative_error(ga[-last:], gn[-last:]) <= 1e-6


class TestFlatGradient:
    """backward writes one flat vector laid out like a DepthHeads segment."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_views_are_the_per_parameter_formulas_bit_for_bit(self, dtype, mode):
        rng = np.random.default_rng(28)
        head = small_head(rng, in_dim=7, hidden=16, classes=4, dropout=0.3)
        head = tuple([p.astype(dtype) for p in arrays] for arrays in head[:2]) + (head[2],)
        x = rng.normal(0, 1, (11, 7))
        t = np.eye(4)[rng.integers(0, 4, 11)]
        masks = H.sample_masks(head, 11, rng) if mode == "train" else None
        _, grad = H.ce_loss_and_grad(head, x, t, masks=masks)
        cache = H.forward_cached(head, x, masks)
        delta = ((cache["probs"] - t) * cache["clip_mask"]).astype(dtype)
        expected = []
        for layer in range(H.N_LAYERS - 1, -1, -1):  # the out-of-place formulas, last layer first
            expected[:0] = [cache["inputs"][layer].T @ delta, delta.sum(axis=0)]
            if layer:
                delta = delta @ head[0][layer].T
                delta *= (masks[layer] if masks else 1) * (cache["inputs"][layer] > 0)
        assert grad.dtype == dtype and grad.shape == (sum(e.size for e in expected),)
        views = grad_views(head, grad)
        assert all(np.shares_memory(v, grad) for v in views)
        assert all(np.array_equal(v, e) for v, e in zip(views, expected, strict=True))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_add_to_is_the_scaled_sum_of_whole_vectors_bit_for_bit(self, dtype, mode):
        """add_to += gradient * scale part by part, as the trainer adds an
        unlabeled gradient over M rows to the labeled one."""
        rng = np.random.default_rng(30)
        head = small_head(rng, in_dim=7, hidden=16, classes=4, dropout=0.3)
        head = tuple([p.astype(dtype) for p in arrays] for arrays in head[:2]) + (head[2],)
        x = rng.normal(0, 1, (11, 7))
        t = np.eye(4)[rng.integers(0, 4, 11)]
        masks = H.sample_masks(head, 11, rng) if mode == "train" else None
        loss, grad = H.ce_loss_and_grad(head, x, t, masks=masks)
        base = rng.normal(0, 1, grad.shape).astype(dtype)
        expected = base.copy()
        expected += np.multiply(grad, 1.0 / 37, out=grad)
        loss_added, added = H.ce_loss_and_grad(head, x, t, masks=masks, add_to=base, scale=1.0 / 37)
        assert added is base and loss_added == loss
        assert added.dtype == dtype and np.array_equal(added, expected)

    def test_layout_is_a_depth_segment(self, animals):
        """Depth d's segment, split as a gradient, is the student's own arrays."""
        heads = random_heads(animals, np.random.default_rng(29))
        for student, seg in zip(heads.students, heads.segments):
            views = grad_views(student, heads.buffers["student"][seg])
            for v, a in zip(views, parameters(student), strict=True):
                assert v.shape == a.shape and v.__array_interface__["data"] == a.__array_interface__["data"]


def assert_close(a, b, rel=1e-12):
    assert np.abs(a - b).max(initial=0.0) <= rel * np.abs(b).max(initial=0.0)


class TestTargetRowsOnly:
    """The caller hands ce_loss_and_grad the rows that carry a target; an
    all-zero target row would add a zero logit gradient exactly."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_interleaved_zero_rows_change_nothing(self, mode):
        rng = np.random.default_rng(12)
        head = small_head(rng, dropout=0.4)
        x = rng.normal(0, 1, (7, 5))
        t = rng.random((7, 3)) * (rng.random((7, 1)) < 0.5)
        t[[0, 3]] = np.eye(3)[[1, 2]]  # at least two target rows, zero rows between them
        live = t.any(axis=1)
        masks = H.sample_masks(head, 7, rng) if mode == "train" else None
        loss, grads = H.ce_loss_and_grad(head, x, t, masks=masks)
        kept = None if masks is None else [m[live] for m in masks]
        loss_live, grads_live = H.ce_loss_and_grad(head, x[live], t[live], masks=kept)
        assert not live.all() and math.isclose(loss, loss_live, rel_tol=1e-12)
        for g, g_live in zip(grad_views(head, grads), grad_views(head, grads_live)):
            assert_close(g, g_live)

    def test_all_zero_targets_give_zero_loss_and_gradients(self):
        rng = np.random.default_rng(13)
        head = small_head(rng, dropout=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks = H.sample_masks(head, 4, rng)
            loss, grads = H.ce_loss_and_grad(head, rng.normal(0, 1, (4, 5)), np.zeros((4, 3)), masks=masks)
        assert loss == 0.0
        assert grads.shape == (sum(p.size for p in parameters(head)),)
        assert not grads.any()

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
        live = t.any(axis=1)  # as the trainer selects them
        H.ce_loss_and_grad(head, x[live], t[live], masks=[m[live] for m in masks])
        [(x_seen, masks_seen)] = seen
        assert np.array_equal(x_seen, x[[1, 4]])
        assert all(np.array_equal(a, m[[1, 4]]) for a, m in zip(masks_seen, masks))


class TestMasks:
    def test_masks_carry_the_inverted_dropout_scale(self):
        head = make_head(5, 3, hidden=8, dropout=0.4)
        masks = H.sample_masks(head, 6, np.random.default_rng(15))
        keep = np.random.default_rng(15).random((6, 5)) >= 0.4  # the same stream's first draw
        assert [m.shape for m in masks] == [(6, 5), (6, 8), (6, 8), (6, 8)]
        assert np.array_equal(masks[0], keep * (1.0 / (1.0 - 0.4)))
        assert all(set(np.unique(m)) <= {0.0, 1.0 / 0.6} for m in masks)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_skip_leaves_the_stream_where_drawing_does(self, dtype, n):
        """Advancing by mask_draws, as the trainer skips a depth's masks."""
        head = make_head(5, 3, hidden=8, dropout=0.3, dtype=dtype)
        drawn, skipped = np.random.default_rng(4), np.random.default_rng(4)
        for rng in (drawn, skipped):
            rng.random(11)  # mid-stream, as after earlier steps
        H.sample_masks(head, n, drawn)
        skipped.bit_generator.advance(H.mask_draws(head, n))
        assert skipped.bit_generator.state == drawn.bit_generator.state
        assert np.array_equal(H.sample_masks(head, 3, skipped)[2], H.sample_masks(head, 3, drawn)[2])


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("live_rows", [[], [0], [1, 4, 5], [0, 1, 2, 3, 4, 5, 6]])
    def test_live_rows_are_the_full_masks_rows_and_stream(self, dtype, live_rows):
        head = make_head(5, 3, hidden=8, dropout=0.3, dtype=dtype)
        live = np.isin(np.arange(7), live_rows)
        full, compact = np.random.default_rng(16), np.random.default_rng(16)
        masks = H.sample_masks(head, 7, full)
        masks_live = H.sample_masks(head, 7, compact, live)
        assert [m.dtype for m in masks_live] == [np.dtype(dtype)] * 4
        assert all(np.array_equal(m_live, m[live]) for m_live, m in zip(masks_live, masks, strict=True))
        assert compact.bit_generator.state == full.bit_generator.state

    @pytest.mark.parametrize("draws_per_run", [0, H.RUN_DRAWS, 10**12])  # run path always, as chosen, never
    @pytest.mark.parametrize("n", [1, 2, 61])
    @pytest.mark.parametrize("pattern", ["contiguous", "scattered"])
    @pytest.mark.parametrize("share", [0.0, 0.05, 0.3, 0.7, 1.0])
    def test_either_path_gives_the_all_rows_masks_and_stream(self, monkeypatch, draws_per_run, n, pattern, share):
        """Drawing run by run and drawing all rows, whichever the rule picks,
        give the masks and the generator state of the all-rows draw, from mid-stream."""
        monkeypatch.setattr(H, "RUN_DRAWS", draws_per_run)
        head = make_head(5, 3, hidden=16, dropout=0.3, dtype=np.float32)
        k = round(share * n)
        rows = np.arange(n // 3, n // 3 + k) % n if pattern == "contiguous" else np.random.default_rng(n).permutation(n)[:k]
        live = np.isin(np.arange(n), rows)
        full, compact = np.random.default_rng(17), np.random.default_rng(17)
        for rng in (full, compact):
            rng.random(13)
        masks = H.sample_masks(head, n, full)
        masks_live = H.sample_masks(head, n, compact, live)
        assert all(np.array_equal(m_live, m[live]) for m_live, m in zip(masks_live, masks, strict=True))
        assert [m.shape for m in masks_live] == [(live.sum(), 5)] + [(live.sum(), 16)] * 3
        assert compact.bit_generator.state == full.bit_generator.state

    def test_few_live_rows_draw_only_their_uniforms(self):
        """At 5% scattered live rows of a reference-sized head, each mask
        layer draws at most live rows x columns uniforms, and the stream
        still ends where the all-rows draw leaves it."""
        head, n = make_head(32, 3, hidden=512, dropout=0.3, dtype=np.float32), 484
        live = np.isin(np.arange(n), np.random.default_rng(18).permutation(n)[: n // 20])

        class Counting:
            """A generator that exposes only `random` and `bit_generator`, counting the uniforms drawn."""

            def __init__(self, rng):
                self.bit_generator, self._rng, self.drawn = rng.bit_generator, rng, 0

            def random(self, size=None, out=None):
                values = self._rng.random(size, out=out)
                self.drawn += values.size
                return values

        counting, full = Counting(np.random.default_rng(19)), np.random.default_rng(19)
        masks_live = H.sample_masks(head, n, counting, live)
        masks = H.sample_masks(head, n, full)
        assert counting.drawn <= live.sum() * sum(cols for _, cols in H._mask_shapes(head, 1))
        assert all(np.array_equal(m_live, m[live]) for m_live, m in zip(masks_live, masks, strict=True))
        assert counting.bit_generator.state == full.bit_generator.state


class TestMapDepths:
    def test_results_in_order_each_item_once_on_at_most_workers_threads(self):
        """More threads than cores switching every 10 us: an item taken twice
        or never would show in the calls."""
        calls, interval = [], sys.getswitchinterval()

        def fn(item):
            calls.append((item, threading.current_thread()))
            return item * item

        try:
            sys.setswitchinterval(1e-5)
            assert H.map_depths(fn, list(range(300)), 4) == [i * i for i in range(300)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(item for item, _ in calls) == list(range(300))
        assert len({thread for _, thread in calls}) <= 4
        assert H.map_depths(fn, [5], 4) == [25] and H.map_depths(fn, [], 2) == []

    def test_a_free_worker_pulls_the_items_behind_a_long_one(self):
        """Item 0 waits until items 1-3 are done: only a second worker that
        pulls them can finish it. Dealt round-robin to 2 workers, item 2 would
        wait behind item 0 and item 0 would time out."""
        finished, done_1_to_3, lock = [], threading.Event(), threading.Lock()

        def fn(item):
            if item == 0:
                return done_1_to_3.wait(timeout=10)
            with lock:
                finished.append(item)
                if len(finished) == 3:
                    done_1_to_3.set()
            return item

        assert H.map_depths(fn, [0, 1, 2, 3], 2) == [True, 1, 2, 3]

    def test_an_error_in_any_share_propagates_after_all_finish(self):
        done = []

        def fn(item):
            if item == 3:
                raise ValueError("depth 4 failed")
            done.append(item)

        with pytest.raises(ValueError, match="depth 4 failed"):
            H.map_depths(fn, [0, 1, 2, 3], 2)
        assert sorted(done) == [0, 1, 2]


class TestEvalForward:
    """forward keeps none of backward's intermediates and clips in place, but
    gives the probabilities of forward_cached bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_forward_cached_bit_for_bit(self, dtype):
        rng = np.random.default_rng(22)
        head = make_head(6, 4, hidden=16, dtype=dtype)
        H.init_weights(head[0], rng)
        head[0][-1] *= 40.0  # some logits beyond the clip
        x = rng.normal(0, 3, (13, 6))
        probs = H.forward(head, x)
        cached = H.forward_cached(head, x, None)
        assert not cached["clip_mask"].all()
        assert probs.dtype == np.float64
        assert np.array_equal(probs.view(np.uint64), cached["probs"].view(np.uint64))


def random_heads(hierarchy, rng, feature_dim=5, hidden=6):
    """DepthHeads whose three role buffers hold random float32 values."""
    heads = H.DepthHeads(hierarchy, feature_dim, hidden=hidden)
    for buf in heads.buffers.values():
        buf[...] = rng.normal(0.0, 1.0, buf.shape)
    return heads


def depth_arrays(heads, role, d):
    """Depth d's arrays of one role, w0, b0, w1, ..., as checkpoint entries."""
    return [a for name, a in heads.state_dict().items() if name.startswith(f"{role}.d{d}.")]


def set_depth(heads, d, student, velocity=0.0):
    for role, value in (("student", student), ("velocity", velocity)):
        heads.buffers[role][heads.segments[d - 1]] = value


def zero_grad(heads, d):
    """A flat zero gradient of depth d's student, as backward gives it."""
    seg = heads.segments[d - 1]
    return np.zeros(seg.stop - seg.start, H.HEAD_DTYPE)


class TestSgd:
    """DepthHeads.sgd_step updates depth d's student and velocity segments."""

    def test_zero_gradient_no_decay_keeps_params(self, animals):
        heads = random_heads(animals, np.random.default_rng(23))
        set_depth(heads, 1, 1.0)
        heads.sgd_step(1, zero_grad(heads, 1), 0.1, 0.9, 0.0)
        assert np.all(heads.buffers["student"][heads.segments[0]] == 1.0)

    def test_single_step_formula(self, animals):
        heads = random_heads(animals, np.random.default_rng(24))
        set_depth(heads, 2, 2.0)
        g = np.full_like(zero_grad(heads, 2), 0.5)
        heads.sgd_step(2, g, 0.1, 0.9, 0.01)
        # v = g + wd*theta = 0.5 + 0.02; theta = 2 - 0.1*0.52
        assert np.allclose(heads.buffers["student"][heads.segments[1]], 2.0 - 0.1 * 0.52)

    def test_two_steps_momentum_unroll(self, animals):
        # constant gradient, no decay: after two steps the total change is
        # -lr*(g + (1+mu)*g)
        lr, mu = 0.1, 0.9
        heads = random_heads(animals, np.random.default_rng(25))
        set_depth(heads, 1, 0.0)
        for _ in range(2):  # a fresh gradient each step: sgd_step uses it as scratch
            g = np.ones_like(zero_grad(heads, 1))
            heads.sgd_step(1, g, lr, mu, 0.0)
        assert np.allclose(heads.buffers["student"][heads.segments[0]], -lr * (1.0 + (1.0 + mu)))

    def test_scale_applies_to_gradient_only(self, animals):
        heads = random_heads(animals, np.random.default_rng(26))
        set_depth(heads, 1, 1.0)
        g = np.full_like(zero_grad(heads, 1), 4.0)
        heads.sgd_step(1, g, 1.0, 0.0, 0.0, scale=0.25)
        assert np.all(heads.buffers["student"][heads.segments[0]] == 0.0)

    def test_in_place_update_is_the_formula_bit_for_bit(self, animals):
        """Depth d's student and velocity arrays follow the per-array formula
        exactly; every other array stays as it was."""
        rng = np.random.default_rng(16)
        heads = random_heads(animals, rng)
        before = {name: a.copy() for name, a in heads.state_dict().items()}
        d = 2
        g = rng.normal(0, 1, zero_grad(heads, d).shape).astype(np.float32)
        grads = grad_views(heads.students[d - 1], g.copy())
        lr, mu, wd, scale = 0.1, 0.9, 0.001, 0.37
        theta, v = depth_arrays(heads, "student", d), depth_arrays(heads, "velocity", d)
        v_ref = [mu * vi + (scale * gi + wd * ti) for vi, gi, ti in zip(v, grads, theta)]
        theta_ref = [ti - lr * vi for ti, vi in zip(theta, v_ref)]
        heads.sgd_step(d, g, lr, mu, wd, scale=scale)
        assert all(a.dtype == np.float32 for a in v_ref + theta_ref)
        assert all(np.array_equal(a, b) for a, b in zip(v + theta, v_ref + theta_ref, strict=True))
        changed = {name for name, a in heads.state_dict().items() if not np.array_equal(a, before[name])}
        assert changed and all(name.split(".")[:2] in (["student", f"d{d}"], ["velocity", f"d{d}"]) for name in changed)

    def test_largest_transient_is_one_segment(self):
        """On heads shaped like the reference arm, the step allocates at most
        one depth segment (the weight-decay term), plus a few array headers:
        the gradient itself is the scratch, not a copy of it."""
        hierarchy, dataset = reference_dataset(0)
        heads = H.DepthHeads(hierarchy, dataset.dim, hidden=reference_train_config("semihoc", 0).hidden_dim)
        for d, seg in zip(heads.depths, heads.segments):
            g = np.ones(seg.stop - seg.start, H.HEAD_DTYPE)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                heads.sgd_step(d, g, 0.01, 0.9, 0.001, scale=0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base <= g.nbytes + 4096, (d, peak - base, g.nbytes)


def ema_every_depth(heads, momentum):
    for d in heads.depths:
        heads.ema_update(d, momentum)


class TestEma:
    """DepthHeads.ema_update, depth by depth, moves every teacher array toward its student."""

    def test_momentum_one_keeps_teacher(self, animals):
        heads = random_heads(animals, np.random.default_rng(9))
        before = heads.buffers["teacher"].copy()
        ema_every_depth(heads, 1.0)
        assert np.array_equal(heads.buffers["teacher"], before)

    def test_momentum_zero_copies_student(self, animals):
        heads = random_heads(animals, np.random.default_rng(10))
        ema_every_depth(heads, 0.0)
        assert np.array_equal(heads.buffers["teacher"], heads.buffers["student"])

    def test_small_update(self, animals):
        heads = H.DepthHeads(animals, 2, hidden=2)
        heads.buffers["student"][...] = 1.0
        ema_every_depth(heads, 0.999)
        assert np.allclose(heads.buffers["teacher"], 0.001)

    def test_in_place_update_is_the_formula_bit_for_bit(self, animals):
        heads = random_heads(animals, np.random.default_rng(17))
        state = heads.state_dict()
        expected = {
            name.partition(".")[2]: 0.999 * a + (1.0 - 0.999) * state[f"student.{name.partition('.')[2]}"]
            for name, a in state.items()
            if name.startswith("teacher.")
        }
        ema_every_depth(heads, 0.999)
        assert all(np.array_equal(state[f"teacher.{key}"], a) for key, a in expected.items())
        assert {a.dtype for a in expected.values()} == {np.dtype(np.float32)}

    def test_contraction(self, animals):
        heads = random_heads(animals, np.random.default_rng(11))
        t, s = heads.buffers["teacher"], heads.buffers["student"]
        m = 0.9
        gap0 = np.abs(t - s).max()
        for _ in range(10):
            ema_every_depth(heads, m)
        assert np.abs(t - s).max() <= gap0 * m**10 * (1 + 1e-5)

    def test_one_depth_moves_only_its_teacher(self, animals):
        heads = random_heads(animals, np.random.default_rng(12))
        before = heads.state_dict()
        before = {name: a.copy() for name, a in before.items()}
        heads.ema_update(2, 0.5)
        changed = {name for name, a in heads.state_dict().items() if not np.array_equal(a, before[name])}
        assert changed and all(name.startswith("teacher.d2.") for name in changed)


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

    def test_entries_are_views_of_three_role_buffers(self, animals):
        heads = H.DepthHeads(animals, 5, hidden=6)
        assert list(heads.buffers) == list(H.ROLES)
        for name, array in heads.state_dict().items():
            owner = [role for role, buf in heads.buffers.items() if np.shares_memory(array, buf)]
            assert owner == [name.split(".")[0]], name
        for role, buf in heads.buffers.items():  # depth-major: depth d's arrays fill segment d - 1
            for d, seg in zip(heads.depths, heads.segments):
                assert sum(a.size for a in depth_arrays(heads, role, d)) == seg.stop - seg.start
                assert np.shares_memory(depth_arrays(heads, role, d)[0], buf[seg])
            assert heads.segments[-1].stop == buf.size

    def test_init_draws_depth_by_depth_and_copies_the_teacher(self, animals):
        heads = H.DepthHeads(animals, 5, hidden=6)
        heads.init_params(np.random.default_rng(27))
        rng = np.random.default_rng(27)
        for weights, biases, _ in heads.students:
            reference = [np.zeros(w.shape) for w in weights]
            H.init_weights(reference, rng)
            assert all(np.array_equal(w, r.astype(np.float32)) for w, r in zip(weights, reference))
            assert not any(b.any() for b in biases)
        assert np.array_equal(heads.buffers["teacher"], heads.buffers["student"])
        assert not heads.buffers["velocity"].any()

    def test_every_array_is_float32(self, animals):
        heads = H.DepthHeads(animals, 5, hidden=6)
        heads.init_params(np.random.default_rng(0))
        assert {a.dtype for a in heads.state_dict().values()} == {np.dtype(np.float32)}


class TestRoleHeads:
    def test_heads_are_the_entries_not_copies(self, animals):
        classes = [len(animals.depth_space(d)) for d in range(1, animals.max_depth + 1)]
        entries = {name: np.ones(shape, np.float32) for name, shape in H.entry_shapes(5, classes, 6).items()}
        for role in H.ROLES:
            heads = H.role_heads(entries, role, animals.max_depth, dropout=0.25)
            assert len(heads) == animals.max_depth
            for d, (weights, biases, dropout) in enumerate(heads, start=1):
                assert dropout == 0.25
                names = [f"{role}.d{d}.{kind}{layer}" for layer in range(H.N_LAYERS) for kind in "wb"]
                arrays = [a for pair in zip(weights, biases) for a in pair]
                assert [a.shape for a in arrays] == H.param_shapes(5, classes[d - 1], 6)
                for name, array in zip(names, arrays, strict=True):
                    assert array is entries[name] and np.shares_memory(array, entries[name])
        entries["teacher.d2.w1"][0, 0] = 7.0  # a write to an entry shows in the head
        assert H.role_heads(entries, "teacher", 2)[1][0][1][0, 0] == 7.0

    def test_depth_heads_are_role_heads_of_their_state(self, animals):
        heads = H.DepthHeads(animals, 5, hidden=6, dropout=0.5)
        for role, own in (("student", heads.students), ("teacher", heads.teachers)):
            for mine, made in zip(own, H.role_heads(heads.state_dict(), role, len(heads.depths), 0.5), strict=True):
                assert mine[2] == made[2] and all(a is b for a, b in zip(mine[0] + mine[1], made[0] + made[1], strict=True))


def float32_twin(head):
    weights, biases, dropout = head
    return [w.astype(np.float32) for w in weights], [b.astype(np.float32) for b in biases], dropout


class TestFloat32Heads:
    """A float32 head runs the same forward and backward code as the float64
    heads the gradient oracle checks; only the rounding differs."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_agrees_with_float64_twin(self, mode):
        rng = np.random.default_rng(18)
        head = small_head(rng, in_dim=12, hidden=32, classes=4, dropout=0.3)
        head32 = float32_twin(head)
        for p in parameters(head):  # the twin's rounded weights, exactly
            p[...] = p.astype(np.float32)
        x = rng.normal(0, 1, (9, 12))
        t = np.eye(4)[rng.integers(0, 4, 9)]
        t[2] = 0.0
        masks = H.sample_masks(head, 9, np.random.default_rng(19)) if mode == "train" else None
        masks32 = H.sample_masks(head32, 9, np.random.default_rng(19)) if mode == "train" else None
        p64, p32 = H.forward(head, x), H.forward(head32, x)
        assert p32.dtype == np.float64 and np.allclose(p32, p64, rtol=1e-5, atol=1e-6)
        loss, grads = H.ce_loss_and_grad(head, x, t, masks=masks)
        loss32, grads32 = H.ce_loss_and_grad(head32, x, t, masks=masks32)
        assert isinstance(loss32, float) and math.isclose(loss32, loss, rel_tol=1e-5)
        assert grads32.dtype == np.float32
        for g, g32 in zip(grad_views(head, grads), grad_views(head32, grads32)):
            assert np.abs(g32 - g).max(initial=0.0) <= 1e-5 * np.abs(g).max(initial=1.0)

    def test_masks_keep_the_same_rows_and_stream(self):
        head = make_head(5, 3, hidden=8, dropout=0.3)
        rng64, rng32 = np.random.default_rng(20), np.random.default_rng(20)
        masks = H.sample_masks(head, 11, rng64)
        masks32 = H.sample_masks(float32_twin(head), 11, rng32)
        assert all(m32.dtype == np.float32 for m32 in masks32)
        assert all(np.array_equal(m.astype(np.float32), m32) for m, m32 in zip(masks, masks32))
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_init_draws_alike(self):
        head, head32 = make_head(5, 3, hidden=8), make_head(5, 3, hidden=8, dtype=np.float32)
        rng64, rng32 = np.random.default_rng(21), np.random.default_rng(21)
        H.init_weights(head[0], rng64)
        H.init_weights(head32[0], rng32)
        assert all(np.array_equal(p.astype(np.float32), p32) for p, p32 in zip(parameters(head), parameters(head32)))
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_sgd_and_ema_stay_float32(self, animals):
        rng = np.random.default_rng(22)
        heads = random_heads(animals, rng)
        g = rng.normal(0, 1, zero_grad(heads, 1).shape).astype(np.float32)
        heads.sgd_step(1, g, 0.1, 0.9, 0.001, scale=0.5)
        ema_every_depth(heads, 0.9)
        assert {a.dtype for a in heads.buffers.values()} == {np.dtype(np.float32)}
