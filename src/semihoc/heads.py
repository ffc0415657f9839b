"""Depth-specific MLP classifiers with explicit forward/backward passes.

Four affine layers with ReLU in between, softmax output, inverted dropout on
the input features and on every hidden activation. A head is a
`(weights, biases, dropout)` tuple: four weight matrices, four bias vectors
and the dropout rate; its sizes and dtype are read off the arrays. A dropout
mask already carries the inverted-dropout scale: each entry is 0 or
1/(1 - rate), so one multiply applies it. A head computes in the dtype of its
parameters: inputs, masks, activations and gradients follow it. role_heads
makes heads of checkpoint entries, not copies: the trainer's are views into
the role buffers of DepthHeads, eval's are a checkpoint's own teacher arrays.
Both are float32 (HEAD_DTYPE), which about halves the cost of their matmuls;
the logits are cast up to float64 before the softmax, so the probabilities, the loss and the
logit gradient are float64 whatever the head's dtype. The gradient oracle
checks float64 heads through the same forward and backward code against
central finite differences at tight tolerances. The trainer hands the
cross-entropy only the rows that carry a target: a row whose target is all
zero has a logit gradient of exactly zero, so leaving it out changes the loss
and gradients only in the order of their sums. The per-depth student is
trained with SGD plus momentum and weight decay; the teacher is an
exponential moving average of the student and is the model actually used for
pseudo-labels and evaluation. A head's gradient is one flat vector laid out
like its DepthHeads segment, which sgd_step uses up as scratch. Forward,
backward, SGD and EMA work in place on fresh buffers wherever the result is
the same float as the out-of-place expression. The depth heads of a step
are independent of each other, so map_depths can share their work out to
threads, each free thread pulling the next item: numpy's BLAS calls and large
elementwise loops run without the interpreter lock, and each head computes
exactly as it would alone. The unlabeled rows of a batch train a depth only
where they carry a target, and sample_masks draws the dropout uniforms of
those rows alone, passing the stream over the others' draws.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading

import numpy as np

LOGIT_CLIP = 50.0
N_LAYERS = 4
HEAD_DTYPE = np.dtype(np.float32)  # of DepthHeads' parameters, velocities and checkpoint entries
ROLES = ("student", "teacher", "velocity")
ENTRY_NAME = "{role}.d{d}.{kind}{layer}"  # of a head parameter in a checkpoint: `teacher.d2.w0`, kind w or b
# What sample_masks' run path pays per run of live rows, an advance and a draw call in each of the four mask
# layers, in uniforms' time: 10-16 us against about 4 ns a uniform (2 cores, numpy 2.4.6, 484 scattered rows at
# hidden 64 and 512), so drawing run by run is the faster at up to about 30% live rows at hidden 512 and 5% at 64.
RUN_DRAWS = 4096


def param_shapes(in_dim: int, out_dim: int, hidden: int) -> list[tuple[int, ...]]:
    """Shapes of one head's parameters: w0, b0, w1, b1, ..."""
    widths = [in_dim] + [hidden] * (N_LAYERS - 1) + [out_dim]
    return [shape for i in range(N_LAYERS) for shape in ((widths[i], widths[i + 1]), (widths[i + 1],))]


def entry_shapes(feature_dim: int, classes: list[int] | tuple[int, ...], hidden: int) -> dict[str, tuple[int, ...]]:
    """Checkpoint name (ENTRY_NAME) -> shape of every array of heads with
    classes[d - 1] outputs at depth d, in DepthHeads.state_dict order."""
    return {
        ENTRY_NAME.format(role=role, d=d, kind="wb"[i % 2], layer=i // 2): shape
        for d, n_classes in enumerate(classes, start=1)
        for role in ROLES
        for i, shape in enumerate(param_shapes(feature_dim, n_classes, hidden))
    }


def role_heads(entries: dict, role: str, n_depths: int, dropout: float = 0.0) -> list[tuple]:
    """The heads of `role` at depths 1..n_depths, of the arrays of `entries` under their entry_shapes names, not copies."""
    def arrays(d, kind):
        return [entries[ENTRY_NAME.format(role=role, d=d, kind=kind, layer=layer)] for layer in range(N_LAYERS)]
    return [(arrays(d, "w"), arrays(d, "b"), dropout) for d in range(1, n_depths + 1)]


def init_weights(weights: list[np.ndarray], rng: np.random.Generator) -> None:
    """He-uniform fan-in initialization in place; the draws are float64
    whatever the weights' dtype, so the init stream is used alike."""
    for w in weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, w.shape)


def _mask_shapes(head: tuple, n: int) -> list[tuple[int, int]]:
    in_dim, hidden = head[0][0].shape
    return [(n, in_dim)] + [(n, hidden)] * (N_LAYERS - 1)


def sample_masks(head: tuple, n: int, rng: np.random.Generator, live: np.ndarray | None = None) -> list[np.ndarray]:
    """Dropout masks for a batch, input plus each hidden activation: the
    keep-mask times the inverted-dropout scale 1/(1 - rate), so 0 or 1/(1 - rate),
    in the head's dtype. The uniforms are drawn and compared in float64 whatever
    that dtype, so the keep decisions and the stream's use do not depend on it.
    A boolean row mask `live` keeps only its rows: the masks are
    `[m[live] for m in masks]` of the all-rows draw, and the stream ends where
    that draw leaves it. When the live rows come in few runs against the dead
    rows (_draws_live_runs), each mask layer draws only the runs' uniforms and
    advances the stream over the dead rows' draws, one PCG64 step each."""
    weights, _, dropout = head
    dtype = weights[0].dtype
    scale = dtype.type(1.0 / (1.0 - dropout))
    runs = _draws_live_runs(head, live) if live is not None else None
    masks, skip = [], 0  # skip: the draws of dead rows passed over and not yet advanced
    for rows, cols in _mask_shapes(head, n):
        if runs is None:
            keep = rng.random((rows, cols)) >= dropout
            keep = keep if live is None else keep[live]
        else:
            u, at, pos = np.empty((np.count_nonzero(live), cols)), 0, 0  # at: rows of u drawn; pos: rows passed
            for start, stop in runs:
                skip += (start - pos) * cols
                if skip:
                    rng.bit_generator.advance(skip)
                rng.random(out=u[at : at + stop - start])
                at, pos, skip = at + stop - start, stop, 0
            skip += (rows - pos) * cols
            keep = u >= dropout
        masks.append(np.multiply(keep, scale, dtype=dtype))
    if skip:
        rng.bit_generator.advance(skip)
    return masks


def _draws_live_runs(head: tuple, live: np.ndarray) -> list[tuple[int, int]] | None:
    """The runs [start, stop) of consecutive live rows, when drawing them run by run beats drawing every row:
    a run costs about RUN_DRAWS uniforms' time over the four layers, and a dead row saves mask_draws(head, 1).
    None otherwise."""
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False)).tolist()  # where runs start and stop
    runs = list(zip(edges[::2], edges[1::2]))
    dead = len(live) - sum(stop - start for start, stop in runs)
    return runs if len(runs) * RUN_DRAWS < dead * mask_draws(head, 1) else None


def mask_draws(head: tuple, n: int) -> int:
    """The float64 uniforms sample_masks(head, n, ...) draws, each one step of
    a PCG64 stream: the distance to advance a stream past those masks."""
    return sum(rows * cols for rows, cols in _mask_shapes(head, n))


def _forward(head: tuple, x: np.ndarray, masks: list[np.ndarray] | None) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of each layer and the fresh float64 logits of a batch."""
    weights, biases, _ = head
    a = x * masks[0] if masks is not None else x
    inputs = [a]
    for layer in range(N_LAYERS - 1):
        a = a @ weights[layer]
        a += biases[layer]
        np.maximum(a, 0.0, out=a)
        if masks is not None:
            a *= masks[layer + 1]
        inputs.append(a)
    logits = a @ weights[-1]
    logits += biases[-1]
    return inputs, logits.astype(np.float64, copy=False)


def _softmax_clipped(z: np.ndarray) -> np.ndarray:
    """Softmax of clipped logits, computed in place in `z`."""
    np.clip(z, -LOGIT_CLIP, LOGIT_CLIP, out=z)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def forward_cached(head: tuple, x: np.ndarray, masks: list[np.ndarray] | None) -> dict:
    """Forward pass keeping every intermediate needed for backprop: the
    input of each layer, the output probabilities and the logit clip mask.

    masks=None means evaluation mode (no dropout); in training mode each
    activation is multiplied by its mask from sample_masks.
    """
    inputs, logits = _forward(head, np.asarray(x, dtype=head[0][0].dtype), masks)
    clip_mask = np.abs(logits) < LOGIT_CLIP
    return {"masks": masks, "inputs": inputs, "probs": _softmax_clipped(logits), "clip_mask": clip_mask}


def forward(head: tuple, x: np.ndarray) -> np.ndarray:
    """Evaluation-mode class probabilities for a batch, one row per sample."""
    w0 = head[0][0]
    x = np.asarray(x, dtype=w0.dtype)
    if x.shape[1] != w0.shape[0]:
        raise ValueError(f"feature dim {x.shape[1]} != head input dim {w0.shape[0]}")
    return _softmax_clipped(_forward(head, x, None)[1])  # no clip mask: only backward reads it


def _runs(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    return [slice(a, b) for a, b in itertools.pairwise(itertools.accumulate(sizes, initial=0))]


def flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Reshaped views of consecutive runs of the 1-D `flat`, one per shape."""
    return [flat[run].reshape(shape) for run, shape in zip(_runs(map(math.prod, shapes)), shapes)]


def backward(head: tuple, cache: dict, d_logits: np.ndarray, add_to: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """Gradient w.r.t. all parameters in one fresh vector of the head's dtype,
    laid out like a DepthHeads segment (w0, b0, w1, ...), given the loss
    gradient at the logits; each parameter's part is written in place, at
    offsets walked down from the end by the parameters' sizes. Given
    `add_to`, a vector laid out alike, each part is instead computed apart,
    multiplied by `scale` and added to its place there, and `add_to` is
    returned: the floats of `add_to += gradient * scale` on whole vectors,
    with one layer's parts alive at a time instead of a second gradient."""
    weights, biases, _ = head
    masks, inputs = cache["masks"], cache["inputs"]
    dtype = weights[0].dtype
    grad = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)), dtype) if add_to is None else add_to
    stop = grad.size  # end of the next part down: views built per call cost more than the matmuls of small heads
    delta = (d_logits * cache["clip_mask"]).astype(dtype, copy=False)
    for layer in range(N_LAYERS - 1, -1, -1):
        w, b = weights[layer], biases[layer]
        parts = grad[stop - b.size : stop], grad[stop - b.size - w.size : stop - b.size]
        outs = parts if add_to is None else (np.empty(b.size, dtype), np.empty(w.size, dtype))
        delta.sum(axis=0, out=outs[0])
        np.matmul(inputs[layer].T, delta, out=outs[1].reshape(w.shape))
        if add_to is not None:
            for part, out in zip(parts, outs):
                part += np.multiply(out, scale, out=out)
            del out, outs  # not held through the next layer's delta
        stop -= b.size + w.size
        if layer == 0:
            break
        delta = delta @ weights[layer].T
        if masks is not None:
            delta *= masks[layer]
        delta *= inputs[layer] > 0  # the ReLU gate: a masked unit reads 0 too
    return grad


def ce_loss_and_grad(
    head: tuple, x: np.ndarray, targets: np.ndarray, masks: list[np.ndarray] | None = None, add_to=None, scale: float = 1.0
) -> tuple[float, np.ndarray]:
    """Summed soft-target cross-entropy and its flat parameter gradient, as
    backward gives it, `add_to` and `scale` included; `masks` as in
    forward_cached, None for evaluation mode.

    `targets` has one float64 row per row of `x` over the head's classes; a
    row sums to one (a single target) or to an integer k (k unit-mass targets
    merged). The caller selects the rows that carry a target, as the trainer
    does per depth: an all-zero row would add only work, since its logit
    gradient is exactly zero.
    """
    cache = forward_cached(head, x, masks)
    p = cache["probs"]
    loss = float(-(targets * np.log(p)).sum())
    d_logits = p * targets.sum(axis=1, keepdims=True)
    d_logits -= targets
    return loss, backward(head, cache, d_logits, add_to, scale)


@functools.cache
def _pool():
    """The threads map_depths shares items with: made at its first call that
    shares, then kept for the process. concurrent.futures is imported here,
    so that a process that never shares (eval, small heads) does not load it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=os.cpu_count() or 1, thread_name_prefix="semihoc-depth")


def map_depths(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] on up to `workers` threads: the calling
    thread and the others from a process-wide pool each take the next item
    not yet taken whenever they are free, so a long item does not hold back
    the ones after it. Items on different threads run at the same time, so fn
    must not let two items write the same memory. The results come back in
    the order of `items` once every thread is done; a thread whose item
    raised takes no more, and the error of the first such item is raised."""
    n_threads = min(workers, len(items))
    if n_threads <= 1:
        return [fn(item) for item in items]
    results, errors, lock, untaken = [None] * len(items), {}, threading.Lock(), iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = next(untaken, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                return

    pending = [_pool().submit(work) for _ in range(n_threads - 1)]
    try:
        work()
    finally:
        for future in pending:
            future.result()  # waits: no thread outlives the call
    if errors:
        raise errors[min(errors)]
    return results


class DepthHeads:
    """Student and teacher heads for every hierarchy depth, with the
    student's SGD velocities, in one HEAD_DTYPE buffer per role of ROLES.

    A role buffer is depth-major: depth d's parameters, in param_shapes
    order, are the contiguous segment `segments[d - 1]`, so an optimizer or
    EMA step is a few whole-segment updates. Every checkpoint entry is a view
    into its role buffer, and role_heads makes the heads of those views. The
    teacher starts as a copy of the student and is only ever touched by EMA
    updates; the optimizer state lives here so checkpoints can capture the
    whole training state in one place.
    """

    def __init__(self, hierarchy, feature_dim: int, hidden: int = 512, dropout: float = 0.0):
        self.depths = list(range(1, hierarchy.max_depth + 1))
        shapes = [param_shapes(feature_dim, k, hidden) for k in hierarchy.classes]  # per depth, as flat_views takes
        self.segments = _runs(sum(map(math.prod, s)) for s in shapes)
        # per depth, the slice of each parameter (w0, b0, w1, ...) in a segment or a flat gradient, made once
        self.param_slices = [_runs(map(math.prod, s)) for s in shapes]
        self.buffers = {role: np.zeros(self.segments[-1].stop, HEAD_DTYPE) for role in ROLES}
        views = [v for seg, s in zip(self.segments, shapes) for role in ROLES for v in flat_views(self.buffers[role][seg], s)]
        self._state = dict(zip(entry_shapes(feature_dim, hierarchy.classes, hidden), views, strict=True))
        self.students, self.teachers = (role_heads(self._state, role, len(self.depths), dropout) for role in ROLES[:2])

    def init_params(self, rng: np.random.Generator) -> None:
        """He-uniform student weights, drawn depth by depth, next to the zero
        biases of a fresh DepthHeads; the teacher starts as the student's copy."""
        for weights, _, _ in self.students:
            init_weights(weights, rng)
        self.buffers["teacher"][...] = self.buffers["student"]

    def sgd_step(self, d: int, g: np.ndarray, lr: float, momentum: float, weight_decay: float, scale: float = 1.0) -> None:
        """Classic SGD-momentum update of depth d's student, weight decay
        folded into the gradient, in place over its segment; `g` is its flat
        gradient, as backward gives it, and is used up as scratch.

        v <- mu*v + (scale*g + wd*theta);  theta <- theta - lr*v
        """
        seg = self.segments[d - 1]
        theta, v = self.buffers["student"][seg], self.buffers["velocity"][seg]
        g *= scale
        g += theta * weight_decay
        v *= momentum
        v += g
        theta -= np.multiply(v, lr, out=g)

    def ema_update(self, d: int, momentum: float) -> None:
        """theta_t <- m*theta_t + (1-m)*theta_s over depth d's segment, in
        place: its only temporary is the segment's (1-m)*theta_s."""
        seg = self.segments[d - 1]
        teacher = self.buffers["teacher"][seg]
        teacher *= momentum
        teacher += self.buffers["student"][seg] * (1.0 - momentum)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Every student, teacher and velocity array under its checkpoint
        name: views into the role buffers, not copies."""
        return dict(self._state)

    def load_state_dict(self, state: dict) -> None:
        """Copy the saved arrays, which load_checkpoint has checked against
        these heads' names, shapes and dtype, into the live ones."""
        for name, dst in self._state.items():
            dst[...] = state[name]
