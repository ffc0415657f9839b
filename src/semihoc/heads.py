"""Depth-specific MLP classifiers with explicit forward/backward passes.

Four affine layers with ReLU in between, softmax output, inverted dropout on
the input features and on every hidden activation. A dropout mask already
carries the inverted-dropout scale: each entry is 0 or 1/(1 - rate), so one
multiply applies it. All training arithmetic is 64-bit so analytic gradients
can be checked against central finite differences at tight tolerances.
The cross-entropy runs forward and backward on the rows that carry a target
only: a row whose target is all zero has a logit gradient of exactly zero,
so skipping it changes the loss and gradients only in the order of their
sums. The per-depth student is trained with SGD plus momentum and weight
decay; the teacher is an exponential moving average of the student and is
the model actually used for pseudo-labels and evaluation. Forward, backward,
SGD and EMA work in place on fresh buffers wherever the result is the same
float as the out-of-place expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGIT_CLIP = 50.0
N_LAYERS = 4
ROLES = ("student", "teacher", "velocity")


def param_shapes(in_dim: int, out_dim: int, hidden: int) -> list[tuple[int, ...]]:
    """Shapes of one head's parameters: w0, b0, w1, b1, ..."""
    widths = [in_dim] + [hidden] * (N_LAYERS - 1) + [out_dim]
    return [shape for i in range(N_LAYERS) for shape in ((widths[i], widths[i + 1]), (widths[i + 1],))]


def entry_shapes(feature_dim: int, classes: list[int], hidden: int) -> dict[str, tuple[int, ...]]:
    """Checkpoint name (`teacher.d2.w0`) -> shape of every array of heads with
    classes[d - 1] outputs at depth d, in DepthHeads.state_dict order."""
    return {
        f"{role}.d{d}.{'wb'[i % 2]}{i // 2}": shape
        for d, n_classes in enumerate(classes, start=1)
        for role in ROLES
        for i, shape in enumerate(param_shapes(feature_dim, n_classes, hidden))
    }


class MlpHead:
    """One classifier head: feature vector in, class probabilities out."""

    def __init__(self, in_dim: int, out_dim: int, hidden: int = 512, dropout: float = 0.0):
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        self.dropout = dropout
        params = [np.zeros(shape) for shape in param_shapes(in_dim, out_dim, hidden)]
        self.weights, self.biases = params[0::2], params[1::2]

    def init_params(self, rng: np.random.Generator) -> None:
        """He-uniform fan-in initialization, biases zero."""
        for w in self.weights:
            limit = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-limit, limit, w.shape)
        for b in self.biases:
            b[...] = 0.0

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy_from(self, other: "MlpHead") -> None:
        for dst, src in zip(self.parameters(), other.parameters()):
            dst[...] = src

    def clone(self) -> "MlpHead":
        dup = MlpHead(self.in_dim, self.out_dim, self.hidden, self.dropout)
        dup.copy_from(self)
        return dup


def sample_masks(head: MlpHead, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Dropout masks for a batch, input plus each hidden activation: the
    keep-mask times the inverted-dropout scale 1/(1 - rate), so 0 or 1/(1 - rate)."""
    shapes = [(n, head.in_dim)] + [(n, head.hidden)] * (N_LAYERS - 1)
    scale = 1.0 / (1.0 - head.dropout)
    masks = [rng.random(shape) for shape in shapes]
    for m in masks:
        np.multiply(m >= head.dropout, scale, out=m)
    return masks


def _softmax_clipped(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    clip_mask = np.abs(logits) < LOGIT_CLIP
    z = np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z, clip_mask


def forward_cached(head: MlpHead, x: np.ndarray, masks: list[np.ndarray] | None) -> dict:
    """Forward pass keeping every intermediate needed for backprop: the
    input of each layer, the output probabilities and the logit clip mask.

    masks=None means evaluation mode (no dropout); in training mode each
    activation is multiplied by its mask from sample_masks.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    a = x * masks[0] if masks is not None else x
    inputs = [a]
    for layer in range(N_LAYERS - 1):
        a = a @ head.weights[layer]
        a += head.biases[layer]
        np.maximum(a, 0.0, out=a)
        if masks is not None:
            a *= masks[layer + 1]
        inputs.append(a)
    logits = a @ head.weights[-1]
    logits += head.biases[-1]
    probs, clip_mask = _softmax_clipped(logits)
    return {"masks": masks, "inputs": inputs, "probs": probs, "clip_mask": clip_mask}


def forward(
    head: MlpHead,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a batch (or a single vector)."""
    single = np.ndim(x) == 1
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != head.in_dim:
        raise ValueError(f"feature dim {x.shape[1]} != head input dim {head.in_dim}")
    masks = None
    if mode == "train":
        if rng is None:
            raise ValueError("training mode needs a dropout rng")
        masks = sample_masks(head, x.shape[0], rng)
    elif mode != "eval":
        raise ValueError(f"unknown mode {mode!r}")
    probs = forward_cached(head, x, masks)["probs"]
    return probs[0] if single else probs


def backward(head: MlpHead, cache: dict, d_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients w.r.t. all parameters given the loss gradient at the logits."""
    masks, inputs = cache["masks"], cache["inputs"]
    grads: list[np.ndarray | None] = [None] * (2 * N_LAYERS)
    delta = d_logits * cache["clip_mask"]
    for layer in range(N_LAYERS - 1, -1, -1):
        grads[2 * layer] = inputs[layer].T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer == 0:
            break
        delta = delta @ head.weights[layer].T
        if masks is not None:
            delta *= masks[layer]
        delta *= inputs[layer] > 0  # the ReLU gate: a masked unit reads 0 too
    return grads  # type: ignore[return-value]


def ce_loss_and_grad(
    head: MlpHead,
    x: np.ndarray,
    targets: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    masks: list[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Summed soft-target cross-entropy and its parameter gradients.

    `targets` has one row per sample over the head's classes; a row may sum
    to one (a single target), to an integer k (k unit-mass targets merged,
    as when several pseudo-labels supervise the same depth) or to zero (the
    sample contributes nothing at this depth, and its row of `x` and of each
    mask is left out of forward and backward).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if mode == "train":
        if masks is None:
            if rng is None:
                raise ValueError("training mode needs a dropout rng or frozen masks")
            masks = sample_masks(head, x.shape[0], rng)
    elif mode == "eval":
        masks = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    live = targets.any(axis=1)
    if not live.all():  # an all-zero target row has d_logits = 0 exactly
        x, targets = x[live], targets[live]
        masks = None if masks is None else [m[live] for m in masks]
    cache = forward_cached(head, x, masks)
    p = cache["probs"]
    loss = float(-(targets * np.log(p)).sum())
    d_logits = p * targets.sum(axis=1, keepdims=True)
    d_logits -= targets
    return loss, backward(head, cache, d_logits)


def sgd_step(
    params: list[np.ndarray],
    velocities: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    scale: float = 1.0,
) -> None:
    """Classic SGD-momentum update, weight decay folded into the gradient,
    in place; `grads` is used as scratch space and overwritten.

    v <- mu*v + (scale*g + wd*theta);  theta <- theta - lr*v
    """
    scratch = np.empty(max(theta.size for theta in params))
    for theta, v, g in zip(params, velocities, grads):
        buf = scratch[: theta.size].reshape(theta.shape)
        v *= momentum
        g *= scale
        g += np.multiply(theta, weight_decay, out=buf)
        v += g
        theta -= np.multiply(v, lr, out=buf)


def ema_update(teacher: MlpHead, student: MlpHead, momentum: float) -> None:
    """theta_t <- m*theta_t + (1-m)*theta_s, per parameter, in place."""
    scratch = np.empty(max(s.size for s in student.parameters()))
    for t, s in zip(teacher.parameters(), student.parameters()):
        t *= momentum
        t += np.multiply(s, 1.0 - momentum, out=scratch[: s.size].reshape(s.shape))


@dataclass
class OptimizerParams:
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.001


class DepthHeads:
    """Student/teacher head pairs for every hierarchy depth.

    The teacher starts as a copy of the student and is only ever touched by
    EMA updates; the optimizer state lives here so checkpoints can capture
    the whole training state in one place.
    """

    def __init__(self, hierarchy, feature_dim: int, hidden: int = 512, dropout: float = 0.0):
        self.feature_dim = feature_dim
        self.depths = list(range(1, hierarchy.max_depth + 1))
        self.students = [
            MlpHead(feature_dim, len(hierarchy.depth_space(d)), hidden, dropout) for d in self.depths
        ]
        self.teachers = [head.clone() for head in self.students]
        self.velocities = [[np.zeros_like(p) for p in head.parameters()] for head in self.students]

    def init_params(self, rng: np.random.Generator) -> None:
        for student, teacher in zip(self.students, self.teachers):
            student.init_params(rng)
            teacher.copy_from(student)

    def student(self, d: int) -> MlpHead:
        return self.students[d - 1]

    def teacher(self, d: int) -> MlpHead:
        return self.teachers[d - 1]

    def teacher_forward_all(self, x: np.ndarray) -> list[np.ndarray]:
        """Eval-mode teacher probabilities at every depth."""
        return [forward(t, x, mode="eval") for t in self.teachers]

    def sgd_step(self, d: int, grads: list[np.ndarray], opt: OptimizerParams, scale: float = 1.0) -> None:
        params = self.student(d).parameters()
        sgd_step(params, self.velocities[d - 1], grads, opt.lr, opt.momentum, opt.weight_decay, scale)

    def ema_update_all(self, momentum: float) -> None:
        for teacher, student in zip(self.teachers, self.students):
            ema_update(teacher, student, momentum)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Every student, teacher and velocity array under its checkpoint
        name: the live buffers, not copies."""
        heads = zip(self.students, self.teachers, self.velocities)
        live = [a for s, t, v in heads for a in (*s.parameters(), *t.parameters(), *v)]
        classes = [head.out_dim for head in self.students]
        return dict(zip(entry_shapes(self.feature_dim, classes, self.students[0].hidden), live))

    def load_state_dict(self, state: dict) -> None:
        """Copy the saved arrays into the live ones once each is known to
        exist with the live shape and dtype; ValueError naming the depth and
        the parameter otherwise."""
        live = self.state_dict()
        for name, dst in live.items():
            src = state.get(name)
            if src is None or (src.shape, src.dtype) != (dst.shape, dst.dtype):
                role, depth, param = name.split(".")
                found = "nothing" if src is None else f"{src.dtype} {src.shape}"
                raise ValueError(
                    f"depth {depth[1:]} {role} parameter {param}: checkpoint has {found}, "
                    f"model needs {dst.dtype} {dst.shape}"
                )
        for name, dst in live.items():
            dst[...] = state[name]
