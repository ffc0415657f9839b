#!/usr/bin/env python3
"""Write the outputs that a change meant to keep results bit for bit the same
must leave unchanged, so that comparing two checkouts is one `diff -r`.

    python3 scripts/identity_outputs.py <dir>

Run it from each checkout into its own directory, then `diff -r` the two.
It writes:

* `reference/<method>/metrics.csv`: the six methods on `reference_dataset(0)`,
  30 epochs, evaluated every 10;
* `reference/checkpoints.sha256`: the SHA-256 of each method's final
  checkpoint (`<method>/ckpt_epoch0030.bin`, in `sha256sum` format), so that
  every method's head weights are compared without keeping 27 MB files;
* `uneven-tree/<method>/metrics.csv` and `uneven-tree/checkpoints.sha256`:
  the same for the six methods on a hand-built tree whose ID leaf A sits
  above the deepest level (root -> {A, B}, B -> {C, D}), 8 epochs evaluated
  every 2, so that a chain or an argmax ending at A supervises the depth-2
  head;
* `mirrored-tree/`: the same on its mirror image (root -> {A, B},
  A -> {C, D}, ID leaves B, C and D), whose depth-2 classes B, C, D are
  not in preorder (C, D, B), so that a target written into the wrong
  column shows;
* `relabelled-tree/`: the same on the uneven tree with its ids permuted
  (root -> {B, A}, B -> {C, D}, and C, D numbered below B), so that a
  preorder that assumed a child's id above its parent's shows;
* `wide-tree/metrics.csv` and `wide-tree/ckpt_epoch0040.bin`: the benchmark's
  `wide-tree` workload at seed 0;
* `wide-tree-resumed/metrics.csv` and `wide-tree-resumed/checkpoint.sha256`:
  the same run with `checkpoint_every=20`, resumed from its
  `ckpt_epoch0020.bin`, and the SHA-256 of the resumed run's final
  checkpoint, so that the checkpoint round trip of the pseudo-label log is
  covered while age-gating is active, and the resumed velocities, gate and
  log are compared byte for byte;
* `hierarchies/<name>.txt`: the standard output of `semihoc inspect
  --hierarchy` on each hand-built tree (`uneven`, `mirrored`,
  `relabelled`) as `save_hierarchy` writes it, so that the depth-space sizes
  with a carried ID leaf and the content hash of a tree numbered out of file
  order are compared;
* `gen/outputs.sha256`: the SHA-256 of `hierarchy.txt` and `features.bin`
  from `semihoc gen` for the configs of `GEN_FLAGS`, which together cover
  every flag's default (`defaults`, no flag but `--seed`), root-OOD rows,
  the keep-one-leaf repair of pruning, `--test-per-leaf 0`, `--dim 1` and
  `--labels-per-class`;
* `eval-cli/`: the benchmark's `eval-cli` inputs at seed 0, and for every
  `--split` the outputs of `semihoc eval --checkpoint` (`eval-<split>/`) and
  of `semihoc eval --predictions` on its dump (`rescore-<split>/`), and the
  standard output of `semihoc inspect` (`inspect.txt`);
* `eval-wide/`: the same `eval-<split>/` and `rescore-<split>/` outputs for
  `--split test` and `all` from the `wide-tree` run's final checkpoint, over
  its data. Its 656 nodes split each block of rows into fusion chunks, which
  the 105-node tree of `eval-cli` never does, and every chain value in a dump
  goes out through `repr`, so a differing bit shows.

The program and the benchmark's workload definitions are imported from this
checkout's `src/` and `perfbench/`. BLAS runs on one thread, as in the
benchmark. Takes about a minute on two cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SEMIHOC_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import contextlib
import hashlib
import io
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from semihoc import cli  # noqa: E402
from semihoc.benchmark import reference_dataset, reference_train_config  # noqa: E402
from semihoc.datagen import SPLIT_LABELED, SPLIT_TEST, SPLIT_UNLABELED, FeatureDataset, save_features  # noqa: E402
from semihoc.hierarchy import Hierarchy, save_hierarchy  # noqa: E402
from semihoc.trainer import METHODS, TrainConfig, run_training  # noqa: E402
from workloads import EvalCli, WideTree  # noqa: E402

SEED = 0


def every_method(out: Path, hierarchy, dataset, config_of) -> None:
    """Each method's metrics.csv, and the SHA-256 of its final checkpoint, of the run config_of(method)."""
    hashes = []
    for method in METHODS:
        config = config_of(method)
        run_dir = out / method
        run_training(config, hierarchy, dataset, out_dir=run_dir)
        final = f"ckpt_epoch{config.epochs:04d}.bin"
        hashes.append(f"{hashlib.sha256((run_dir / final).read_bytes()).hexdigest()}  {method}/{final}\n")
        for path in run_dir.iterdir():
            if path.name != "metrics.csv":
                path.unlink()
    (out / "checkpoints.sha256").write_text("".join(hashes))


def reference(out: Path) -> None:
    hierarchy, dataset = reference_dataset(SEED)
    every_method(out, hierarchy, dataset, lambda method: replace(reference_train_config(method, SEED, epochs=30), eval_every=10))


# Root -> {A, B}, B -> {C, D}, ID leaves A, C and D; and its mirror image, with ID leaves B, C and D
UNEVEN = (Hierarchy([-1, 0, 0, 2, 2], ["Root", "A", "B", "C", "D"], id_leaves=[1, 3, 4]),
          {1: [4, 0, 0, 0], 2: [0, 4, 0, 0], 3: [0, 4, 3, 0], 4: [0, 4, 0, 3]})
MIRRORED = (Hierarchy([-1, 0, 0, 1, 1], ["Root", "A", "B", "C", "D"], id_leaves=[2, 3, 4]),
            {1: [0, 4, 0, 0], 2: [4, 0, 0, 0], 3: [0, 4, 3, 0], 4: [0, 4, 0, 3]})
# UNEVEN with its ids permuted, each class mean moved with its node: C and D take ids below their parent B's
RELABELLED = (Hierarchy([-1, 3, 3, 0, 0], ["Root", "C", "D", "B", "A"], id_leaves=[1, 2, 4]),
              {1: [0, 4, 3, 0], 2: [0, 4, 0, 3], 3: [0, 4, 0, 0], 4: [4, 0, 0, 0]})


def uneven_tree(out: Path, hierarchy: Hierarchy, means: dict) -> None:
    """A tree with an ID leaf at depth 1 beside an internal node over two ID leaves, so that the
    leaf is also a class of depth 2. Around each node's class mean, 8 labeled rows per ID leaf and
    30 unlabeled and 10 test rows per node, those of the internal node out of distribution."""
    rng = np.random.default_rng(SEED)
    labels, splits = [], []
    for node in means:
        labeled = 8 if node in hierarchy.id_leaves else 0
        for split, n in ((SPLIT_LABELED, labeled), (SPLIT_UNLABELED, 30), (SPLIT_TEST, 10)):
            labels += [node] * n
            splits += [split] * n
    labels = np.array(labels)
    features = (np.array([means[c] for c in labels]) + rng.normal(0.0, 0.5, (len(labels), 4))).astype(np.float32)
    ids = np.arange(len(labels), dtype=np.uint64)
    dataset = FeatureDataset(features, labels, ids, np.array(splits, dtype=np.uint8), hierarchy.hash)
    # ema_momentum 0.9: the teacher follows the student fast enough to label rows at A within 8 epochs
    config = TrainConfig(epochs=8, labeled_batch_size=8, unlabeled_ratio=2, lr=0.1, ema_momentum=0.9, tau=0.6, hidden_dim=32)
    every_method(out, hierarchy, dataset, lambda method: replace(config, method=method, seed=SEED, eval_every=2))


def wide_tree(out: Path) -> None:
    hierarchy, dataset, config = WideTree().make(SEED)
    run_training(config, hierarchy, dataset, out_dir=out)
    (out / "config.json").unlink()


def wide_tree_resumed(out: Path) -> None:
    hierarchy, dataset, config = WideTree().make(SEED)
    config = replace(config, checkpoint_every=20)
    full = out / "uninterrupted"
    run_training(config, hierarchy, dataset, out_dir=full)
    run_training(config, hierarchy, dataset, out_dir=out, resume=full / "ckpt_epoch0020.bin")
    shutil.rmtree(full)
    final = f"ckpt_epoch{config.epochs:04d}.bin"
    digest = hashlib.sha256((out / final).read_bytes()).hexdigest()
    for path in out.iterdir():
        if path.name != "metrics.csv":
            path.unlink()
    (out / "checkpoint.sha256").write_text(f"{digest}  {final}\n")


def semihoc(*args: str) -> str:
    """Standard output of one in-process CLI command; exits on failure."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(list(args))
    if rc != 0:
        sys.exit(f"semihoc {' '.join(args)} exited {rc}")
    return stdout.getvalue()


GEN_FLAGS = {
    "defaults": [],
    "root-ood": ["--branching", "3", "--depth", "3", "--dim", "8", "--root-ood", "5", "--labels-per-class", "3"],
    # 14 of 16 leaves pruned, so at least six sibling pairs lose both and get one back
    "repair": ["--branching", "2", "--depth", "4", "--dim", "1", "--ood-fraction", "0.9", "--test-per-leaf", "0"],
}


def gen(out: Path) -> None:
    hashes = []
    for name, flags in GEN_FLAGS.items():
        semihoc("gen", "--out", str(out / name), "--seed", str(SEED), *flags)
        for file in ("hierarchy.txt", "features.bin"):
            hashes.append(f"{hashlib.sha256((out / name / file).read_bytes()).hexdigest()}  {name}/{file}\n")
        shutil.rmtree(out / name)
    (out / "outputs.sha256").write_text("".join(hashes))


def hierarchies(out: Path) -> None:
    out.mkdir(parents=True)
    os.chdir(out)  # relative paths, as inspect prints the path it reads
    for name, (hierarchy, _) in {"uneven": UNEVEN, "mirrored": MIRRORED, "relabelled": RELABELLED}.items():
        save_hierarchy(hierarchy, f"{name}.hierarchy")
        Path(f"{name}.txt").write_text(semihoc("inspect", "--hierarchy", f"{name}.hierarchy"))
        os.remove(f"{name}.hierarchy")


def eval_cli(out: Path) -> None:
    state = EvalCli().setup(SEED, out / "work")
    shutil.rmtree(out / "work" / "logs")  # they name absolute paths
    # relative paths, so that nothing written names this output directory
    os.chdir(out)
    data, ckpt = state["data"].relative_to(out), str(state["ckpt"].relative_to(out))
    inputs = ["--features", str(data / "features.bin"), "--hierarchy", str(data / "hierarchy.txt")]
    for split in ("test", "train", "all"):
        semihoc("eval", "--checkpoint", ckpt, *inputs, "--out", f"eval-{split}", "--split", split)
        dump = f"eval-{split}/predictions.txt"
        semihoc("eval", "--predictions", dump, *inputs, "--out", f"rescore-{split}", "--split", split)
    Path("inspect.txt").write_text(semihoc("inspect", *inputs, "--checkpoint", ckpt))


def eval_wide(out: Path, checkpoint: Path) -> None:
    hierarchy, dataset, _ = WideTree().make(SEED)
    out.mkdir(parents=True)
    os.chdir(out)  # relative paths, as in eval_cli
    save_hierarchy(hierarchy, "hierarchy.txt")
    save_features(dataset, "features.bin")
    ckpt, inputs = os.path.relpath(checkpoint), ["--features", "features.bin", "--hierarchy", "hierarchy.txt"]
    for split in ("test", "all"):
        semihoc("eval", "--checkpoint", ckpt, *inputs, "--out", f"eval-{split}", "--split", split)
        semihoc("eval", "--predictions", f"eval-{split}/predictions.txt", *inputs, "--out", f"rescore-{split}", "--split", split)
    os.remove("hierarchy.txt")
    os.remove("features.bin")


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/identity_outputs.py <dir>")
    out = Path(sys.argv[1]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    reference(out / "reference")
    uneven_tree(out / "uneven-tree", *UNEVEN)
    uneven_tree(out / "mirrored-tree", *MIRRORED)
    uneven_tree(out / "relabelled-tree", *RELABELLED)
    wide_tree(out / "wide-tree")
    wide_tree_resumed(out / "wide-tree-resumed")
    gen(out / "gen")
    hierarchies(out / "hierarchies")
    eval_cli(out / "eval-cli")
    eval_wide(out / "eval-wide", out / "wide-tree" / "ckpt_epoch0040.bin")
    print(f"identity outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
