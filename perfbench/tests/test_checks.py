"""The benchmark's output checks pass on real outputs and fail on tampered ones.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
from semihoc import cli  # noqa: E402
from semihoc.datagen import load_features  # noqa: E402
from semihoc.hierarchy import load_hierarchy  # noqa: E402


def semihoc(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny dataset, a 3-epoch checkpoint, and both kinds of eval output."""
    root = tmp_path_factory.mktemp("run")
    data = root / "data"
    semihoc("gen", "--out", data, "--seed", 1, "--branching", 3, "--depth", 3, "--train-per-leaf", 6,
            "--test-per-leaf", 4, "--labels-per-class", 3)
    inputs = ["--features", data / "features.bin", "--hierarchy", data / "hierarchy.txt"]
    semihoc("train", *inputs, "--out", root / "train", "--epochs", 3, "--hidden-dim", 16, "--lr", 0.1, "--quiet")
    ckpt = root / "train" / "ckpt_epoch0003.bin"
    semihoc("eval", "--checkpoint", ckpt, *inputs, "--out", root / "eval", "--split", "all")
    semihoc("eval", "--predictions", root / "eval" / "predictions.txt", *inputs, "--out", root / "rescore",
            "--split", "all")
    return root


@pytest.fixture
def copy(run, tmp_path):
    """A scratch copy of the run, for tampering."""
    return Path(shutil.copytree(run, tmp_path / "run"))


def load(root):
    tree = checks.Tree(root / "data" / "hierarchy.txt")
    feats = checks.read_features(root / "data" / "features.bin")
    problems, preds = checks.read_predictions(root / "eval" / "predictions.txt")
    return tree, feats, problems, preds


def eval_problems(root, out="eval"):
    tree, feats, problems, preds = load(root)
    problems += checks.check_predictions(tree, feats, preds)
    return problems + checks.check_eval_dir(tree, feats, root / out, preds)


def test_reader_and_tree_agree_with_the_program(run):
    feats = checks.read_features(run / "data" / "features.bin")
    hier = load_hierarchy(run / "data" / "hierarchy.txt")
    dataset = load_features(run / "data" / "features.bin", hier)
    np.testing.assert_array_equal(feats.ids, dataset.sample_ids)
    np.testing.assert_array_equal(feats.gts, dataset.labels)
    np.testing.assert_array_equal(feats.splits, dataset.splits)
    np.testing.assert_array_equal(feats.x, dataset.features)
    tree = checks.Tree(run / "data" / "hierarchy.txt")
    assert tree.is_leaf == [hier.is_leaf(c) for c in range(hier.n_nodes)]
    for a in range(hier.n_nodes):
        for b in range(hier.n_nodes):
            assert tree.distance(a, b) == hier.tree_distance(a, b)


def test_real_outputs_pass(run):
    assert eval_problems(run) == []
    assert eval_problems(run, "rescore") == []


def test_truncated_feature_file_is_refused(copy):
    path = copy / "data" / "features.bin"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="header implies"):
        checks.read_features(path)


def test_dropped_prediction_line_fails(copy):
    path = copy / "eval" / "predictions.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    assert any("predictions cover" in p for p in eval_problems(copy))


def test_bmhd_off_by_1e_6_fails(copy):
    path = copy / "eval" / "bmhd.csv"
    header, row = path.read_text().splitlines()
    values = row.split(",")
    values[0] = repr(float(values[0]) + 1e-6)
    path.write_text(f"{header}\n{','.join(values)}\n")
    assert any("bmhd_id" in p for p in eval_problems(copy))


def _edit_decomposition(root, edit):
    """Apply `edit` to the cells of the first non-empty decomposition matrix."""
    paths = [root / "eval" / f"decomposition_{subset}.csv" for subset in ("id", "ood")]
    path = next(p for p in paths if len(p.read_text().splitlines()) > 1)
    header, *rows = path.read_text().splitlines()
    cells = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    edit(cells)
    path.write_text("\n".join([header] + [f"{i}," + ",".join(repr(float(v)) for v in r) for i, r in enumerate(cells)]) + "\n")


def test_changed_decomposition_cell_fails(copy):
    def bump(cells):
        cells[0, 0] += 0.5

    _edit_decomposition(copy, bump)
    problems = eval_problems(copy)
    assert any("not 100" in p for p in problems)
    assert any("recomputed decomposition" in p for p in problems)


def test_moved_decomposition_mass_fails(copy):
    def move(cells):
        i, j = np.argwhere(cells > 0)[0]
        cells[i, j] -= 1.0
        cells[-1, -1] += 1.0

    _edit_decomposition(copy, move)
    assert any("recomputed decomposition" in p for p in eval_problems(copy))


def test_confidence_chain_not_starting_at_1_fails(copy):
    path = copy / "eval" / "predictions.txt"
    lines = path.read_text().splitlines()
    sid, node, p, chain = lines[0].split("\t")
    lines[0] = "\t".join([sid, node, p, ",".join(["0:0.5"] + chain.split(",")[1:])])
    path.write_text("\n".join(lines) + "\n")
    assert any("do not start at 1" in p for p in eval_problems(copy))


def test_training_checks_catch_their_faults(run, tmp_path):
    tree = checks.Tree(run / "data" / "hierarchy.txt")
    assert checks.check_cutoffs([{3: 5.0}, {3: 4.0}, {3: 4.0, 5: 2.0}]) == []
    assert checks.check_cutoffs([{3: 4.0}, {3: 5.0}])
    assert checks.check_cutoffs([{3: 4.0}, {}])
    child = tree.parent.index(0)
    grandchild = tree.parent.index(child)
    assert checks.check_chains(tree, [(), (child,), (child, grandchild)]) == []
    assert checks.check_chains(tree, [(grandchild,)])
    assert checks.check_fused_rows(np.array([[0.25, 0.75]])) == []
    assert checks.check_fused_rows(np.array([[0.25, 0.75 + 1e-8]]))
    assert checks.check_fused_rows(np.array([[-0.25, 1.25]]))

    metrics = (run / "train" / "metrics.csv").read_text().splitlines()
    assert checks.check_metrics_csv(run / "train" / "metrics.csv", 3)[0] == []
    cols = metrics[1].split(",")
    cols[metrics[0].split(",").index("loss_labeled_d1")] = "nan"
    bad = tmp_path / "metrics.csv"
    bad.write_text("\n".join([metrics[0], ",".join(cols)] + metrics[2:]) + "\n")
    assert any("non-finite" in p for p in checks.check_metrics_csv(bad, 3)[0])


def test_mix_not_below_all_root_fails(run):
    tree, feats, _, _ = load(run)
    test = feats.splits == 2
    root = np.zeros(int(test.sum()), dtype=np.int64)
    reported = checks.bmhd(tree, root, feats.gts[test])
    problems = checks.check_reported_bmhd(tree, root, feats.gts[test], reported, None)
    assert any("all-root" in p for p in problems)
