import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc.hierarchy import Hierarchy, random_tree
from semihoc.prohoc import STOP_EPS, format_prediction_block, fuse_batch, subtree_confidences

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)
EPS = STOP_EPS


# -- frozen per-node reference: the fusion and subtree sums as one loop
# iteration per node, kept only as the oracle the level-wise code must match
# bit for bit -------------------------------------------------------------------

def topo_order(hierarchy):
    """The nodes with parents before children (root first): ascending (depth, id)."""
    return np.argsort(hierarchy.depths, kind="stable").tolist()


def reference_fuse(depth_outputs, hierarchy, eps=STOP_EPS):
    outputs = [np.atleast_2d(np.asarray(out, dtype=np.float64)) for out in depth_outputs]
    n = outputs[0].shape[0]
    probs = np.zeros((n, hierarchy.n_nodes))
    mass = np.zeros((n, hierarchy.n_nodes))
    mass[:, 0] = 1.0

    for a in topo_order(hierarchy):
        children = np.flatnonzero(hierarchy.parents == a).tolist()
        if not children:
            probs[:, a] = mass[:, a]
            continue
        d = int(hierarchy.depths[a]) + 1
        cols = hierarchy.columns[d - 1, list(children)]
        branch = np.where(cols >= 0, outputs[d - 1][:, cols], 0.0)
        total = branch.sum(axis=1, keepdims=True)
        uniform = total[:, 0] <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            branch = np.where(uniform[:, None], 1.0 / len(children), branch / total)

        if len(children) == 1:
            stop = np.full(n, eps)
        else:
            plogp = branch * np.log(np.where(branch > 0.0, branch, 1.0))
            stop = np.clip(-plogp.sum(axis=1) / np.log(len(children)), eps, 1.0 - eps)

        probs[:, a] = mass[:, a] * stop
        carried = mass[:, a] * (1.0 - stop)
        for j, c in enumerate(children):
            mass[:, c] = carried * branch[:, j]
    return probs


def reference_subtree_confidences(probs, hierarchy):
    conf = np.atleast_2d(np.asarray(probs, dtype=np.float64)).copy()
    for c in reversed(topo_order(hierarchy)):
        p = hierarchy.parents[c]
        if p >= 0:
            conf[:, p] += conf[:, c]
    return conf


def depth_outputs(tree, rng, n, zero_fraction=0.0):
    """Random normalized depth outputs; a share of the entries, and every
    seventh row from the second on, set to exactly zero."""
    outputs = []
    for d in range(1, tree.max_depth + 1):
        raw = rng.random((n, len(tree.depth_space(d))))
        raw[rng.random(raw.shape) < zero_fraction] = 0.0
        raw[1::7] = 0.0
        total = raw.sum(axis=1, keepdims=True)
        outputs.append(np.divide(raw, total, out=np.zeros_like(raw), where=total > 0))
    return outputs


def wide_tree(branchings):
    """Root with branchings[0] children, each child of the first one having
    the next count, and so on; the first child at each level is expanded."""
    parents, frontier = [-1], 0
    for k in branchings:
        first = len(parents)
        parents += [frontier] * k
        frontier = first
    leaves = sorted(set(range(len(parents))) - set(parents))
    return Hierarchy(parents, [f"n{i}" for i in range(len(parents))], id_leaves=leaves)


def assert_bit_identical(tree, outputs):
    probs = fuse_batch(outputs, tree)
    expected = reference_fuse(outputs, tree)
    assert np.array_equal(probs.view(np.uint64), expected.view(np.uint64))
    conf = subtree_confidences(probs, tree)
    assert np.array_equal(conf.view(np.uint64), reference_subtree_confidences(expected, tree).view(np.uint64))


class TestLevelWiseMatchesPerNode:
    # numpy's summation order depends on the batch size (pairwise along one
    # row, elementwise across rows), so several sizes are checked
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(3, 120),
        n=st.sampled_from([1, 2, 17, 300, 512, 1024]),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, seed, n_nodes, n, zero_fraction):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n_nodes)
        assert_bit_identical(tree, depth_outputs(tree, rng, n, zero_fraction))

    @pytest.mark.parametrize("branchings", [[8], [9, 8], [13, 1, 20], [2, 20, 3, 8], [1, 1, 1, 1]])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 33, 512, 1024])
    def test_wide_nodes_and_chains(self, branchings, zero_fraction, n):
        tree = wide_tree(branchings)
        assert_bit_identical(tree, depth_outputs(tree, np.random.default_rng(len(branchings)), n, zero_fraction))

    def test_uniform_outputs(self):
        tree = wide_tree([9, 3, 12])
        assert_bit_identical(tree, [np.full((5, len(tree.depth_space(d))), 0.5) for d in range(1, 4)])


@st.composite
def tree_with_outputs(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(4, 50))
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n)
    outputs = []
    for d in range(1, tree.max_depth + 1):
        raw = rng.random((3, len(tree.depth_space(d)))) + 1e-9
        outputs.append(raw / raw.sum(axis=1, keepdims=True))
    return tree, outputs


class TestFuse:
    def test_uniform_outputs_stop_at_root(self, animals):
        p = fuse_batch([np.full((1, 2), 0.5), np.full((1, 4), 0.25)], animals)[0]
        assert np.isclose(p[ROOT], 1 - EPS)
        # symmetry groups: both internals equal, all four leaves equal
        assert np.isclose(p[MAMMAL], EPS * 0.5 * (1 - EPS))
        assert p[MAMMAL] == p[BIRD]
        assert np.isclose(p[CAT], 0.25 * EPS * EPS)
        assert p[CAT] == p[DOG] == p[EAGLE] == p[JUNCO]
        assert p[None].argmax(axis=1)[0] == ROOT

    def test_one_hot_path_concentrates_on_leaf(self, animals):
        p = fuse_batch([np.array([[0.0, 1.0]]), np.array([[0.0, 0.0, 0.0, 1.0]])], animals)[0]
        assert p[JUNCO] >= 1 - 3 * EPS
        assert p.sum() - p[JUNCO] <= 3 * EPS
        assert p[None].argmax(axis=1)[0] == JUNCO

    def test_always_normalized(self, animals):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d1 = rng.random((1, 2)) + 1e-9
            d2 = rng.random((1, 4)) + 1e-9
            p = fuse_batch([d1 / d1.sum(), d2 / d2.sum()], animals)[0]
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_misshapen_input_rejected(self, animals):
        import pytest

        with pytest.raises(ValueError):
            fuse_batch([np.full((1, 3), 1 / 3), np.full((1, 4), 0.25)], animals)
        with pytest.raises(ValueError):
            fuse_batch([np.full((1, 2), 0.5)], animals)

    def test_single_child_stop_is_eps(self):
        from semihoc.hierarchy import Hierarchy

        # chain r -> a -> b with one ID leaf
        tree = Hierarchy([-1, 0, 1], ["r", "a", "b"], id_leaves=[2])
        p = fuse_batch([np.array([[1.0]]), np.array([[1.0]])], tree)[0]
        assert np.isclose(p[0], EPS)
        assert np.isclose(p[1], (1 - EPS) * EPS)
        assert np.isclose(p[2], (1 - EPS) * (1 - EPS))

    @given(tree_with_outputs())
    @settings(max_examples=60, deadline=None)
    def test_normalization_and_monotonicity(self, case):
        tree, outputs = case
        probs = fuse_batch(outputs, tree)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert probs.min() >= 0.0
        conf = subtree_confidences(probs, tree)
        for c in range(1, tree.n_nodes):
            assert np.all(conf[:, c] <= conf[:, int(tree.parents[c])])

    def test_consistent_one_hot_chain_predicts_leaf(self, animals):
        # all depth outputs one-hot along Cat's ancestor path
        d1 = np.array([[1.0, 0.0]])
        d2 = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert fuse_batch([d1, d2], animals).argmax(axis=1)[0] == CAT

    def test_batch_matches_single(self, animals):
        rng = np.random.default_rng(1)
        d1 = rng.random((4, 2)) + 1e-9
        d1 /= d1.sum(axis=1, keepdims=True)
        d2 = rng.random((4, 4)) + 1e-9
        d2 /= d2.sum(axis=1, keepdims=True)
        batch = fuse_batch([d1, d2], animals)
        for i in range(4):
            single = fuse_batch([d1[i : i + 1], d2[i : i + 1]], animals)[0]  # a batch of one row
            assert np.array_equal(batch[i], single)


class TestPredictNode:
    def test_concentrated(self, animals):
        p = np.zeros(7)
        p[JUNCO] = 1.0
        assert p[None].argmax(axis=1)[0] == JUNCO

    def test_tie_breaks_to_smaller_id(self):
        p = np.array([0.1, 0.4, 0.4, 0.1, 0.0])
        assert p[None].argmax(axis=1)[0] == 1


class TestSubtreeConfidences:
    def test_exact_sums(self, animals):
        p = np.array([0.1, 0.2, 0.05, 0.25, 0.1, 0.2, 0.1])
        conf = subtree_confidences(p[None], animals)[0]
        assert np.isclose(conf[MAMMAL], 0.2 + 0.25 + 0.1)
        assert np.isclose(conf[BIRD], 0.05 + 0.2 + 0.1)
        assert np.isclose(conf[ROOT], p.sum())
        assert conf[CAT] == p[CAT]

    @pytest.mark.parametrize("n", [1, 2, 17, 512])
    def test_memory_order_of_the_input_changes_no_bit(self, n):
        tree = wide_tree([9, 3, 12])
        probs = fuse_batch(depth_outputs(tree, np.random.default_rng(n), n), tree)
        c_order, f_order = np.ascontiguousarray(probs), np.asfortranarray(probs)
        expected = reference_subtree_confidences(c_order, tree).view(np.uint64)
        for p in (c_order, f_order, probs):
            assert np.array_equal(subtree_confidences(p, tree).view(np.uint64), expected)
        assert np.array_equal(subtree_confidences(c_order[:1], tree).view(np.uint64), expected[:1])


def reference_dump_line(hierarchy, sample_id, probs, conf):
    """One prediction-dump line, formatted alone, with the chain found by
    walking the parents up from the argmax."""
    node = int(np.argmax(probs))
    path = [node]
    while hierarchy.parents[path[-1]] >= 0:
        path.append(int(hierarchy.parents[path[-1]]))
    chain = ",".join(f"{c}:{float(conf[c])!r}" for c in reversed(path))
    return f"{int(sample_id)}\t{node}\t{float(probs[node])!r}\t{chain}\n"


def assert_block_matches_rows(tree, sample_ids, probs):
    conf = subtree_confidences(probs, tree)
    preds = probs.argmax(axis=1)
    block = format_prediction_block(tree, sample_ids, preds, probs[np.arange(len(preds)), preds], conf)
    assert block == "".join(reference_dump_line(tree, *row) for row in zip(sample_ids, probs, conf))
    return block


class TestPredictionBlock:
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(3, 120), n=st.sampled_from([1, 2, 17, 300]))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, seed, n_nodes, n):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n_nodes)
        probs = fuse_batch(depth_outputs(tree, rng, n, zero_fraction=0.3), tree)
        assert_block_matches_rows(tree, rng.integers(0, 2**64, n, dtype=np.uint64), probs)

    def test_exact_ties_go_to_the_smaller_id(self, animals):
        probs = np.array([
            [0.1, 0.0, 0.0, 0.3, 0.3, 0.15, 0.15],  # Cat and Dog tie
            [0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1],  # root, Mammal and Bird tie
            [1 / 7] * 7,
        ])
        block = assert_block_matches_rows(animals, np.array([5, 6, 7], dtype=np.uint64), probs)
        assert [line.split("\t")[1] for line in block.splitlines()] == [str(CAT), str(ROOT), str(ROOT)]

    def test_root_argmax_has_a_one_entry_chain(self, animals):
        outputs = [np.full((4, len(animals.depth_space(d))), 0.5) for d in (1, 2)]
        probs = fuse_batch(outputs, animals)
        assert (probs.argmax(axis=1) == ROOT).all()
        block = assert_block_matches_rows(animals, np.arange(4, dtype=np.uint64), probs)
        assert all(line.split("\t")[3].count(":") == 1 for line in block.splitlines())

    def test_mixed_depths_keep_row_order(self):
        tree = wide_tree([3, 4, 2, 5])
        rng = np.random.default_rng(9)
        probs = rng.random((200, tree.n_nodes)) ** 8
        probs /= probs.sum(axis=1, keepdims=True)
        assert len(np.unique(tree.depths[probs.argmax(axis=1)])) > 2
        assert_block_matches_rows(tree, rng.permutation(200).astype(np.uint64), probs)

    def test_empty_block(self, animals):
        assert assert_block_matches_rows(animals, np.zeros(0, dtype=np.uint64), np.zeros((0, 7))) == ""
