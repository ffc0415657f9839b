import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc.hierarchy import (
    Hierarchy,
    HierarchyError,
    example_tree,
    hierarchy_hash,
    load_hierarchy,
    random_tree,
    save_hierarchy,
)
from semihoc.oracles import ancestor_set_lca, bfs_distance

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)


@st.composite
def trees(draw, max_nodes=60):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(3, max_nodes))
    return random_tree(np.random.default_rng(seed), n)


class TestSubtree:
    def test_internal(self, animals):
        assert animals.subtree(MAMMAL) == {MAMMAL, CAT, DOG}

    def test_leaf(self, animals):
        assert animals.subtree(JUNCO) == {JUNCO}

    def test_root(self, animals):
        assert animals.subtree(ROOT) == set(range(7))

    def test_invalid_node(self, animals):
        with pytest.raises(ValueError):
            animals.subtree(99)

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_parent_contains_child(self, tree):
        for c in range(1, tree.n_nodes):
            assert tree.subtree(int(tree.parents[c])) >= tree.subtree(c)


class TestLcaAndDistance:
    def test_siblings(self, animals):
        assert animals.lca(CAT, DOG) == MAMMAL

    def test_identity(self, animals):
        assert animals.lca(CAT, CAT) == CAT

    def test_cross_branch(self, animals):
        assert animals.lca(CAT, JUNCO) == ROOT

    def test_distances(self, animals):
        assert animals.tree_distance(CAT, JUNCO) == 4
        assert animals.tree_distance(CAT, MAMMAL) == 1
        assert animals.tree_distance(CAT, CAT) == 0

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_matches_oracles(self, tree):
        gen = np.random.default_rng(tree.n_nodes)
        for _ in range(5):
            a, b = int(gen.integers(tree.n_nodes)), int(gen.integers(tree.n_nodes))
            assert tree.lca(a, b) == ancestor_set_lca(tree, a, b)
            assert tree.tree_distance(a, b) == bfs_distance(tree, a, b)

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, tree):
        gen = np.random.default_rng(tree.n_nodes + 1)
        for _ in range(5):
            a, b, c = (int(gen.integers(tree.n_nodes)) for _ in range(3))
            assert tree.tree_distance(a, b) == tree.tree_distance(b, a)
            assert tree.tree_distance(a, c) <= tree.tree_distance(a, b) + tree.tree_distance(b, c)
            assert (tree.tree_distance(a, b) == 0) == (a == b)


class TestDepthSpaces:
    def test_depth1(self, animals):
        assert animals.depth_space(1).nodes == (MAMMAL, BIRD)

    def test_depth2(self, animals):
        assert animals.depth_space(2).nodes == (CAT, DOG, EAGLE, JUNCO)

    def test_out_of_range(self, animals):
        with pytest.raises(ValueError):
            animals.depth_space(0)
        with pytest.raises(ValueError):
            animals.depth_space(3)

    def test_shallow_id_leaf_carried_down(self):
        # L is an ID leaf at depth 1 in a depth-3 tree: present at depths 2 and 3
        names = ["r", "L", "a", "b", "c"]
        parents = [-1, 0, 0, 2, 3]
        tree = Hierarchy(parents, names, id_leaves=[1, 4])
        for d in (1, 2, 3):
            assert 1 in tree.depth_space(d).nodes

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_id_leaves_present_from_their_depth(self, tree):
        for c in tree.id_leaves:
            for d in range(int(tree.depths[c]), tree.max_depth + 1):
                if d >= 1:
                    assert c in tree.depth_space(d).nodes

    def test_ordering_ascending(self, animals):
        for d in (1, 2):
            nodes = animals.depth_space(d).nodes
            assert list(nodes) == sorted(nodes)


def support(tree, c, d):
    """Nodes of depth space d where the target row of node c is non-zero."""
    return {tree.depth_space(d).nodes[j] for j in np.flatnonzero(tree.Q[d - 1][c])}


class TestSMapping:
    def test_ancestor(self, animals):
        assert support(animals, JUNCO, 1) == {BIRD}

    def test_descendants(self, animals):
        assert support(animals, MAMMAL, 2) == {CAT, DOG}

    def test_self(self, animals):
        assert support(animals, MAMMAL, 1) == {MAMMAL}

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_members_lie_in_depth_space(self, tree):
        for c in range(tree.n_nodes):
            for d in range(1, tree.max_depth + 1):
                assert support(tree, c, d) <= set(tree.depth_space(d).nodes)


class TestTargetDistribution:
    def test_leaf_one_hot_on_ancestor(self, animals):
        t = animals.Q[0][JUNCO]
        assert t[animals.columns[0, BIRD]] == 1.0
        assert t.sum() == 1.0

    def test_internal_uniform_over_descendants(self, animals):
        t = animals.Q[1][MAMMAL]
        assert t[animals.columns[1, CAT]] == 0.5
        assert t[animals.columns[1, DOG]] == 0.5

    def test_internal_one_hot_at_own_depth(self, animals):
        assert animals.Q[0][MAMMAL][animals.columns[0, MAMMAL]] == 1.0

    def test_empty_mapping_returns_none(self):
        # non-ID leaf at depth 1 dead-ends: no relatives at depth 2
        names = ["r", "L", "a", "b"]
        parents = [-1, 0, 0, 2]
        tree = Hierarchy(parents, names, id_leaves=[3])
        assert support(tree, 1, 2) == set()
        assert not tree.Q[1][1].any()

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_sums_and_support(self, tree):
        for c in range(tree.n_nodes):
            relatives = tree.subtree(c) | set(tree.ancestors_or_self(c))
            for d in range(1, tree.max_depth + 1):
                t = tree.Q[d - 1][c]
                expected = relatives & set(tree.depth_space(d).nodes)
                if not expected:
                    assert not t.any()
                    continue
                assert abs(t.sum() - 1.0) < 1e-9
                assert support(tree, c, d) == expected
                if len(expected) == 1:
                    assert t.max() == 1.0

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_identity_on_space_nodes(self, tree):
        """Pseudo-label targets rely on Q_d restricted to space d being I."""
        for d in range(1, tree.max_depth + 1):
            nodes = list(tree.depth_space(d).nodes)
            assert np.array_equal(tree.Q[d - 1][nodes], np.eye(len(nodes)))
            assert np.array_equal(tree.columns[d - 1, nodes], np.arange(len(nodes)))


class TestArrayQueries:
    """Scalar and array forms of the node queries agree."""

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_scalar(self, tree):
        gen = np.random.default_rng(tree.n_nodes + 2)
        a, b = gen.integers(tree.n_nodes, size=20), gen.integers(tree.n_nodes, size=20)
        lca, dist = tree.lca(a, b), tree.tree_distance(a, b)
        inside, leaf = tree.in_subtree(a, b), tree.is_leaf(a)
        for i in range(20):
            x, y = int(a[i]), int(b[i])
            assert lca[i] == tree.lca(x, y) and dist[i] == tree.tree_distance(x, y)
            assert inside[i] == (x in tree.subtree(y)) == tree.in_subtree(x, y)
            assert leaf[i] == (not tree.children[x]) == tree.is_leaf(x)

    def test_scalars_come_back_as_python_values(self, animals):
        assert type(animals.lca(CAT, DOG)) is int
        assert type(animals.tree_distance(CAT, DOG)) is int
        assert type(animals.is_leaf(CAT)) is bool

    def test_euler_intervals(self, animals):
        for c in range(7):
            inside = {x for x in range(7) if animals.tin[c] <= animals.tin[x] < animals.tout[c]}
            assert inside == animals.subtree(c)

    @given(trees(max_nodes=200))
    @settings(max_examples=30, deadline=None)
    def test_group_table(self, tree):
        """Every internal node heads exactly one group row and every other
        node is one child entry, in id order, under its own parent."""
        parents = np.concatenate([g[1] for g in tree.groups])
        kids = np.concatenate([g[2].ravel() for g in tree.groups])
        assert sorted(parents.tolist()) == np.flatnonzero(~tree.leaf_mask).tolist()
        assert sorted(kids.tolist()) == list(range(1, tree.n_nodes))
        assert [(g[0], g[2].shape[1]) for g in tree.groups] == sorted({(g[0], g[2].shape[1]) for g in tree.groups})
        for d, parents, kids, cols in tree.groups:
            assert (tree.parents[kids] == parents[:, None]).all() and (np.diff(kids, axis=1) > 0).all()
            assert (tree.depths[kids] == d).all() and (cols == tree.columns[d - 1, kids]).all() and (cols >= 0).all()

    def test_invalid_ids_in_arrays(self, animals):
        for call in (animals.is_leaf, lambda x: animals.lca(x, CAT), lambda x: animals.in_subtree(CAT, x)):
            with pytest.raises(ValueError, match="invalid node id"):
                call(np.array([CAT, 7]))
            with pytest.raises(ValueError, match="invalid node id"):
                call(-1)


class TestValidation:
    def test_id_class_must_be_leaf(self):
        with pytest.raises(HierarchyError):
            Hierarchy([-1, 0, 1], ["r", "a", "b"], id_leaves=[1, 2])

    def test_root_cannot_be_id(self):
        with pytest.raises(HierarchyError):
            Hierarchy([-1, 0], ["r", "a"], id_leaves=[0, 1])

    def test_cycle_detected(self):
        with pytest.raises(HierarchyError):
            Hierarchy([-1, 2, 1], ["r", "a", "b"], id_leaves=[1])

    def test_single_root(self):
        with pytest.raises(HierarchyError):
            Hierarchy([-1, -1, 0], ["r", "a", "b"], id_leaves=[2])


class TestTextFormat:
    def test_roundtrip(self, animals, tmp_path):
        path = tmp_path / "tree.txt"
        save_hierarchy(animals, path)
        back = load_hierarchy(path)
        assert back.names == animals.names
        assert np.array_equal(back.parents, animals.parents)
        assert back.id_leaves == animals.id_leaves
        assert hierarchy_hash(back) == hierarchy_hash(animals)

    def test_missing_id_section(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\nb\tr\n")
        with pytest.raises(HierarchyError, match="#id"):
            load_hierarchy(path)

    def test_unknown_id_name(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\nb\tr\n#id\nzebra\n")
        with pytest.raises(HierarchyError, match="zebra"):
            load_hierarchy(path)

    def test_two_roots(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\nb\ts\n#id\na\nb\n")
        with pytest.raises(HierarchyError, match="root"):
            load_hierarchy(path)

    def test_duplicate_child(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\na\tr\n#id\na\n")
        with pytest.raises(HierarchyError, match="more than once"):
            load_hierarchy(path)
