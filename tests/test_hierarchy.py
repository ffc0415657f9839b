import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc import hierarchy as hierarchy_mod
from semihoc.hierarchy import (
    Hierarchy,
    HierarchyError,
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


def subtree(tree, c) -> set[int]:
    """The nodes that in_subtree places inside subtree(c)."""
    return set(np.flatnonzero(tree.in_subtree(np.arange(tree.n_nodes), c)).tolist())


class TestSubtree:
    def test_internal(self, animals):
        assert subtree(animals, MAMMAL) == {MAMMAL, CAT, DOG}

    def test_leaf(self, animals):
        assert subtree(animals, JUNCO) == {JUNCO}

    def test_root(self, animals):
        assert subtree(animals, ROOT) == set(range(7))

    def test_invalid_node(self, animals):
        with pytest.raises(ValueError):
            subtree(animals, 99)

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_parent_contains_child(self, tree):
        for c in range(1, tree.n_nodes):
            assert subtree(tree, int(tree.parents[c])) >= subtree(tree, c)


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
        assert animals.depth_space(1).tolist() == [MAMMAL, BIRD]

    def test_depth2(self, animals):
        assert animals.depth_space(2).tolist() == [CAT, DOG, EAGLE, JUNCO]

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
            assert 1 in tree.depth_space(d)

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_id_leaves_present_from_their_depth(self, tree):
        for c in tree.id_leaves:
            for d in range(int(tree.depths[c]), tree.max_depth + 1):
                if d >= 1:
                    assert c in tree.depth_space(d)

    def test_ordering_ascending(self, animals):
        for d in (1, 2):
            nodes = animals.depth_space(d)
            assert list(nodes) == sorted(nodes)


def support(tree, c, d):
    """Nodes of depth space d where the target row of node c is non-zero."""
    return {tree.depth_space(d)[j] for j in np.flatnonzero(tree.targets(d, c))}


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
                assert support(tree, c, d) <= set(tree.depth_space(d))


class TestTargetDistribution:
    def test_leaf_one_hot_on_ancestor(self, animals):
        t = animals.targets(1, JUNCO)
        assert t[animals.columns[0, BIRD]] == 1.0
        assert t.sum() == 1.0

    def test_internal_uniform_over_descendants(self, animals):
        t = animals.targets(2, MAMMAL)
        assert t[animals.columns[1, CAT]] == 0.5
        assert t[animals.columns[1, DOG]] == 0.5

    def test_internal_one_hot_at_own_depth(self, animals):
        assert animals.targets(1, MAMMAL)[animals.columns[0, MAMMAL]] == 1.0

    def test_empty_mapping_returns_none(self):
        # non-ID leaf at depth 1 dead-ends: no relatives at depth 2
        names = ["r", "L", "a", "b"]
        parents = [-1, 0, 0, 2]
        tree = Hierarchy(parents, names, id_leaves=[3])
        assert support(tree, 1, 2) == set()
        assert not tree.targets(2, 1).any()

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_sums_and_support(self, tree):
        for c in range(tree.n_nodes):
            relatives = subtree(tree, c) | set(tree.ancestors_or_self(c))
            for d in range(1, tree.max_depth + 1):
                t = tree.targets(d, c)
                expected = relatives & set(tree.depth_space(d))
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
        """Pseudo-label targets rely on the targets of space d's own nodes being I."""
        for d in range(1, tree.max_depth + 1):
            nodes = list(tree.depth_space(d))
            assert np.array_equal(tree.targets(d, nodes), np.eye(len(nodes)))
            assert np.array_equal(tree.columns[d - 1, nodes], np.arange(len(nodes)))


@st.composite
def relabelled_trees(draw, max_nodes=60):
    """A random tree with its non-root ids shuffled, so that a child's id can
    be below its parent's (as load_hierarchy numbers a file that lists a child
    before its parent), and a random non-empty subset of its leaves as the ID
    classes, the other leaves out of distribution."""
    tree = draw(trees(max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    new_id = np.concatenate([[0], 1 + rng.permutation(tree.n_nodes - 1)])
    parents = np.full(tree.n_nodes, -1)
    parents[new_id[1:]] = new_id[tree.parents[1:]]
    leaves = new_id[np.flatnonzero(tree.leaf_mask)]
    ids = rng.choice(leaves, int(rng.integers(1, len(leaves) + 1)), replace=False)
    return Hierarchy(parents, [f"n{c}" for c in range(tree.n_nodes)], id_leaves=ids)


def dense_targets(tree, d):
    """Every node's depth-d target row at once: uniform over the space
    nodes that lie in its subtree or have it in theirs."""
    nodes, cols = np.arange(tree.n_nodes), np.asarray(tree.depth_space(d))
    support = tree.in_subtree(cols[None, :], nodes[:, None]) | tree.in_subtree(nodes[:, None], cols[None, :])
    return support * (1.0 / np.maximum(support.sum(axis=1), 1))[:, None]


class TestTargets:
    @given(relabelled_trees())
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_dense_rows(self, tree):
        """The runs give the dense rows byte for byte, and a non-empty run exactly for a non-zero row."""
        for d in range(1, tree.max_depth + 1):
            dense = dense_targets(tree, d)
            assert tree.targets(d, np.arange(tree.n_nodes)).tobytes() == dense.tobytes()
            lo, hi = tree.target_runs(d, np.arange(tree.n_nodes))
            assert np.array_equal(hi > lo, dense.any(axis=1))
            assert tree.targets(d, np.empty(0, dtype=np.int64)).shape == (0, len(tree.depth_space(d)))

    @given(relabelled_trees())
    @settings(max_examples=40, deadline=None)
    def test_the_run_table_gives_the_rows_of_target_runs(self, tree):
        """run_table holds target_runs of every node at every depth, and the
        rows targets reads off it are uniform over those runs of the space's
        columns in preorder, byte for byte."""
        nodes = np.arange(tree.n_nodes)
        for d in range(1, tree.max_depth + 1):
            lo, hi = tree.target_runs(d, nodes)
            assert tree.run_table[d - 1].tobytes() == np.stack((lo, hi)).tobytes()
            in_preorder = tree.columns[d - 1][np.argsort(tree.tin)]
            in_preorder = in_preorder[in_preorder >= 0]
            expected = np.zeros((tree.n_nodes, len(in_preorder)))
            for c in nodes:
                expected[c, in_preorder[lo[c] : hi[c]]] = 1.0 / max(hi[c] - lo[c], 1)
            assert tree.targets(d, nodes).tobytes() == expected.tobytes()
            shuffled = np.random.default_rng(d).permutation(tree.n_nodes)
            assert tree.targets(d, shuffled).tobytes() == expected[shuffled].tobytes()

    def test_scalar_node_gives_one_row(self, animals):
        assert np.array_equal(animals.targets(2, [[MAMMAL]]), animals.targets(2, MAMMAL)[None, None])
        with pytest.raises(ValueError, match="depth"):
            animals.targets(3, MAMMAL)
        with pytest.raises(ValueError, match="invalid node id"):
            animals.targets(1, [CAT, 7])

    def test_a_deep_full_tree_needs_no_dense_rows(self):
        """Branching 3, depth 7: 3,280 nodes, whose dense rows would take 86 MB."""
        parents = np.concatenate([[-1], np.arange(3279) // 3])
        tracemalloc.start()
        try:
            tree = Hierarchy(parents, [f"n{c}" for c in range(3280)], id_leaves=range(1093, 3280))
            rows = [tree.targets(d, (3 ** d - 1) // 2) for d in range(1, 8)]  # the first node at each depth
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.sum() for row in rows] == [1.0] * 7
        assert peak < 5e6


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
            assert inside[i] == (y in tree.ancestors_or_self(x)) == tree.in_subtree(x, y)
            assert leaf[i] == (x not in tree.parents) == tree.is_leaf(x)

    @given(trees(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lca_matches_a_walk_up_the_parents(self, tree, seed):
        """Over broadcast arrays of any shape: the first ancestor-or-self of b, climbing parent links, on a's path."""

        def walk(a: int, b: int) -> int:
            path = set()
            while a != -1:
                path.add(a)
                a = int(tree.parents[a])
            while b not in path:
                b = int(tree.parents[b])
            return b

        gen = np.random.default_rng(seed)
        a, b = gen.integers(tree.n_nodes, size=(4, 1)), gen.integers(tree.n_nodes, size=(1, 6))
        got = tree.lca(a, b)
        assert got.shape == (4, 6) and got.dtype == np.int64
        assert got.tolist() == [[walk(int(x), int(y)) for y in b[0]] for x in a[:, 0]]
        x, y = int(a[0, 0]), int(b[0, 0])
        assert tree.lca(x, y) == walk(x, y) and tree.lca(a[:, 0], y).tolist() == [walk(int(v), y) for v in a[:, 0]]

    def test_lca_gathers_no_pairs_by_depth_table(self):
        """A 40-deep tree: the two (100,000 pairs x 41 depths) int64 ancestor tables peaked at 70 MB."""
        tree = Hierarchy(np.arange(-1, 40), [f"n{i}" for i in range(41)], [40])
        a, b = np.random.default_rng(0).integers(41, size=(2, 100_000))
        tracemalloc.start()
        try:
            got = tree.lca(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.minimum(a, b))  # on a chain, the shallower node
        assert peak < 5 * 8 * len(a)

    def test_scalars_come_back_as_python_values(self, animals):
        assert type(animals.lca(CAT, DOG)) is int
        assert type(animals.tree_distance(CAT, DOG)) is int
        assert type(animals.is_leaf(CAT)) is bool

    def test_euler_intervals(self, animals):
        for c in range(7):
            inside = {x for x in range(7) if animals.tin[c] <= animals.tin[x] < animals.tout[c]}
            assert inside == {x for x in range(7) if c in animals.ancestors_or_self(x)}

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
        for parents in ([-1, 2, 1], [-1, 0, 3, 2, 2], [-1, 1]):  # a cycle, a node hanging off one, a self-parent
            with pytest.raises(HierarchyError, match="parent links contain a cycle"):
                Hierarchy(parents, [f"n{c}" for c in range(len(parents))], id_leaves=[1])

    def test_single_root(self):
        with pytest.raises(HierarchyError):
            Hierarchy([-1, -1, 0], ["r", "a", "b"], id_leaves=[2])

    def test_several_bad_ids_name_the_smallest(self):
        """r -> {a -> b, c -> d}: the range is checked before the leaves, and each check names its smallest id."""
        parents, names = [-1, 0, 1, 0, 3], ["r", "a", "b", "c", "d"]
        with pytest.raises(HierarchyError, match="^ID class 'a' is not a leaf$"):
            Hierarchy(parents, names, id_leaves=[3, 1])
        with pytest.raises(HierarchyError, match="^ID class id -2 out of range$"):
            Hierarchy(parents, names, id_leaves=[7, 3, -2])


def walked_arrays(parents):
    """depths, tin, tout, ancestors and leaf_mask from one walk down from the root, node by node: children
    in id order, each node's ancestor row copied from its parent's, and subtree sizes summed up the preorder."""
    n = len(parents)
    children = [[] for _ in range(n)]
    for c in range(1, n):
        children[parents[c]].append(c)
    preorder, stack, depths = [], [0], np.zeros(n, dtype=np.int64)
    while stack:
        c = stack.pop()
        preorder.append(c)
        depths[children[c]] = depths[c] + 1
        stack.extend(reversed(children[c]))
    tin = np.empty(n, dtype=np.int64)
    tin[preorder] = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    for c in reversed(preorder[1:]):
        size[parents[c]] += size[c]
    ancestors = np.empty((n, depths.max() + 1), dtype=np.int64)
    for c in preorder:
        if c:
            ancestors[c] = ancestors[parents[c]]
        ancestors[c, depths[c]:] = c
    return depths, tin, tin + size, ancestors, np.array([not ch for ch in children])


def tuple_node_sets(tree, given):
    """The ID set and the depth spaces as the constructor once held them, node by node: a frozenset of the
    given ids, and per depth d a tuple of the nodes at depth d and the ID leaves above it, ascending, with
    each member's column its place in that tuple."""
    ids = frozenset(int(c) for c in given)
    spaces = tuple(tuple(c for c in range(tree.n_nodes) if tree.depths[c] == d or (c in ids and tree.depths[c] < d))
                   for d in range(1, tree.max_depth + 1))
    columns = np.full((tree.max_depth, tree.n_nodes), -1, dtype=np.int64)
    for d, space in enumerate(spaces, start=1):
        for j, c in enumerate(space):
            columns[d - 1, c] = j
    return ids, spaces, columns


class TestConstruction:
    @given(relabelled_trees())
    @settings(max_examples=100, deadline=None)
    def test_arrays_equal_the_walk(self, tree):
        """The array operations over parents give the walk's arrays, also where a child's id is below its
        parent's, which a preorder that padded each path with its own node would put first."""
        names = ("depths", "tin", "tout", "ancestors", "leaf_mask")
        for name, walked in zip(names, walked_arrays(tree.parents)):
            built = getattr(tree, name)
            assert built.dtype == walked.dtype and np.array_equal(built, walked), name

    @given(relabelled_trees(), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_node_sets_equal_the_tuples(self, tree, seed):
        """id_leaves, columns, depth_space and classes hold what the frozenset and the per-depth tuples held,
        also for ID classes given out of order and twice."""
        given = np.random.default_rng(seed).permutation(np.repeat(tree.id_leaves, 2)).tolist()
        built = Hierarchy(tree.parents, tree.names, given)
        ids, spaces, columns = tuple_node_sets(built, given)
        assert built.id_leaves.dtype == np.int64 and built.id_leaves.tolist() == sorted(ids)
        assert built.columns.dtype == np.int64 and np.array_equal(built.columns, columns)
        assert tuple(tuple(built.depth_space(d).tolist()) for d in range(1, built.max_depth + 1)) == spaces
        assert built.classes == tuple(map(len, spaces))

    @pytest.mark.parametrize("parents", [
        np.arange(-1, 799),
        np.concatenate([[-1], np.arange(3279) // 3]),
        np.concatenate([[-1], np.zeros(2700, dtype=np.int64), [0], np.arange(2701, 2999)]),
    ], ids=["chain-800", "full-b3-d7", "leaves-beside-chain-299"])
    def test_peak_memory_within_the_refused_count(self, monkeypatch, parents):
        """The count held against the machine bounds the constructor's tracemalloc peak, within 25%."""
        counted = []
        monkeypatch.setattr(hierarchy_mod, "exceeds_memory", lambda nbytes, what: counted.append(nbytes))
        names = [f"n{c}" for c in range(len(parents))]
        leaves = np.flatnonzero(np.bincount(parents[1:], minlength=len(parents)) == 0)
        Hierarchy([-1, 0, 0], ["r", "a", "b"], id_leaves=[1])  # numpy's first-call allocations are not the tree's
        tracemalloc.start()
        try:
            Hierarchy(parents, names, leaves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.75 * counted[-1] <= peak <= counted[-1]

    def test_too_deep_for_memory_refused(self, monkeypatch):
        """A chain of 50,000 nodes would need 67.7 GiB of (nodes x depth) tables: refused before they are allocated."""
        monkeypatch.setattr(hierarchy_mod.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}.get)
        with pytest.raises(HierarchyError, match="tables of 50000 nodes 49999 deep need 67.7 GiB, more than the 4 GiB"):
            Hierarchy(np.arange(-1, 49999), [f"n{c}" for c in range(50000)], id_leaves=[49999])


class TestTextFormat:
    def test_roundtrip(self, animals, tmp_path):
        path = tmp_path / "tree.txt"
        save_hierarchy(animals, path)
        back = load_hierarchy(path)
        assert back.names == animals.names
        assert np.array_equal(back.parents, animals.parents)
        assert np.array_equal(back.id_leaves, animals.id_leaves)
        assert back.hash == animals.hash

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

    def test_duplicate_child_named_first_in_file_order(self, tmp_path):
        """Children a, b, b, a: a is the first name in the file that occurs twice, though b repeats first."""
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\nb\tr\nb\tr\na\tr\n#id\na\n")
        with pytest.raises(HierarchyError, match="^node 'a' defined more than once$"):
            load_hierarchy(path)
