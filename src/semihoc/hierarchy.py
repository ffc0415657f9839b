"""Rooted class-tree representation and tree algebra.

A hierarchy is a rooted tree over dense integer node ids 0..n-1 (root is 0).
Leaf nodes carrying labeled training data form the ID class set; internal
nodes are the possible out-of-distribution prediction targets.

Every tree fact is held once, as an array precomputed from the parent links,
so that queries work on single nodes and on whole batches alike:

* Euler-tour intervals `tin`/`tout`: x lies in subtree(c) exactly when
  tin[c] <= tin[x] < tout[c];
* the ancestor table `ancestors[c, d]`: the ancestor of c at depth d, or c
  itself for d deeper than c, from which `lca` and `tree_distance` follow;
* for each depth d in 1..D, the classification space at depth d: nodes at
  exactly depth d, plus ID leaves that sit shallower than d (so every depth
  head can always place an ID sample somewhere), with `columns[d-1, c]` the
  column of node c in that space (-1 when absent);
* the target matrices `Q[d-1]` (n_nodes x |space_d|): row c is the uniform
  distribution over the ancestors-or-self and descendants of c inside space
  d, the cross-entropy target when a sample is supervised at node c, and all
  zeros when no such relative exists. Restricted to the rows of the space's
  own nodes, Q[d-1] is the identity;
* the group table `groups`: the internal nodes split by depth and child
  count, shallowest first, so that fusion and subtree sums run one array
  operation per group instead of one per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class HierarchyError(ValueError):
    """Raised for malformed hierarchy structures or files."""


@dataclass(frozen=True)
class DepthSpace:
    """Ordered classification space at one depth (ascending node id)."""

    depth: int
    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


def _scalar_or_array(value):
    """Python scalar for a 0-d result, the array otherwise."""
    return value.item() if np.ndim(value) == 0 else value


class Hierarchy:
    """Immutable rooted class tree with precomputed tree algebra.

    Parameters
    ----------
    parents : parent id per node; exactly the root (id 0) has parent -1.
    names : one unique name per node.
    id_leaves : ids of the in-distribution classes; must all be leaves and
        must not cover every node.
    """

    def __init__(self, parents, names, id_leaves):
        parents = np.asarray(parents, dtype=np.int64)
        self.parents = parents
        self.names = tuple(names)
        self.id_leaves = frozenset(int(c) for c in id_leaves)
        self.n_nodes = len(parents)
        self._validate_shape()

        children: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for c in range(1, self.n_nodes):
            children[parents[c]].append(c)
        self.children = tuple(tuple(ch) for ch in children)
        self.leaf_mask = np.array([not ch for ch in self.children])
        self._euler_tour()
        self.max_depth = int(self.depths.max())
        self._validate_id_set()

        # Topological order with parents before children (root first), which
        # is also ascending (depth, id).
        self.topo_order = tuple(int(i) for i in np.argsort(self.depths, kind="stable"))
        self.ancestors = np.empty((self.n_nodes, self.max_depth + 1), dtype=np.int64)
        for c in self.topo_order:
            if c:
                self.ancestors[c] = self.ancestors[self.parents[c]]
            self.ancestors[c, self.depths[c] :] = c

        carried = np.isin(np.arange(self.n_nodes), list(self.id_leaves))  # ID leaves, present below their depth
        self._depth_spaces = tuple(
            DepthSpace(d, tuple(np.flatnonzero((self.depths == d) | (carried & (self.depths < d))).tolist()))
            for d in range(1, self.max_depth + 1)
        )
        self.columns = np.full((self.max_depth, self.n_nodes), -1, dtype=np.int64)
        for d, space in enumerate(self._depth_spaces, start=1):
            self.columns[d - 1, list(space.nodes)] = np.arange(len(space))

    # -- construction helpers -------------------------------------------------

    def _validate_shape(self) -> None:
        if self.n_nodes < 2:
            raise HierarchyError("hierarchy needs a root and at least one more node")
        if len(self.names) != self.n_nodes:
            raise HierarchyError("names/parents length mismatch")
        if len(set(self.names)) != self.n_nodes:
            raise HierarchyError("node names must be unique")
        if self.parents[0] != -1:
            raise HierarchyError("root must be node 0 with parent -1")
        if np.count_nonzero(self.parents == -1) != 1:
            raise HierarchyError("exactly one root allowed")
        bad = [c for c in range(1, self.n_nodes) if not 0 <= self.parents[c] < self.n_nodes]
        if bad:
            raise HierarchyError(f"node {bad[0]} has an invalid parent id")

    def _validate_id_set(self) -> None:
        for c in self.id_leaves:
            if not 0 <= c < self.n_nodes:
                raise HierarchyError(f"ID class id {c} out of range")
            if not self.leaf_mask[c]:
                raise HierarchyError(f"ID class {self.names[c]!r} is not a leaf")
        if not self.id_leaves:
            raise HierarchyError("at least one ID class required")
        if len(self.id_leaves) == self.n_nodes:
            raise HierarchyError("ID classes must be a strict subset of the nodes")

    def _euler_tour(self) -> None:
        """Depth, preorder entry index and subtree end per node, from one walk
        down from the root; a node the walk misses sits on a parent cycle."""
        preorder, stack = [], [0]
        self.depths = np.zeros(self.n_nodes, dtype=np.int64)
        while stack:
            c = stack.pop()
            preorder.append(c)
            self.depths[list(self.children[c])] = self.depths[c] + 1
            stack.extend(reversed(self.children[c]))
        if len(preorder) != self.n_nodes:
            raise HierarchyError("parent links contain a cycle")
        self.tin = np.empty(self.n_nodes, dtype=np.int64)
        self.tin[preorder] = np.arange(self.n_nodes)
        size = np.ones(self.n_nodes, dtype=np.int64)
        for c in reversed(preorder[1:]):
            size[self.parents[c]] += size[c]
        self.tout = self.tin + size

    # -- node queries: each takes a node id or an array of them ------------------

    def _check_node(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.int64)
        bad = (c < 0) | (c >= self.n_nodes)
        if bad.any():
            raise ValueError(f"invalid node id {c[bad].flat[0]}")
        return c

    def is_leaf(self, c):
        return _scalar_or_array(self.leaf_mask[self._check_node(c)])

    def ancestors_or_self(self, c: int) -> tuple[int, ...]:
        """Path from the root down to c, inclusive."""
        c = int(self._check_node(c))
        path = []
        while c != -1:
            path.append(c)
            c = int(self.parents[c])
        return tuple(reversed(path))

    def subtree(self, c: int) -> frozenset[int]:
        """The node together with all of its descendants."""
        c = self._check_node(c)
        return frozenset(np.flatnonzero(self.in_subtree(np.arange(self.n_nodes), c)).tolist())

    def in_subtree(self, x, c):
        """Whether x lies in subtree(c), elementwise over broadcast arrays."""
        x, c = self._check_node(x), self._check_node(c)
        return _scalar_or_array((self.tin[c] <= self.tin[x]) & (self.tin[x] < self.tout[c]))

    def lca(self, a, b):
        """Deepest node that is an ancestor-or-self of both arguments.

        The ancestor-table rows of a and b agree exactly on the depths
        0..depth(lca), except that they agree everywhere when a == b; either
        way the last agreeing column holds the answer.
        """
        a, b = self._check_node(a), self._check_node(b)
        agree = (self.ancestors[a] == self.ancestors[b]).sum(axis=-1)
        return _scalar_or_array(self.ancestors[a, agree - 1])

    def tree_distance(self, a, b):
        """Number of edges on the path between two nodes."""
        anc = self.lca(a, b)
        a, b = self._check_node(a), self._check_node(b)
        return _scalar_or_array(self.depths[a] + self.depths[b] - 2 * self.depths[anc])

    # -- depth spaces and targets ----------------------------------------------

    def _check_depth(self, d: int) -> int:
        d = int(d)
        if not 1 <= d <= self.max_depth:
            raise ValueError(f"depth {d} out of range 1..{self.max_depth}")
        return d

    def depth_space(self, d: int) -> DepthSpace:
        return self._depth_spaces[self._check_depth(d) - 1]

    @cached_property
    def Q(self) -> tuple[np.ndarray, ...]:
        """Target matrices, one per depth; built on first use."""
        nodes = np.arange(self.n_nodes)
        out = []
        for space in self._depth_spaces:
            cols = np.asarray(space.nodes)
            support = self.in_subtree(cols[None, :], nodes[:, None]) | self.in_subtree(nodes[:, None], cols[None, :])
            size = support.sum(axis=1)
            out.append(support * (1.0 / np.maximum(size, 1))[:, None])
        return tuple(out)

    @cached_property
    def groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per (child depth d, child count k), ascending: d, the parents (g,),
        their children (g, k) in id order and those children's depth-d columns."""
        n_kids = np.bincount(self.parents[1:], minlength=self.n_nodes)
        out = []
        for d in range(1, self.max_depth + 1):
            at_d = np.flatnonzero(self.depths == d)
            at_d = at_d[np.argsort(self.parents[at_d], kind="stable")]  # siblings adjacent, in id order
            for k in np.unique(n_kids[self.parents[at_d]]):
                kids = at_d[n_kids[self.parents[at_d]] == k].reshape(-1, k)
                out.append((d, self.parents[kids[:, 0]], kids, self.columns[d - 1, kids]))
        return tuple(out)

    def summary(self) -> str:
        n_leaves = int(self.leaf_mask.sum())
        lines = [
            f"nodes: {self.n_nodes}",
            f"max depth: {self.max_depth}",
            f"leaves: {n_leaves} (ID classes: {len(self.id_leaves)})",
            f"internal nodes: {self.n_nodes - n_leaves}",
            "depth space sizes: "
            + ", ".join(f"d{d}={len(self.depth_space(d))}" for d in range(1, self.max_depth + 1)),
        ]
        return "\n".join(lines)


# -- text format ----------------------------------------------------------------

def load_hierarchy(path) -> Hierarchy:
    """Load the tab-separated edge-list format.

    One `child<TAB>parent` line per non-root node, then a line `#id`
    followed by one ID class name per line. Node ids are assigned densely:
    root is 0, the remaining nodes are numbered in file order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    edges: list[tuple[str, str]] = []
    id_names: list[str] = []
    section = "edges"
    for lineno, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line == "#id":
            if section == "ids":
                raise HierarchyError(f"line {lineno}: duplicate #id section")
            section = "ids"
            continue
        if section == "edges":
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise HierarchyError(f"line {lineno}: expected 'child<TAB>parent'")
            edges.append((parts[0], parts[1]))
        else:
            id_names.append(line)

    if section != "ids":
        raise HierarchyError("missing #id section")
    if not edges:
        raise HierarchyError("no edges found")

    child_names = [c for c, _ in edges]
    if len(set(child_names)) != len(child_names):
        dup = next(c for c in child_names if child_names.count(c) > 1)
        raise HierarchyError(f"node {dup!r} defined more than once")
    parent_names = {p for _, p in edges}
    roots = parent_names - set(child_names)
    if len(roots) != 1:
        raise HierarchyError(f"expected exactly one root, found {sorted(roots)}")
    root = roots.pop()

    ids = {root: 0}
    for c, _ in edges:
        ids[c] = len(ids)
    names = [None] * len(ids)
    parents = np.full(len(ids), -1, dtype=np.int64)
    names[0] = root
    for c, p in edges:
        names[ids[c]] = c
        parents[ids[c]] = ids[p]

    id_leaves = []
    for name in id_names:
        if name not in ids:
            raise HierarchyError(f"ID class {name!r} does not appear in the tree")
        id_leaves.append(ids[name])
    return Hierarchy(parents, names, id_leaves)


def save_hierarchy(hierarchy: Hierarchy, path) -> None:
    """Write the edge-list format; inverse of load_hierarchy."""
    with open(path, "wb") as fh:
        fh.write(hierarchy_bytes(hierarchy))


def hierarchy_bytes(hierarchy: Hierarchy) -> bytes:
    """Canonical file content of a hierarchy, as saved and as hashed."""
    names = hierarchy.names
    lines = [f"{names[c]}\t{names[hierarchy.parents[c]]}" for c in range(1, hierarchy.n_nodes)]
    lines += ["#id"] + [names[c] for c in sorted(hierarchy.id_leaves)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def hierarchy_hash(hierarchy: Hierarchy) -> int:
    from .rng import fnv1a_64

    return fnv1a_64(hierarchy_bytes(hierarchy))


def example_tree() -> Hierarchy:
    """Seven-node animal tree used throughout the tests and docs."""
    names = ["Root", "Mammal", "Bird", "Cat", "Dog", "Eagle", "Junco"]
    parents = [-1, 0, 0, 1, 1, 2, 2]
    return Hierarchy(parents, names, id_leaves=[3, 4, 5, 6])


def random_tree(rng: np.random.Generator, n_nodes: int, recent_bias: int = 5) -> Hierarchy:
    """Random hierarchy for property tests; every leaf is an ID class.

    Each node attaches to a random earlier node, biased toward recent ones
    so trees get several levels instead of being star-shaped.
    """
    if n_nodes < 3:
        n_nodes = 3
    parents = np.full(n_nodes, -1, dtype=np.int64)
    for c in range(1, n_nodes):
        if c == 1 or rng.random() < 0.3:
            parents[c] = 0 if c == 1 else int(rng.integers(0, c))
        else:
            parents[c] = int(rng.integers(max(0, c - recent_bias), c))
    names = [f"n{i}" for i in range(n_nodes)]
    has_child = set(int(p) for p in parents[1:])
    leaves = [c for c in range(n_nodes) if c not in has_child]
    return Hierarchy(parents, names, id_leaves=leaves)
