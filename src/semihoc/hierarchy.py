"""Rooted class-tree representation and tree algebra.

A hierarchy is a rooted tree over dense integer node ids 0..n-1 (root is 0).
Leaf nodes carrying labeled training data form the ID class set; internal
nodes are the possible out-of-distribution prediction targets.

Every tree fact is held once, as an array precomputed from the parent links,
so that queries work on single nodes and on whole batches alike:

* the ID classes `id_leaves`: their ids, sorted and unique;
* Euler-tour intervals `tin`/`tout`: x lies in subtree(c) exactly when
  tin[c] <= tin[x] < tout[c];
* the ancestor table `ancestors[c, d]`: the ancestor of c at depth d, or c
  itself for d deeper than c, from which `lca` and `tree_distance` follow;
* for each depth d in 1..D, the classification space at depth d: nodes at
  exactly depth d, plus ID leaves that sit shallower than d (so every depth
  head can always place an ID sample somewhere), held only as
  `columns[d-1, c]`, the column of node c in that space (-1 when absent);
  `depth_space(d)` and the sizes `classes` are read off it, and its columns
  in preorder with their `tin` make a target row (`targets`) uniform over
  one run of them;
* the group table `groups`: the internal nodes split by depth and child
  count, shallowest first, so that fusion and subtree sums run one array
  operation per group instead of one per node;
* the content `hash` of the saved file, computed at the first read.

They are built by array operations over `parents`, with no loop over nodes
(depths by pointer jumping, preorder by sorting the root-to-node paths), and
a tree whose (nodes x depth) tables would not fit in memory is refused.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property

import numpy as np

from .rng import fnv1a_64


class HierarchyError(ValueError):
    """Raised for malformed hierarchy structures or files."""


def _scalar_or_array(value):
    """Python scalar for a 0-d result, the array otherwise."""
    return value.item() if np.ndim(value) == 0 else value


def sorted_unique(values) -> np.ndarray:
    """np.unique of integers by one sort. numpy 2.4's plain np.unique imports numpy.ma: 1.3 MiB and 15 ms a process."""
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate((np.ones(min(ordered.size, 1), dtype=bool), ordered[1:] != ordered[:-1]))]


def exceeds_memory(nbytes: int, what: str) -> str | None:
    """The refusal of `what`, which needs `nbytes` bytes, when that is more than this machine's
    physical memory; None when it is not, or where the OS does not report it."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    size = f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000 else f"over 2^{nbytes.bit_length() - 1} bytes"
    return f"{what} need {size}, more than the {total / 2**30:.3g} GiB of this machine's memory" if nbytes > total else None


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
        self.parents = parents = np.asarray(parents, dtype=np.int64)
        self.names = tuple(names)
        self.id_leaves = sorted_unique(np.asarray(id_leaves, dtype=np.int64))
        self.n_nodes = n = len(parents)
        self._validate_shape()

        self.leaf_mask = np.bincount(parents[1:], minlength=n) == 0
        # Pointer jumping: each round, up[c] goes twice as far toward the root, which points to itself, and
        # depths[c] counts the edges to it. A node that never gets to the root sits on a cycle or under one.
        up, self.depths = np.maximum(parents, 0), (parents >= 0).astype(np.int64)
        for _ in range((n - 1).bit_length()):
            self.depths += self.depths[up]
            up = up[up]
        if up.any():
            raise HierarchyError("parent links contain a cycle")
        self.max_depth = depth = int(self.depths.max())
        self._validate_id_set()
        carried = np.isin(np.arange(n), self.id_leaves)  # ID leaves, present below their depth
        # The peak in bytes: 25 a cell of the (n, depth + 1) tables (ancestors, columns, paths and its mask), 8 a path
        # entry bincount reads, 16 a depth-space entry (its preorder column and tin), 3 KiB a lexsort key, 64 a node.
        entries = n - 1 + int((depth - self.depths[carried]).sum())
        nbytes = 25 * n * (depth + 1) + 8 * int(self.depths.sum() + n) + 16 * entries + 3072 * (depth + 1) + 64 * n
        if problem := exceeds_memory(nbytes, f"the ancestor and path tables of {n} nodes {depth} deep"):
            raise HierarchyError(problem)

        self.ancestors = np.repeat(np.arange(n), depth + 1).reshape(n, depth + 1)
        for d in range(depth - 1, -1, -1):
            deeper = self.depths > d
            self.ancestors[deeper, d] = parents[self.ancestors[deeper, d + 1]]
        # Depth space d holds the nodes at depth d and the ID leaves above it; a member's column counts the members before it.
        levels = np.arange(1, depth + 1)[:, None]
        member = np.where(carried, self.depths <= levels, self.depths == levels)
        self.classes = tuple(member.sum(axis=1).tolist())  # per depth, the size of its space
        self.columns = member.cumsum(axis=1)
        self.columns -= 1
        self.columns[~member] = -1
        # Preorder sorts the root-to-node paths, each padded with -1 so that it comes before its extensions
        # (padded with the node itself, a child whose id is below its parent's would come first).
        paths = np.where(np.arange(depth + 1) <= self.depths[:, None], self.ancestors, -1)
        preorder = np.lexsort(paths.T[::-1])
        self.tin = np.argsort(preorder)  # each node's place in preorder
        self.tout = self.tin + np.bincount(paths[paths >= 0])  # subtree sizes: the paths through each node
        # per depth space, its columns in preorder and their tins
        self._preorder = [(row[row >= 0], np.flatnonzero(row >= 0)) for row in (cols[preorder] for cols in self.columns)]

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
        bad = 1 + np.flatnonzero((self.parents[1:] < 0) | (self.parents[1:] >= self.n_nodes))
        if bad.size:
            raise HierarchyError(f"node {bad[0]} has an invalid parent id")

    def _validate_id_set(self) -> None:
        """Range, then leaf, then empty, then strict subset; naming the smallest bad id."""
        ids = self.id_leaves
        if (bad := ids[(ids < 0) | (ids >= self.n_nodes)]).size:
            raise HierarchyError(f"ID class id {bad[0]} out of range")
        if (bad := ids[~self.leaf_mask[ids]]).size:
            raise HierarchyError(f"ID class {self.names[bad[0]]!r} is not a leaf")
        if not ids.size:
            raise HierarchyError("at least one ID class required")
        if ids.size == self.n_nodes:
            raise HierarchyError("ID classes must be a strict subset of the nodes")

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

    def in_subtree(self, x, c):
        """Whether x lies in subtree(c), elementwise over broadcast arrays."""
        x, c = self._check_node(x), self._check_node(c)
        return _scalar_or_array((self.tin[c] <= self.tin[x]) & (self.tin[x] < self.tout[c]))

    def lca(self, a, b):
        """Deepest node that is an ancestor-or-self of both arguments.

        The ancestor-table rows of a and b agree exactly on the depths
        0..depth(lca), except that they agree everywhere when a == b; either
        way the last agreeing column holds the answer. Columns are compared one depth at a time, never as a table.
        """
        a, b = self._check_node(a), self._check_node(b)
        agree = sum(self.ancestors[a, d] == self.ancestors[b, d] for d in range(self.max_depth + 1))
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

    def depth_space(self, d: int) -> np.ndarray:
        """The node ids of the classification space at depth d, ascending."""
        return np.flatnonzero(self.columns[self._check_depth(d) - 1] >= 0)

    def target_runs(self, d: int, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Per node, the run [lo, hi) of space d's preorder columns in subtree(top), top its depth-d ancestor
        (itself when shallower): its ancestors-or-self and descendants there, as no ID leaf is a strict ancestor."""
        tins, top = self._preorder[self._check_depth(d) - 1][1], self.ancestors[self._check_node(nodes), d]
        return np.searchsorted(tins, self.tin[top]), np.searchsorted(tins, self.tout[top])

    @cached_property
    def run_table(self) -> np.ndarray:
        """(depth - 1, lo/hi, node): target_runs of every node at every depth, built at first use. Nothing
        builds it eagerly: a tree that is only generated, saved or loaded never pays for it."""
        nodes = np.arange(self.n_nodes)
        return np.stack([np.stack(self.target_runs(d, nodes)) for d in range(1, self.max_depth + 1)])

    def targets(self, d: int, nodes) -> np.ndarray:
        """Depth-d targets (nodes.shape + (|space_d|,)) of samples supervised at `nodes`: uniform over each
        run, read off run_table."""
        lo, hi = self.run_table[self._check_depth(d) - 1][:, self._check_node(nodes).ravel()]
        order, size = self._preorder[d - 1][0], hi - lo
        rows, step = np.nonzero(np.arange(size.max(initial=0)) < size[:, None])  # each run entry's row and offset
        out = np.zeros((len(lo), len(order)))
        out[rows, order[lo[rows] + step]] = (1.0 / np.maximum(size, 1))[rows]
        return out.reshape(np.shape(nodes) + (len(order),))

    @cached_property
    def groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per (child depth d, child count k), ascending: d, the parents (g,),
        their children (g, k) in id order and those children's depth-d columns."""
        n_kids = np.bincount(self.parents[1:], minlength=self.n_nodes)
        out = []
        for d in range(1, self.max_depth + 1):
            at_d = np.flatnonzero(self.depths == d)
            at_d = at_d[np.argsort(self.parents[at_d], kind="stable")]  # siblings adjacent, in id order
            for k in sorted_unique(n_kids[self.parents[at_d]]):
                kids = at_d[n_kids[self.parents[at_d]] == k].reshape(-1, k)
                out.append((d, self.parents[kids[:, 0]], kids, self.columns[d - 1, kids]))
        return tuple(out)

    @cached_property
    def hash(self) -> int:
        """FNV-1a of `hierarchy_bytes`: the content hash that feature files and checkpoints record."""
        return fnv1a_64(hierarchy_bytes(self))

    def summary(self) -> str:
        n_leaves = int(self.leaf_mask.sum())
        lines = [
            f"nodes: {self.n_nodes}",
            f"max depth: {self.max_depth}",
            f"leaves: {n_leaves} (ID classes: {self.id_leaves.size})",
            f"internal nodes: {self.n_nodes - n_leaves}",
            "depth space sizes: " + ", ".join(f"d{d}={k}" for d, k in enumerate(self.classes, start=1)),
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
    counts = Counter(child_names)
    if len(counts) != len(child_names):
        dup = next(c for c in child_names if counts[c] > 1)
        raise HierarchyError(f"node {dup!r} defined more than once")
    roots = {p for _, p in edges} - counts.keys()
    if len(roots) != 1:
        raise HierarchyError(f"expected exactly one root, found {sorted(roots)}")

    names = [roots.pop(), *child_names]
    ids = dict(zip(names, range(len(names))))
    if unknown := [name for name in id_names if name not in ids]:
        raise HierarchyError(f"ID class {unknown[0]!r} does not appear in the tree")
    return Hierarchy([-1] + [ids[p] for _, p in edges], names, [ids[name] for name in id_names])


def save_hierarchy(hierarchy: Hierarchy, path) -> None:
    """Write the edge-list format; inverse of load_hierarchy."""
    with open(path, "wb") as fh:
        fh.write(hierarchy_bytes(hierarchy))


def hierarchy_bytes(hierarchy: Hierarchy) -> bytes:
    """Canonical file content of a hierarchy, as saved and as hashed."""
    names = hierarchy.names
    lines = [f"{names[c]}\t{names[hierarchy.parents[c]]}" for c in range(1, hierarchy.n_nodes)]
    lines += ["#id"] + [names[c] for c in hierarchy.id_leaves.tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


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
