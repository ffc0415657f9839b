import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example_tree, one_node_cutoff
from semihoc.hierarchy import random_tree
from semihoc.oracles import histogram_scan_cutoff
from semihoc.prohoc import fuse_batch, subtree_confidences
from semihoc.spl import (
    AgeGateState,
    SplLog,
    apply_gating,
    assign,
    compute_spls_batch,
    update_cutoffs,
    update_log,
)

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)
DEPTHS = example_tree().depths


def chain_of(p, tree, tau):
    """Assigned nodes of one node distribution, shallow to deep."""
    return compute_spls_batch(p[None], tree, tau)[0].nodes


def table(*nodes):
    """One-row chain table over the animal tree."""
    out = np.full((1, 2), -1)
    out[0, DEPTHS[list(nodes)] - 1] = nodes
    return out


def new_log():
    """Log over the animal tree whose row r holds sample id r."""
    return SplLog(np.arange(12, dtype=np.uint64), DEPTHS)


NO_TRIPLES = {"sample_id": np.empty(0, np.uint64), "node": np.empty(0, np.int64), "epoch": np.empty(0, np.int64)}


def logged(log, node, sample, history=False):
    """The logged epoch of (sample, node), or its first-ever one with
    `history`, read off the checkpoint triples."""
    state = log.history_state() if history else log.state_dict()
    match = (state["sample_id"] == sample) & (state["node"] == node)
    return int(state["epoch"][match][0]) if match.any() else None


def log_chain(log, sample, chain, epoch):
    update_log(log, np.array([sample]), table(*chain), epoch)


def gate_chain(chain, log, gate, sample):
    gated = apply_gating(table(*chain), log.first[[sample]], gate.vector(7))
    return tuple(gated[0][gated[0] >= 0].tolist())


def expand(chains, n_nodes):
    """The boolean (row, node) assignment mask of a chain table."""
    out = np.zeros((len(chains), n_nodes), dtype=bool)
    rows, cols = np.nonzero(chains >= 0)
    out[rows, chains[rows, cols]] = True
    return out


class TestComputeSpls:
    def test_full_mass_on_leaf(self, animals):
        p = np.zeros(7)
        p[JUNCO] = 1.0
        assert chain_of(p, animals, 0.95) == (BIRD, JUNCO)

    def test_mass_split_between_siblings(self, animals):
        p = np.zeros(7)
        p[CAT], p[DOG], p[MAMMAL] = 0.5, 0.46, 0.04
        assert chain_of(p, animals, 0.95) == (MAMMAL,)

    def test_uniform_assigns_nothing(self, animals):
        p = np.full(7, 1 / 7)
        assert chain_of(p, animals, 0.95) == ()

    def test_root_never_assigned(self, animals):
        p = np.zeros(7)
        p[ROOT] = 1.0
        assert chain_of(p, animals, 0.5) == ()

    def test_strictness_at_threshold(self, animals):
        p = np.zeros(7)
        p[CAT] = 0.95
        p[JUNCO] = 0.05
        # subtree conf at Mammal and Cat is exactly 0.95: strict > fails
        assert chain_of(p, animals, 0.95) == ()

    def test_tau_one_assigns_nothing(self, animals):
        p = np.zeros(7)
        p[JUNCO] = 1.0
        assert chain_of(p, animals, 1.0) == ()

    @given(st.integers(0, 5_000), st.floats(0.55, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_chain_is_root_anchored_path(self, seed, tau):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(4, 40)))
        outputs = []
        for d in range(1, tree.max_depth + 1):
            raw = rng.random((1, len(tree.depth_space(d)))) ** 4 + 1e-9
            outputs.append(raw / raw.sum(axis=1, keepdims=True))
        probs = fuse_batch(outputs, tree)[0]
        chain = chain_of(probs, tree, tau)
        for shallow, deep in zip(chain, chain[1:]):
            assert int(tree.parents[deep]) == shallow
        if chain:
            assert int(tree.parents[chain[0]]) == 0

    def test_chains_list_the_mask(self, animals):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.full(7, 0.2), size=30)
        passing = subtree_confidences(probs, animals) > 0.6
        passing[:, ROOT] = False
        assigned = assign(probs, animals, 0.6)
        assert np.array_equal(expand(assigned, 7), passing)
        for row, chain in zip(passing, compute_spls_batch(probs, animals, 0.6)):
            assert set(chain.nodes) == set(np.flatnonzero(row).tolist())
            assert list(chain.nodes) == sorted(chain.nodes, key=lambda c: (animals.depths[c], c))

    def test_two_passing_nodes_of_one_depth_raise(self, animals):
        p = np.zeros((2, 7))
        p[0, JUNCO] = 1.0
        p[1, CAT] = p[1, DOG] = 0.5 + 1e-12  # only rounding at tau = 1/2 could get this far
        with pytest.raises(ValueError, match="two nodes of depth 2"):
            assign(p, animals, 0.5)

    def test_tau_below_one_half_refused(self, animals):
        with pytest.raises(ValueError, match="tau"):
            assign(np.full((1, 7), 1 / 7), animals, 0.4)


class TestSplLog:
    def test_first_assignment_inserted(self):
        log = new_log()
        log_chain(log, 11, (BIRD,), epoch=7)
        assert logged(log, BIRD, 11) == 7

    def test_reassignment_keeps_first_epoch(self):
        log = new_log()
        log_chain(log, 11, (BIRD,), epoch=3)
        log_chain(log, 11, (BIRD,), epoch=7)
        assert logged(log, BIRD, 11) == 3

    def test_removal_and_reassignment(self):
        log = new_log()
        log_chain(log, 11, (BIRD,), epoch=3)
        log_chain(log, 11, (), epoch=7)
        assert logged(log, BIRD, 11) is None
        log_chain(log, 11, (BIRD,), epoch=9)
        assert logged(log, BIRD, 11) == 9

    def test_other_samples_untouched(self):
        log = new_log()
        log_chain(log, 1, (BIRD,), epoch=1)
        log_chain(log, 2, (BIRD, JUNCO), epoch=2)
        log_chain(log, 1, (), epoch=3)
        assert logged(log, BIRD, 2) == 2 and logged(log, JUNCO, 2) == 2
        assert len(log.state_dict()["node"]) == 2

    def test_epochs_per_node(self):
        log = new_log()
        log_chain(log, 1, (BIRD,), epoch=1)
        log_chain(log, 2, (BIRD,), epoch=4)
        state = log.state_dict()
        assert sorted(state["epoch"][state["node"] == BIRD].tolist()) == [1, 4]

    def test_history_keeps_first_assignment_ever(self):
        log = new_log()
        for chain, epoch in (((BIRD,), 2), ((), 3), ((BIRD, JUNCO), 5)):
            log_chain(log, 4, chain, epoch)
        assert logged(log, BIRD, 4, history=True) == 2 and logged(log, JUNCO, 4, history=True) == 5

    def test_sparse_state_roundtrip(self):
        log = SplLog(np.array([30, 10, 20], dtype=np.uint64), DEPTHS, dtype=np.int8)
        update_log(log, np.array([0, 2]), np.vstack([table(BIRD, JUNCO), table(MAMMAL)]), 6)
        state = log.state_dict()
        assert state["sample_id"].tolist() == [30, 30, 20]
        assert state["node"].tolist() == [BIRD, JUNCO, MAMMAL]
        back = SplLog(np.array([20, 30, 10], dtype=np.uint64), DEPTHS, dtype=np.int8)
        back.load_state_dict(state, log.history_state())
        for a, b in ((1, 0), (0, 2)):
            assert back.node[a].tolist() == log.node[b].tolist() and back.first[a].tolist() == log.first[b].tolist()
        history = back.history_state()
        assert history["sample_id"].tolist() == [20, 30, 30] and history["node"].tolist() == [MAMMAL, BIRD, JUNCO]
        assert history["epoch"].dtype == np.int8 and history["epoch"].tolist() == [6, 6, 6]
        with pytest.raises(ValueError, match="no row"):
            SplLog(np.array([10], dtype=np.uint64), DEPTHS).load_state_dict(state, NO_TRIPLES)

    def test_loaded_history_keeps_its_epochs(self):
        """A loaded history entry is older than any entry after the load."""
        log = new_log()
        history = {"sample_id": np.array([4, 4]), "node": np.array([BIRD, JUNCO]), "epoch": np.array([1, 2])}
        log.load_state_dict(NO_TRIPLES, history)
        log_chain(log, 4, (BIRD, JUNCO), epoch=5)
        log_chain(log, 5, (MAMMAL,), epoch=6)
        assert logged(log, BIRD, 4) == 5 and logged(log, JUNCO, 4, history=True) == 2
        assert logged(log, BIRD, 4, history=True) == 1 and logged(log, MAMMAL, 5, history=True) == 6

    def test_state_in_row_then_node_order(self):
        """A chain's deeper node can have the smaller id; the triples still
        come in (row, node) order, as from a dense (row, node) array."""
        log = SplLog(np.arange(2, dtype=np.uint64), np.array([0, 2, 1, 2]))  # node 2 is node 1's parent
        update_log(log, np.array([1, 0]), np.array([[2, 1], [2, 3]]), 3)
        state = log.state_dict()
        assert state["sample_id"].tolist() == [0, 0, 1, 1] and state["node"].tolist() == [2, 3, 1, 2]


class TestInPlaceLogUpdates:
    """assign, update_log, apply_gating and update_cutoffs on chain tables,
    and the history read off the log's entries, give what the nested np.where
    formulas of a dense (row, node) log and history give, epoch after epoch."""

    @given(
        seed=st.integers(0, 10_000),
        tau=st.floats(0.5, 1.0),
        dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
        at_max=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_the_nested_where_formulas(self, seed, tau, dtype, at_max):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(4, 30)))
        n_rows, n_nodes, n = 12, tree.n_nodes, 8
        ids = np.arange(100, 100 + n_rows, dtype=np.uint64)
        log = SplLog(ids, tree.depths, dtype)
        dense_log, dense_history = np.full((2, n_rows, n_nodes), -1, dtype=dtype)
        gate, dense_gate = AgeGateState(1, 0.5), AgeGateState(1, 0.5)
        epochs = list(range(8)) + ([int(np.iinfo(dtype).max)] if at_max else [])
        for epoch in epochs:
            rows = rng.permutation(n_rows)[:n]
            probs = rng.dirichlet(np.full(n_nodes, 0.1), size=n)
            mask = subtree_confidences(probs, tree) > tau
            mask[:, 0] = False
            assigned = assign(probs, tree, tau)
            assert np.array_equal(expand(assigned, n_nodes), mask)

            update_log(log, rows, assigned, epoch)
            current = dense_log[rows]
            dense_log[rows] = np.where(mask, np.where(current < 0, epoch, current), -1)
            current = dense_history[rows]
            dense_history[rows] = np.where(mask & (current < 0), epoch, current)

            gated = apply_gating(assigned, log.first[rows], gate.vector(n_nodes))
            dense_gated = mask & ~(dense_log[rows] > dense_gate.vector(n_nodes))
            assert np.array_equal(expand(gated, n_nodes), dense_gated)

            if epoch != np.iinfo(dtype).max:  # no run of this dtype gets to its maximum
                update_cutoffs(gate, log, epoch)
                for c in range(n_nodes):
                    column = dense_log[:, c]
                    if (column >= 0).any():
                        detected = histogram_scan_cutoff(column[column >= 0], epoch, 1, 0.5)
                        if detected < dense_gate.cutoffs.get(c, math.inf):
                            dense_gate.cutoffs[c] = detected
                assert list(gate.cutoffs.items()) == list(dense_gate.cutoffs.items())

        assert log.first.dtype == dense_log.dtype
        for state, dense in ((log.state_dict(), dense_log), (log.history_state(), dense_history)):
            rows, nodes = np.nonzero(dense >= 0)
            assert state["sample_id"].tolist() == ids[rows].tolist() and state["node"].tolist() == nodes.tolist()
            assert state["epoch"].dtype == dtype and state["epoch"].tolist() == dense[rows, nodes].tolist()


class TestDetectCutoff:
    """update_cutoffs' detection on a log holding a single node."""

    def test_empty_list(self):
        assert one_node_cutoff([], 10, 1, 0.2) == math.inf

    def test_documented_trace(self):
        # bins 0..10; counts 0,2,3,1,0,...: max=3 at bin 2; bin 3 count 1
        # is not below 0.6; bin 4 count 0 is -> left edge 4
        assert one_node_cutoff([1, 1, 2, 2, 2, 3, 10], 10, 1, 0.2) == 4

    def test_leading_zero_bins_never_trigger(self):
        assert one_node_cutoff([5, 5, 5], 20, 1, 0.5) == 6

    def test_growing_counts_return_inf(self):
        assert one_node_cutoff([0, 1, 1, 2, 2, 2], 2, 1, 0.5) == math.inf

    def test_count_equal_to_threshold_continues(self):
        # bin 1 count equals gamma*max exactly: strict < means no cutoff
        # there; the zero bin after it triggers instead
        assert one_node_cutoff([0, 0, 0, 0, 1, 1], 2, 1, 0.5) == 2

    def test_bin_width(self):
        # width 2: bins [0,2),[2,4),[4,6): counts 3,0 -> edge 2
        assert one_node_cutoff([0, 0, 1], 4, 2, 0.5) == 2

    @given(st.integers(0, 20_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_histogram_oracle(self, seed):
        rng = np.random.default_rng(seed)
        current = int(rng.integers(0, 50))
        epochs = rng.integers(0, current + 1, size=int(rng.integers(0, 30))).tolist()
        w = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.01, 0.95))
        assert one_node_cutoff(epochs, current, w, gamma) == histogram_scan_cutoff(epochs, current, w, gamma)

    def test_epoch_beyond_current_rejected(self):
        with pytest.raises(ValueError):
            one_node_cutoff([11], 10, 1, 0.2)


class TestUpdateCutoffs:
    def test_no_entries_keeps_infinity(self):
        gate = AgeGateState(1, 0.2)
        update_cutoffs(gate, new_log(), 10)
        assert gate.vector(7)[BIRD] == math.inf

    def test_detection_sets_cutoff(self):
        gate = AgeGateState(1, 0.2)
        log = new_log()
        for g, e in enumerate([1, 1, 2, 2, 2, 3, 10]):
            log_chain(log, g, (BIRD,), epoch=e)
        update_cutoffs(gate, log, 10)
        assert gate.vector(7)[BIRD] == 4

    def test_cutoff_never_loosens(self):
        gate = AgeGateState(1, 0.2)
        gate.cutoffs[BIRD] = 4.0
        log = new_log()
        for g, e in enumerate([5, 5, 5]):
            log_chain(log, g, (BIRD,), epoch=e)
        update_cutoffs(gate, log, 12)  # detector alone would say 6
        assert gate.vector(7)[BIRD] == 4.0

    def test_each_logged_node_gets_its_column(self):
        rng = np.random.default_rng(23)
        tree = random_tree(rng, 9)
        log = SplLog(np.arange(40), tree.depths, np.int8)
        ends = rng.integers(1, 9, 40)
        within = np.arange(1, tree.max_depth + 1) <= tree.depths[ends, None]
        log.node[...] = np.where(within, tree.ancestors[ends, 1:], -1)
        log.node[log.node == 4] = -1  # a node with no entry gets no cutoff
        log.first[...] = np.where(log.node >= 0, rng.integers(0, 6, log.node.shape), -1)
        gate = AgeGateState(1, 0.2)
        scanned = {c: histogram_scan_cutoff(log.first[log.node == c], 5, 1, 0.2) for c in range(9) if (log.node == c).any()}
        assert update_cutoffs(gate, log, 5) == any(t < math.inf for t in scanned.values())
        assert list(gate.cutoffs.items()) == [(c, t) for c, t in scanned.items() if t < math.inf]
        assert len(scanned) > 3 and 4 not in scanned

    def test_new_nodes_go_last_in_ascending_id_and_tightened_ones_stay(self):
        """The checkpoint's meta holds the cutoffs dict, so its order is part of the checkpoint."""
        log, gate = new_log(), AgeGateState(1, 0.5)
        for sample, node, epoch in [(0, JUNCO, 0), (1, JUNCO, 0), (3, EAGLE, 0), (4, EAGLE, 1), (5, EAGLE, 2),
                                    (6, MAMMAL, 1), (7, MAMMAL, 2), (8, MAMMAL, 3), (9, MAMMAL, 4)]:
            log_chain(log, sample, (node,), epoch)
        assert update_cutoffs(gate, log, 4)  # Mammal's counts 0, 1, 1, 1, 1 never drop
        assert list(gate.cutoffs.items()) == [(EAGLE, 3.0), (JUNCO, 1.0)]
        assert not update_cutoffs(gate, log, 4)

        log_chain(log, 5, (), 5)  # Eagle's epoch-2 entry goes, so its cutoff tightens to 2
        log_chain(log, 2, (BIRD,), 5)
        log_chain(log, 10, (DOG,), 5)
        assert update_cutoffs(gate, log, 6)
        assert list(gate.cutoffs.items()) == [(EAGLE, 2.0), (JUNCO, 1.0), (MAMMAL, 5.0), (BIRD, 6.0), (DOG, 6.0)]
        assert all(type(t) is float for t in gate.cutoffs.values())

    def test_peak_memory_stays_within_ten_logs(self):
        """The (nodes x bins) table of 2,000 nodes over 400 epochs takes 40 times the log's node
        table; built in chunks, update_cutoffs' peak stays within 10 times it."""
        rng = np.random.default_rng(5)
        log = SplLog(np.arange(10_000), np.full(2_001, 2), np.int16)
        log.node[...] = rng.integers(1, 2_001, log.node.shape)
        log.first[...] = rng.integers(0, 400, log.node.shape)
        assert len(np.unique(log.node)) * 400 * 8 >= 20 * log.node.nbytes
        tracemalloc.start()
        try:
            update_cutoffs(AgeGateState(1, 0.5), log, 399)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * log.node.nbytes


class TestGateState:
    def test_load_takes_zero_and_infinity(self):
        gate = AgeGateState()
        gate.load_state_dict({"bin_width": 2, "drop_threshold": 0.3, "cutoffs": {str(CAT): 0.0, str(BIRD): math.inf}})
        assert gate == AgeGateState(2, 0.3, cutoffs={CAT: 0.0, BIRD: math.inf})


class TestApplyGating:
    def test_post_cutoff_nodes_dropped(self):
        log = new_log()
        log_chain(log, 5, (BIRD,), epoch=2)
        log_chain(log, 5, (BIRD, JUNCO), epoch=9)
        gate = AgeGateState(1, 0.2, cutoffs={JUNCO: 4.0})
        assert gate_chain((BIRD, JUNCO), log, gate, 5) == (BIRD,)

    def test_all_infinite_cutoffs_identity(self):
        log = new_log()
        log_chain(log, 5, (BIRD, JUNCO), epoch=2)
        gate = AgeGateState(1, 0.2)
        assert gate_chain((BIRD, JUNCO), log, gate, 5) == (BIRD, JUNCO)

    def test_boundary_epoch_kept(self):
        log = new_log()
        log_chain(log, 5, (JUNCO,), epoch=4)
        gate = AgeGateState(1, 0.2, cutoffs={JUNCO: 4.0})
        assert gate_chain((JUNCO,), log, gate, 5) == (JUNCO,)

    def test_reassignment_after_cutoff_blocked(self):
        log = new_log()
        log_chain(log, 5, (JUNCO,), epoch=2)
        log_chain(log, 5, (), epoch=6)  # removed
        log_chain(log, 5, (JUNCO,), epoch=8)  # re-added late
        gate = AgeGateState(1, 0.2, cutoffs={JUNCO: 4.0})
        assert gate_chain((JUNCO,), log, gate, 5) == ()
