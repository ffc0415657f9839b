import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihoc.hierarchy import random_tree
from semihoc.oracles import histogram_scan_cutoff
from semihoc.prohoc import fuse_batch
from semihoc.spl import (
    AgeGateState,
    SplLog,
    apply_gating,
    assign,
    compute_spls_batch,
    detect_cutoff,
    update_cutoffs,
    update_history,
    update_log,
)

ROOT, MAMMAL, BIRD, CAT, DOG, EAGLE, JUNCO = range(7)


def chain_of(p, tree, tau):
    """Assigned nodes of one node distribution, shallow to deep."""
    return compute_spls_batch(p[None], tree, tau)[0].nodes


def mask(*nodes):
    """One-row assignment mask over the animal tree."""
    out = np.zeros((1, 7), dtype=bool)
    out[0, list(nodes)] = True
    return out


def new_log():
    """Log over the animal tree whose row r holds sample id r."""
    return SplLog(np.arange(12, dtype=np.uint64), 7)


def logged(log, node, sample):
    epoch = int(log.first[sample, node])
    return None if epoch < 0 else epoch


def log_chain(log, sample, chain, epoch):
    update_log(log, np.array([sample]), mask(*chain), epoch)


def gate_chain(chain, log, gate, sample):
    gated = apply_gating(mask(*chain), log.first[[sample]], gate.vector(7))
    return tuple(np.flatnonzero(gated[0]).tolist())


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
        assigned = assign(probs, animals, 0.6)
        for row, chain in zip(assigned, compute_spls_batch(probs, animals, 0.6)):
            assert set(chain.nodes) == set(np.flatnonzero(row).tolist())
            assert list(chain.nodes) == sorted(chain.nodes, key=lambda c: (animals.depths[c], c))


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
        assert len(log) == 2

    def test_epochs_per_node(self):
        log = new_log()
        log_chain(log, 1, (BIRD,), epoch=1)
        log_chain(log, 2, (BIRD,), epoch=4)
        column = log.first[:, BIRD]
        assert sorted(column[column >= 0].tolist()) == [1, 4]

    def test_history_keeps_first_assignment_ever(self):
        history = new_log()
        for chain, epoch in (((BIRD,), 2), ((), 3), ((BIRD, JUNCO), 5)):
            update_history(history, np.array([4]), mask(*chain), epoch)
        assert logged(history, BIRD, 4) == 2 and logged(history, JUNCO, 4) == 5

    def test_sparse_state_roundtrip(self):
        log = SplLog(np.array([30, 10, 20], dtype=np.uint64), 7, dtype=np.int8)
        update_log(log, np.array([0, 2]), np.vstack([mask(BIRD, JUNCO), mask(MAMMAL)]), 6)
        state = log.state_dict()
        assert state["sample_id"].tolist() == [30, 30, 20]
        assert state["node"].tolist() == [BIRD, JUNCO, MAMMAL]
        back = SplLog(np.array([20, 30, 10], dtype=np.uint64), 7, dtype=np.int8)
        back.load_state_dict(state)
        assert back.first[1].tolist() == log.first[0].tolist() and back.first[0].tolist() == log.first[2].tolist()
        with pytest.raises(ValueError, match="no row"):
            SplLog(np.array([10], dtype=np.uint64), 7).load_state_dict(state)


class TestDetectCutoff:
    def test_empty_list(self):
        assert detect_cutoff([], 10, 1, 0.2) == math.inf

    def test_documented_trace(self):
        # bins 0..10; counts 0,2,3,1,0,...: max=3 at bin 2; bin 3 count 1
        # is not below 0.6; bin 4 count 0 is -> left edge 4
        assert detect_cutoff([1, 1, 2, 2, 2, 3, 10], 10, 1, 0.2) == 4

    def test_leading_zero_bins_never_trigger(self):
        assert detect_cutoff([5, 5, 5], 20, 1, 0.5) == 6

    def test_growing_counts_return_inf(self):
        assert detect_cutoff([0, 1, 1, 2, 2, 2], 2, 1, 0.5) == math.inf

    def test_count_equal_to_threshold_continues(self):
        # bin 1 count equals gamma*max exactly: strict < means no cutoff
        # there; the zero bin after it triggers instead
        assert detect_cutoff([0, 0, 0, 0, 1, 1], 2, 1, 0.5) == 2

    def test_bin_width(self):
        # width 2: bins [0,2),[2,4),[4,6): counts 3,0 -> edge 2
        assert detect_cutoff([0, 0, 1], 4, 2, 0.5) == 2

    @given(st.integers(0, 20_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_histogram_oracle(self, seed):
        rng = np.random.default_rng(seed)
        current = int(rng.integers(0, 50))
        epochs = rng.integers(0, current + 1, size=int(rng.integers(0, 30))).tolist()
        w = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.01, 0.95))
        assert detect_cutoff(epochs, current, w, gamma) == histogram_scan_cutoff(epochs, current, w, gamma)

    def test_epoch_beyond_current_rejected(self):
        with pytest.raises(ValueError):
            detect_cutoff([11], 10, 1, 0.2)


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
