import math

import numpy as np
import pytest

from semihoc.datagen import SyntheticConfig, generate, sample_labeled_subset
from semihoc.hierarchy import Hierarchy
from semihoc.spl import AgeGateState, SplLog, update_cutoffs


def example_tree() -> Hierarchy:
    """Seven-node animal tree used throughout the tests."""
    names = ["Root", "Mammal", "Bird", "Cat", "Dog", "Eagle", "Junco"]
    parents = [-1, 0, 0, 1, 1, 2, 2]
    return Hierarchy(parents, names, id_leaves=[3, 4, 5, 6])


def one_node_cutoff(epochs, current_epoch: int, bin_width: int, drop_threshold: float) -> float:
    """The cutoff update_cutoffs gives node 1 of a log holding it on one row per epoch in `epochs`."""
    log = SplLog(np.arange(len(epochs)), np.array([0, 1]))
    log.node[:, 0], log.first[:, 0] = 1, epochs
    gate = AgeGateState(bin_width, drop_threshold)
    update_cutoffs(gate, log, current_epoch)
    return gate.cutoffs.get(1, math.inf)


@pytest.fixture(scope="session")
def animals():
    """Root -> {Mammal, Bird}; Mammal -> {Cat, Dog}; Bird -> {Eagle, Junco}."""
    return example_tree()


@pytest.fixture(scope="session")
def tiny_data():
    """Small generated dataset shared by trainer-level tests."""
    config = SyntheticConfig(
        branching=2, depth=3, feature_dim=8, train_per_leaf=8, test_per_leaf=4, seed=1
    )
    hierarchy, dataset = generate(config)
    dataset = sample_labeled_subset(dataset, hierarchy, 3, seed=1)
    return hierarchy, dataset


@pytest.fixture(autouse=True)
def _silence_pruning_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="some internal nodes keep only one ID leaf")
        yield


def rng(seed=0):
    return np.random.default_rng(seed)
