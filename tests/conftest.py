import numpy as np
import pytest

from semihoc.datagen import SyntheticConfig, generate, sample_labeled_subset
from semihoc.hierarchy import Hierarchy


def example_tree() -> Hierarchy:
    """Seven-node animal tree used throughout the tests."""
    names = ["Root", "Mammal", "Bird", "Cat", "Dog", "Eagle", "Junco"]
    parents = [-1, 0, 0, 1, 1, 2, 2]
    return Hierarchy(parents, names, id_leaves=[3, 4, 5, 6])


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
