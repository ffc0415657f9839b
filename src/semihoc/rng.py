"""Seeded randomness: named substreams and the FNV-1a content hash.

Every stochastic component draws from its own named stream derived from the
single run seed, so changing how one component consumes randomness never
perturbs the others (e.g. a training method that skips unlabeled forwards
still sees the same labeled batches and dropout masks).
"""

from __future__ import annotations

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Generator for the substream `name` of the run seed."""
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, fnv1a_64(name.encode())]))


def advanced(gen: np.random.Generator, steps: int, copy: np.random.Generator) -> np.random.Generator:
    """`copy`, a generator the caller keeps, set to stand where `gen` will
    after `steps` more steps of its bit generator, one per float64 uniform;
    `gen` does not move. Setting its state takes about 7 µs, seeding a new
    PCG64 about 25 µs (timeit, numpy 2.4, 2-core x86 host). The stream must
    hold no buffered 32-bit half, which only integer draws of 32 bits or
    fewer leave behind: advancing drops it."""
    copy.bit_generator.state = gen.bit_generator.state
    copy.bit_generator.advance(steps)
    return copy


class StreamSet:
    """Lazily created named substreams of one seed, with state snapshots.

    Snapshots are what checkpoints store; restoring them resumes every
    stream exactly where the interrupted run left it.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            self._streams[name] = named_rng(self.seed, name)
        return self._streams[name]

    def state_dict(self) -> dict:
        return {name: gen.bit_generator.state for name, gen in self._streams.items()}

    def load_state_dict(self, states: dict) -> None:
        """Set each named stream to its state, which load_checkpoint has checked."""
        for name, state in states.items():
            self.get(name).bit_generator.state = state
