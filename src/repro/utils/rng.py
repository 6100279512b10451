"""Deterministic random-number management.

Every stochastic component of the library accepts either an integer seed or
a :class:`numpy.random.Generator`.  The helpers here normalise both into a
generator and support spawning independent child streams so that, for
example, every model in the hub fine-tunes with its own reproducible
stream regardless of evaluation order.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` creates a non-deterministic generator, an ``int`` seeds a new
    PCG64 generator and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, *labels: object) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    The child stream is keyed by the stable (process-independent) hash of
    ``labels`` so that the same parent seed and labels always produce the
    same child stream, no matter how many other streams were drawn in
    between or which process draws them.
    """
    key = _stable_hash("/".join(str(label) for label in labels))
    base = int(rng.integers(0, 2**31 - 1)) if not labels else 0
    seed_seq = np.random.SeedSequence(entropy=key + base)
    return np.random.default_rng(seed_seq)


class RngFactory:
    """Factory producing named, reproducible random streams.

    A factory is constructed from a single root seed; asking twice for the
    same ``name`` returns generators with identical streams.  This is used
    by the model hub so that e.g. fine-tuning ``bert-base`` on ``mnli`` is
    reproducible independently of all other (model, dataset) pairs.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """Root seed the factory was created with."""
        return self._root_seed

    def named(self, *labels: object) -> np.random.Generator:
        """Return a generator keyed by ``labels`` (and the root seed)."""
        key = "/".join(str(label) for label in labels)
        entropy = (self._root_seed, _stable_hash(key))
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    def seed_for(self, *labels: object) -> int:
        """Return a stable integer seed keyed by ``labels``."""
        key = "/".join(str(label) for label in labels)
        return (_stable_hash(key) ^ self._root_seed) % (2**31 - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RngFactory(root_seed={self._root_seed})"


def _stable_hash(text: str) -> int:
    """Hash ``text`` into a non-negative integer, stable across processes."""
    value = 2166136261
    for char in text.encode("utf-8"):
        value ^= char
        value = (value * 16777619) % (2**32)
    return value


def stable_hash(text: str) -> int:
    """Public alias of the FNV-1a hash used to key random streams."""
    return _stable_hash(text)


def optional_seed(seed: SeedLike, fallback: Optional[int] = None) -> SeedLike:
    """Return ``seed`` if given, otherwise ``fallback``."""
    return fallback if seed is None else seed
