"""Per-row reference loop for the encoder's deterministic noise.

:meth:`repro.zoo.models.PretrainedModel._deterministic_noise` hashes every
row's seed in one batch and reseeds a single generator per row.  This is
the plain loop it must reproduce byte for byte: one fresh
``np.random.default_rng`` per row, seeded by the row's CRC-32 digest.
"""

from __future__ import annotations

import zlib

import numpy as np


def deterministic_noise(features: np.ndarray, noise_key: int, shape) -> np.ndarray:
    """Noise for ``features`` under ``noise_key``, one generator per row."""
    noise = np.empty(shape)
    rounded = np.round(features, decimals=8)
    for row in range(shape[0]):
        digest = zlib.crc32(rounded[row].tobytes()) ^ noise_key
        row_rng = np.random.default_rng(digest & 0x7FFFFFFF)
        noise[row] = row_rng.standard_normal(shape[1])
    return noise
