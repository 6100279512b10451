"""Simulated pre-trained models.

A :class:`PretrainedModel` stands in for a HuggingFace checkpoint.  It owns:

* a *domain vector* describing which latent concepts its (synthetic)
  pre-training and fine-tuning history covered;
* an *encoder* that amplifies those concepts and attenuates the rest, with
  representation noise inversely related to the checkpoint's quality;
* a *source head*: a classifier over the model's own source label space,
  trained on synthetic source data drawn from the model's domain — this is
  what LEEP-style proxy scores evaluate on target samples.

Fine-tuning a model on a task (see :mod:`repro.zoo.finetune`) trains a new
head on the encoder output, so transfer performance is governed by how much
of the task's class signal survives the encoder — i.e. by domain overlap and
encoder quality, reproducing the structure the paper exploits.
"""

from __future__ import annotations

import threading
import zlib
from typing import Optional

import numpy as np

from repro.data.domain import DomainSpace
from repro.data.tasks import TaskSpec, generate_task
from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError, DataError
from repro.zoo.catalog import ModelCatalogEntry

#: Gain floor applied to concepts outside the model's domain: even a poorly
#: matched encoder does not erase all information, it just attenuates it.
_GAIN_FLOOR = 0.08
#: Saturation constant of the concept-coverage curve.
_COVERAGE_TAU = 0.045

#: The hash constants of numpy's ``SeedSequence`` (``bit_generator.pyx``),
#: which :func:`_seed_sequence_state` replays over arrays.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
#: Multiplier of PCG64's 128-bit LCG step (``pcg64.h``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, steps: int) -> np.ndarray:
    """The successive values a SeedSequence hash constant takes."""
    chain = [init]
    for _ in range(steps):
        chain.append((chain[-1] * mult) & _MASK32)
    return np.array(chain, dtype=np.uint32)


#: ``mix_entropy`` steps its constant once per hash: 4 to fill the pool of 4
#: words, then 12 in the all-pairs mix.  ``generate_state`` steps its own
#: constant once per output uint32 word: 8 words make 4 uint64 words.
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, 16)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _seed_sequence_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(int(v)).generate_state(4, np.uint64)`` for every ``v``.

    ``entropy`` is a uint32 array; the result is ``(len(entropy), 4)``
    uint64.  The hash constants SeedSequence steps through do not depend on
    the entropy, so every step of its scalar algorithm for a one-word
    entropy becomes one uint32 array operation over all rows (uint32
    arithmetic wraps exactly as the C code does).
    """
    words = np.asarray(entropy, dtype=np.uint32)
    pool = np.zeros((4, words.size), dtype=np.uint32)
    pool[0] = words
    # mix_entropy: hash the entropy word and three zero pad words ...
    pool = _hashmix(pool, _CHAIN_A[0:4, None], _CHAIN_A[1:5, None])
    # ... then mix every word into every other.  Within one source word
    # the three destinations are independent, so they update together.
    step = 4
    for src in range(4):
        dst = [word for word in range(4) if word != src]
        hashed = _hashmix(
            pool[src], _CHAIN_A[step : step + 3, None], _CHAIN_A[step + 1 : step + 4, None]
        )
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
        step += 3
    # generate_state(4, uint64): 8 uint32 words cycling over the pool,
    # paired little-endian into uint64 words as numpy does.
    state = _hashmix(
        pool[[0, 1, 2, 3, 0, 1, 2, 3]], _CHAIN_B[0:8, None], _CHAIN_B[1:9, None]
    )
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


class PretrainedModel:
    """One simulated checkpoint of the model repository.

    Parameters
    ----------
    entry:
        The catalogue entry describing the checkpoint.
    space:
        Domain space shared with the workload suite of the same modality.
    domain:
        Non-negative, unit-sum concept coverage of the checkpoint.
    hidden_dim:
        Dimensionality of the encoder output (the "CLS embedding" stand-in).
    rng:
        Generator controlling the encoder projection, representation noise
        and the source-head training data.
    """

    def __init__(
        self,
        entry: ModelCatalogEntry,
        space: DomainSpace,
        domain: np.ndarray,
        *,
        hidden_dim: int = 24,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if entry.modality != space.modality:
            raise ConfigurationError(
                f"model {entry.name!r} is {entry.modality!r} but the domain space "
                f"is {space.modality!r}"
            )
        if hidden_dim < 4:
            raise ConfigurationError("hidden_dim must be at least 4")
        self.entry = entry
        self.space = space
        self.domain = space.normalize_domain(domain)
        self.hidden_dim = int(hidden_dim)
        self._rng = rng if rng is not None else np.random.default_rng(0)

        coverage = self.domain / (self.domain + _COVERAGE_TAU)
        self.concept_gains = _GAIN_FLOOR + (1.0 - _GAIN_FLOOR) * coverage
        self.concept_gains *= 0.35 + 0.65 * entry.quality

        projection = self._rng.normal(size=(space.num_concepts, hidden_dim))
        q, _ = np.linalg.qr(projection)
        self.projection = q[:, : min(hidden_dim, space.num_concepts)]
        if self.projection.shape[1] < hidden_dim:
            pad = self._rng.normal(
                scale=0.05, size=(space.num_concepts, hidden_dim - self.projection.shape[1])
            )
            self.projection = np.concatenate([self.projection, pad], axis=1)
        self.representation_noise = 0.3 + 1.4 * (1.0 - entry.quality)
        self._noise_key = int(self._rng.integers(0, 2**31 - 1))
        self._source_head: Optional[MLPClassifier] = None
        self._head_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The head lock serialises lazy source-head training (it consumes the
    # model's own RNG stream) so concurrent proxy scoring cannot race it;
    # it is recreated, not copied, across pickling so models can cross
    # process boundaries with the fork-based executor.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_head_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._head_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Full checkpoint name (repository/model)."""
        return self.entry.name

    @property
    def short_name(self) -> str:
        """Checkpoint name without the repository prefix."""
        return self.entry.short_name

    @property
    def modality(self) -> str:
        """``"nlp"`` or ``"cv"``."""
        return self.entry.modality

    @property
    def quality(self) -> float:
        """Encoder quality in ``(0, 1]``."""
        return self.entry.quality

    @property
    def num_source_classes(self) -> int:
        """Label-space size of the model's source head."""
        return self.entry.source_classes

    # ------------------------------------------------------------------ #
    def encode(self, features: np.ndarray, *, deterministic: bool = True) -> np.ndarray:
        """Map raw features to the model's representation space.

        The encoder projects onto concept coordinates, scales each concept
        by the model's gain (how well the checkpoint covers it), projects
        into the hidden space and applies a mild saturation.  Noise is
        deterministic per input by default so repeated encodings of the
        same sample agree (as a frozen real encoder would).
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.space.feature_dim:
            raise DataError(
                f"expected features of shape (n, {self.space.feature_dim}), "
                f"got {features.shape}"
            )
        concepts = self.space.project(features)
        gained = concepts * self.concept_gains[None, :]
        hidden = gained @ self.projection
        hidden = np.tanh(hidden / 2.0) * 2.0
        if self.representation_noise > 0:
            noise = self._deterministic_noise(features, hidden.shape)
            hidden = hidden + self.representation_noise * noise
        return hidden

    def _deterministic_noise(self, features: np.ndarray, shape) -> np.ndarray:
        """Noise that is reproducible per input row yet statistically white.

        Each row is hashed (together with a per-model key) into a seed, and
        the row's noise is the first draws of ``np.random.default_rng(seed)``
        — so encoding the same sample twice yields the same representation,
        as a frozen real encoder would, while the noise carries no
        information about the class signal.  The seeds of all rows go
        through SeedSequence in one batch; one PCG64, local to the call, is
        then set to each row's seeded state and draws that row.
        """
        noise = np.empty(shape)
        rounded = np.ascontiguousarray(np.round(features, decimals=8))
        digests = np.fromiter(map(zlib.crc32, rounded), dtype=np.uint32, count=shape[0])
        seeds = (digests ^ np.uint32(self._noise_key & _MASK32)) & np.uint32(0x7FFFFFFF)
        bit_generator = np.random.PCG64(0)
        draw = np.random.Generator(bit_generator).standard_normal
        words = _seed_sequence_state(seeds).tolist()
        for out, (state_hi, state_lo, seq_hi, seq_lo) in zip(noise, words):
            # PCG64's seeding step: inc = 2 * initseq + 1, one LCG step from
            # zero, add initstate, one more step.
            inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
            state = ((inc + ((state_hi << 64) | state_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            draw(out=out)
        return noise

    # ------------------------------------------------------------------ #
    def source_head(self) -> MLPClassifier:
        """Classifier over the model's source label space (lazily trained).

        Training happens exactly once, under a lock: the fit consumes the
        model's RNG stream, so an unguarded race would make the head's
        weights depend on thread interleaving and break the parallel ==
        serial guarantee of :mod:`repro.parallel`.
        """
        if self._source_head is None:
            with self._head_lock:
                if self._source_head is None:
                    self._source_head = self._train_source_head()
        return self._source_head

    def _train_source_head(self) -> MLPClassifier:
        spec = TaskSpec(
            name=f"{self.entry.short_name}::source",
            modality=self.modality,
            domain=self.domain,
            num_classes=self.num_source_classes,
            num_train=40 * self.num_source_classes,
            num_val=self.num_source_classes * 4,
            num_test=self.num_source_classes * 4,
            noise=0.9,
            separation=1.8,
            role="benchmark",
        )
        source_task = generate_task(spec, self.space, self._rng)
        encoded = self.encode(source_task.train.features)
        head = MLPClassifier(
            input_dim=self.hidden_dim,
            num_classes=self.num_source_classes,
            optimizer="adam",
            learning_rate=5e-2,
            rng=self._rng,
        )
        head.fit(encoded, source_task.train.labels, epochs=6, batch_size=32)
        return head

    def source_posterior(self, features: np.ndarray) -> np.ndarray:
        """Source-label probabilities for raw target features.

        This is the "dummy label distribution" LEEP evaluates: the frozen
        checkpoint's own classifier applied to the new task's inputs.
        """
        encoded = self.encode(features)
        return self.source_head().predict_proba(encoded)

    def domain_affinity(self, task_domain: np.ndarray) -> float:
        """Cosine affinity between this model's domain and a task domain."""
        return DomainSpace.domain_affinity(self.domain, task_domain)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PretrainedModel(name={self.name!r}, modality={self.modality!r}, "
            f"quality={self.quality:.2f})"
        )
