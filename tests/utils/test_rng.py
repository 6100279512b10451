"""Tests for repro.utils.rng."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator, spawn_rng, stable_hash


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1000, size=5)
        b = as_generator(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_existing_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert as_generator(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(42)
        a = factory.named("model", "bert").integers(0, 10**6, size=4)
        b = factory.named("model", "bert").integers(0, 10**6, size=4)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        factory = RngFactory(42)
        a = factory.named("model", "bert").integers(0, 10**6, size=8)
        b = factory.named("model", "roberta").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_different_root_seeds_differ(self):
        a = RngFactory(1).named("x").integers(0, 10**6, size=8)
        b = RngFactory(2).named("x").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_seed_for_stable(self):
        factory = RngFactory(5)
        assert factory.seed_for("a", 1) == factory.seed_for("a", 1)
        assert factory.seed_for("a", 1) != factory.seed_for("a", 2)

    def test_root_seed_property(self):
        assert RngFactory(9).root_seed == 9


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_distinct_inputs(self):
        assert stable_hash("hello") != stable_hash("world")

    def test_non_negative(self):
        assert stable_hash("anything") >= 0


def test_spawn_rng_returns_generator():
    child = spawn_rng(np.random.default_rng(0), "child")
    assert isinstance(child, np.random.Generator)


def test_spawn_rng_is_stable_across_processes():
    """Child streams must not depend on the interpreter's salted ``hash()``."""
    code = (
        "import numpy as np; from repro.utils.rng import spawn_rng; "
        "print(spawn_rng(np.random.default_rng(0), 'child', 3).integers(0, 1000, size=3))"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    draws = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        draws.append(out.stdout)
    assert draws[0] == draws[1]
