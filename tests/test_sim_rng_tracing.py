"""Tests for RNG stream management."""

import pytest

from repro.sim.rng import RngFactory


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(42).stream("io/vm1")
        b = RngFactory(42).stream("io/vm1")
        assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))

    def test_different_names_different_streams(self):
        factory = RngFactory(42)
        a = factory.stream("io/vm1")
        b = factory.stream("io/vm2")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_different_seeds_different_streams(self):
        a = RngFactory(1).stream("x")
        b = RngFactory(2).stream("x")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_child_factory_is_deterministic(self):
        a = RngFactory(7).child("sub").stream("s")
        b = RngFactory(7).child("sub").stream("s")
        assert a.integers(0, 10**9) == b.integers(0, 10**9)

    def test_child_differs_from_parent(self):
        parent = RngFactory(7)
        child = parent.child("sub")
        assert parent.seed != child.seed

    @pytest.mark.parametrize("bad", [-1, 1.5, "x", None])
    def test_invalid_seed_rejected(self, bad):
        with pytest.raises(ValueError):
            RngFactory(bad)
