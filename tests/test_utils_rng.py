"""Tests for the seeded randomness helpers."""

import numpy as np
import pytest

from repro.utils.rng import RandomState, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_different_labels_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_base_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    def test_returns_32bit_range(self):
        seed = derive_seed(123456789, "component", 99)
        assert 0 <= seed < 2**32

    def test_accepts_arbitrary_label_types(self):
        assert isinstance(derive_seed(1, ("x", 2), 3.5, None), int)


class TestRandomState:
    def test_same_seed_same_stream(self):
        a = RandomState(5)
        b = RandomState(5)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        assert RandomState(1).random() != RandomState(2).random()

    def test_child_is_deterministic(self):
        a = RandomState(3).child("x", 1)
        b = RandomState(3).child("x", 1)
        assert a.random() == b.random()

    def test_child_differs_from_parent(self):
        parent = RandomState(3)
        child = parent.child("x")
        assert parent.seed != child.seed

    def test_integers_within_bounds(self):
        rng = RandomState(0)
        values = [rng.integers(0, 10) for _ in range(100)]
        assert all(0 <= v < 10 for v in values)

    def test_uniform_within_bounds(self):
        rng = RandomState(0)
        values = [rng.uniform(2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= v <= 3.0 for v in values)

    def test_sample_returns_distinct_items(self):
        rng = RandomState(0)
        sample = rng.sample(range(20), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_sample_too_many_raises(self):
        with pytest.raises(ValueError):
            RandomState(0).sample([1, 2, 3], 4)

    def test_shuffle_preserves_elements(self):
        rng = RandomState(0)
        original = list(range(30))
        shuffled = rng.shuffle(original)
        assert sorted(shuffled) == original
        assert original == list(range(30))  # input untouched

    def test_normal_shape(self):
        rng = RandomState(0)
        out = rng.normal(0.0, 1.0, size=(3, 4))
        assert out.shape == (3, 4)

    def test_choice_with_probabilities(self):
        rng = RandomState(0)
        picks = rng.choice([0, 1], size=200, p=[0.0, 1.0])
        assert np.all(np.asarray(picks) == 1)

    def test_generator_property(self):
        assert isinstance(RandomState(0).generator, np.random.Generator)

    def test_generator_is_built_on_the_first_draw(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        leaf = RandomState(3).child("a").child("b", 1).child(2)
        assert built == []
        draws = [leaf.random(), leaf.integers(0, 100), leaf.uniform(), float(leaf.normal())]
        assert built == [leaf.seed]
        expected = default_rng(leaf.seed)
        assert draws == [
            expected.random(),
            int(expected.integers(0, 100)),
            expected.uniform(),
            float(expected.normal()),
        ]
        assert leaf.generator is leaf.generator
        assert built == [leaf.seed]
