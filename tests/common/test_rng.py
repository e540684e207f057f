"""Deterministic RNG helper tests."""

from repro.common.rng import perturbation_seeds, substream


class TestSubstream:
    def test_same_lane_same_stream(self):
        a = substream(1, 2, 3)
        b = substream(1, 2, 3)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_lanes_decorrelated(self):
        a = substream(1, 2, 3)
        b = substream(1, 2, 4)
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_adjacent_seeds_decorrelated(self):
        a = substream(1)
        b = substream(2)
        assert abs(a.random() - b.random()) > 1e-9


class TestPerturbationSeeds:
    def test_distinct(self):
        seeds = perturbation_seeds(42, 10)
        assert len(set(seeds)) == 10

    def test_reproducible(self):
        assert perturbation_seeds(42, 5) == perturbation_seeds(42, 5)

