"""The input-preload pattern: table slicing matches the byte formula."""

import random

import pytest

from repro.systems.base import input_pattern


def _formula(address, size):
    """The pattern's definition, one byte at a time."""
    return bytes(((address + i) * 31 + 7) % 251 + 1 for i in range(size))


class TestInputPattern:
    def test_matches_formula_on_random_regions(self):
        rng = random.Random(2020)
        for _ in range(300):
            address = rng.randrange(1 << 40)
            size = rng.choice([rng.randrange(600),
                               rng.randrange(64 * 1024, 200 * 1024)])
            assert input_pattern(address, size) == _formula(address, size)

    @pytest.mark.parametrize("address,size", [
        (0, 0), (0, 1), (250, 1), (250, 2), (251, 251), (7, 502),
        (1, 64 * 1024), (123, 64 * 1024 + 1), (0, 300 * 1024)])
    def test_period_boundaries_and_large_sizes(self, address, size):
        assert input_pattern(address, size) == _formula(address, size)

    def test_bytes_are_never_zero(self):
        assert 0 not in input_pattern(5, 4096)
