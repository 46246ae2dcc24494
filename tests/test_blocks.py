import numpy as np

from hamlab import blocks
from hamlab.blocks import blocks as block_ranges
from hamlab.blocks import expand


def test_blocks_hold_at_most_the_row_bound(monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
    # a group larger than the bound is a block on its own
    assert list(block_ranges([3, 1, 5, 2, 2, 0, 1])) == [(0, 2), (2, 3), (3, 6), (6, 7)]
    assert list(block_ranges([])) == []
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 1)
    assert list(block_ranges([1, 1, 2])) == [(0, 1), (1, 2), (2, 3)]


def test_expand_repeats_each_row_into_a_range():
    parent, offset = expand(np.array([2, 0, 3, 1]))
    assert parent.tolist() == [0, 0, 2, 2, 2, 3]
    assert offset.tolist() == [0, 1, 0, 1, 2, 0]
