"""Bounded blocks of ragged row groups (generator tuples by first index,
l1-shells, stacks of subspaces) and the repeat expansion that builds rows."""

import numpy as np

# a block holds about this many rows
BLOCK_ROWS = 1 << 12


def blocks(sizes):
    """(lo, hi) ranges of consecutive groups of the given sizes, each holding
    at most BLOCK_ROWS rows, or a single group that exceeds it."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + BLOCK_ROWS, "right")))
        yield lo, hi
        lo = hi


def expand(count: np.ndarray):
    """Row i repeated count[i] times: the parent row of each new row, and its
    offset 0..count[i]-1 within the repeats."""
    parent = np.repeat(np.arange(len(count)), count)
    return parent, np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
