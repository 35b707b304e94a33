"""The span enumerator against a Python-integer odometer.

Word i of rowspan(R) is digits(i) · R mod p, digits(i) being the base-p
digits of i with digit 0 most significant.  The oracle computes that sum
in Python integers, word by word, so it shares nothing with the engine's
table, its narrow dtypes or its one-digit range above the table cap.  The
primes straddle each dtype and cap boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho.fplinalg import _SpanEnumerator

PRIMES = (2, 3, 17, 251, 257, 65521, 65537, 2**31 - 1)


def odometer(R, n, p, start, stop):
    rank = len(R)
    out = []
    for i in range(start, stop):
        digits = [i // p ** (rank - 1 - j) % p for j in range(rank)]
        out.append([sum(d * row[c] for d, row in zip(digits, R)) % p for c in range(n)])
    return out


@st.composite
def windows(draw):
    p = draw(st.sampled_from(PRIMES))
    rank = draw(st.integers(0, 6))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = rng.integers(0, p, size=(rank, n), dtype=np.int64)
    enum = _SpanEnumerator(R, p)
    # a window of up to ~1.2 one-digit-range blocks, placed around a block boundary
    length = draw(st.integers(0, 5000))
    boundary = draw(st.integers(0, enum.total // enum.radix)) * enum.radix
    start = max(0, boundary - draw(st.integers(0, length)))
    return enum, R.tolist(), p, start, start + length


@settings(max_examples=60, deadline=None)
@given(windows())
def test_blocks_and_weights_match_the_odometer(window):
    enum, R, p, start, stop = window
    expected = odometer(R, enum.n, p, start, min(stop, enum.total))
    words = []
    for pos, block in enum.blocks(start, stop):
        # each block starts where the last ended and is never empty
        assert pos == start + len(words) and len(block) > 0
        assert block.dtype == np.int64 and block.shape[1:] == (enum.n,)
        words.extend(block.tolist())
    assert words == expected
    weights = [int(w) for _, bases, low in enum.segments(start, stop) for w in enum.weights(bases, low)]
    assert weights == [sum(1 for x in word if x) for word in expected]


def test_table_stays_under_the_cap():
    # the table never holds more than 2^15 words, whatever p and rank
    for p in (2, 251, 257, 32749, 65521, 2**31 - 1):
        enum = _SpanEnumerator(np.ones((8, 3), dtype=np.int64), p)
        assert enum.radix <= max(p, 1 << 15)
        if enum.table is not None:
            assert enum.table.shape == (3, enum.radix)
            assert enum.table.dtype == (np.uint8 if p < 256 else np.uint16)
        else:
            assert p > 1 << 15 and enum.radix == p


def test_segments_are_few():
    # a table of fewer than 2^15 words is shared by several prefixes, so a
    # range takes at most one segment per 2^12 words, plus one per prefix end
    # (a prefix holds at least 2^15 words) and one for each end of the range
    rng = np.random.default_rng(5)
    for p, rank in ((37, 4), (199, 3), (701, 2), (4093, 2), (65537, 2)):
        enum = _SpanEnumerator(rng.integers(0, p, size=(rank, 4), dtype=np.int64), p)
        start, words = 12345, 300_000
        sizes = [len(bases) * part.shape[1] for _, bases, part in enum.segments(start, start + words)]
        assert sum(sizes) == words
        assert len(sizes) <= 2 + words // (1 << 12) + words // (1 << 15)
