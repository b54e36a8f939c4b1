"""Draw-contract conformance: a plain-numpy Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) reproduces the engine's
uniform blocks bit for bit.  Every report rests on numpy's Philox and
Generator.random; a change to either fails here instead of silently changing
every CSV.  Test-only: it is far slower than numpy's C generator."""

import numpy as np
import pytest

from ordmatch import RandomStream, estimator

MASK32 = np.uint64(2**32 - 1)
MASK64 = 2**64 - 1
PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def mulhilo(a, b):
    """High and low 64-bit words of the 128-bit products a * b (b an array)."""
    a_lo, a_hi = a & MASK32, a >> np.uint64(32)
    b_lo, b_hi = b & MASK32, b >> np.uint64(32)
    mid = a_hi * b_lo + ((a_lo * b_lo) >> np.uint64(32))
    mid2 = a_lo * b_hi + (mid & MASK32)
    return a_hi * b_hi + (mid >> np.uint64(32)) + (mid2 >> np.uint64(32)), a * b


def philox_uniforms(seed: int, stream: int, d: int) -> np.ndarray:
    """The first d draws of Generator(Philox(key=(seed, stream))).random():
    counter blocks 1, 2, ... (the counter is bumped before each block), ten
    rounds with the key bumped between rounds, four words per block in order,
    and (word >> 11) * 2**-53 per double."""
    blocks = -(-d // 4)
    zero = np.zeros(blocks, dtype=np.uint64)
    ctr = [np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero]
    k0, k1 = seed, stream
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
        hi0, lo0 = mulhilo(PHILOX_M[0], ctr[0])
        hi1, lo1 = mulhilo(PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(k0), lo1, hi0 ^ ctr[3] ^ np.uint64(k1), lo0]
    words = np.stack(ctr, axis=-1).reshape(-1)[:d]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


@pytest.mark.parametrize("d", [40, 500, 1200])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_reused_block_matches_plain_philox(seed, d):
    # chunks of 3 over 5 trials: the last chunk is short and refills only
    # the first two rows of a buffer that starts out as NaN
    block = np.full((3, d), np.nan)
    for t0, t1 in estimator._plan(5, 3):
        filled = estimator._fill_trial_blocks(seed, t0, block[: t1 - t0])
        assert np.shares_memory(filled, block)
        for k, t in enumerate(range(t0, t1)):
            expected = philox_uniforms(seed, t, d)
            assert filled[k].view(np.uint64).tolist() == expected.view(np.uint64).tolist()
            assert np.array_equal(RandomStream(seed, t).generator().random(d), expected)
    assert not np.isnan(block).any()
