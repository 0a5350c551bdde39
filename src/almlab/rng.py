"""Seeded pseudo-random draws with a fully documented recurrence.

Problem corpora must be reproducible bit-for-bit from a 64-bit seed alone,
so generation uses an explicit linear congruential generator rather than a
library RNG whose stream may change between releases. The recurrence is

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

(Knuth's MMIX constants) and doubles are formed from the top 53 bits.

Array draws take the same stream in blocks. The state j steps ahead of s
has the closed form a^j s + c (a^(j-1) + ... + 1) mod 2^64 (Knuth, TAOCP
Vol. 2, 3.2.1), so with both coefficients tabulated once for j = 1 .. _BLOCK
a block of states is one wrapping uint64 multiply-add. From those states
the uniforms, the Box-Muller u1, u2 and angles, the square roots and the
products are formed by the same IEEE operations as in the scalar code,
which round exactly alike in NumPy. log, cos and sin stay libm's, through
``math`` mapped over the block: NumPy's own may use SIMD kernels that differ
in the last bit on some CPUs. An array draw therefore returns the values and
leaves the state that one scalar draw after another would. Scalar draws and
arrays of fewer than _SCALAR_BELOW values run the scalar loop, which is the
cheaper of the two at that size.
"""
from __future__ import annotations

import math

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_DENOM = float(1 << 53)
# states per block of an array draw (even, so a block holds whole
# Box-Muller pairs); the jump-ahead tables hold this many entries
_BLOCK = 4096
# array draws of fewer values run the scalar loop: a block has a fixed cost
# of about 15 us, which a scalar loop of about 30 normals (or 10 uniforms)
# matches on a 2-core x86-64 machine with numpy 2.4
_SCALAR_BELOW = 32


def _jump_tables(m: int):
    """uint64 arrays A, C with A[j] = a^(j+1) and C[j] = c (a^j + ... + 1)
    mod 2^64, so that the state j + 1 steps after s is A[j] * s + C[j]."""
    a, c = [1], [0]
    for _ in range(m):
        a.append((_MULT * a[-1]) & _MASK)
        c.append((_MULT * c[-1] + _INC) & _MASK)
    return np.array(a[1:], dtype=np.uint64), np.array(c[1:], dtype=np.uint64)


_JUMP_A, _JUMP_C = _jump_tables(_BLOCK)


def _count(size) -> int:
    """Number of draws for an int or a shape (math.prod: np.prod's array
    round trip costs about a third of a six-draw normal)."""
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


class Lcg:
    """64-bit linear congruential generator producing floats and arrays."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def _next(self) -> int:
        self._state = (_MULT * self._state + _INC) & _MASK
        return self._state

    def _block_tops(self, m: int) -> np.ndarray:
        """Top 53 bits of the next m <= _BLOCK states as (exact) doubles;
        advances the state past them. The multiply-add is an array
        operation, which wraps mod 2^64 silently; on two numpy uint64
        scalars the same overflow would raise a RuntimeWarning."""
        states = _JUMP_A[:m] * np.uint64(self._state) + _JUMP_C[:m]
        self._state = int(states[-1])
        return (states >> np.uint64(11)).astype(float)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        """Uniform draws in [lo, hi); scalar when size is None."""
        if size is None:
            return lo + (hi - lo) * ((self._next() >> 11) / _DENOM)
        count = _count(size)
        if count < _SCALAR_BELOW:
            flat = np.array([(self._next() >> 11) / _DENOM for _ in range(count)])
        else:
            flat = np.empty(count)
            for start in range(0, count, _BLOCK):
                block = flat[start:start + _BLOCK]
                block[:] = self._block_tops(block.size) / _DENOM
        return lo + (hi - lo) * flat.reshape(size)

    def normal(self, size=None):
        """Standard normal draws via Box-Muller; scalar when size is None."""
        if size is None:
            return self._normal_pair()[0]
        count = _count(size)
        # an odd count still consumes the state of the discarded sine
        out = np.empty(2 * ((count + 1) // 2))
        if count < _SCALAR_BELOW:
            for i in range(0, out.size, 2):
                out[i], out[i + 1] = self._normal_pair()
        else:
            for start in range(0, out.size, _BLOCK):
                self._normal_block(out[start:start + _BLOCK])
        return out[:count].reshape(size)

    def _normal_pair(self):
        # u1 shifted away from 0 so log() stays finite
        u1 = ((self._next() >> 11) + 1) / (_DENOM + 1)
        u2 = (self._next() >> 11) / _DENOM
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)

    def _normal_block(self, out: np.ndarray):
        """Fill the even-length view out with the pairs _normal_pair would
        give one at a time, and the same bits: u1, u2 and the angle by the
        same IEEE operations (tops + 1 <= 2^53 is exact), log/cos/sin by
        libm through ``math``."""
        tops = self._block_tops(out.size)
        k = out.size // 2
        u1 = ((tops[0::2] + 1.0) / (_DENOM + 1)).tolist()
        angle = ((2.0 * math.pi) * (tops[1::2] / _DENOM)).tolist()
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), float, k))
        out[0::2] = r * np.fromiter(map(math.cos, angle), float, k)
        out[1::2] = r * np.fromiter(map(math.sin, angle), float, k)

    def orthogonal(self, n: int):
        """Random orthogonal matrix from the QR of a Gaussian matrix.

        Signs are fixed so that R has a nonnegative diagonal, which makes the
        factorization (and hence the draw) unique.
        """
        q, r = np.linalg.qr(self.normal((n, n)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs
