"""Seeded pseudo-random draws with a fully documented recurrence.

Problem corpora must be reproducible bit-for-bit from a 64-bit seed alone,
so generation uses an explicit linear congruential generator rather than a
library RNG whose stream may change between releases. The recurrence is

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

(Knuth's MMIX constants) and doubles are formed from the top 53 bits.
"""
from __future__ import annotations

import math

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_DENOM = float(1 << 53)


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

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        """Uniform draws in [lo, hi); scalar when size is None."""
        if size is None:
            return lo + (hi - lo) * ((self._next() >> 11) / _DENOM)
        flat = np.array(
            [(self._next() >> 11) / _DENOM for _ in range(_count(size))]
        )
        return lo + (hi - lo) * flat.reshape(size)

    def normal(self, size=None):
        """Standard normal draws via Box-Muller; scalar when size is None."""
        if size is None:
            return self._normal_pair()[0]
        count = _count(size)
        out = np.empty(2 * ((count + 1) // 2))
        for i in range(0, out.size, 2):
            out[i], out[i + 1] = self._normal_pair()
        return out[:count].reshape(size)

    def _normal_pair(self):
        # u1 shifted away from 0 so log() stays finite
        u1 = ((self._next() >> 11) + 1) / (_DENOM + 1)
        u2 = (self._next() >> 11) / _DENOM
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)

    def orthogonal(self, n: int):
        """Random orthogonal matrix from the QR of a Gaussian matrix.

        Signs are fixed so that R has a nonnegative diagonal, which makes the
        factorization (and hence the draw) unique.
        """
        q, r = np.linalg.qr(self.normal((n, n)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs
