"""Cross-check of the block draws of ``Lcg`` against the scalar generator
they replaced, kept below verbatim as the reference: one LCG step per
Python call and one Box-Muller pair at a time.

Every generated program is set by the bits of this stream, so the
comparison is exact: the same arrays, byte for byte, and the same state
after every draw. The last tests generate programs with the reference
generator (and the former ``_spd_matrix``) patched into ``problems`` and
compare their fingerprints with those of the current code.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from almlab import GeneratorSpec, generate, standard_corpus
from almlab import problems
from almlab import rng as rng_mod
from almlab.rng import Lcg

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_DENOM = float(1 << 53)


def _count(size) -> int:
    """Number of draws for an int or a shape (math.prod: np.prod's array
    round trip costs about a third of a six-draw normal)."""
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


class ReferenceLcg:
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


def reference_spd_matrix(rng, n: int, conditioning) -> np.ndarray:
    """V' D V with orthogonal V and spectrum spread over the given range."""
    lo, hi = conditioning
    eigs = np.linspace(lo, hi, n)
    V = rng.orthogonal(n)
    Q = V @ np.diag(eigs) @ V.T
    return 0.5 * (Q + Q.T)


SEEDS = [0, 1, 12345, 2**63 + 7, _MASK]
_B, _S = rng_mod._BLOCK, rng_mod._SCALAR_BELOW
# both sides of the scalar-loop size and of the block length (in values and,
# for normals, in states), several blocks, a matrix and a 3-D shape
SIZES = [0, 1, 2, 3, _S - 1, _S, _S + 1, _B // 2 - 1, _B // 2 + 1, _B - 2, _B - 1, _B, _B + 1,
         2 * _B + 1, (80, 400), (3, 5, 7)]


def assert_same_draw(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_block_length_and_scalar_size_are_consistent():
    assert _B % 2 == 0 and 0 < _S <= _B
    assert rng_mod._JUMP_A.dtype == rng_mod._JUMP_C.dtype == np.uint64
    assert rng_mod._JUMP_A.shape == rng_mod._JUMP_C.shape == (_B,)


@pytest.mark.parametrize("size", SIZES, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_normal_matches_reference(seed, size):
    got, want = Lcg(seed), ReferenceLcg(seed)
    assert_same_draw(got.normal(size), want.normal(size))
    assert got._state == want._state
    assert got.normal() == want.normal()


@pytest.mark.parametrize("size", SIZES, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_reference(seed, size):
    got, want = Lcg(seed), ReferenceLcg(seed)
    assert_same_draw(got.uniform(size=size), want.uniform(size=size))
    assert got._state == want._state
    assert_same_draw(got.uniform(-0.5, 1.5, size), want.uniform(-0.5, 1.5, size))
    assert got._state == want._state
    assert got.uniform() == want.uniform()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_scalar_and_array_draws_match_reference(seed):
    got, want = Lcg(seed), ReferenceLcg(seed)
    plan = [None, 7, None, _S, 3 * _B + 5, None, (2, _S + 3), 1, _B - 1, None, (4, 4, 4), 0, 2 * _B]
    for k, size in enumerate(plan):
        for kind in ("normal", "uniform"):
            if size is None:
                assert getattr(got, kind)() == getattr(want, kind)(), (k, kind)
            else:
                assert_same_draw(getattr(got, kind)(size=size), getattr(want, kind)(size=size))
            assert got._state == want._state, (k, kind)


def test_orthogonal_matches_reference():
    for n in (1, 5, 6, 7, 40):
        got, want = Lcg(n), ReferenceLcg(n)
        assert_same_draw(got.orthogonal(n), want.orthogonal(n))
        assert got._state == want._state


def _fingerprints(make_programs, monkeypatch):
    """Fingerprints of the current generator's programs and of the
    reference's."""
    current = [prog.fingerprint() for prog in make_programs()]
    with monkeypatch.context() as patched:
        patched.setattr(problems, "Lcg", ReferenceLcg)
        patched.setattr(problems, "_spd_matrix", reference_spd_matrix)
        reference = [prog.fingerprint() for prog in make_programs()]
    return current, reference


# the oracle ladder, sc_qp at the n=50 of a CLI grid, and both sizes of the
# large solves; the seeds include one with the top bit set
GENERATED = {
    "oracle-ladder": [GeneratorSpec("sc_qp", n=20, m1=4, m2=m2, seed=s)
                      for m2 in (3, 6, 9, 12) for s in (0, 1, 2**63 + 7)],
    "sc_qp-n50": [GeneratorSpec("sc_qp", n=50, seed=s) for s in (0, 1, 2**63 + 7)],
    "sc_qp-n200": [GeneratorSpec("sc_qp", n=200, m1=40, m2=80, seed=s) for s in (3, 2**63 + 7)],
    "sc_qp-n400": [GeneratorSpec("sc_qp", n=400, m1=80, m2=160, seed=3)],
}


def test_standard_corpus_keeps_its_fingerprints(monkeypatch):
    current, reference = _fingerprints(standard_corpus, monkeypatch)
    assert len(current) == 31
    assert current == reference


@pytest.mark.parametrize("name", GENERATED)
def test_generated_programs_keep_their_fingerprints(name, monkeypatch):
    current, reference = _fingerprints(lambda: [generate(spec) for spec in GENERATED[name]], monkeypatch)
    assert current == reference
