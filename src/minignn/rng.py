"""Deterministic pseudo-randomness.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment, with a fixed finalizer mix. The algorithm is frozen so that a
seed produces the same sequence on every platform and every run. All
randomness in the project flows from one root seed through ``Rng.spawn``,
which derives independent sub-streams from string labels.

SplitMix64 is counter-based: draw k of a stream at state s is
``mix(s + k * GAMMA mod 2**64)``. So ``_draws`` computes n draws as one
numpy uint64 array, bit for bit the values of n ``next_u64()`` calls, and
leaves the state where those calls would; ``uniforms``, ``normals`` and
long shuffles are built on it.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _M1 & _MASK
    z = (z ^ (z >> 27)) * _M2 & _MASK
    return z ^ (z >> 31)


_U64 = {k: np.uint64(k) for k in (11, 27, 30, 31, _GAMMA, _M1, _M2)}


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix, in place on a uint64 array; numpy's uint64 products wrap mod 2**64."""
    z ^= z >> _U64[30]
    z *= _U64[_M1]
    z ^= z >> _U64[27]
    z *= _U64[_M2]
    z ^= z >> _U64[31]
    return z


def _size(shape) -> tuple[tuple[int, ...], int]:
    """shape as a tuple (an int n is (n,)) and its element count; () holds one."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    return shape, math.prod(shape)


# From this length on, shuffle takes its draws as one array. sample(n, n),
# scalar loop against array path, on a 2-vCPU x86 host: 8.9 against 9.4 µs
# at n = 14, 10.2 against 9.6 µs at 16, 36.5 against 11.7 µs at 60.
SHUFFLE_VECTOR_MIN = 16


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


class Rng:
    """SplitMix64 stream with convenience samplers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def spawn(self, label: str) -> "Rng":
        """Derive an independent sub-stream from a string label."""
        return Rng(_mix(self._state ^ _fnv1a64(label)))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53-bit mantissa, the standard u64 -> [0, 1) construction.
        u = self.next_u64() >> 11
        return low + (high - low) * (u * (1.0 / (1 << 53)))

    def _draws(self, n: int) -> np.ndarray:
        """The next n next_u64() values, as a uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U64[_GAMMA]
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix_array(z)

    def uniforms(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Array of uniform() draws, taken in C order."""
        shape, n = _size(shape)
        u = self._draws(n)
        u >>= _U64[11]
        return (low + (high - low) * (u * (1.0 / (1 << 53)))).reshape(shape)

    def normal(self) -> float:
        # Box-Muller; one value per pair keeps the stream layout simple.
        u1 = self.uniform()
        u2 = self.uniform()
        while u1 <= 1e-300:
            u1 = self.uniform()
            u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, shape) -> np.ndarray:
        """Array of normal() draws, taken in C order.

        The pairs come from one uniforms() call. math's log and cos are
        mapped over them, since numpy's differ in the last bit; the rest
        (2πu2, −2·log, sqrt, the product) is correctly rounded either way,
        so it runs in numpy. A pair that normal() would redraw sends the
        whole call down the scalar path.
        """
        shape, n = _size(shape)
        start = self._state
        u1, u2 = self.uniforms((n, 2)).T
        if (u1 <= 1e-300).any():
            self._state = start
            return np.array([self.normal() for _ in range(n)], dtype=np.float64).reshape(shape)
        log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, n)
        cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, n)
        return (np.sqrt(-2.0 * log_u1) * cos_u2).reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: swap i takes j = randint(i + 1), i from the end.

        From SHUFFLE_VECTOR_MIN items on, the n - 1 draws come from one
        _draws call and j = u mod (i + 1) from numpy. randint(i + 1) rejects
        only draws of 2**64 - n or more; if one comes up, the state goes back
        and the scalar loop runs, so both paths give the same swaps.
        """
        n = len(items)
        if n >= SHUFFLE_VECTOR_MIN:
            start = self._state
            u = self._draws(n - 1)
            if int(u.max()) < (_MASK + 1) - n:
                js = (u % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
                for i, j in zip(range(n - 1, 0, -1), js):
                    items[i], items[j] = items[j], items[i]
                return
            self._state = start
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n), in shuffled order."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n}")
        idx = list(range(n))
        self.shuffle(idx)
        return idx[:k]
