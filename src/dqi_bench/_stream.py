"""numpy 2.4.6's per-draw k-subset stream, replayed for many draws at once.

Row i of ``draw_rows(m, k, seed, first, count)`` equals the sorted
``numpy.random.default_rng((seed, k, first + i)).choice(m, k, replace=False)``
of numpy 2.4.6, for m <= 10000 or k <= m // 50 (beyond that numpy switches
to a tail shuffle) and draw indices below 2^32.  The stream has three parts,
each replayed in integer arithmetic across the rows of a chunk:

- ``SeedSequence``: the little-endian 32-bit words of seed, k and the draw
  index are hashed into a pool of 4 words; ``generate_state(4, uint64)``
  expands the pool into a PCG64 seed and increment.
- PCG64 (XSL-RR 128/64), read 32 bits at a time, low half first.
- Floyd's algorithm over j = m-k .. m-1 (Bentley & Floyd, CACM 1987): one
  Lemire bounded draw on [0, j] per step (Lemire, TOMACS 2019), redrawn
  while the low product word is below (2^32 - 1 - j) mod (j + 1).  A j of
  0 draws nothing.

128-bit arithmetic runs on four 32-bit limbs, least significant first,
held in uint64 arrays.
"""
from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
CHUNK_ROWS = 4096  # draws replayed together; bounds every array at CHUNK_ROWS x k

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's default 128-bit LCG multiplier, as limbs
_PCG_MULT = [(0x2360ED051FC65DA44385DF649FCCF645 >> (32 * i)) & MASK32 for i in range(4)]


def _words(value: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words; 0 is one word."""
    out = [value & MASK32]
    while value := value >> 32:
        out.append(value & MASK32)
    return out


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words, and the next hash constant."""
    value = value ^ np.uint32(const)
    const = const * mult & MASK32
    value = value * np.uint32(const)
    return value ^ value >> _XSHIFT, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ out >> _XSHIFT


def _seed_state(seed: int, k: int, first: int, count: int) -> list[np.ndarray]:
    """``SeedSequence((seed, k, draw)).generate_state(8, uint32)`` for each draw of a range."""
    entropy = [np.full(count, w, np.uint32) for w in _words(seed) + _words(k)]
    entropy.append(np.arange(first, first + count, dtype=np.uint64).astype(np.uint32))
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(count, np.uint32)
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    const = _INIT_B
    state = []
    for i in range(8):
        hashed, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return state


def _carry(cols: list) -> list[np.ndarray]:
    """Limbs of the number whose 32-bit columns hold ``cols`` (each below 2^63), mod 2^128."""
    out, carry = [], 0
    for col in cols:
        total = col + carry
        out.append(total & MASK32)
        carry = total >> 32
    return out


def _step(state: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """One LCG step, state * multiplier + inc mod 2^128.

    Each column sums at most 8 words below 2^32: its increment limb and the
    halves of the limb products that land in it.
    """
    cols = list(inc)
    for i in range(4):
        for j in range(4 - i):
            prod = state[i] * np.uint64(_PCG_MULT[j])
            cols[i + j] = cols[i + j] + (prod & MASK32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (prod >> 32)
    return _carry(cols)


class _Pcg64:
    """One PCG64 stream per row, seeded as numpy seeds it from ``generate_state(4, uint64)``."""

    def __init__(self, state: list[np.ndarray]):
        # 64-bit word w = state[2w] + 2^32 state[2w+1]; seed s = w0 2^64 + w1,
        # increment 2 (w2 2^64 + w3) + 1 mod 2^128
        s = [state[2], state[3], state[0], state[1]]
        half = [state[6], state[7], state[4], state[5]]
        self.inc = [(half[0] << 1 | 1) & MASK32] + [
            (half[i] << 1 | half[i - 1] >> 31) & MASK32 for i in range(1, 4)
        ]
        # from state 0: step (giving inc), add s, step
        self.state = _step(_carry([a + b for a, b in zip(self.inc, s)]), self.inc)

    def words(self, outputs: int) -> np.ndarray:
        """The next ``outputs`` (>= 1) 64-bit outputs of every row, as 32-bit words,
        low half first."""
        cols = []
        for _ in range(outputs):
            self.state = _step(self.state, self.inc)
            lo = self.state[0] | self.state[1] << 32
            hi = self.state[2] | self.state[3] << 32
            rot = self.state[3] >> 26
            x = lo ^ hi
            out = x >> rot | x << ((64 - rot) & 63)
            cols += [out & MASK32, out >> 32]
        return np.stack(cols, axis=1)


def draw_rows(m: int, k: int, seed: int, first: int, count: int) -> tuple[np.ndarray, int]:
    """Draws first .. first+count-1 as a (count, k) int64 array of sorted positions,
    and how many Lemire draws were rejected and redrawn on the way.

    Assumes 0 <= k <= m, seed >= 0, first + count <= 2^32, and that m <= 10000
    or k <= m // 50; callers check these.
    """
    gen = _Pcg64(_seed_state(seed, k, first, count))
    words = gen.words(k // 2 + 1)  # at least the k words of k steps without a redraw
    cursor = np.zeros(count, np.intp)
    rows = np.arange(count)
    chosen = np.zeros((count, k), np.int64)
    rejected = 0
    for s, j in enumerate(range(m - k, m)):
        if j == 0:
            continue
        bound = np.uint64(j + 1)
        threshold = (MASK32 - j) % (j + 1)
        prod = words[rows, cursor] * bound
        cursor += 1
        redraw = np.flatnonzero((prod & MASK32) < threshold)
        while len(redraw):
            rejected += len(redraw)
            words = np.concatenate([words, gen.words(1)], axis=1)
            prod[redraw] = words[redraw, cursor[redraw]] * bound
            cursor[redraw] += 1
            redraw = redraw[(prod[redraw] & MASK32) < threshold]
        pick = (prod >> 32).astype(np.int64)
        taken = (chosen[:, :s] == pick[:, None]).any(axis=1)
        chosen[:, s] = np.where(taken, j, pick)
    chosen.sort(axis=1)
    return chosen, rejected


def draw_shell(m: int, k: int, seed: int, draws: int) -> np.ndarray:
    """Draws 0 .. draws-1 of ``draw_rows``, replayed ``CHUNK_ROWS`` at a time."""
    out = np.empty((draws, k), np.int64)
    for first in range(0, draws, CHUNK_ROWS):
        count = min(CHUNK_ROWS, draws - first)
        out[first:first + count] = draw_rows(m, k, seed, first, count)[0]
    return out
