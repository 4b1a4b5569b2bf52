"""numpy 2.4.6's per-draw k-subset stream, replayed for many draws at once.

Row i of ``draw_rows(m, k, seed, first, count)`` is
``numpy.random.default_rng((seed, k, first + i)).choice(m, k, replace=False)``
of numpy 2.4.6 in packed form: ceil(m / 64) uint64 words, value j being bit
j % 64 of word j // 64, so also the packed form of numpy's sorted choice.
That holds for m <= 10000 or k <= m // 50 (beyond that numpy switches to a
tail shuffle) and draw indices below 2^32.  The stream has three parts, each
replayed in integer arithmetic across the rows of a chunk:

- ``SeedSequence``: the little-endian 32-bit words of seed, k and the draw
  index are hashed into a pool of 4 words; ``generate_state(4, uint64)``
  expands the pool into a PCG64 seed and increment.  The words of seed and
  k are the same in every row, so the pool words and mixes that read only
  them are computed once, as Python ints; only the words the draw index
  reaches are uint32 arrays.
- PCG64 (XSL-RR 128/64), read 32 bits at a time, low half first.  The
  128-bit state is two uint64 halves: the low product wraps natively, the
  high 64 bits of ``lo * MULT_lo`` come from four 32-bit products, and the
  increment is an add with a compare-carry.
- Floyd's algorithm over j = m-k .. m-1 (Bentley & Floyd, CACM 1987): one
  Lemire bounded draw on [0, j] per step (Lemire, TOMACS 2019), redrawn
  while the low product word is below (2^32 - 1 - j) mod (j + 1).  A j of
  0 draws nothing.

A redraw is rare (about k m / 2^32 per row), so ``draw_rows`` forms every
step's product in one multiply, one word per step, and runs Floyd's steps
across the rows on a count x ceil(m / 64) bitset of 64-bit words, the
values chosen so far: one gather tests a pick, one scatter records it.
After the last step that bitset is the rows it returns.  Rows where any
step's low word falls below its threshold are replayed one at a time by
``draw_rows_stepwise``, which redraws as numpy does, returns the values
chosen, to be packed, and is the oracle the one-pass kernel is tested against.
"""
from __future__ import annotations

import numpy as np

from .decoder import pack_positions

MASK32 = 0xFFFFFFFF
CHUNK_ROWS = 4096  # draws replayed together; bounds every array at CHUNK_ROWS draws

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's default 128-bit LCG multiplier, as 64-bit halves, and the low half's 32-bit halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG_MULT >> 32 & MASK32), np.uint64(_PCG_MULT & MASK32)


def _words(value: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words; 0 is one word."""
    out = [value & MASK32]
    while value := value >> 32:
        out.append(value & MASK32)
    return out


def _times(word, mult: int):
    """A uint32 word (a Python int or a uint32 array) times ``mult``, mod 2^32.

    An int stays a Python int, so no two numpy scalars multiply."""
    return word * mult & MASK32 if isinstance(word, int) else word * np.uint32(mult)


def _hash(word, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 word, and the next hash constant."""
    word = word ^ const
    const = const * mult & MASK32
    word = _times(word, const)
    return word ^ word >> _XSHIFT, const


def _mix(x, y):
    """SeedSequence's mix of two uint32 words; an array if either one is."""
    out = _times(x, _MIX_MULT_L) - _times(y, _MIX_MULT_R)
    if isinstance(out, int):
        out &= MASK32
    return out ^ out >> _XSHIFT


def _seed_state(seed: int, k: int, draws: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, k, draw)).generate_state(8, uint32)`` for each draw of ``draws``,
    as uint64 arrays."""
    entropy = _words(seed) + _words(k) + [draws.astype(np.uint32)]
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        hashed, const = _hash(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
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


def _mulhi_lo(x: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * MULT_lo, from four 32-bit products."""
    x0, x1 = x & MASK32, x >> 32
    p00, p01 = x0 * _MULT_LO0, x0 * _MULT_LO1
    p10, p11 = x1 * _MULT_LO0, x1 * _MULT_LO1
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


class _Pcg64:
    """One PCG64 stream per row, seeded as numpy seeds it from ``generate_state(4, uint64)``."""

    def __init__(self, state: list[np.ndarray]):
        # 64-bit word w = state[2w] + 2^32 state[2w+1]; seed s = w0 2^64 + w1,
        # increment 2 (w2 2^64 + w3) + 1 mod 2^128
        w0, w1, w2, w3 = (state[2 * i] | state[2 * i + 1] << 32 for i in range(4))
        self.inc_hi = w2 << 1 | w3 >> 63
        self.inc_lo = w3 << 1 | 1
        # from state 0: step (giving inc), add s, step
        lo = self.inc_lo + w1
        self.hi = self.inc_hi + w0 + (lo < w1)
        self.lo = lo
        self._step()

    def _step(self) -> None:
        """state * multiplier + inc mod 2^128, on the two halves."""
        hi, lo = self.hi, self.lo
        hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi_lo(lo) + self.inc_hi
        lo = lo * _MULT_LO
        self.lo = lo + self.inc_lo
        self.hi = hi + (self.lo < lo)

    def words(self, outputs: int) -> np.ndarray:
        """The next ``outputs`` 64-bit outputs of every row, as 32-bit words, low half
        first: a (2 outputs, rows) uint64 array."""
        words = np.empty((2 * outputs, len(self.lo)), np.uint64)
        for i in range(outputs):
            self._step()
            x = self.hi ^ self.lo
            rot = self.hi >> 58
            out = x >> rot | x << (-rot & 63)
            words[2 * i] = out & MASK32
            words[2 * i + 1] = out >> 32
        return words


def draw_rows_stepwise(m: int, k: int, seed: int, first: int, count: int) -> tuple[np.ndarray, int]:
    """``draw_rows`` as a (count, k) int64 array of the values in the order Floyd's steps
    choose them, one step at a time across the rows, redrawing as numpy does.

    Step s compares its pick against the s values chosen before it.
    """
    gen = _Pcg64(_seed_state(seed, k, np.arange(first, first + count, dtype=np.uint64)))
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
        prod = words[cursor, rows] * bound
        cursor += 1
        redraw = np.flatnonzero((prod & MASK32) < threshold)
        while len(redraw):
            rejected += len(redraw)
            words = np.concatenate([words, gen.words(1)])
            prod[redraw] = words[cursor[redraw], redraw] * bound
            cursor[redraw] += 1
            redraw = redraw[(prod[redraw] & MASK32) < threshold]
        pick = (prod >> 32).astype(np.int64)
        taken = (chosen[:, :s] == pick[:, None]).any(axis=1)
        chosen[:, s] = np.where(taken, j, pick)
    return chosen, rejected


def draw_rows(m: int, k: int, seed: int, first: int, count: int) -> tuple[np.ndarray, int]:
    """Draws first .. first+count-1 as (count, ceil(m / 64)) uint64 words, value j of a
    draw being bit j % 64 of its word j // 64, and how many Lemire draws were
    rejected and redrawn on the way.

    Assumes 0 <= k <= m, seed >= 0, first + count <= 2^32, and that m <= 10000
    or k <= m // 50; callers check these.
    """
    j = np.arange(max(m - k, 1), m, dtype=np.uint64)  # the steps that draw
    bits = np.zeros((count, (m + 63) // 64), np.int64)
    bits[:, :1] = k - len(j)  # 1 when step 0 has a j of 0: it chooses 0 without a draw
    words = bits.view(np.uint64)
    if not len(j) or not count:
        return words, 0
    gen = _Pcg64(_seed_state(seed, k, np.arange(first, first + count, dtype=np.uint64)))
    prod = gen.words((len(j) + 1) // 2)[:len(j)] * (j + 1)[:, None]  # (steps, count)
    threshold = (MASK32 - j) % (j + 1)
    redrawn = np.flatnonzero((prod.astype(np.uint32) < threshold[:, None]).any(axis=0))
    prod >>= 32
    picks = prod.view(np.int64)  # the Lemire picks, in place: each is below 2^32
    flat = bits.ravel()  # word w of draw r is flat[r * words per draw + w]
    base = np.arange(0, bits.size, bits.shape[1])
    for pick, js in zip(picks, j.tolist()):
        at = pick >> 6
        at += base
        bit = np.left_shift(1, pick & 63)
        word = flat[at]
        flat[at] = word | bit
        taken = (word & bit).astype(bool)
        if taken.any():  # a taken pick records j instead, in the same word of every draw
            bits[:, js >> 6] |= taken * np.left_shift(np.int64(1), js & 63)
    rejected = 0
    for r in redrawn.tolist():
        row, row_rejected = draw_rows_stepwise(m, k, seed, first + r, 1)
        words[r] = pack_positions(row, m)
        rejected += row_rejected
    return words, rejected


def draw_shell(m: int, k: int, seed: int, draws: int) -> np.ndarray:
    """Draws 0 .. draws-1 of ``draw_rows``, replayed ``CHUNK_ROWS`` at a time."""
    out = np.empty((draws, (m + 63) // 64), np.uint64)
    for first in range(0, draws, CHUNK_ROWS):
        count = min(CHUNK_ROWS, draws - first)
        out[first:first + count] = draw_rows(m, k, seed, first, count)[0]
    return out
