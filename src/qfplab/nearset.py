"""Random sign-vector fingerprint sets with audited pairwise overlaps.

Vectors live in {+1,-1}^d / sqrt(d), so unit norm is exact and the inner
product of any two vectors is the rational (2d' - d)/d, with d' the number
of agreeing coordinates.  Audits compare measured overlaps against a
threshold delta and report the per-pair concentration bound 2 e^{-delta^2 d/2}
alongside.  A Gram-matrix check demonstrates that sets with small pairwise
overlap are linearly independent via strict diagonal dominance.

Sign bits are raw ``PCG64`` output words read as little-endian bytes, so
both streams depend only on ``SeedSequence`` and ``PCG64`` (stable under
NEP 19), not on ``Generator.integers``.  Set mode: vector i reads ceil(d/8)
words of the PCG64 seeded by the seed's i-th spawned child, and coordinate
j is +1 when the top bit of byte j is set; those words are computed for the
whole set in uint64 array arithmetic, with no per-vector object.  Pair
mode: one ``PCG64`` per block of up to 4096 pairs, ceil(size*d/32) words;
bit i (LSB first) of the first half of their bytes is v's row-major
coordinate i, and of the second half w's.

Both audits count exactly in integers.  Set mode takes the Gram numerators
from float32 BLAS products in row blocks of at most 2^19 entries, which fit
one core's L2 cache; pair mode counts each pair's disagreements with word
popcounts of v ^ w, never unpacking a bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from math import ceil, comb, exp, floor, log2
from math import e as _E

import numpy as np

from .errors import CapabilityError, DomainError, InputShapeError
from .guards import check
from .qstate import PureState


def required_dimension(n: int, delta: float) -> int:
    """Smallest d satisfying d >= 4n / (delta^2 log2(e)).

    At this dimension the union bound over all pairs of 2^n random sign
    vectors drops below 1, so a set with pairwise overlaps within delta
    exists.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    try:
        return ceil(4.0 * n / (delta * delta * log2(_E)))
    except (ZeroDivisionError, OverflowError):  # delta^2 underflows, d overflows
        raise CapabilityError(f"the dimension for n={n} at delta={delta} is above "
                              f"the largest float, {sys.float_info.max}") from None


def chernoff_pair_bound(d: int, delta: float) -> float:
    """Per-pair bound: Pr[|<v,w>| > delta] <= 2 e^{-delta^2 d / 2}."""
    return 2.0 * exp(-float(delta) ** 2 * d / 2.0)


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Sign vectors (rows of ``signs``, entries +/-1) scaled by 1/sqrt(d)."""

    signs: np.ndarray
    d: int
    seed: int | None = None

    def __post_init__(self) -> None:
        raw = np.asarray(self.signs)
        if raw.ndim != 2 or raw.shape[1] != self.d or not (np.abs(raw) == 1).all():
            raise InputShapeError(
                f"signs must be a (count, {self.d}) matrix of +/-1 entries"
            )
        object.__setattr__(self, "signs", raw.astype(np.int8, copy=False))

    @property
    def count(self) -> int:
        return self.signs.shape[0]

    def vectors(self) -> np.ndarray:
        return self.signs.astype(np.float64) / np.sqrt(self.d)

    def state(self, index: int) -> PureState:
        """Vector ``index`` as a d-dimensional state, for use as a fingerprint."""
        return PureState(self.signs[index].astype(np.float64) / np.sqrt(self.d),
                         (self.d,))

    def overlap(self, i: int, j: int) -> Fraction:
        """Exact rational inner product (2d' - d)/d."""
        num = int(self.signs[i].astype(np.int64) @ self.signs[j].astype(np.int64))
        return Fraction(num, self.d)


# SeedSequence hash constants, from numpy/random/bit_generator.pyx (after
# M. O'Neill's seed_seq_fe); every product below is taken mod 2^32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG_DEFAULT_MULTIPLIER_128, from numpy/random/src/pcg64/pcg64.h
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
# rows per chunk are sized so that no (rows, words) temporary exceeds this
_CHUNK_WORDS = 1 << 16


def _uint32_words(x) -> int:
    """Length of the uint32 array numpy's SeedSequence makes of ``x``."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_uint32_words(v) for v in x)


def _hash32(x: np.ndarray, key: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Both SeedSequence hashes, ``((x ^ key) * mult) ^ (... >> 16)`` mod 2^32."""
    h = (x ^ key) * mult
    return h ^ (h >> 16)


def _child_seeds(root: np.random.SeedSequence, first: int, count: int):
    """PCG64 ``initstate`` and ``initseq`` of children ``first .. first+count-1``.

    Child i's spawn key is ``root.spawn_key + (i,)``, so its assembled entropy
    is the root's followed by the uint32 words of i, and its pool is the
    root's pool with those words mixed in.  The root had made
    c = P + P(P-1) + P max(0, L-P) hash calls, P its pool size and L its
    entropy's word count (padded to P under a spawn key), so the hash
    constant stands at INIT_A MULT_A^c.  Returns a (count, 4) uint64 array
    of ``generate_state(4, uint64)``: initstate's high and low words, then
    initseq's.
    """
    size = root.pool_size
    run = _uint32_words(root.entropy)
    if root.spawn_key:
        run = max(run, size)
    length = run + _uint32_words(root.spawn_key)
    calls = size + size * (size - 1) + size * max(0, length - size)
    pools = np.tile(root.pool, (count, 1))
    index = np.arange(count, dtype=np.uint64) + np.uint64(first)
    for word in range(_uint32_words(first)):
        consts = np.array([_INIT_A * pow(_MULT_A, calls + t, 1 << 32) & _M32
                           for t in range(size + 1)], dtype=np.uint32)
        value = ((index >> 32 * word) & _M32).astype(np.uint32)
        h = _hash32(value[:, None], consts[:-1], consts[1:])
        pools = pools * _MIX_MULT_L - h * _MIX_MULT_R
        pools ^= pools >> 16
        calls += size
    # generate_state(4, uint64): 8 uint32 words cycling over the pool
    consts = np.array([_INIT_B * pow(_MULT_B, t, 1 << 32) & _M32
                       for t in range(9)], dtype=np.uint32)
    state = _hash32(pools[:, np.arange(8) % size], consts[:-1], consts[1:])
    return state[:, 0::2].astype(np.uint64) | (state[:, 1::2].astype(np.uint64) << 32)


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as arrays of their high and low uint64 words."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """Low 128 bits of a * b in uint64 limbs; the high word of a_lo * b_lo
    is summed from its four 32-bit partial products, accumulated in place."""
    a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    mid = a0 * b0
    mid >>= 32
    hi = a1 * b1
    for part in (a0 * b1, a1 * b0):
        hi += part >> 32
        part &= _M32
        mid += part
    mid >>= 32
    hi += mid
    hi += a_hi * b_lo
    hi += a_lo * b_hi
    return hi, a_lo * b_lo


def _pcg64_words(root: np.random.SeedSequence, count: int, words: int) -> np.ndarray:
    """``PCG64(child).random_raw(words)`` for each of ``root.spawn(count)``.

    PCG64 seeds with inc = initseq << 1 | 1 and state = (inc + initstate) a
    + inc, a its multiplier, then steps (state = state a + inc) before each
    XSL-RR output.  So output word k reads the state a^(k+2) initstate +
    c_(k+3) inc, with c_j = 1 + a + ... + a^(j-1), all mod 2^128, and one
    pass of array arithmetic serves every word.
    """
    mults, adds = [], []
    power, total = _PCG_MULT**2 % (1 << 128), 1 + _PCG_MULT
    for _ in range(words):
        total = (total + power) % (1 << 128)
        mults.append(power)
        adds.append(total)
        power = power * _PCG_MULT % (1 << 128)
    m_hi, m_lo = _limbs(mults)
    c_hi, c_lo = _limbs(adds)
    out = np.empty((count, words), dtype=np.uint64)
    step = max(1, _CHUNK_WORDS // words)
    first = start = root.n_children_spawned
    stop = first + count
    while start < stop:
        # a chunk's indices share one uint32 word count (i < 2^32 has one)
        end = min(stop, start + step, 1 << 32 * _uint32_words(start))
        s_hi, s_lo, q_hi, q_lo = np.hsplit(_child_seeds(root, start, end - start), 4)
        i_hi = (q_hi << 1) | (q_lo >> 63)
        i_lo = (q_lo << 1) | 1
        x_hi, x_lo = _mul128(m_hi, m_lo, s_hi, s_lo)
        y_hi, y_lo = _mul128(c_hi, c_lo, i_hi, i_lo)
        lo = x_lo + y_lo
        hi = x_hi + y_hi + (lo < x_lo)
        # XSL-RR: the xor of both halves, rotated right by the top 6 bits
        mixed, rot = hi ^ lo, hi >> 58
        out[start - first:end - first] = (mixed >> rot) | (mixed << ((64 - rot) & 63))
        start = end
    return out


def sample_vector_set(count: int, d: int, seed) -> VectorSet:
    """count i.i.d. uniform sign vectors, one derived sub-seed per vector.

    Vector i reads ``PCG64(child).random_raw(ceil(d/8))`` for the i-th of
    ``root.spawn(count)`` children, computed for all vectors at once without
    building them.  A passed ``SeedSequence`` is left unchanged: its
    ``n_children_spawned`` does not advance, so passing the same object
    twice gives the same set, where ``spawn`` would give the next children.
    """
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    check("MAX_COORDINATES", count * d, "the coordinates count * d of a set")
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    raw = _pcg64_words(root, count, -(-d // 8))
    top = raw.astype("<u8", copy=False).view(np.uint8)[:, :d] >> 7
    rows = top.astype(np.int8) * 2 - 1
    plain_seed = seed if isinstance(seed, int) else None
    return VectorSet(signs=rows, d=d, seed=plain_seed)


@dataclass(frozen=True)
class OverlapAudit:
    d: int
    count: int
    delta: float
    max_abs_overlap: float
    violating_pairs: int
    total_pairs: int
    chernoff_bound: float
    seed: int | None = None

    def to_json(self) -> dict:
        """A fresh dict of the fields."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _violation_threshold(d: int, delta: float) -> int:
    # smallest integer numerator T with T/d > delta, compared exactly
    if not 0.0 < float(delta) < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    return floor(Fraction(delta) * d) + 1


# products per Gram block of ``audit_overlaps``: 2 MiB of float32, one core's
# L2 cache on a 2-core box (256 rows at count 2048)
_GRAM_BLOCK_ENTRIES = 1 << 19


def audit_overlaps(vset: VectorSet, delta: float) -> OverlapAudit:
    """Exact pairwise overlap audit of a whole vector set.

    The Gram numerators come from float32 matrix products (BLAS).  Every
    partial sum of d products of +/-1 is an integer of size at most d, which
    float32 holds exactly while d <= 2^24; above that float64 is used.  Each
    block of rows, at most ``_GRAM_BLOCK_ENTRIES`` products, is multiplied
    only by the rows from its own start onwards.  The block's own square is
    symmetric and holds each of its pairs twice, once on each side of its
    diagonal, which is zeroed; a zero never reaches the violation threshold,
    which is at least 1.  So max|g| is read as max(g.max(), -g.min()), and
    the square's share of the count g >= T or g <= -T is halved.
    """
    check("AUDIT_MAX_COUNT", vset.count, "the vectors of a pairwise audit")
    signs = vset.signs.astype(np.float32 if vset.d <= 1 << 24 else np.float64)
    threshold = _violation_threshold(vset.d, delta)

    def hits(grams: np.ndarray) -> int:
        return int(np.count_nonzero(grams >= threshold)
                   + np.count_nonzero(grams <= -threshold))

    max_num = violations = 0
    block = _GRAM_BLOCK_ENTRIES // vset.count  # at least 32 rows under the guard
    for start in range(0, vset.count, block):
        rows = signs[start:start + block]
        grams = rows @ signs[start:].T
        square = grams[:, :rows.shape[0]]
        np.fill_diagonal(square, 0)
        max_num = max(max_num, int(grams.max()), -int(grams.min()))
        violations += hits(grams) - hits(square) // 2
    return OverlapAudit(
        d=vset.d, count=vset.count, delta=float(delta),
        max_abs_overlap=max_num / vset.d, violating_pairs=violations,
        total_pairs=comb(vset.count, 2),
        chernoff_bound=chernoff_pair_bound(vset.d, delta), seed=vset.seed,
    )


def _pair_numerators(seed, size: int, d: int) -> np.ndarray:
    """|d <v, w>| for each of ``size`` pairs (v, w) drawn from one PCG64.

    The set bits of v ^ w mark disagreements, and the numerator d <v, w> is
    agreements - disagreements = d - 2 disagreements.  Pair p's bits run
    from offset p d to (p + 1) d of the uint32 words of v ^ w, so its
    disagreements are the difference of the set bits below those offsets:
    a prefix sum of whole-word popcounts plus the popcount of the edge
    word masked below the offset.
    """
    raw = np.random.PCG64(seed).random_raw(-(-size * d // 32))
    # v fills the first half of the uint32 words, w the second
    words = raw.astype("<u8", copy=False).view("<u4")
    diff = words[:raw.size] ^ words[raw.size:]
    # int32 is exact: MAX_COORDINATES bounds a block at 2 size d <= 2^23
    # coordinates, so v ^ w holds at most 2^22 set bits
    below_word = np.zeros(raw.size + 1, dtype=np.int32)
    np.cumsum(np.bitwise_count(diff), dtype=np.int32, out=below_word[1:])
    offsets = np.arange(size + 1, dtype=np.int64) * d
    index, shift = offsets >> 5, (offsets & 31).astype(np.uint32)
    # an offset on the end of the words has shift 0, so its clipped edge
    # word is masked to nothing
    edge = diff[np.minimum(index, raw.size - 1)] & ((np.uint32(1) << shift) - 1)
    below = below_word[index] + np.bitwise_count(edge)
    return np.abs(d - 2 * np.diff(below))


def sample_pair_audit(pairs: int, d: int, delta: float, seed) -> OverlapAudit:
    """Overlap audit over independently sampled vector pairs.

    For counts where a full 2^n set is infeasible, the concentration claim
    is still checkable pair by pair: each trial draws a fresh (v, w) and
    tests |<v,w>| > delta.  Pairs are drawn in blocks of up to 4096, one
    spawned child of ``SeedSequence(seed)`` each, and ``_pair_numerators``
    counts a block's disagreements by word popcount.  Both a block's and
    the whole run's coordinates are bounded before any draw.
    """
    if pairs < 1:
        raise DomainError(f"pairs must be >= 1, got {pairs}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    threshold = _violation_threshold(d, delta)
    size = min(4096, pairs)
    check("MAX_COORDINATES", 2 * size * d,
          "the coordinates 2 * min(4096, pairs) * d of a pair block")
    check("MAX_PAIR_COORDINATES", 2 * pairs * d,
          "the coordinates 2 * pairs * d of a pair-mode run")
    root = np.random.SeedSequence(seed)
    max_num = violations = 0
    chunks = [4096] * (pairs // 4096) + ([pairs % 4096] if pairs % 4096 else [])
    for child, size in zip(root.spawn(len(chunks)), chunks):
        nums = _pair_numerators(child, size, d)
        max_num = max(max_num, int(nums.max()))
        violations += int(np.count_nonzero(nums >= threshold))
    return OverlapAudit(
        d=d, count=2 * pairs, delta=float(delta), max_abs_overlap=max_num / d,
        violating_pairs=violations, total_pairs=pairs,
        chernoff_bound=chernoff_pair_bound(d, delta),
        seed=seed if isinstance(seed, int) else None,
    )


@dataclass(frozen=True)
class GramCheck:
    dominant: bool
    rank: int


def gram_dominance_check(vectors: np.ndarray, delta: float) -> GramCheck:
    """Strict diagonal dominance and numerical rank of a unit-vector Gram matrix.

    When every off-diagonal overlap is at most delta and (a-1) delta < 1
    the Gram matrix is strictly diagonally dominant, hence full rank; the
    returned rank counts singular values above 1e-9 of the largest.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise InputShapeError("vectors must form a 2-D (count, dim) array")
    a = v.shape[0]
    check("GRAM_MAX_COUNT", a, "the vectors of a Gram dominance check")
    norms = np.linalg.norm(v, axis=1)
    if not np.allclose(norms, 1.0, atol=1e-9):
        raise InputShapeError("all vectors must have unit norm")
    if (a - 1) * float(delta) >= 1.0:
        raise DomainError(
            f"dominance claim needs (count-1)*delta < 1; got "
            f"({a}-1)*{delta} >= 1"
        )
    # dominance is tested on the honest float Gram matrix (diagonal = true
    # squared norms, within 1e-9 of 1): forcing the diagonal to exactly 1
    # would let a duplicate pair pass as dominant on rounding noise alone,
    # breaking the dominance => full-rank implication the check certifies
    gram = v @ v.T
    diag = np.diag(gram).copy()
    off_sums = np.abs(gram).sum(axis=1) - np.abs(diag)
    dominant = bool(np.all(diag > off_sums))
    svals = np.linalg.svd(gram, compute_uv=False)
    rank = int(np.count_nonzero(svals > 1e-9 * svals[0]))
    return GramCheck(dominant=dominant, rank=rank)


def qubit_lower_bound_from_delta(delta: float) -> float:
    """log2(1/delta): qubits forced by packing 1/delta near-orthogonal states."""
    if not 0.0 < float(delta) <= 1.0:
        raise DomainError(f"delta must lie in (0,1], got {delta}")
    return -log2(float(delta))
