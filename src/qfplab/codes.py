"""Binary error-correcting codes used as the classical substrate of fingerprints.

Three code families are supported:

* ``hadamard`` — the [2^n, n] code whose i-th codeword bit is the GF(2) inner
  product <i, x>.  Exact agreement bound 1/2, codeword length 2^n.
* ``random-linear`` — an explicit m x n generator matrix over GF(2) with
  m = c*n for an integer c >= 2, either supplied or sampled from a seed.
* ``declared`` — a caller-supplied encoder together with a claimed bound on
  the pairwise agreement fraction.

Distance certification is exact: closed form for hadamard codes, the
minimum nonzero weight for codes with a generator, pairwise comparison for a
bare declared encoder, each of the last two within a bound on its word
operations.  The minimum weight comes from a Brouwer–Zimmermann search over
disjoint information sets, which forms codewords by message weight and stops
once a lower bound on every codeword not yet formed meets the lightest one
found, and which hands a small code, or one whose bound would need too many
levels, to one numpy pass over span tables of all 2^n codewords (no weight
histogram is built either way).
Codewords have two kernels.  A hadamard bit i is the parity of
popcount(i & x), and hadamard agreements are in closed form.  A code with a
generator packs its columns once, on the code, and reads E(x) from one
table per message byte: the 2^8 XORs of the codewords of that byte's
columns (the "Four Russians" method), so E(x) is one row per byte, XORed,
and an agreement is m - popcount(E(x XOR y)).  A declared encoder runs per
message.  Agreement fractions are exact rationals throughout.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, floor
from typing import Callable

import numpy as np

from .errors import DomainError, InputShapeError
from .guards import check

HADAMARD = "hadamard"
RANDOM_LINEAR = "random-linear"
DECLARED = "declared"

# Packed words (128 KB) in the enumerator's table of low-bit codewords.
_TABLE_WORDS = 2**14
# Codeword words past which a minimum distance is first sought by information
# sets: a span pass over 2^16 words takes about 0.15 ms on a 2-core box, and
# the search's first set and level alone take about half of that.
_SEARCH_WORDS = 2**16
# Packed words (4 MiB) that one level of the information-set search may hold:
# random-linear n = 24, c = 4 needs its weight-5 level of 340,032 words.
_LEVEL_WORDS = 2**19
_HEX_ROW = re.compile(r"[0-9a-fA-F]+")
_HADAMARD_N = "hadamard n (positions are 64-bit words)"


class _NotInjective(DomainError):
    """A generator of rank below n: some nonzero message encodes to 0."""


def _check_bits(s: str, n: int, name: str) -> str:
    if not isinstance(s, str) or len(s) != n or s.strip("01"):
        raise InputShapeError(
            f"{name} must be a bit-string of length {n}, got {s!r}"
        )
    return s


def _gf2_rank(columns: np.ndarray) -> int:
    """GF(2) rank of packed generator columns: the size of an XOR basis of
    their ints, one per column, each basis int keyed by its highest bit."""
    basis: dict[int, int] = {}
    for words in columns.astype("<u8", copy=False):
        column = int.from_bytes(words.tobytes(), "little")
        while column and (top := column.bit_length()) in basis:
            column ^= basis[top]
        if column:
            basis[top] = column
    return len(basis)


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """An encoder {0,1}^n -> {0,1}^m with a certified or declared distance.

    ``generator`` is an (m, n) uint8 matrix over GF(2) for the random-linear
    and declared kinds; ``encoder`` is a bit-string callable for the
    ``declared`` kind; ``declared_delta`` is a declared code's claimed upper
    bound on the pairwise agreement fraction of distinct codewords; ``seed``
    is a random-linear code's sampling seed.  A field that the kind does not
    read raises ``DomainError``.
    """

    kind: str
    n: int
    m: int
    generator: np.ndarray | None = None
    declared_delta: Fraction | None = None
    seed: int | None = None
    encoder: Callable[[str], str] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"message length must be >= 1, got {self.n}")
        if self.kind == HADAMARD:
            check("HADAMARD_MAX_N", self.n, _HADAMARD_N)
            if self.m != 2**self.n:
                raise DomainError(
                    f"hadamard codes have m = 2^n; got m={self.m}, n={self.n}"
                )
            unread = ("generator", "encoder", "declared_delta", "seed")
        elif self.kind == RANDOM_LINEAR:
            unread = ("encoder", "declared_delta")
            if self.generator is None:
                raise DomainError("random-linear codes require a generator")
            if self.m % self.n != 0 or self.m // self.n < 2:
                raise DomainError(
                    f"random-linear codes need m = c*n with integer c >= 2; "
                    f"got m={self.m}, n={self.n}"
                )
        elif self.kind == DECLARED:
            unread = ("seed",)
            if (self.encoder is None) == (self.generator is None):
                raise DomainError("declared codes take exactly one codeword "
                                  "source: an encoder or a generator")
        else:
            raise DomainError(f"unknown code kind {self.kind!r}")
        for name in unread:
            if getattr(self, name) is not None:
                raise DomainError(f"{self.kind} codes do not read {name}")
        if self.generator is not None:
            raw = np.asarray(self.generator)
            if raw.shape != (self.m, self.n) or not ((raw == 0) | (raw == 1)).all():
                raise InputShapeError(
                    f"generator must be an (m, n)={self.m, self.n} 0/1 matrix"
                )
            g = raw.astype(np.uint8, copy=False)
            object.__setattr__(self, "generator", g)
            if _gf2_rank(self._columns) != self.n:
                raise _NotInjective(
                    "generator is not injective: some nonzero message encodes to 0"
                )
        if self.declared_delta is not None:
            d = Fraction(self.declared_delta)
            if not 0 <= d <= 1:
                raise DomainError(f"declared delta must lie in [0,1], got {d}")
            object.__setattr__(self, "declared_delta", d)

    @cached_property
    def _columns(self) -> np.ndarray:
        """Generator columns as (n, ceil(m/64)) uint64 words, packed once:
        the codewords of the n unit messages, codeword bit 0 the most
        significant."""
        return _packed_words(self.generator.T)

    @cached_property
    def _lanes(self) -> list[np.ndarray]:
        """One (2^k, ceil(m/64)) table per message byte: row s of table q is
        the XOR of the codewords of the bits set in s, bit t of byte q being
        bit 8q + t of int(x, 2), so column n - 1 - 8q - t."""
        columns = self._columns[::-1]
        return [np.ascontiguousarray(_span(columns[q:q + 8]).T)
                for q in range(0, self.n, 8)]

    @property
    def is_linear(self) -> bool:
        return self.kind == HADAMARD or self.generator is not None

    @property
    def label(self) -> str:
        parts = [self.kind, f"n{self.n}", f"m{self.m}"]
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        return "-".join(parts)

    def to_json(self) -> dict:
        """Serializable description: generator rows are hex, LSB = column 1."""
        out: dict = {"kind": self.kind, "n": self.n, "m": self.m}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.generator is not None:
            # each row's bytes high first spell its hex digits, column 1 in
            # the low bit; a digit above the row's width is always 0
            rows = np.packbits(self.generator, axis=1, bitorder="little")
            text, step = rows[:, ::-1].tobytes().hex(), 2 * rows.shape[1]
            skip = step - (self.n + 3) // 4
            out["generator"] = [text[i + skip:i + step]
                                for i in range(0, len(text), step)]
        if self.declared_delta is not None:
            out["declared_delta"] = str(self.declared_delta)
        return out


def code_from_json(desc: dict) -> BinaryCode:
    """Rebuild a code from its JSON description.

    Generator rows must be m hex numbers below 2^n, column 1 in the low bit.
    Declared codes round-trip only when they carry a generator; a bare
    encoder callable cannot be serialized.
    """
    try:
        kind, n, m = desc["kind"], operator.index(desc["n"]), operator.index(desc["m"])
        delta = Fraction(desc["declared_delta"]) if "declared_delta" in desc else None
        seed = None if desc.get("seed") is None else operator.index(desc["seed"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputShapeError(f"malformed code description: {exc!r}") from exc
    gen = None
    if "generator" in desc:
        rows, size = desc["generator"], -(-n // 8)
        try:
            packed = b"".join(int(hx, 16).to_bytes(size, "little")
                              for hx in rows if _HEX_ROW.fullmatch(hx))
        except (TypeError, OverflowError):
            packed = b""
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
        if bits.size != 8 * size * m or bits.reshape(m, 8 * size)[:, n:].any():
            raise InputShapeError(f"generator must be m={m} hex rows below 2^{n}")
        gen = bits.reshape(m, 8 * size)[:, :n]
    if kind == DECLARED and gen is None:
        raise DomainError("cannot rebuild a declared code without a generator")
    return BinaryCode(kind=kind, n=n, m=m, generator=gen,
                      declared_delta=delta, seed=seed)


def hadamard_code(n: int) -> BinaryCode:
    """The [2^n, n] code with codeword bits <i, x> over GF(2).

    n is checked before 2^n is formed.
    """
    check("HADAMARD_MAX_N", n, _HADAMARD_N)
    return BinaryCode(kind=HADAMARD, n=n, m=2**n)


def random_linear_code(n: int, c: int, seed: int) -> BinaryCode:
    """Uniformly random injective (c*n, n) generator over GF(2).

    The generator is resampled from the seeded stream until it has full
    column rank, so encoding is injective by construction; ``BinaryCode``
    checks the rank.
    """
    if n < 1:
        raise DomainError(f"message length must be >= 1, got {n}")
    if c < 2:
        raise DomainError(f"rate multiple c must be >= 2, got c={c}")
    check("GENERATOR_MAX_ENTRIES", c * n * n, "random-linear generator entries c*n^2")
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, 2, size=(c * n, n), dtype=np.uint8)
        try:
            return BinaryCode(kind=RANDOM_LINEAR, n=n, m=c * n,
                              generator=g, seed=seed)
        except _NotInjective:
            continue


def linear_code(generator: np.ndarray) -> BinaryCode:
    """A random-linear-kind code with an explicitly supplied generator."""
    g = np.asarray(generator)
    if g.ndim != 2:
        raise InputShapeError(f"generator must be a 2-D (m, n) matrix, got {g.shape}")
    return BinaryCode(kind=RANDOM_LINEAR, n=g.shape[1], m=g.shape[0], generator=g)


def declared_code(
    n: int,
    m: int,
    encoder: Callable[[str], str] | None = None,
    delta: Fraction | None = None,
    generator: np.ndarray | None = None,
) -> BinaryCode:
    """A code taken on trust: caller supplies the encoder and/or a delta bound."""
    return BinaryCode(kind=DECLARED, n=n, m=m, generator=generator,
                      declared_delta=delta, encoder=encoder)


def _bit_row(x: str) -> np.ndarray:
    return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")


def _bit_str(bits: np.ndarray) -> str:
    return (bits + ord("0")).tobytes().decode()


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """0/1 rows as the uint64 words of the number each row spells MSB-first.

    Column 0 is the most significant bit and word 0 holds the lowest 64
    bits, so a row of at most 64 bits packs to one word: x to int(x, 2).
    """
    words = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64),), dtype="<u8")
    packed = np.packbits(bits[..., ::-1], axis=-1, bitorder="little")
    words.view(np.uint8)[..., :packed.shape[-1]] = packed
    return words.astype(np.uint64, copy=False)


def _words(x: str) -> np.ndarray:
    """A bit-string as ``_packed_words`` lays it out: the words of int(x, 2)."""
    size = 8 * -(-len(x) // 64)
    return np.frombuffer(int(x, 2).to_bytes(size, "little"), "<u8").astype(np.uint64)


def _declared_word(code: BinaryCode, words: np.ndarray) -> np.ndarray:
    x = format(int.from_bytes(words.astype("<u8").tobytes(), "little"), f"0{code.n}b")
    word = code.encoder(x)  # type: ignore[misc]
    return _bit_row(_check_bits(word, code.m, f"declared codeword of x={x!r}"))


def _encoded_words(code: BinaryCode, z: np.ndarray) -> np.ndarray:
    """E(z) of each row of a message-word batch as (B, ceil(m/64)) words,
    laid out as ``BinaryCode._columns``: the XOR over the message bytes q
    of row (byte q of z) of lane table q."""
    lanes = np.ascontiguousarray(z, dtype="<u8").view(np.uint8)
    tables = code._lanes
    words = tables[0][lanes[:, 0]]
    for q in range(1, len(tables)):
        words ^= tables[q][lanes[:, q]]
    return words


def _codeword_bits(code: BinaryCode, x) -> np.ndarray:
    """All m codeword bits of each message, uint8: the one codeword builder.

    ``x`` is one bit-string, or a (B, ceil(n/64)) uint64 batch of message
    words laid out as ``_words`` lays out one message.  A hadamard bit i is
    the parity of popcount(i & x); a generator code reads its codewords from
    ``_encoded_words``, one table row per message byte.  Declared encoders
    run per message, on its bit-string.  More than
    ``guards.CODEWORD_MAX_BITS`` bits in all raise before any is built.
    """
    if isinstance(x, str):
        return _codeword_bits(code, _words(x)[None])[0]
    check("CODEWORD_MAX_BITS", len(x) * code.m, "codeword bits, messages x m")
    if code.kind == HADAMARD:
        return np.bitwise_count(np.arange(code.m, dtype=np.uint64) & x) & 1
    if not code.is_linear:
        return np.stack([_declared_word(code, row) for row in x])
    words = _encoded_words(code, x).astype("<u8", copy=False)
    # codeword bit i is bit m - 1 - i of the words
    return np.unpackbits(words.view(np.uint8), axis=1, count=code.m,
                         bitorder="little")[:, ::-1]


def encode(code: BinaryCode, x: str) -> str:
    """Full codeword of ``x`` as a bit-string of length m."""
    _check_bits(x, code.n, "x")
    return _bit_str(_codeword_bits(code, x))


def bit_at(code: BinaryCode, x: str, i: int) -> int:
    """The i-th codeword bit, 1-based.

    A hadamard bit is parity((i - 1) & x) in closed form, with no 2^n-bit
    codeword (so n = 63 works); other codes read ``_codeword_bits``.
    """
    _check_bits(x, code.n, "x")
    if not 1 <= i <= code.m:
        raise InputShapeError(f"index i must lie in 1..{code.m}, got {i}")
    if code.kind == HADAMARD:
        return ((i - 1) & int(x, 2)).bit_count() & 1
    return int(_codeword_bits(code, x)[i - 1])


def _agreements(code: BinaryCode, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Agreeing-position count of each row pair of two message-word batches.

    Hadamard codewords of distinct messages agree on exactly m/2 positions,
    so no codeword is built (uint64, since m = 2^63 at n = 63).  By
    linearity E(x) and E(y) agree where E(x XOR y) is 0, so a generator
    code counts m - popcount(E(x XOR y)) (int64).  A declared encoder
    compares the two codewords of each pair, one pair at a time.
    """
    if code.kind == HADAMARD:
        return np.where((x == y).all(axis=1), np.uint64(code.m),
                        np.uint64(code.m // 2))
    if not code.is_linear:
        return np.array([np.count_nonzero(_declared_word(code, a)
                                          == _declared_word(code, b))
                         for a, b in zip(x, y)], dtype=np.int64)
    weights = np.bitwise_count(_encoded_words(code, x ^ y))
    return code.m - weights.sum(axis=1, dtype=np.int64)


def agreement_fraction(code: BinaryCode, x: str, y: str) -> Fraction:
    """Exact fraction of positions where the codewords of x and y agree."""
    _check_bits(x, code.n, "x")
    _check_bits(y, code.n, "y")
    agree = _agreements(code, _words(x)[None], _words(y)[None])[0]
    return Fraction(int(agree), code.m)


@dataclass(frozen=True)
class DistanceCertificate:
    """Exact or declared minimum distance, with the agreement bound it implies."""

    min_distance: int
    method: str
    m: int

    @property
    def max_agreement(self) -> Fraction:
        return 1 - Fraction(self.min_distance, self.m)

    def to_json(self) -> dict:
        return {
            "min_distance": self.min_distance,
            "max_agreement": str(self.max_agreement),
            "method": self.method,
        }


def _span(columns: np.ndarray) -> np.ndarray:
    """Word-major (words, 2^k) table of the XORs of k packed columns.

    Built by doubling: entry s XORs the columns whose bits are set in s.
    """
    table = np.zeros((columns.shape[1], 1 << len(columns)), dtype=np.uint64)
    for b, column in enumerate(columns):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ column[:, None]
    return table


def _codeword_weights(code: BinaryCode):
    """Yield the weights of every codeword of a generator code, chunk by chunk.

    ``_span`` tabulates the codewords of the low message bits, as many as keep
    the table within ``_TABLE_WORDS`` packed words, and of the high bits; each
    high-bit codeword is XORed into the whole low table, in any order.  Entry
    0 of the first chunk is the zero codeword.  Weights are summed in uint8
    while every weight fits (m < 256).
    """
    columns = code._columns
    low = min(code.n, max(0, (_TABLE_WORDS // columns.shape[1]).bit_length() - 1))
    table = _span(columns[:low])
    dtype = np.uint8 if code.m < 256 else np.intp
    for offset in _span(columns[low:]).T[..., None]:
        yield np.bitwise_count(table ^ offset).sum(axis=0, dtype=dtype)


def _weight_distribution(code: BinaryCode) -> np.ndarray:
    """A_w, the number of codewords of weight w, for w = 0..m (int64)."""
    counts = np.zeros(code.m + 1, dtype=np.int64)
    for weights in _codeword_weights(code):
        counts += np.bincount(weights, minlength=code.m + 1)
    return counts


def _unit_block(block: int, n: int, width: int, free: int) -> tuple[int, int]:
    """Pivot n codewords on a maximal independent set of the free rows.

    The codewords are packed in one int, ``width`` bits each (codeword i
    from bit i * width), and ``free`` marks their free rows.  Codeword i,
    if it is 1 on some free row, pivots on the one in its lowest bit: it is
    XORed into every other codeword that is 1 there, all at once, as it
    times the int with a 1 in the slot of each of them.  A codeword with no
    free row has none after later pivots either, so the pivot rows are a
    maximal independent set of the free rows; the pivot codewords form a
    unit block on them and the others are 0 there.  These are the codewords
    of a new message basis.  Returns them and the rows left free.
    """
    mask = (1 << width) - 1
    ones = ((1 << n * width) - 1) // mask  # a 1 in each slot
    for i in range(n):
        column = (block >> i * width) & mask
        if lowest := column & free:
            row = (lowest & -lowest).bit_length() - 1
            others = ((block >> row) & ones) ^ (1 << i * width)  # 1 per slot
            block ^= column * others
            free ^= 1 << row
    return block, free


def _weights(words: np.ndarray, m: int) -> np.ndarray:
    """The weight of each codeword of length m in a word-major (words, ...)
    array, summed in uint8 while every weight fits (m < 256)."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.uint8 if m < 256 else np.intp)


def _information_set_min_weight(code: BinaryCode, budget: int) -> int | None:
    """The minimum distance by the Brouwer–Zimmermann search, or None.

    ``_unit_block`` takes disjoint information sets greedily, each with its
    defect n - rank.  Each set enumerates its messages by weight w = 1, 2,
    ...: the weight-w level sets one bit above the highest bit of each
    weight-(w-1) message, so each set's codewords are one gather of the
    parent codewords XOR one gather of the columns.  Once every level below
    w is formed, a codeword not yet formed has at least w message bits in
    every set's basis, so at least w - defect ones on each set's rows: with
    the sets disjoint, its weight is at least sum_j max(0, w - defect_j).
    The search stops when that bound reaches the lightest codeword formed.
    A set adds to the bound by then only if its defect is at most the last
    level, so no other set is searched, and at the last level each set
    searched adds one, so only as many as the bound still lacks are.

    The levels are counted before any is formed, from the lightest
    codeword so far (a lighter one only cuts them).  None hands the code
    over to the span pass when they would form more than ``budget``
    codewords, also while the sets are built as if every n rows still free
    made a full-rank set, or when the next level would hold more than
    ``_LEVEL_WORDS`` words.
    """
    words, n = -(-code.m // 64), code.n
    # the generator columns, the codewords of the unit messages, one per slot
    unit = code._columns.astype("<u8", copy=False)
    block = int.from_bytes(unit.tobytes(), "little")
    free = (1 << code.m) - 1  # rows that no earlier set took
    defects, blocks, least = [], [], code.m

    def plan(w: int, defects: list[int]) -> list[int]:
        """The sets to search at each level from w on, with all below formed."""
        def bound(v: int) -> int:
            return sum(v - d for d in defects if d < v)
        last = w - 1
        while last < n and bound(last + 1) < least:
            last += 1
        if last < w:
            return []
        sets = bisect_right(defects, last)
        return [sets] * (last - w) + [min(sets, least - bound(last))]

    def over_budget(defects: list[int]) -> bool:
        return sum(s * comb(n, v) for v, s in enumerate(plan(2, defects), 2)) > budget

    # a set has no more rows than are free; the first has n rows
    while (len(blocks) + 1) * n * words <= _LEVEL_WORDS and \
            n - free.bit_count() < least:
        block, left = _unit_block(block, n, 64 * words, free)
        defect = n - (free ^ left).bit_count()
        if defect >= min(n, least):  # no row taken, or no use to the bound
            break
        packed = block.to_bytes(8 * n * words, "little")
        blocks.append(np.frombuffer(packed, "<u8").reshape(n, words).T)
        defects.append(defect)
        least = min(least, int(_weights(blocks[-1], code.m).min()))
        free = left
        if over_budget(defects + [0] * (free.bit_count() // n)):
            return None
    if not blocks or over_budget(defects):
        return None
    columns = level = np.stack(blocks, axis=1)  # (words, sets, n): weight 1
    high = np.arange(n)  # the highest bit of each message of the level
    for w in range(2, n + 1):
        sets = plan(w, defects)
        if not sets:
            break
        if sets[0] * comb(n, w) * words > _LEVEL_WORDS:
            return None
        children = n - 1 - high
        parent = np.repeat(np.arange(len(high)), children)
        first = np.cumsum(children) - children  # each parent's first child
        high = np.arange(len(parent)) - np.repeat(first - high - 1, children)
        level = np.take(level[:, :sets[0]], parent, axis=-1)
        level ^= np.take(columns[:, :sets[0]], high, axis=-1)
        least = min(least, int(_weights(level, code.m).min()))
    return least


def _min_weight(code: BinaryCode) -> int:
    """The smallest weight of a nonzero codeword: the code's minimum distance.

    A code whose 2^n codewords hold at most ``_SEARCH_WORDS`` words reads
    them all in the span pass of ``_codeword_weights``.  Any other code
    first runs the information-set search, which forms at most 2^n / 4
    codewords past its weight-1 level, each costing about four of the span
    pass's; if it hands over, the span pass reads all 2^n, so the worst
    case is about twice the span pass.
    """
    if -(-code.m // 64) << code.n > _SEARCH_WORDS:
        least = _information_set_min_weight(code, 1 << code.n >> 2)
        if least is not None:
            return least
    chunks = _codeword_weights(code)
    least = int(next(chunks)[1:].min(initial=code.m))
    for weights in chunks:
        least = min(least, int(weights.min()))
    return least


def _min_pairwise_distance(code: BinaryCode) -> int:
    """Smallest Hamming distance between the codewords of distinct messages."""
    messages = np.arange(1 << code.n, dtype=np.uint64)[:, None]
    words = _packed_words(_codeword_bits(code, messages))
    return min(
        int(np.bitwise_count(words[a + 1:] ^ words[a]).sum(axis=1).min())
        for a in range(len(words) - 1)
    )


def certify_distance(code: BinaryCode) -> DistanceCertificate:
    """Exact minimum Hamming distance over all distinct codeword pairs.

    Hadamard codes have distance m/2 in closed form; other codes with a
    generator take the smallest weight of a nonzero codeword, found by the
    information-set search of ``_min_weight`` or, when it hands over, read
    in one pass over the span tables of all their codewords; declared codes
    with a claimed delta return it verbatim; a declared encoder without a
    claim is compared pairwise.  Past the word-operation guard, which bounds
    the span pass, a code is rejected with instructions to declare a bound
    instead.
    """
    if code.kind == DECLARED and code.declared_delta is not None:
        agree = floor(code.declared_delta * code.m)
        dist, method = code.m - agree, "declared"
    elif code.kind == HADAMARD:
        dist, method = code.m // 2, "closed-form"
    else:
        count = 1 << min(code.n, 64)  # n is capped before 2^n is formed
        if not code.is_linear:
            count = count * (count - 1) // 2  # codeword pairs
        check("CERTIFY_MAX_WORDS", count * -(-code.m // 64),
              "word operations to certify the code (or declare a delta bound)")
        if code.is_linear:
            dist, method = _min_weight(code), "weight-enumeration"
        else:
            dist, method = _min_pairwise_distance(code), "exhaustive"
            if dist == 0:
                raise DomainError("declared encoder is not injective")
    return DistanceCertificate(min_distance=dist, method=method, m=code.m)
