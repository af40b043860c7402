import itertools
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfplab import (
    BinaryCode,
    CapabilityError,
    DomainError,
    InputShapeError,
    agreement_fraction,
    bit_at,
    certify_distance,
    code_from_json,
    declared_code,
    encode,
    hadamard_code,
    linear_code,
    random_linear_code,
)
from qfplab.codes import (
    _agreements,
    _codeword_bits,
    _information_set_min_weight,
    _min_weight,
    _packed_words,
    _weight_distribution,
)
from qfplab.guards import GUARDS


def all_messages(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def pairwise_min_distance(code):
    """Independent oracle: compare every encoded pair directly."""
    words = [encode(code, x) for x in all_messages(code.n)]
    return min(
        sum(a != b for a, b in zip(words[i], words[j]))
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )


def repetition_code(n, c):
    return linear_code(np.repeat(np.eye(n, dtype=np.uint8), c, axis=0))


class TestEncode:
    def test_one_dimensional_generator_rejected(self):
        with pytest.raises(InputShapeError, match="2-D"):
            linear_code(np.array([1, 0, 1]))

    def test_hadamard_zero_message(self):
        assert encode(hadamard_code(2), "00") == "0000"

    def test_hadamard_n2_all_ones(self):
        # bit i = popcount(i & 0b11) mod 2 for i = 0..3
        assert encode(hadamard_code(2), "11") == "0110"

    def test_identity_padded_generator_copies_message(self):
        gen = np.vstack([np.eye(3, dtype=np.uint8),
                         np.zeros((3, 3), dtype=np.uint8)])
        assert encode(linear_code(gen), "101") == "101000"

    # entries are checked before the cast to uint8, which would wrap 256 to
    # 0 and truncate 1.5 to 1
    @pytest.mark.parametrize("entry", [256, 1.5])
    def test_generator_entry_not_0_or_1_rejected(self, entry):
        gen = np.vstack([np.eye(2), np.eye(2)]).astype(type(entry))
        gen[3, 1] = entry
        with pytest.raises(InputShapeError, match="0/1 matrix"):
            linear_code(gen)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputShapeError):
            encode(hadamard_code(2), "010")

    def test_alphabet_rejected(self):
        with pytest.raises(InputShapeError):
            encode(hadamard_code(2), "0x")

    @pytest.mark.parametrize("word", ["0110", "01102", 3],
                             ids=["short", "alphabet", "not-a-string"])
    def test_invalid_declared_codeword_rejected(self, word):
        code = declared_code(2, 5, encoder=lambda x: word)
        with pytest.raises(InputShapeError, match="declared codeword"):
            encode(code, "01")


# One code per branch of the codeword-bit kernel, all with m = 16; the
# random-linear code is the original case and keeps bare index ids.
BIT_KERNEL_CODES = {
    "": random_linear_code(4, 4, seed=5),
    "hadamard4": hadamard_code(4),
    "declared-generator": declared_code(
        4, 16, generator=random_linear_code(4, 4, seed=6).generator),
    "declared-encoder": declared_code(
        4, 16, encoder=lambda x: x * 3 + "0110"),
}


class TestBitAt:
    def test_hadamard_n2_from_codeword(self):
        assert bit_at(hadamard_code(2), "11", 2) == 1

    @pytest.mark.parametrize("code, i", [
        pytest.param(code, i, id=f"{name}-{i}" if name else str(i))
        for name, code in BIT_KERNEL_CODES.items()
        for i in (1, 3, 7, 16)
    ])
    def test_consistency_with_encode(self, code, i):
        word = encode(code, "1011")
        assert bit_at(code, "1011", i) == int(word[i - 1])

    def test_two_word_rows_match_the_oracle(self):
        code = random_linear_code(70, 2, seed=1)
        x = "".join(map(str, np.random.default_rng(5).integers(0, 2, 70)))
        expected = reference_codeword(code, x)
        assert [bit_at(code, x, i) for i in range(1, code.m + 1)] == \
            expected.tolist()

    def test_hadamard_single_bit_overlap(self):
        # i - 1 = 128 and x = 10000000 share exactly one set bit
        assert bit_at(hadamard_code(8), "10000000", 129) == 1

    def test_index_out_of_range(self):
        with pytest.raises(InputShapeError):
            bit_at(hadamard_code(2), "11", 5)
        with pytest.raises(InputShapeError):
            bit_at(hadamard_code(2), "11", 0)


def reference_codeword(code, x):
    """Independent oracle: every codeword bit from its definition."""
    if code.kind == "hadamard":
        return np.array([bin(i & int(x, 2)).count("1") % 2 for i in range(code.m)])
    if code.generator is not None:
        return code.generator.astype(int) @ np.array([int(ch) for ch in x]) % 2
    return np.array([int(ch) for ch in code.encoder(x)])


class TestBatchKernel:
    @pytest.mark.parametrize("code", [
        pytest.param(code, id=name or "random-linear4")
        for name, code in BIT_KERNEL_CODES.items()
    ] + [pytest.param(random_linear_code(70, 2, seed=1), id="random-linear70")])
    def test_rows_match_single_message_kernel(self, code):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 2, (5, code.n), dtype=np.uint8)
        # the kernel takes messages as words: row x packs to int(x, 2)
        full = _codeword_bits(code, _packed_words(batch))
        assert full.shape == (5, code.m)
        for row, bits in zip(batch, full):
            x = "".join(str(b) for b in row)
            assert np.array_equal(bits, _codeword_bits(code, x))
            assert np.array_equal(bits, reference_codeword(code, x))

    @pytest.mark.parametrize("code", [
        pytest.param(code, id=name or "random-linear4")
        for name, code in BIT_KERNEL_CODES.items() if code.is_linear
    ] + [pytest.param(random_linear_code(70, 2, seed=1), id="random-linear70")])
    def test_batches_past_one_chunk_match_the_oracle(self, code):
        # 2000 pairs span several of _agreements' 2^14-word chunks; the
        # builder itself takes all 2000 messages in one pass
        rng = np.random.default_rng(4)
        x, y = rng.integers(0, 2, (2, 2000, code.n), dtype=np.uint8)
        ex, ey = (np.array([reference_codeword(code, "".join(map(str, row)))
                            for row in batch]) for batch in (x, y))
        assert np.array_equal(_codeword_bits(code, _packed_words(x)), ex)
        agree = _agreements(code, _packed_words(x), _packed_words(y))
        assert agree.tolist() == (ex == ey).sum(axis=1).tolist()


# Every generator code reads its codewords from the one builder: bit_at,
# _codeword_bits and the definition agree, and agreements are symmetric and
# linear.  n up to 70 packs messages into two words.
@settings(max_examples=30)
@given(n=st.integers(1, 70), c=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
@example(n=70, c=2, seed=0)
def test_one_builder_on_random_generators(n, c, seed):
    code = random_linear_code(n, c, seed)
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, 2, (2, 4, n), dtype=np.uint8)
    msg = "".join(map(str, x[0]))
    bits = _codeword_bits(code, msg)
    assert [bit_at(code, msg, i) for i in range(1, code.m + 1)] == bits.tolist()
    assert bits.tolist() == reference_codeword(code, msg).tolist()
    agree = _agreements(code, _packed_words(x), _packed_words(y))
    assert agree.tolist() == _agreements(code, _packed_words(y),
                                         _packed_words(x)).tolist()
    weights = [reference_codeword(code, "".join(map(str, z))).sum() for z in x ^ y]
    assert agree.tolist() == [code.m - w for w in weights]


class TestCertifyDistance:
    def test_hadamard_n4(self):
        cert = certify_distance(hadamard_code(4))
        assert cert.min_distance == 8
        assert cert.max_agreement == Fraction(1, 2)
        assert cert.method == "closed-form"

    @pytest.mark.parametrize("n", range(2, 11))
    def test_hadamard_distance_is_half_m(self, n):
        cert = certify_distance(hadamard_code(n))
        assert cert.min_distance == 2**n // 2

    def test_zero_column_generator_rejected(self):
        gen = np.array([[1, 0], [0, 0], [1, 0], [0, 0]], dtype=np.uint8)
        with pytest.raises(DomainError, match="injective"):
            linear_code(gen)

    def test_random_linear_seeded(self):
        cert = certify_distance(random_linear_code(8, 8, seed=7))
        assert cert.min_distance >= 1

    @pytest.mark.parametrize("code", [
        hadamard_code(4),
        random_linear_code(5, 3, seed=2),
        repetition_code(4, 2),
        declared_code(4, 12, generator=random_linear_code(4, 3, seed=8).generator),
    ], ids=["hadamard4", "random-linear5", "repetition4x2", "declared-generator"])
    def test_matches_pairwise_oracle(self, code):
        assert certify_distance(code).min_distance == pairwise_min_distance(code)

    def test_declared_bound_returned_verbatim(self):
        code = declared_code(30, 90, delta=Fraction(1, 3),
                             encoder=lambda x: x * 3)
        cert = certify_distance(code)
        assert cert.method == "declared"
        assert cert.max_agreement == Fraction(1, 3)
        assert cert.min_distance == 60

    def test_declared_encoder_certified_exhaustively(self):
        code = declared_code(3, 6, encoder=lambda x: x + x)
        cert = certify_distance(code)
        assert cert.method == "exhaustive"
        assert cert.min_distance == 2

    def test_guard_requires_declared_bound(self):
        big = declared_code(30, 90, encoder=lambda x: x * 3)
        with pytest.raises(CapabilityError, match="declare"):
            certify_distance(big)

    def test_hadamard_closed_form_is_immediate(self):
        # n = 20 enumerated 2^20 codewords in 136 s before the closed form
        start = time.perf_counter()
        cert = certify_distance(hadamard_code(63))
        assert time.perf_counter() - start < 5.0
        assert cert.min_distance == 2**62
        assert cert.max_agreement == Fraction(1, 2)

    def test_enumerator_guard_bounds_words(self):
        # 2^24 codewords of two words each are admitted, 2^25 are not
        assert certify_distance(random_linear_code(24, 3, seed=1)).min_distance > 0
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="declare"):
            certify_distance(random_linear_code(25, 3, seed=1))
        assert time.perf_counter() - start < 5.0

    def test_exhaustive_guard_bounds_pairs(self):
        # C(2^14, 2) codeword pairs are over the budget
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="declare"):
            certify_distance(declared_code(14, 28, encoder=lambda x: x + x))
        assert time.perf_counter() - start < 5.0


def reference_weight_distribution(code):
    """Independent oracle: the weight of every codeword, from its definition."""
    # row v holds the bits of v, most significant first
    messages = np.arange(2**code.n)[:, None] >> np.arange(code.n)[::-1] & 1
    weights = (messages @ code.generator.T.astype(int) % 2).sum(axis=1)
    return np.bincount(weights, minlength=code.m + 1)


class TestWeightDistribution:
    # n = 14 fills the codeword table exactly; n = 15 and 17 walk the high
    # bits in Gray order, and c = 4 at n = 17 packs codewords into two words
    @pytest.mark.parametrize("code", [
        random_linear_code(3, 2, seed=1),
        random_linear_code(10, 3, seed=2),
        random_linear_code(14, 2, seed=3),
        random_linear_code(15, 2, seed=4),
        random_linear_code(17, 4, seed=5),
        declared_code(9, 27, generator=random_linear_code(9, 3, seed=6).generator),
    ], ids=["random-linear3", "random-linear10", "random-linear14",
            "random-linear15", "random-linear17", "declared-generator9"])
    def test_matches_brute_force(self, code):
        counts = _weight_distribution(code)
        assert counts[0] == 1 and counts.sum() == 2**code.n
        assert np.array_equal(counts, reference_weight_distribution(code))

    # identity rows keep the generator injective; past 64 rows a codeword
    # takes two words, past 128 three
    @settings(max_examples=40)
    @given(n=st.integers(1, 10), extra=st.integers(0, 130),
           seed=st.integers(0, 2**32 - 1))
    @example(n=10, extra=60, seed=0)
    @example(n=2, extra=127, seed=1)
    def test_matches_brute_force_on_random_generators(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        gen = np.vstack([np.eye(n, dtype=np.uint8),
                         rng.integers(0, 2, (extra, n), dtype=np.uint8)])
        code = declared_code(n, n + extra, generator=rng.permutation(gen))
        assert np.array_equal(_weight_distribution(code),
                              reference_weight_distribution(code))


class TestMinWeight:
    # m <= 64 packs a codeword into one word, 65..255 into 2-4 words summed
    # in uint8, 256 and up into words summed in intp; n is capped so that the
    # brute force stays small, and still passes the low table's bits in each
    # range (14 at one word, 13 at two, 12 at three or four, 11 at five)
    @settings(max_examples=40, deadline=None)
    @given(m=st.one_of(st.integers(1, 64), st.integers(65, 255),
                       st.integers(256, 320)),
           n=st.integers(1, 15), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(m=64, n=15, density=0.5, seed=0)
    @example(m=128, n=14, density=0.1, seed=1)
    @example(m=255, n=14, density=0.5, seed=2)
    @example(m=300, n=13, density=0.05, seed=3)
    def test_matches_brute_force_on_random_generators(self, m, n, density, seed):
        n = min(n, m, 15 if m <= 64 else 14 if m < 256 else 13)
        rng = np.random.default_rng(seed)
        extra = (rng.random((m - n, n)) < density).astype(np.uint8)
        gen = np.vstack([np.eye(n, dtype=np.uint8), extra])
        code = declared_code(n, m, generator=rng.permutation(gen))
        counts = reference_weight_distribution(code)
        assert _min_weight(code) == int(np.flatnonzero(counts[1:])[0]) + 1

    # generator column n - 1 alone spells the one codeword of weight 1 (each
    # other message bit is repeated three times), and that codeword is entry 0
    # of the third or fifth table pass, not of the first
    @pytest.mark.parametrize("n, m", [(16, 64), (15, 200), (14, 300)])
    def test_lightest_codeword_opens_a_later_pass(self, n, m):
        gen = np.zeros((m, n), dtype=np.uint8)
        gen[:3 * (n - 1), :n - 1] = np.tile(np.eye(n - 1, dtype=np.uint8), (3, 1))
        gen[3 * (n - 1), n - 1] = 1
        assert _min_weight(declared_code(n, m, generator=gen)) == 1


def degenerate_rows(draw, n, count):
    """Rows that split into information sets of every rank: zero rows,
    copies of one row, rows from a rank-1 or rank-2 subspace, and dense or
    sparse random rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    while count > 0:
        k = draw(st.integers(1, count))
        kind = draw(st.sampled_from(["zero", "copies", "low-rank", "random"]))
        if kind == "zero":
            rows = np.zeros((k, n), dtype=np.uint8)
        elif kind == "copies":
            rows = np.repeat(rng.integers(0, 2, (1, n), dtype=np.uint8), k, axis=0)
        elif kind == "low-rank":
            span = rng.integers(0, 2, (draw(st.integers(1, 2)), n))
            rows = (rng.integers(0, 2, (k, len(span))) @ span % 2).astype(np.uint8)
        else:
            rows = (rng.random((k, n)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
        blocks.append(rows)
        count -= k
    return blocks


@st.composite
def degenerate_generators(draw):
    n = draw(st.integers(1, 10))
    m = max(n, draw(st.one_of(st.integers(1, 64), st.integers(65, 255),
                              st.integers(256, 320))))
    gen = np.vstack([np.eye(n, dtype=np.uint8), *degenerate_rows(draw, n, m - n)])
    if draw(st.booleans()):
        gen = gen[np.random.default_rng(draw(st.integers(0, 99))).permutation(m)]
    return declared_code(n, m, generator=gen)


class TestInformationSetSearch:
    # called directly, with a budget that never hands over, so that small n
    # (which the span pass certifies in _min_weight) checks the search itself
    @settings(max_examples=60, deadline=None)
    @given(code=degenerate_generators())
    def test_matches_brute_force(self, code):
        counts = reference_weight_distribution(code)
        least = _information_set_min_weight(code, 2**40)
        assert least == int(np.flatnonzero(counts[1:])[0]) + 1

    # dense codes whose lightest codeword often has 2 to 4 message bits in
    # every set's basis, so that a bound too high by one stops too early
    @pytest.mark.parametrize("n", range(6, 13))
    def test_matches_brute_force_on_random_linear_codes(self, n):
        for c, seed in itertools.product((2, 3, 4), range(8)):
            code = random_linear_code(n, c, seed)
            counts = reference_weight_distribution(code)
            least = _information_set_min_weight(code, 2**40)
            assert least == int(np.flatnonzero(counts[1:])[0]) + 1, (c, seed)

    def test_a_set_whose_defect_is_the_last_level_is_searched(self):
        # three sets, of defects 0, 2 and 3; the lightest weight-1 codeword
        # has weight 4, so the bound needs levels up to 2, and the defect-2
        # set adds one to it at the stop.  Only that set's weight-2 level
        # holds the codeword of weight 3.
        rows = ["0101000", "0110010", "0000111", "0010001", "1110010",
                "0001011", "0101000", "1001100", "1101111", "1000000",
                "0100000", "0010000", "0001000", "0000100", "0000010",
                "0000001"]
        gen = np.array([[int(b) for b in r] for r in rows])
        code = declared_code(7, 16, generator=gen)
        assert pairwise_min_distance(code) == 3
        assert _information_set_min_weight(code, 2**40) == 3

    # identity rows and 248 dense rows: after the first set the lightest
    # codeword has weight 111, and even 16 full-rank sets would need levels
    # past the budget of 2^16 / 4 codewords, so the search hands over; the
    # n = 20 code stops after one set's weight-3 level
    @pytest.mark.parametrize("n, m, hands_over", [(16, 264, True), (20, 60, False)])
    def test_hands_over_to_the_span_pass(self, n, m, hands_over):
        rng = np.random.default_rng(9)
        gen = np.vstack([np.eye(n, dtype=np.uint8),
                         rng.integers(0, 2, (m - n, n), dtype=np.uint8)])
        code = declared_code(n, m, generator=gen)
        found = _information_set_min_weight(code, 2**n // 4)
        assert (found is None) == hands_over
        least = int(np.flatnonzero(_weight_distribution(code)[1:])[0]) + 1
        assert _min_weight(code) == least and found in (None, least)


def test_weight_distribution_peak_memory_near_generator_size():
    # a declared code with a long generator: the n columns are packed from
    # the generator itself, with no (n, m) intermediate of 64-bit words
    n, m = 5, 2**16
    generator = np.random.default_rng(8).integers(0, 2, (m, n), dtype=np.uint8)
    generator[:n] = np.eye(n, dtype=np.uint8)
    code = declared_code(n, m, generator=generator)
    tracemalloc.start()
    try:
        counts = _weight_distribution(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2**n
    # A_w for w = 0..m alone takes 8(m + 1) bytes, 1.6x the generator here
    assert peak <= 5 * generator.nbytes


def test_agreement_chunks_stay_within_their_word_budget():
    # n = 70 packs each message into two words, so a chunk of
    # floor(2^14 / (m words)) = 58 pairs holds 2^14 uint64 words of
    # (pairs, m, words) intermediates, with their uint8 popcounts; a chunk
    # of floor(2^14 / m) = 117 pairs would hold twice that
    code = random_linear_code(70, 2, seed=1)
    rng = np.random.default_rng(5)
    x, y = (_packed_words(bits) for bits in
            rng.integers(0, 2, (2, 4096, 70), dtype=np.uint8))
    assert x.shape == (4096, 2)
    tracemalloc.start()
    try:
        agree = _agreements(code, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert agree.shape == (4096,)
    # numpy's iterator buffers two operands of the broadcast AND; the
    # chunks' int64 counts are held twice, as a list and concatenated
    bound = (1 << 14) * (8 + 1) + 2 * np.getbufsize() * 8 + 2 * 4096 * 8
    assert peak <= bound + 16 * 1024


class TestAgreementFraction:
    def test_identical_messages(self):
        assert agreement_fraction(hadamard_code(3), "101", "101") == 1

    def test_hadamard_closed_form_matches_codewords(self):
        code = hadamard_code(5)
        msgs = all_messages(5)
        words = {x: encode(code, x) for x in msgs}
        pairs = list(itertools.product(msgs, repeat=2))
        batch = [np.array([[int(p[side], 2)] for p in pairs], dtype=np.uint64)
                 for side in (0, 1)]
        direct = [sum(a == b for a, b in zip(words[x], words[y]))
                  for x, y in pairs]
        assert _agreements(code, *batch).tolist() == direct
        for bx, by, agree in zip(*batch, direct):
            assert _agreements(code, bx[None], by[None])[0] == agree

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_hadamard_distinct_pairs_agree_half(self, n):
        code = hadamard_code(n)
        msgs = all_messages(n)
        for x, y in itertools.combinations(msgs, 2):
            assert agreement_fraction(code, x, y) == Fraction(1, 2)

    def test_repetition_single_bit_flip(self):
        code = repetition_code(3, 2)
        assert agreement_fraction(code, "101", "100") == 1 - Fraction(1, 3)

    def test_matches_direct_count(self):
        code = random_linear_code(6, 3, seed=9)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = "".join(str(b) for b in rng.integers(0, 2, 6))
            y = "".join(str(b) for b in rng.integers(0, 2, 6))
            direct = Fraction(
                sum(a == b for a, b in zip(encode(code, x), encode(code, y))),
                code.m,
            )
            assert agreement_fraction(code, x, y) == direct

    def test_linearity(self):
        # agreement(x, y) = 1 - weight(E(x xor y)) / m for linear codes
        code = random_linear_code(8, 2, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(50):
            xv = rng.integers(0, 2, 8)
            yv = rng.integers(0, 2, 8)
            x = "".join(map(str, xv))
            y = "".join(map(str, yv))
            z = "".join(str(a ^ b) for a, b in zip(xv, yv))
            weight = encode(code, z).count("1")
            assert agreement_fraction(code, x, y) == 1 - Fraction(weight, code.m)

    @pytest.mark.parametrize("code", [
        hadamard_code(5),
        random_linear_code(5, 4, seed=3),
    ], ids=["hadamard5", "random-linear5"])
    def test_bounded_by_certificate(self, code):
        delta = certify_distance(code).max_agreement
        for x, y in itertools.combinations(all_messages(code.n), 2):
            assert agreement_fraction(code, x, y) <= delta


class TestConstruction:
    def test_hadamard_length_is_power_of_two(self):
        assert hadamard_code(5).m == 32

    def test_hadamard_positions_fit_64_bits(self):
        with pytest.raises(CapabilityError, match="64-bit"):
            hadamard_code(64)
        code = hadamard_code(63)
        # position 2^63 - 1 shares all 63 set bits with the all-ones message
        assert bit_at(code, "1" * 63, code.m) == 1

    @pytest.mark.parametrize("n", [40, 63])
    def test_hadamard_codeword_past_the_bit_guard_fails_fast(self, n):
        # a 2^n-bit codeword is refused before any of it is allocated; bit_at
        # and agreement_fraction stay in closed form
        code = hadamard_code(n)
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=re.escape(
                f"codeword bits, messages x m = {2**n} is above the guard "
                f"CODEWORD_MAX_BITS = {2**22}")):
            encode(code, "1" * n)
        assert time.perf_counter() - start < 1.0
        assert bit_at(code, "1" * n, code.m) == n % 2
        assert agreement_fraction(code, "1" * n, "0" * n) == Fraction(1, 2)

    def test_codeword_bit_guard_admits_the_largest_fingerprint(self):
        # make_fingerprint builds codewords of up to 2^20 bits
        limit = GUARDS["CODEWORD_MAX_BITS"]
        assert limit >= 2**20
        assert len(encode(hadamard_code(22), "1" * 22)) == limit

    def test_declared_code_takes_one_codeword_source(self):
        # a generator and an encoder together would leave one of them unread
        with pytest.raises(DomainError, match="exactly one codeword source"):
            declared_code(2, 3, encoder=lambda x: "111",
                          generator=np.array([[1, 0], [0, 1], [1, 1]]))
        with pytest.raises(DomainError, match="exactly one codeword source"):
            declared_code(2, 3, delta=Fraction(1, 2))

    GENERATOR = np.array([[1, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    ROWS = ["1", "2", "3", "1"]  # the same generator as hex rows
    # kind, the one field it does not read, and the code's other fields
    UNREAD = [
        ("hadamard", "generator", dict(generator=GENERATOR)),
        ("hadamard", "encoder", dict(encoder=lambda x: x * 2)),
        ("hadamard", "declared_delta", dict(declared_delta=Fraction(1, 2))),
        ("hadamard", "seed", dict(seed=0)),
        ("random-linear", "encoder",
         dict(generator=GENERATOR, encoder=lambda x: x * 2)),
        ("random-linear", "declared_delta",
         dict(generator=GENERATOR, declared_delta=Fraction(0))),
        ("declared", "seed", dict(generator=GENERATOR, seed=3)),
    ]

    @pytest.mark.parametrize("kind,name,fields", UNREAD,
                             ids=[f"{k}-{n}" for k, n, _ in UNREAD])
    def test_a_field_the_kind_does_not_read_is_rejected(self, kind, name,
                                                        fields):
        with pytest.raises(DomainError, match=f"{kind} codes do not read {name}$"):
            BinaryCode(kind=kind, n=2, m=4, **fields)

    @pytest.mark.parametrize("kind,name,extra", [
        ("hadamard", "generator", {"generator": ROWS}),
        ("hadamard", "declared_delta", {"declared_delta": "1/2"}),
        ("hadamard", "seed", {"seed": 0}),
        ("random-linear", "declared_delta",
         {"generator": ROWS, "declared_delta": "0"}),
        ("declared", "seed", {"generator": ROWS, "seed": 3}),
    ], ids=["hadamard-generator", "hadamard-declared_delta", "hadamard-seed",
            "random-linear-declared_delta", "declared-seed"])
    def test_a_description_with_an_unread_field_is_rejected(self, kind, name,
                                                           extra):
        with pytest.raises(DomainError, match=f"{kind} codes do not read {name}$"):
            code_from_json({"kind": kind, "n": 2, "m": 4, **extra})

    def test_random_linear_requires_c_at_least_two(self):
        with pytest.raises(DomainError):
            random_linear_code(4, 1, seed=0)

    def test_random_linear_generator_guard(self):
        # c * n^2 entries: admitted at exactly the guard, refused one past it
        limit = GUARDS["GENERATOR_MAX_ENTRIES"]
        code = random_linear_code(1, limit, seed=0)
        assert code.generator.shape == (limit, 1)
        with pytest.raises(CapabilityError, match=re.escape(
                f"c*n^2 = {limit + 1} is above the guard "
                f"GENERATOR_MAX_ENTRIES = {2**20}")):
            random_linear_code(1, limit + 1, seed=0)

    def test_random_linear_deterministic(self):
        a = random_linear_code(6, 3, seed=12)
        b = random_linear_code(6, 3, seed=12)
        assert np.array_equal(a.generator, b.generator)

    def test_random_linear_resamples_rank_deficient_draws(self):
        # n = 1, c = 2: seed 4 first draws the all-zero (rank 0) generator
        rng = np.random.default_rng(4)
        assert not rng.integers(0, 2, (2, 1), dtype=np.uint8).any()
        second = rng.integers(0, 2, (2, 1), dtype=np.uint8)
        assert second.any()
        assert np.array_equal(random_linear_code(1, 2, seed=4).generator, second)

    def test_random_linear_rejects_empty_message(self):
        with pytest.raises(DomainError, match="message length"):
            random_linear_code(0, 2, seed=0)

    def test_encode_injective_exhaustively(self):
        code = random_linear_code(6, 2, seed=8)
        words = {encode(code, x) for x in all_messages(6)}
        assert len(words) == 2**6


class TestSerialization:
    def test_generator_rows_hex_lsb_is_column_one(self):
        gen = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
            dtype=np.uint8,
        )
        desc = linear_code(gen).to_json()
        assert desc["generator"][0] == "1"  # column 1 sits in the low bit
        assert desc["generator"][3] == "5"  # 0b101: columns 1 and 3
        assert desc["generator"][4] == "6"  # 0b110: columns 2 and 3

    def test_round_trip(self):
        code = random_linear_code(5, 3, seed=21)
        clone = code_from_json(code.to_json())
        for x in ("00000", "10101", "11111"):
            assert encode(clone, x) == encode(code, x)

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 64, 70])
    def test_rows_are_the_bit_sums(self, n):
        code = random_linear_code(n, 2, seed=n)
        width = (n + 3) // 4
        expected = [format(sum(int(b) << j for j, b in enumerate(row)),
                           f"0{width}x") for row in code.generator]
        assert code.to_json()["generator"] == expected

    @settings(max_examples=40)
    @given(n=st.integers(1, 70), extra=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_bit_for_bit(self, n, extra, seed):
        # identity rows keep any generator injective
        rng = np.random.default_rng(seed)
        gen = np.vstack([np.eye(n, dtype=np.uint8),
                         rng.integers(0, 2, (extra, n), dtype=np.uint8)])
        code = declared_code(n, n + extra, generator=rng.permutation(gen))
        clone = code_from_json(code.to_json())
        assert clone.generator.dtype == np.uint8
        assert np.array_equal(clone.generator, code.generator)

    @pytest.mark.parametrize("rows", [
        ["1", "2", "4", "5", "6"],
        ["1", "2", "4", "5", "6", "7", "3"],
        ["1", "2", "4", "5", "6", "f3"],
        ["1", "2", "4", "5", "6", "7g"],
    ], ids=["missing-row", "extra-row", "bit-above-n", "not-hex"])
    def test_malformed_generator_rejected(self, rows):
        desc = {"kind": "random-linear", "n": 3, "m": 6, "generator": rows}
        with pytest.raises(InputShapeError, match="generator"):
            code_from_json(desc)

    GOOD = {"kind": "declared", "n": 3, "m": 6,
            "generator": ["1", "2", "4", "5", "6", "7"]}

    @pytest.mark.parametrize("desc", [
        {**GOOD, "n": "3"}, {**GOOD, "n": 3.0}, {**GOOD, "m": None},
        {k: v for k, v in GOOD.items() if k != "kind"},
        {**GOOD, "declared_delta": "half"}, {**GOOD, "declared_delta": "1/0"},
        {**GOOD, "declared_delta": None}, {**GOOD, "seed": "x"},
    ], ids=["n-string", "n-float", "m-null", "missing-kind", "delta-word",
            "delta-zero-denominator", "delta-null", "seed-string"])
    def test_malformed_description_rejected(self, desc):
        with pytest.raises(InputShapeError, match="malformed code description"):
            code_from_json(desc)

    def test_long_declared_generator_constructs_fast(self):
        n, m = 5, 10**6
        generator = np.random.default_rng(8).integers(0, 2, (m, n),
                                                      dtype=np.uint8)
        generator[:n] = np.eye(n, dtype=np.uint8)
        start = time.perf_counter()
        declared_code(n, m, generator=generator)
        assert time.perf_counter() - start < 1.0

    def test_hadamard_description(self):
        assert hadamard_code(3).to_json() == {"kind": "hadamard", "n": 3, "m": 8}

    def test_declared_without_generator_does_not_round_trip(self):
        desc = declared_code(4, 8, encoder=lambda x: x + x,
                             delta=Fraction(1, 2)).to_json()
        with pytest.raises(DomainError):
            code_from_json(desc)
