import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfplab import (
    CapabilityError,
    DomainError,
    InputShapeError,
    audit_overlaps,
    chernoff_pair_bound,
    gram_dominance_check,
    inner_product,
    qubit_lower_bound_from_delta,
    required_dimension,
    sample_pair_audit,
    sample_vector_set,
    swap_test_analytic,
)
from qfplab.guards import GUARDS
from qfplab.nearset import (
    _GRAM_BLOCK_ENTRIES,
    VectorSet,
    _pair_numerators,
    _pcg64_words,
)


class TestRequiredDimension:
    def test_reference_value(self):
        assert required_dimension(64, 0.25) == 2840

    def test_qubit_count_of_reference(self):
        assert math.ceil(math.log2(required_dimension(64, 0.25))) == 12

    def test_monotone_decreasing_in_delta(self):
        dims = [required_dimension(16, d) for d in (0.1, 0.2, 0.4, 0.8, 0.999)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            required_dimension(8, 0.0)
        with pytest.raises(DomainError):
            required_dimension(8, 1.0)
        with pytest.raises(DomainError):
            required_dimension(0, 0.5)

    @pytest.mark.parametrize("delta", [1e-160, 1e-300, 5e-324])
    def test_dimension_past_the_float_range_is_a_capability_error(self, delta):
        # delta^2 underflows (1e-300) or the quotient overflows (1e-160)
        with pytest.raises(CapabilityError, match="above the largest float"):
            required_dimension(3, delta)

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 0.9])
    def test_existence_condition_holds(self, n, delta):
        # the union-bound exponent 2n - delta^2 d log2(e)/2 is negative
        d = required_dimension(n, delta)
        assert 2 * n - delta * delta * d * math.log2(math.e) / 2 < 0


class TestSampleVectorSet:
    def test_unit_norm_exact(self):
        vset = sample_vector_set(8, 33, seed=0)
        for i in range(8):
            assert vset.overlap(i, i) == Fraction(1)

    def test_overlap_matches_coordinate_count(self):
        vset = sample_vector_set(6, 50, seed=1)
        for i in range(6):
            for j in range(i + 1, 6):
                agree = int(np.count_nonzero(vset.signs[i] == vset.signs[j]))
                assert vset.overlap(i, j) == Fraction(2 * agree - 50, 50)

    def test_d1_overlaps_are_signs(self):
        vset = sample_vector_set(10, 1, seed=2)
        vals = {vset.overlap(i, j) for i in range(10) for j in range(i + 1, 10)}
        assert vals <= {Fraction(-1), Fraction(1)}

    def test_deterministic(self):
        a = sample_vector_set(5, 40, seed=9)
        b = sample_vector_set(5, 40, seed=9)
        assert np.array_equal(a.signs, b.signs)

    def test_state_backend_for_swap_test(self):
        # sign vectors double as real-amplitude fingerprint states
        vset = sample_vector_set(4, 64, seed=5)
        phi, psi = vset.state(0), vset.state(1)
        overlap = float(vset.overlap(0, 1))
        assert inner_product(phi, psi).real == pytest.approx(overlap, abs=1e-12)
        expected = 0.5 - 0.5 * overlap**2
        assert swap_test_analytic(phi, psi).p_one == pytest.approx(
            expected, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_vector_set(1, 10, seed=0)
        with pytest.raises(InputShapeError):
            VectorSet(signs=np.zeros((3, 4), dtype=np.int8), d=4)

    # entries are checked before the cast to int8, which would wrap 257 to 1
    # and truncate -1.5 to -1
    @pytest.mark.parametrize("entry", [257, -1.5, 255])
    def test_sign_not_plus_or_minus_one_rejected(self, entry):
        with pytest.raises(InputShapeError):
            VectorSet(signs=np.array([[entry, -1]]), d=2)

    def test_signs_kept_as_int8(self):
        vset = VectorSet(signs=np.array([[1.0, -1.0]]), d=2)
        assert vset.signs.dtype == np.int8
        assert vset.signs.tolist() == [[1, -1]]


def all_pairs_reference(vset, delta):
    """(max |numerator|, pairs with |overlap| > delta) from int64 products."""
    signs = vset.signs.astype(np.int64)
    upper = np.triu(np.ones((vset.count, vset.count), dtype=bool), 1)
    nums, counts = np.unique(np.abs(signs @ signs.T)[upper], return_counts=True)
    violations = sum(int(c) for v, c in zip(nums, counts)
                     if Fraction(int(v), vset.d) > Fraction(delta))
    return int(nums.max()), violations


class TestAuditOverlaps:
    def test_antipodal_pair_maxes_out(self):
        signs = np.ones((2, 16), dtype=np.int8)
        signs[1] *= -1
        audit = audit_overlaps(VectorSet(signs=signs, d=16), 0.5)
        assert audit.max_abs_overlap == 1.0
        assert audit.violating_pairs == 1

    def test_reference_clean_run(self):
        d = required_dimension(8, 0.25)
        vset = sample_vector_set(256, d, seed=101)
        audit = audit_overlaps(vset, 0.25)
        assert audit.total_pairs == 256 * 255 // 2
        assert audit.chernoff_bound == pytest.approx(
            2 * math.exp(-(0.25**2) * d / 2)
        )

    def test_exact_threshold_not_a_violation(self):
        # |overlap| must strictly exceed delta to count
        signs = np.ones((2, 4), dtype=np.int8)
        signs[1, 0] = -1  # overlap 2/4 = 0.5 exactly
        audit = audit_overlaps(VectorSet(signs=signs, d=4), 0.5)
        assert audit.violating_pairs == 0
        audit = audit_overlaps(VectorSet(signs=signs, d=4), 0.49)
        assert audit.violating_pairs == 1

    @pytest.mark.parametrize("count", [1025, 2049])
    def test_matches_int64_all_pairs_reference(self, count):
        # three Gram blocks of 511 rows, and nine of 255 with a short last one
        vset = sample_vector_set(count, 24, seed=count)
        for delta in (0.5, 0.75):
            max_num, violations = all_pairs_reference(vset, delta)
            audit = audit_overlaps(vset, delta)
            assert violations > 0
            assert audit.max_abs_overlap == max_num / 24
            assert audit.violating_pairs == violations

    def test_maximum_exactly_on_delta(self):
        vset = sample_vector_set(1025, 64, seed=77)
        max_num, _ = all_pairs_reference(vset, 0.5)
        delta = max_num / 64  # exact, since d is a power of two
        audit = audit_overlaps(vset, delta)
        assert audit.max_abs_overlap == delta
        assert audit.violating_pairs == 0
        below = np.nextafter(delta, 0.0)
        assert audit_overlaps(vset, below).violating_pairs == \
            all_pairs_reference(vset, below)[1] > 0

    def test_violation_count_matches_exact_binomial_tail(self):
        # a pair's numerator is 2a - d with a ~ Binomial(d, 1/2); the pair
        # events are pairwise independent (v_i * v_j and v_i * v_k are
        # independent uniform sign vectors), so the count's variance is
        # exactly N p (1 - p)
        d, delta, count, sets = 100, 0.2, 64, 20
        p = Fraction(sum(math.comb(d, a) for a in range(d + 1)
                         if Fraction(abs(2 * a - d), d) > Fraction(delta)),
                     2**d)
        root = np.random.SeedSequence(2024)
        violations = sum(
            audit_overlaps(sample_vector_set(count, d, child), delta)
            .violating_pairs
            for child in root.spawn(sets)
        )
        pairs = sets * math.comb(count, 2)
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(violations - pairs * p) <= 5 * sigma

    def test_planted_pairs_across_blocks(self):
        # at least three Gram blocks, the last one short; duplicate and
        # antipodal pairs inside one block's square, across two blocks and
        # inside the last block
        count, d = 1500, 40
        block = _GRAM_BLOCK_ENTRIES // count
        last = (count - 1) // block * block
        assert last >= 2 * block and count - last < block
        signs = sample_vector_set(count, d, seed=31).signs.copy()
        planted = [(5, 7, 1), (block + 1, block + 3, -1), (10, 2 * block + 2, 1),
                   (block + 8, last + 4, -1), (last, count - 2, 1),
                   (count - 3, count - 1, -1)]
        for i, j, sign in planted:
            signs[j] = sign * signs[i]
        vset = VectorSet(signs=signs, d=d)
        for delta in (0.5, 0.99):
            audit = audit_overlaps(vset, delta)
            assert audit.max_abs_overlap == 1.0
            assert (int(audit.max_abs_overlap * d), audit.violating_pairs) == \
                all_pairs_reference(vset, delta)
        assert audit.violating_pairs == len(planted)

    def test_self_pairs_not_counted(self):
        # every off-diagonal overlap is below 1, so a counted diagonal
        # entry would read as max_abs_overlap == 1.0
        vset = sample_vector_set(1500, 40, seed=32)
        max_num, violations = all_pairs_reference(vset, 0.9)
        assert max_num < 40
        audit = audit_overlaps(vset, 0.9)
        assert audit.max_abs_overlap == max_num / 40
        assert audit.violating_pairs == violations

    def test_gram_blocks_bound_traced_memory(self):
        # 256-row blocks of 2048 float32 products are 2 MiB each; blocks of
        # 1024 rows would peak near 14 MiB
        vset = sample_vector_set(2048, 85, seed=33)
        tracemalloc.start()
        try:
            audit_overlaps(vset, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    def test_count_guard(self):
        vset = VectorSet(signs=np.ones((2, 2), dtype=np.int8), d=2)
        big = VectorSet(signs=np.ones(((1 << 14) + 1, 1), dtype=np.int8), d=1)
        audit_overlaps(vset, 0.5)
        with pytest.raises(CapabilityError):
            audit_overlaps(big, 0.5)


class TestPairAudit:
    def test_rate_below_chernoff_bound(self):
        audit = sample_pair_audit(20000, 800, 0.1, seed=5)
        bound = chernoff_pair_bound(800, 0.1)
        rate = audit.violating_pairs / audit.total_pairs
        slack = 3 * math.sqrt(bound * (1 - bound) / audit.total_pairs)
        assert rate <= bound + slack

    def test_run_guard_admits_exactly_its_bound(self):
        # 2^17 pairs of dimension 1024 draw exactly 2^28 coordinates
        pairs = GUARDS["MAX_PAIR_COORDINATES"] // 2048
        assert sample_pair_audit(pairs, 1024, 0.2, seed=9).total_pairs == pairs
        with pytest.raises(CapabilityError,
                           match="guard MAX_PAIR_COORDINATES = 268435456"):
            sample_pair_audit(pairs + 1, 1024, 0.2, seed=9)

    def test_deterministic(self):
        a = sample_pair_audit(5000, 100, 0.2, seed=8)
        b = sample_pair_audit(5000, 100, 0.2, seed=8)
        assert a.violating_pairs == b.violating_pairs
        assert a.max_abs_overlap == b.max_abs_overlap


def generator_pair_numerators(rng, size, d):
    """|d <v, w>| per pair from the Generator.integers draws of the bits."""
    v = rng.integers(0, 2, (size, d), dtype=bool)
    w = rng.integers(0, 2, (size, d), dtype=bool)
    return np.abs(d - 2 * np.count_nonzero(v != w, axis=1))


class TestRawDrawLayout:
    """The raw-word draws reproduce the Generator.integers formulation."""

    @settings(max_examples=30)
    @given(count=st.integers(2, 5), d=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    @example(count=2, d=1, seed=0)
    @example(count=3, d=17, seed=5)  # three words per vector
    @example(count=2, d=64, seed=6)
    def test_set_rows(self, count, d, seed):
        vset = sample_vector_set(count, d, seed)
        for row, child in zip(vset.signs, np.random.SeedSequence(seed).spawn(count)):
            expected = np.random.default_rng(child).integers(
                0, 2, d, dtype=np.int8) * 2 - 1
            assert np.array_equal(row, expected)

    @settings(max_examples=30)
    @given(size=st.integers(1, 300), d=st.integers(1, 100),
           seed=st.integers(0, 2**32 - 1))
    @example(size=1, d=1, seed=0)
    @example(size=3, d=11, seed=1)  # 33 bits: v fills word 0 and w word 1
    @example(size=1, d=96, seed=2)  # three words, v ends mid-word
    @example(size=5, d=32, seed=3)  # pair edges on uint32 word edges
    @example(size=5, d=64, seed=4)  # pair edges on uint64 word edges
    @example(size=1, d=32, seed=5)  # v's half ends mid-uint64
    @example(size=4096, d=800, seed=6)  # a full block of the bench's pairs
    def test_pair_numerators(self, size, d, seed):
        child = np.random.SeedSequence(seed)
        expected = generator_pair_numerators(np.random.default_rng(child), size, d)
        assert np.array_equal(_pair_numerators(child, size, d), expected)

    @settings(max_examples=10)
    @given(pairs=st.integers(1, 9000), d=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(pairs=4097, d=37, seed=4)
    def test_pair_audit_blocks(self, pairs, d, seed):
        # blocks of 4096 pairs, one spawned child each, the last one short
        sizes = [4096] * (pairs // 4096) + ([pairs % 4096] if pairs % 4096 else [])
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        nums = np.concatenate([
            generator_pair_numerators(np.random.default_rng(c), size, d)
            for c, size in zip(children, sizes)])
        for delta in (0.2, 0.5):
            audit = sample_pair_audit(pairs, d, delta, seed)
            assert audit.max_abs_overlap == int(nums.max()) / d
            assert audit.violating_pairs == sum(
                int(n) for v, n in zip(*np.unique(nums, return_counts=True))
                if Fraction(int(v), d) > Fraction(delta))


def reference_words(root, count, words):
    """Raw words of the children ``root.spawn(count)`` would make, one PCG64
    each; built from their spawn keys, since ``spawn`` mutates ``root``."""
    first = root.n_children_spawned
    return np.stack([
        np.random.PCG64(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (i,),
            pool_size=root.pool_size)).random_raw(words)
        for i in range(first, first + count)])


class TestComputedStreams:
    """The array-computed PCG64 words equal NumPy's, object by object."""

    def test_reference_is_spawn(self):
        root = np.random.SeedSequence(9, spawn_key=(2,), n_children_spawned=17)
        expected = reference_words(root, 5, 3)
        children = root.spawn(5)
        assert np.array_equal(
            np.stack([np.random.PCG64(c).random_raw(3) for c in children]),
            expected)

    @settings(max_examples=40)
    @given(entropy=st.one_of(
               st.integers(0, 2**64),
               st.lists(st.integers(0, 2**40), min_size=1, max_size=9).map(tuple),
               st.integers(2**128, 2**300)),
           spawn_key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
           pool_size=st.sampled_from([4, 8]),
           first=st.sampled_from([0, 17, 2**32 - 2]),
           count=st.integers(2, 300), d=st.integers(1, 1000))
    @example(entropy=5, spawn_key=(), pool_size=4, first=0, count=2048, d=85)
    @example(entropy=2**200, spawn_key=(3, 0), pool_size=8, first=2**32 - 2,
             count=300, d=1000)
    @example(entropy=(1, 2**33), spawn_key=(), pool_size=4, first=2**32 - 1,
             count=2, d=1)
    def test_matches_pcg64(self, entropy, spawn_key, pool_size, first, count, d):
        root = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                      pool_size=pool_size,
                                      n_children_spawned=first)
        words = -(-d // 8)
        expected = reference_words(root, count, words)
        assert np.array_equal(_pcg64_words(root, count, words), expected)
        top = expected.astype("<u8").view(np.uint8)[:, :d] >> 7
        vset = sample_vector_set(count, d, root)
        assert np.array_equal(vset.signs, top.astype(np.int8) * 2 - 1)
        # the passed SeedSequence is left as it was: a second call repeats
        assert root.n_children_spawned == first
        assert np.array_equal(sample_vector_set(count, d, root).signs, vset.signs)


class TestGramDominance:
    def test_orthonormal_identity(self):
        check = gram_dominance_check(np.eye(3), 0.2)
        assert check.dominant
        assert check.rank == 3

    def test_low_overlap_set_full_rank(self):
        # sample until the audit passes, then dominance forces rank a
        target = 0.2
        attempt = 0
        while True:
            vset = sample_vector_set(4, 400, seed=200 + attempt)
            audit = audit_overlaps(vset, target)
            if audit.violating_pairs == 0:
                break
            attempt += 1
        check = gram_dominance_check(vset.vectors(), target)
        assert check.dominant
        assert check.rank == 4

    def test_duplicate_vector_degenerates(self):
        v = np.ones((2, 9)) / 3.0
        check = gram_dominance_check(v, 0.5)
        assert not check.dominant
        assert check.rank == 1

    def test_dominance_implies_full_rank_across_many_sets(self):
        rng = np.random.default_rng(7)
        qualified = 0
        seed = 0
        while qualified < 200:
            a = int(rng.integers(3, 7))
            delta = 0.9 / (a - 1)  # keeps (a-1) delta < 1
            vset = sample_vector_set(a, 600, seed=(3000, seed))
            seed += 1
            if audit_overlaps(vset, delta).violating_pairs:
                continue
            check = gram_dominance_check(vset.vectors(), delta)
            assert check.dominant
            assert check.rank == a
            qualified += 1

    def test_non_unit_vectors_rejected(self):
        with pytest.raises(InputShapeError):
            gram_dominance_check(2.0 * np.eye(3), 0.2)

    def test_precondition_on_count_delta(self):
        with pytest.raises(DomainError):
            gram_dominance_check(np.eye(5), 0.3)  # (5-1)*0.3 >= 1


class TestQubitLowerBound:
    def test_values(self):
        assert qubit_lower_bound_from_delta(0.5) == pytest.approx(1.0)
        assert qubit_lower_bound_from_delta(1.0) == 0.0
        assert qubit_lower_bound_from_delta(2.0**-10) == pytest.approx(10.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_lower_bound_from_delta(0.0)
        with pytest.raises(DomainError):
            qubit_lower_bound_from_delta(1.5)
