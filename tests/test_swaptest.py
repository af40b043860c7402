import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qfplab.swaptest
from qfplab import (
    CapabilityError,
    DomainError,
    InputShapeError,
    PureState,
    basis_state,
    hadamard_code,
    make_fingerprint,
    p_one_for_overlap,
    random_state,
    repetitions_for_error,
    sample_rate,
    swap_test_analytic,
    swap_test_circuit,
    swap_test_circuit_state,
)


def fingerprint_pair():
    code = hadamard_code(1)
    return (make_fingerprint(code, "0").state, make_fingerprint(code, "1").state)


class TestAnalytic:
    def test_identical_states(self):
        a = random_state(8, seed=5)
        assert swap_test_analytic(a, a).p_one <= 1e-12

    def test_orthogonal_states(self):
        assert swap_test_analytic(basis_state(4, 0), basis_state(4, 3)).p_one \
            == pytest.approx(0.5, abs=1e-15)

    def test_overlap_half_gives_three_eighths(self):
        phi, psi = fingerprint_pair()
        assert swap_test_analytic(phi, psi).p_one == pytest.approx(0.375, abs=1e-12)

    def test_exact_rational_route(self):
        assert p_one_for_overlap(Fraction(1, 2)) == Fraction(3, 8)
        assert p_one_for_overlap(Fraction(1)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(InputShapeError):
            swap_test_analytic(random_state(4, seed=1), random_state(8, seed=1))


def assert_closed_form_state(phi, psi):
    joint = swap_test_circuit_state(phi, psi)
    fwd = np.outer(phi.amplitudes, psi.amplitudes)
    rev = np.outer(psi.amplitudes, phi.amplitudes)
    np.testing.assert_allclose(joint[0], 0.5 * (fwd + rev), atol=1e-10)
    np.testing.assert_allclose(joint[1], 0.5 * (fwd - rev), atol=1e-10)


def perturb_amplitude(monkeypatch, index, change):
    """Make the circuit's block generator pass on one changed amplitude.

    ``index`` is (branch, row, column) in the (2, |S|, |S|) evolved state on
    S x S, S being the indices where either input is nonzero (for dense
    inputs, the (2, D, D) state).
    """
    evolve = qfplab.swaptest._evolved_blocks
    branch, row, col = index

    def perturbed(phi, psi):
        for support, rows, evolved, half_fwd, half_rev in evolve(phi, psi):
            if rows.start <= row < rows.stop:
                at = (branch, row - rows.start, col)
                evolved[at] = change(evolved[at])
            yield support, rows, evolved, half_fwd, half_rev

    monkeypatch.setattr(qfplab.swaptest, "_evolved_blocks", perturbed)


def dense_gates(phi, psi):
    """(2, D, D) state of the swap-test gates applied to the whole state."""
    s = 1.0 / math.sqrt(2.0)
    branch = np.outer(phi.amplitudes, psi.amplitudes) * s
    exchanged = branch.T.copy()
    return np.stack([(branch + exchanged) * s, (branch - exchanged) * s])


def real_state(dim, seed):
    """A normalized state with real amplitudes of both signs."""
    amps = np.random.default_rng(seed).standard_normal(dim)
    return PureState(amps / np.linalg.norm(amps), (dim,))


def hadamard_pair(n):
    code = hadamard_code(n)
    x, y = ("01" * n)[:n], "1" + "0" * (n - 1)
    return make_fingerprint(code, x).state, make_fingerprint(code, y).state


# fingerprint pairs, then real states in one block (3), a full block and a
# short last one (129), six blocks (300) and sixteen full ones (1024)
REAL_PAIRS = [pytest.param(*hadamard_pair(n), id=f"hadamard-n{n}")
              for n in range(1, 8)] + [
    pytest.param(real_state(dim, seed=(dim, 1)), real_state(dim, seed=(dim, 2)),
                 id=f"real-dim{dim}") for dim in (3, 129, 300, 1024)]


def support_of(phi, psi):
    """S: the indices where phi or psi is nonzero."""
    return np.flatnonzero((phi.amplitudes != 0) | (psi.amplitudes != 0))


def blocked_p_one(phi, psi):
    """p(1) of the dense complex128 evolution, summed over the circuit's row
    blocks of S x S."""
    support = support_of(phi, psi)
    one = dense_gates(phi, psi)[1][np.ix_(support, support)]
    height = max(1, qfplab.swaptest._BLOCK // support.size)
    return min(0.5, sum(float(np.sum(np.square(np.abs(one[r:r + height]))))
                        for r in range(0, support.size, height)))


def evolved_dtype(phi, psi):
    return next(qfplab.swaptest._evolved_blocks(phi, psi))[2].dtype


def traced_peak(call):
    """Peak bytes allocated through Python's allocators during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCircuit:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_matches_analytic_on_random_pairs(self, dim):
        for s in range(40):
            phi = random_state(dim, seed=(dim, s, 0))
            psi = random_state(dim, seed=(dim, s, 1))
            delta = abs(swap_test_circuit(phi, psi).p_one
                        - swap_test_analytic(phi, psi).p_one)
            assert delta <= 1e-10

    def test_identical_input(self):
        a = random_state((2, 2, 2), seed=3)
        assert swap_test_circuit(a, a).p_one <= 1e-12

    def test_fingerprint_pair_value(self):
        phi, psi = fingerprint_pair()
        assert swap_test_circuit(phi, psi).p_one == pytest.approx(0.375, abs=1e-10)

    def test_pre_measurement_state_structure(self):
        assert_closed_form_state(random_state(4, seed=21),
                                 random_state(4, seed=22))

    def test_last_hadamard_covers_every_row_block(self):
        # at dim 300 the circuit runs over six row blocks of 54, the last partial
        assert_closed_form_state(random_state(300, seed=25),
                                 random_state(300, seed=26))

    # at dim 129 the row blocks hold 127 rows, then 2
    @pytest.mark.parametrize("dim", [3, 129, 300, 1024])
    def test_blocked_state_equals_dense_gates_bit_for_bit(self, dim):
        phi = random_state(dim, seed=(dim, 27))
        psi = random_state(dim, seed=(dim, 28))
        assert np.array_equal(swap_test_circuit_state(phi, psi),
                              dense_gates(phi, psi))

    # dims above 128 span several row blocks and most end in a short one
    @settings(max_examples=25)
    @given(dim=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(dim=1, seed=2)  # one 1 x 1 block
    @example(dim=129, seed=1)
    def test_any_dim_matches_analytic_and_dense_gates(self, dim, seed):
        phi = random_state(dim, seed=(seed, 0))
        psi = random_state(dim, seed=(seed, 1))
        assert abs(swap_test_circuit(phi, psi).p_one
                   - swap_test_analytic(phi, psi).p_one) <= 1e-10
        assert np.array_equal(swap_test_circuit_state(phi, psi),
                              dense_gates(phi, psi))

    def test_perturbed_state_fails_the_closed_form_check(self, monkeypatch):
        perturb_amplitude(monkeypatch, (1, 0, 1), lambda z: z + 1e-9)
        for make in (random_state, real_state):  # complex and float64 paths
            with pytest.raises(ArithmeticError):
                swap_test_circuit(make(4, seed=23), make(4, seed=24))

    @pytest.mark.parametrize("index,change", [
        ((1, 299, 7), lambda z: z + 1e-9),
        ((0, 299, 7), lambda z: np.nan),
    ], ids=["shifted", "nan"])
    def test_last_row_block_is_checked(self, monkeypatch, index, change):
        # at dim 300 row 299 lies in the last of six row blocks
        perturb_amplitude(monkeypatch, index, change)
        for make in (random_state, real_state):  # complex and float64 paths
            with pytest.raises(ArithmeticError):
                swap_test_circuit(make(300, seed=25), make(300, seed=26))

    def test_circuit_never_holds_the_joint_state(self):
        phi = random_state(1024, seed=29)
        psi = random_state(1024, seed=30)
        # the (2, D, D) complex128 state alone would take 32 MiB
        assert traced_peak(lambda: swap_test_circuit(phi, psi)) < 4 * 2**20

    def test_real_circuit_never_holds_the_joint_state(self):
        phi, psi = real_state(1024, seed=29), real_state(1024, seed=30)
        assert evolved_dtype(phi, psi) == np.float64
        assert traced_peak(lambda: swap_test_circuit(phi, psi)) < 2 * 2**20

    @pytest.mark.parametrize("oracle", [swap_test_circuit,
                                        swap_test_circuit_state])
    def test_inputs_checked_before_any_allocation(self, oracle):
        big = random_state(2048, seed=33)  # 2 * 2048^2 = 2^23 > the guard
        assert traced_peak(
            lambda: pytest.raises(CapabilityError, oracle, big, big)) < 2**20
        with pytest.raises(InputShapeError):
            oracle(random_state(4, seed=34), random_state(8, seed=34))

    def test_symmetric_in_roles(self):
        phi = random_state(8, seed=31)
        psi = random_state(8, seed=32)
        assert swap_test_circuit(phi, psi).p_one == pytest.approx(
            swap_test_circuit(psi, phi).p_one, abs=1e-12
        )

    def test_global_phase_invariance(self):
        phi = random_state(8, seed=41)
        psi = random_state(8, seed=42)
        shifted = PureState(np.exp(1j * 0.83) * psi.amplitudes, psi.shape)
        assert swap_test_circuit(phi, shifted).p_one == pytest.approx(
            swap_test_circuit(phi, psi).p_one, abs=1e-12
        )

    def test_one_sided_iff_unit_overlap(self):
        phi = random_state(6, seed=51)
        psi = random_state(6, seed=52)
        assert swap_test_circuit(phi, psi).p_one > 1e-6
        assert swap_test_circuit(phi, phi).p_one <= 1e-12


class TestRealCircuit:
    """Inputs without imaginary parts are evolved in float64, bit-identically."""

    @pytest.mark.parametrize("phi,psi", REAL_PAIRS)
    def test_state_equals_dense_gates_bit_for_bit(self, phi, psi):
        assert evolved_dtype(phi, psi) == np.float64
        joint = swap_test_circuit_state(phi, psi)
        assert joint.dtype == np.complex128
        assert np.array_equal(joint, dense_gates(phi, psi))

    @pytest.mark.parametrize("phi,psi", REAL_PAIRS)
    def test_p_one_equals_the_complex_evolution_bit_for_bit(self, phi, psi):
        # dense_gates evolves the complex128 amplitudes
        assert swap_test_circuit(phi, psi).p_one.hex() == \
            blocked_p_one(phi, psi).hex()

    def test_complex_amplitude_takes_the_complex_path(self):
        phi, psi = hadamard_pair(3)
        amps = phi.amplitudes.copy()
        amps[np.flatnonzero(amps)[0]] *= 1j
        phi = PureState(amps, phi.shape)
        assert evolved_dtype(phi, psi) == np.complex128
        assert np.array_equal(swap_test_circuit_state(phi, psi),
                              dense_gates(phi, psi))
        assert swap_test_circuit(phi, psi).p_one.hex() == \
            blocked_p_one(phi, psi).hex()
        assert abs(swap_test_circuit(phi, psi).p_one
                   - swap_test_analytic(phi, psi).p_one) <= 1e-10


def masked_state(rng, keep, complex_amplitudes):
    """A normalized state that is zero wherever ``keep`` is False."""
    amps = rng.standard_normal(keep.size)
    if complex_amplitudes:
        amps = amps + 1j * rng.standard_normal(keep.size)
    amps = np.where(keep, amps, 0)
    return PureState(amps / np.linalg.norm(amps), (keep.size,))


def masks(rng, dim, layout):
    """Nonempty zero masks of phi and psi: independent, disjoint, or with
    psi zero wherever phi is and at some indices where phi is not."""
    keep_phi = rng.random(dim) < rng.uniform(0.05, 1.0)
    keep_phi[rng.integers(dim)] = True
    if layout == "disjoint":
        if keep_phi.all():
            keep_phi[rng.integers(dim)] = False
        return keep_phi, ~keep_phi
    keep_psi = rng.random(dim) < rng.uniform(0.05, 1.0)
    if layout == "nested":
        keep_psi &= keep_phi
        keep_psi[np.flatnonzero(keep_phi)[0]] = True
    else:
        keep_psi[rng.integers(dim)] = True
    return keep_phi, keep_psi


class TestSupport:
    """The circuit evolves S x S only, S being where phi or psi is nonzero."""

    @settings(max_examples=40)
    @given(dim=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["independent", "disjoint", "nested"]),
           complex_amplitudes=st.booleans())
    @example(dim=1, seed=0, layout="independent", complex_amplitudes=False)
    @example(dim=2, seed=1, layout="disjoint", complex_amplitudes=True)
    @example(dim=300, seed=2, layout="disjoint", complex_amplitudes=False)
    @example(dim=129, seed=3, layout="nested", complex_amplitudes=True)
    def test_support_path_matches_dense_gates_and_closed_form(
            self, dim, seed, layout, complex_amplitudes):
        assume(dim > 1 or layout != "disjoint")
        rng = np.random.default_rng(seed)
        keep_phi, keep_psi = masks(rng, dim, layout)
        phi = masked_state(rng, keep_phi, complex_amplitudes)
        psi = masked_state(rng, keep_psi, complex_amplitudes)
        assert evolved_dtype(phi, psi) == (np.complex128 if complex_amplitudes
                                           else np.float64)
        joint = swap_test_circuit_state(phi, psi)
        assert np.array_equal(joint, dense_gates(phi, psi))
        outside = ~(keep_phi | keep_psi)
        assert not joint[:, outside].any() and not joint[:, :, outside].any()
        assert abs(swap_test_circuit(phi, psi).p_one
                   - swap_test_analytic(phi, psi).p_one) <= 1e-10
        width = np.count_nonzero(~outside)
        index = (int(rng.integers(2)), *map(int, rng.integers(width, size=2)))
        for shift in (1e-9, -1e-9):
            with pytest.MonkeyPatch.context() as patch:
                perturb_amplitude(patch, index, lambda z: z + shift)
                with pytest.raises(ArithmeticError):
                    swap_test_circuit(phi, psi)

    def test_sparse_real_circuit_stays_within_its_block_buffers(self):
        phi, psi = hadamard_pair(9)  # D = 1024, |S| = 1.5 m = 768
        width = support_of(phi, psi).size
        assert (phi.dim, width) == (1024, 768)
        height = qfplab.swaptest._BLOCK // width
        # products, evolved rows and diff, 5 x 21 x 768 float64
        buffers = 5 * height * width * 8
        # numpy's iterator buffers two operands of a broadcast product, and
        # S and the inputs on it take a few D-length vectors
        slack = 2 * np.getbufsize() * 8 + 8 * phi.dim * 8
        assert traced_peak(lambda: swap_test_circuit(phi, psi)) <= buffers + slack

    def test_guard_reads_the_full_dimension_not_the_support(self):
        # |S| = 2 either way: 2 * 1448^2 is within 2^22, 2 * 1449^2 is not
        p_one = swap_test_circuit(basis_state(1448, 0), basis_state(1448, 1)).p_one
        assert p_one == pytest.approx(0.5, abs=1e-10)
        phi, psi = basis_state(1449, 0), basis_state(1449, 1)
        for oracle in (swap_test_circuit, swap_test_circuit_state):
            with pytest.raises(CapabilityError, match="MAX_STATE_DIM"):
                oracle(phi, psi)


def analytic_p_one(phi, psi):
    return swap_test_analytic(phi, psi).p_one


class TestSample:
    def test_zero_rate_is_exact(self):
        a = random_state(4, seed=61)
        assert sample_rate(analytic_p_one(a, a), trials=20000, seed=0) == 0.0

    def test_binomial_concentration(self):
        p_one = sample_rate(analytic_p_one(*fingerprint_pair()), trials=10**6,
                            seed=7)
        radius = 3 * math.sqrt(0.375 * 0.625 / 10**6)
        assert abs(p_one - 0.375) <= radius

    def test_single_trial_is_binary(self):
        p_one = sample_rate(analytic_p_one(*fingerprint_pair()), trials=1, seed=3)
        assert p_one in (0.0, 1.0)

    def test_deterministic_per_seed(self):
        p = analytic_p_one(*fingerprint_pair())
        assert sample_rate(p, trials=5000, seed=11) == \
            sample_rate(p, trials=5000, seed=11)

    @pytest.mark.parametrize("trials", [1, 10**14, 2**63 - 1])
    def test_certain_rates_are_exact_at_any_count(self, trials):
        assert sample_rate(0.0, trials=trials, seed=5) == 0.0
        assert sample_rate(1.0, trials=trials, seed=5) == 1.0

    def test_trials_validated(self):
        p = analytic_p_one(*fingerprint_pair())
        with pytest.raises(CapabilityError, match=(
                "guard MAX_SAMPLED_TRIALS = 9223372036854775807")):
            sample_rate(p, trials=2**63, seed=1)
        with pytest.raises(DomainError):
            sample_rate(p, trials=0, seed=1)
        with pytest.raises(DomainError):
            sample_rate(1.5, trials=10, seed=1)


class TestRepetitions:
    def test_examples(self):
        assert repetitions_for_error(0.01, 0.5) == 10
        assert repetitions_for_error(0.5, 0.0) == 1
        assert repetitions_for_error(0.25, 0.0) == 2

    @pytest.mark.parametrize("eps,delta", [
        (0.1, 0.3), (0.001, 0.7), (0.9, 0.0), (1e-6, 0.5),
    ])
    def test_minimality(self, eps, delta):
        k = repetitions_for_error(eps, delta)
        q = (1 + delta * delta) / 2
        assert q**k <= eps
        if k > 1:
            assert q ** (k - 1) > eps

    def test_log_estimate_lowered(self):
        # ceil(log eps / log q) rounds up to 9, but q^8 already reaches eps
        eps, delta = 0.17533844814095928, 0.7802862376631778
        q = (1 + delta * delta) / 2
        assert math.ceil(math.log(eps) / math.log(q)) == 9
        assert repetitions_for_error(eps, delta) == 8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            repetitions_for_error(0.1, 1.0)
        with pytest.raises(DomainError):
            repetitions_for_error(0.0, 0.5)
        with pytest.raises(DomainError):
            repetitions_for_error(1.0, 0.5)


class TestResultInvariants:
    def test_probabilities_sum_to_one(self):
        phi, psi = fingerprint_pair()
        result = swap_test_analytic(phi, psi)
        assert result.p_one + result.p_zero == pytest.approx(1.0, abs=1e-12)

    def test_exact_methods_capped_at_half(self):
        for s in range(20):
            phi = random_state(4, seed=(70, s))
            psi = random_state(4, seed=(71, s))
            assert swap_test_analytic(phi, psi).p_one <= 0.5 + 1e-12
            assert swap_test_circuit(phi, psi).p_one <= 0.5 + 1e-12
