import itertools
import math
import re
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfplab import (
    CapabilityError,
    DomainError,
    PureState,
    build_hard_instance,
    distinguisher_lower_bound,
    hadamard_code,
    helstrom_error,
    inner_product,
    make_fingerprint,
    overlap_qubit_pair,
    p_eq_asymptotic,
    p_eq_closed_form,
    p_eq_projection,
    p_eq_upper_bound,
    p_one_for_overlap,
    random_state,
    sample_rate,
    swap_test_analytic,
)
from qfplab.guards import GUARDS

GAMMA_GRID = [0.0, 0.25, 0.5, 0.75, 0.9]
DELTA_GRID = [Fraction(j, 10) for j in range(10)]


def full_symmetrization(phi, psi, k):
    """Reference: average phi^k x psi^k over every permutation in S_{2k}."""
    d, n_regs = phi.dim, 2 * k
    vecs = [phi.amplitudes] * k + [psi.amplitudes] * k
    product = reduce(np.kron, vecs).reshape((d,) * n_regs)
    acc = np.zeros_like(product)
    for sigma in itertools.permutations(range(n_regs)):
        acc += product.transpose(sigma)
    return float(np.vdot(acc, acc).real) / math.factorial(n_regs) ** 2


class TestClosedForm:
    def test_identical_states_always_accepted(self):
        for k in (1, 2, 5, 20):
            assert p_eq_closed_form(k, Fraction(1)) == 1

    def test_k1_reduces_to_swap_acceptance(self):
        for g in GAMMA_GRID:
            gr = Fraction(g).limit_denominator(100)
            assert p_eq_closed_form(1, gr) == 1 - p_one_for_overlap(gr)

    def test_k2_orthogonal(self):
        assert p_eq_closed_form(2, Fraction(0)) == Fraction(1, 6)

    def test_exact_rational_output(self):
        value = p_eq_closed_form(3, Fraction(1, 2))
        assert isinstance(value, Fraction)

    def test_float_route_matches_rational(self):
        for k in (1, 3, 7):
            for g in GAMMA_GRID:
                exact = p_eq_closed_form(k, Fraction(g).limit_denominator(4))
                approx = p_eq_closed_form(k, float(Fraction(g).limit_denominator(4)))
                assert approx == pytest.approx(float(exact), abs=1e-14)

    @pytest.mark.parametrize("k", [515, 516])
    @pytest.mark.parametrize("gamma", [0.5, 0.9999, 1.0])
    def test_float_route_up_to_its_guard(self, k, gamma):
        # the float is the exact value rounded once, up to the guard
        exact = float(p_eq_closed_form(k, Fraction(gamma)))
        assert p_eq_closed_form(k, gamma) == exact

    def test_float_route_guard_precedes_the_factorials(self):
        start = time.perf_counter()
        limit = GUARDS["FLOAT_CLOSED_FORM_MAX_K"]
        for k in (limit + 1, 10**9):
            with pytest.raises(CapabilityError, match=re.escape(
                    f"k = {k} is above the guard FLOAT_CLOSED_FORM_MAX_K = 516")):
                p_eq_closed_form(k, 0.5)
        assert time.perf_counter() - start < 1.0
        # the exact route has no guard on k
        assert p_eq_closed_form(limit + 1, Fraction(1)) == 1

    def test_monotone_in_gamma(self):
        for k in (1, 2, 5, 10):
            vals = [p_eq_closed_form(k, g) for g in GAMMA_GRID]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_monotone_nonincreasing_in_k(self):
        for g in GAMMA_GRID:
            vals = [p_eq_closed_form(k, g) for k in range(1, 12)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def prefactor(k):
    return Fraction(math.factorial(k) ** 2, math.factorial(2 * k))


# each function of a float, its plain Fraction evaluation, and its input's
# lower end
ROUNDED_ONCE = {
    "p_eq_closed_form": (p_eq_closed_form, lambda k, g: prefactor(k) * sum(
        math.comb(k, j) ** 2 * g ** (2 * j) for j in range(k + 1)), 0.0),
    "p_eq_upper_bound": (
        p_eq_upper_bound, lambda k, d: prefactor(k) * (1 + d) ** (2 * k), -1.0),
    "distinguisher_lower_bound": (
        distinguisher_lower_bound, lambda k, d: ((1 + d) / 2) ** (2 * k) / 4,
        -1.0),
    "p_one_for_overlap": (
        lambda k, g: p_one_for_overlap(g), lambda k, g: (1 - g * g) / 2, 0.0),
}


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(ROUNDED_ONCE)), k=st.integers(1, 40),
       data=st.data())
def test_float_input_returns_the_exact_value_rounded_once(name, k, data):
    function, exact, low = ROUNDED_ONCE[name]
    x = data.draw(st.floats(low, 1.0), label="x")
    assert function(k, x) == float(exact(k, Fraction(x)))


class TestProjectionOracle:
    def test_identical_states(self):
        a = random_state(2, seed=1)
        assert p_eq_projection(a, a, 2) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_qubits_k2(self):
        phi, psi = overlap_qubit_pair(0.0)
        assert p_eq_projection(phi, psi, 2) == pytest.approx(1 / 6, abs=1e-9)

    def test_k1_overlap_cos_pi_over_4(self):
        phi, psi = overlap_qubit_pair(math.cos(math.pi / 4))
        assert p_eq_projection(phi, psi, 1) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_matches_closed_form(self, k, gamma):
        phi, psi = overlap_qubit_pair(gamma)
        assert p_eq_projection(phi, psi, k) == pytest.approx(
            p_eq_closed_form(k, gamma), abs=1e-9
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cosets_match_full_permutation_sum(self, k):
        pairs = [overlap_qubit_pair(g) for g in GAMMA_GRID]
        pairs += [(random_state(3, seed=(k, s, 0)), random_state(3, seed=(k, s, 1)))
                  for s in range(3)]
        for phi, psi in pairs:
            assert p_eq_projection(phi, psi, k) == pytest.approx(
                full_symmetrization(phi, psi, k), abs=1e-12
            )

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_cosets_match_closed_form_past_k3(self, k, gamma):
        phi, psi = overlap_qubit_pair(gamma)
        assert p_eq_projection(phi, psi, k) == pytest.approx(
            float(p_eq_closed_form(k, Fraction(gamma))), abs=1e-12
        )

    def test_complex_states_depend_on_magnitude_only(self):
        phi = random_state(2, seed=31)
        psi = random_state(2, seed=32)
        gamma = abs(inner_product(phi, psi))
        assert p_eq_projection(phi, psi, 2) == pytest.approx(
            p_eq_closed_form(2, gamma), abs=1e-9
        )

    def test_global_phase_invariance(self):
        phi = random_state(2, seed=41)
        psi = random_state(2, seed=42)
        shifted = PureState(np.exp(1j * 1.23) * psi.amplitudes, psi.shape)
        assert p_eq_projection(phi, shifted, 2) == pytest.approx(
            p_eq_projection(phi, psi, 2), abs=1e-12
        )

    def test_guard(self):
        phi, psi = overlap_qubit_pair(0.5)
        with pytest.raises(CapabilityError):
            p_eq_projection(phi, psi, 8)

    def test_work_bound_admits_qubits_up_to_k7(self):
        # C(14, 7) * 2^14 transposed elements sit under the bound 2^26
        phi, psi = overlap_qubit_pair(0.5)
        assert p_eq_projection(phi, psi, 7) == pytest.approx(
            float(p_eq_closed_form(7, Fraction(1, 2))), abs=1e-12
        )


class TestSampling:
    def test_identical_always_equal(self):
        a = random_state(2, seed=5)
        assert sample_rate(p_eq_projection(a, a, 2), trials=5000, seed=1) == 1.0

    def test_orthogonal_concentration(self):
        phi, psi = overlap_qubit_pair(0.0)
        p_equal = sample_rate(p_eq_projection(phi, psi, 2), trials=10**5, seed=11)
        radius = 3 * math.sqrt((1 / 6) * (5 / 6) / 10**5)
        assert abs(p_equal - 1 / 6) <= radius

    def test_k1_complements_swap_test(self):
        code = hadamard_code(1)
        phi = make_fingerprint(code, "0").state
        psi = make_fingerprint(code, "1").state
        p_equal = sample_rate(p_eq_projection(phi, psi, 1), trials=10**5, seed=12)
        radius = 3 * math.sqrt(0.625 * 0.375 / 10**5)
        assert abs(p_equal - 0.625) <= radius


class TestBounds:
    def test_upper_bound_examples(self):
        assert p_eq_upper_bound(1, Fraction(0)) == Fraction(1, 2)
        assert p_eq_upper_bound(2, Fraction(1)) == Fraction(8, 3)  # above 1 is fine
        for k in (1, 2, 5):
            assert p_eq_upper_bound(k, Fraction(0)) == p_eq_closed_form(k, Fraction(0))

    def test_upper_bound_float_underflow_is_immediate(self):
        start = time.perf_counter()
        assert p_eq_upper_bound(10**5, 0.5) == 0.0
        assert time.perf_counter() - start < 0.01

    # each delta with the first k at which its float bound underflows to 0.0
    @pytest.mark.parametrize("delta, first", [
        (0.0, 541), (0.1, 627), (0.5, 1303), (0.8, 3559), (-0.5, 270)])
    def test_upper_bound_float_matches_exact_route(self, delta, first):
        def exact(k):
            return float(Fraction(math.factorial(k) ** 2, math.factorial(2 * k))
                         * (1 + Fraction(delta)) ** (2 * k))
        assert exact(first - 1) > 0.0 == exact(first)
        for k in (1, 2, 10, 100, first - 2, first - 1, first, first + 1,
                  first + 5, 2 * first, 10**4):
            assert p_eq_upper_bound(k, delta) == exact(k)

    def test_asymptotic_examples(self):
        assert p_eq_asymptotic(10, 0.0) == pytest.approx(
            math.sqrt(10 * math.pi) / 4**10, rel=1e-12
        )
        # loose at k = 1: reported, not asserted tight
        assert p_eq_asymptotic(1, 0.0) == pytest.approx(math.sqrt(math.pi) / 4,
                                                        rel=1e-12)

    def test_stirling_prefactor_near_one_at_k10(self):
        assert math.comb(20, 10) == 184756
        ratio = (math.factorial(10) ** 2 * 4**10) / (
            math.factorial(20) * math.sqrt(math.pi * 10)
        )
        assert abs(ratio - 1.0) <= 0.02
        assert abs(1.0 / ratio - 1.0) <= 0.02

    @pytest.mark.parametrize("bound", [
        p_eq_upper_bound, distinguisher_lower_bound, p_eq_asymptotic])
    @pytest.mark.parametrize("delta", [
        math.nan, math.inf, -math.inf, 2.0, -1.5, Fraction(3, 2)])
    def test_meaningless_delta_rejected(self, bound, delta):
        with pytest.raises(DomainError, match=r"delta must lie in \[-1,1\]"):
            bound(3, delta)

    def test_lower_bound_examples(self):
        assert distinguisher_lower_bound(1, Fraction(0)) == Fraction(1, 16)
        assert distinguisher_lower_bound(2, Fraction(1, 2)) == Fraction(81, 1024)
        for k in (1, 3, 9):
            assert distinguisher_lower_bound(k, Fraction(1)) == Fraction(1, 4)

    @pytest.mark.parametrize("k", list(range(1, 51)))
    def test_sandwich(self, k):
        for delta in DELTA_GRID:
            p = p_eq_closed_form(k, delta)
            assert distinguisher_lower_bound(k, delta) <= p
            assert p <= p_eq_upper_bound(k, delta)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 25, 50])
    def test_beats_independent_swap_tests(self, k):
        for delta in DELTA_GRID:
            swap_error = ((1 + delta * delta) / 2) ** k
            assert p_eq_closed_form(k, delta) <= swap_error


class TestHelstrom:
    def test_endpoints(self):
        assert helstrom_error(0.0) == 0.0
        assert helstrom_error(1.0) == 0.5

    def test_three_four_five(self):
        assert helstrom_error(0.6) == pytest.approx(0.1, abs=1e-15)

    def test_quarter_square_bound_on_grid(self):
        for c in np.linspace(0.0, 1.0, 100):
            assert helstrom_error(float(c)) >= c * c / 4

    def test_tiny_overlap_no_cancellation(self):
        c = 1e-8
        assert helstrom_error(c) >= c * c / 4

    def test_domain(self):
        with pytest.raises(DomainError):
            helstrom_error(1.5)

    def test_optimal_beats_perm_test_on_hard_instance(self):
        for k in range(1, 11):
            for delta in DELTA_GRID:
                _, _, overlap = build_hard_instance(k, float(delta))
                assert helstrom_error(overlap) <= p_eq_closed_form(k, delta) + 1e-12


class TestHardInstance:
    def test_delta_one_collapses(self):
        a, b, overlap = build_hard_instance(3, 1.0)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_delta_zero_k1(self):
        _, _, overlap = build_hard_instance(1, 0.0)
        assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_delta_half_k2(self):
        a, b, overlap = build_hard_instance(2, 0.5)
        assert overlap == pytest.approx(9 / 16, abs=1e-12)
        assert inner_product(a, b).real == pytest.approx(overlap, abs=1e-12)

    @pytest.mark.parametrize("k", list(range(1, 11)))
    def test_overlap_formula_across_grid(self, k):
        for delta in np.linspace(0.0, 1.0, 11):
            _, _, overlap = build_hard_instance(k, float(delta))
            assert overlap == pytest.approx(((1 + delta) / 2) ** k, abs=1e-12)

    def test_states_are_products_of_2k_qubits(self):
        a, b, _ = build_hard_instance(2, 0.3)
        assert a.shape == (2, 2, 2, 2)
        assert b.shape == (2, 2, 2, 2)


class TestSpec:
    def test_reduction_to_swap_test(self):
        phi = random_state(4, seed=71)
        psi = random_state(4, seed=72)
        gamma = abs(inner_product(phi, psi))
        assert p_eq_closed_form(1, gamma) == pytest.approx(
            1 - swap_test_analytic(phi, psi).p_one, abs=1e-12
        )
