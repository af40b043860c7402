import itertools
from fractions import Fraction

import numpy as np
import pytest

from qfplab import (
    CapabilityError,
    InputShapeError,
    PureState,
    agreement_fraction,
    certify_distance,
    fingerprint_overlap,
    hadamard_code,
    inner_product,
    make_fingerprint,
    qubits_required,
    random_linear_code,
    random_state,
    tensor,
    tensor_power,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def all_messages(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


class TestMakeFingerprint:
    def test_n1_message_zero(self):
        # codeword 00: support (1,0) and (2,0) -> flat indices 0 and 2
        fp = make_fingerprint(hadamard_code(1), "0")
        assert fp.state.shape == (2, 2)
        np.testing.assert_allclose(
            fp.state.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15
        )

    def test_n1_message_one(self):
        # codeword 01: support (1,0) and (2,1) -> flat indices 0 and 3
        fp = make_fingerprint(hadamard_code(1), "1")
        np.testing.assert_allclose(
            fp.state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15
        )

    def test_normalized(self):
        fp = make_fingerprint(random_linear_code(6, 3, seed=2), "101010")
        assert abs(np.sum(np.abs(fp.state.amplitudes) ** 2) - 1) < 1e-12

    def test_support_matches_codeword(self):
        code = random_linear_code(4, 3, seed=6)
        fp = make_fingerprint(code, "1101")
        amps = fp.state.amplitudes.reshape(code.m, 2)
        from qfplab.codes import encode

        word = encode(code, "1101")
        for i, ch in enumerate(word):
            b = int(ch)
            assert abs(amps[i, b]) > 0
            assert amps[i, 1 - b] == 0

    def test_guard_on_codeword_length(self):
        with pytest.raises(CapabilityError):
            make_fingerprint(hadamard_code(21), "0" * 21)

    def test_metadata(self):
        fp = make_fingerprint(hadamard_code(3), "001")
        assert fp.source_x == "001"
        assert fp.qubit_count == 4
        assert "hadamard" in fp.code_id


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        fp = make_fingerprint(hadamard_code(2), "10")
        assert inner_product(fp.state, fp.state) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_distinct_is_half(self):
        f0 = make_fingerprint(hadamard_code(1), "0")
        f1 = make_fingerprint(hadamard_code(1), "1")
        assert inner_product(f0.state, f1.state) == pytest.approx(0.5, abs=1e-12)
        assert fingerprint_overlap(f0, f1) == Fraction(1, 2)

    def test_exact_overlap_equals_agreement(self):
        code = random_linear_code(5, 3, seed=13)
        fx = make_fingerprint(code, "10110")
        fy = make_fingerprint(code, "01110")
        exact = fingerprint_overlap(fx, fy)
        assert exact == agreement_fraction(code, "10110", "01110")
        numeric = inner_product(fx.state, fy.state)
        assert abs(numeric - float(exact)) < 1e-12
        assert abs(numeric.imag) < 1e-15

    def test_real_nonnegative_for_fingerprints(self):
        code = hadamard_code(4)
        for x, y in itertools.combinations(all_messages(4)[:6], 2):
            v = inner_product(make_fingerprint(code, x).state,
                              make_fingerprint(code, y).state)
            assert v.imag == 0
            assert v.real >= 0

    def test_conjugate_linear_in_first_argument(self):
        a = random_state(4, seed=8)
        b = random_state(4, seed=9)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(InputShapeError):
            inner_product(random_state(4, seed=1), random_state((2, 4), seed=1))

    @pytest.mark.parametrize("code_factory", [
        lambda: hadamard_code(6),
        lambda: random_linear_code(6, 3, seed=17),
    ], ids=["hadamard6", "random-linear6"])
    def test_overlaps_bounded_by_certificate(self, code_factory):
        code = code_factory()
        delta = float(certify_distance(code).max_agreement)
        prints = {x: make_fingerprint(code, x) for x in all_messages(6)}
        for x, y in itertools.combinations(prints, 2):
            v = abs(inner_product(prints[x].state, prints[y].state))
            assert v <= delta + 1e-12

    def test_different_codes_rejected_for_exact_overlap(self):
        fa = make_fingerprint(hadamard_code(2), "01")
        fb = make_fingerprint(hadamard_code(3), "010")
        with pytest.raises(InputShapeError):
            fingerprint_overlap(fa, fb)


class TestTensor:
    def test_basis_combination(self):
        zero = PureState(np.array([1.0, 0.0]), (2,))
        out = tensor(zero, zero)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_overlap_multiplicativity_powers(self):
        f0 = make_fingerprint(hadamard_code(1), "0").state
        f1 = make_fingerprint(hadamard_code(1), "1").state
        v = inner_product(tensor_power(f0, 3), tensor_power(f1, 3))
        assert v == pytest.approx(1 / 8, abs=1e-12)

    def test_multiplicativity_random_states(self):
        rng_pairs = [(random_state(3, seed=s), random_state(5, seed=s + 100))
                     for s in range(5)]
        for a, b in rng_pairs:
            c = random_state(3, seed=77)
            d = random_state(5, seed=78)
            lhs = inner_product(tensor(a, b), tensor(c, d))
            rhs = inner_product(a, c) * inner_product(b, d)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_trivial_register_extends_shape_only(self):
        a = random_state(6, seed=3)
        unit = PureState(np.array([1.0]), (1,))
        out = tensor(a, unit)
        assert out.shape == (6, 1)
        np.testing.assert_allclose(out.amplitudes, a.amplitudes)

    def test_dimension_guard(self):
        a = random_state(1 << 12, seed=1)
        with pytest.raises(CapabilityError):
            tensor(tensor(a, a), a)


class TestQubitsRequired:
    def test_values(self):
        assert qubits_required(hadamard_code(8)) == 9
        assert qubits_required(random_linear_code(8, 3, seed=1)) == 6
        assert qubits_required(hadamard_code(1)) == 2


class TestPureState:
    def test_rejects_unnormalized(self):
        from qfplab import DomainError

        with pytest.raises(DomainError):
            PureState(np.array([1.0, 1.0]), (2,))

    # the tolerance sits between a norm off by 1e-9 (refused) and the rounding
    # of a sum of squares, far below 1e-12 (accepted)
    def test_norm_tolerance(self):
        from qfplab import DomainError

        with pytest.raises(DomainError, match="not normalized"):
            PureState(np.array([np.sqrt(1 + 1e-9), 0.0]), (2,))
        state = PureState(np.array([np.sqrt(1 + 1e-14), 0.0]), (2,))
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) > 5e-15

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputShapeError):
            PureState(np.array([1.0, 0.0]), (3,))

    def test_json_round_values(self):
        st = make_fingerprint(hadamard_code(1), "0")
        blob = st.to_json()
        assert blob["shape"] == [2, 2]
        assert blob["x"] == "0"
        assert len(blob["amplitudes"]) == 4
