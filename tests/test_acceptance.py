"""Acceptance suite: one test per headline criterion, at stated tolerances.

Run under pytest (`pytest tests/test_acceptance.py -v`) or directly
(`python tests/test_acceptance.py`) to get one PASS/FAIL line per criterion.
"""

import itertools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from qfplab import (
    agreement_fraction,
    audit_overlaps,
    build_hard_instance,
    certify_distance,
    chernoff_pair_bound,
    gram_dominance_check,
    hadamard_code,
    helstrom_error,
    inner_product,
    make_fingerprint,
    overlap_qubit_pair,
    p_eq_closed_form,
    p_eq_projection,
    p_eq_upper_bound,
    p_one_for_overlap,
    quantum_accept_probability,
    random_linear_code,
    random_state,
    required_dimension,
    run_experiment,
    sample_pair_audit,
    sample_vector_set,
    swap_test_analytic,
    swap_test_circuit,
    swap_test_circuit_state,
    distinguisher_lower_bound,
)
from qfplab.cli import _canonical_json, main as cli_main


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({name}): PASS  [{elapsed:.1f}s < {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def all_messages(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def test_criterion_1_swap_test_equivalence():
    started = time.time()
    for dim in (2, 4, 8, 16, 32):
        for s in range(1000):
            phi = random_state(dim, seed=(10, dim, s))
            psi = random_state(dim, seed=(11, dim, s))
            analytic = swap_test_analytic(phi, psi).p_one
            circuit = swap_test_circuit(phi, psi).p_one
            assert abs(circuit - analytic) <= 1e-10
            joint = swap_test_circuit_state(phi, psi)
            fwd = np.outer(phi.amplitudes, psi.amplitudes)
            rev = np.outer(psi.amplitudes, phi.amplitudes)
            assert np.abs(joint[0] - 0.5 * (fwd + rev)).max() <= 1e-10
            assert np.abs(joint[1] - 0.5 * (fwd - rev)).max() <= 1e-10
    _report(1, "swap-test circuit/analytic equivalence", started, 30.0)


def test_criterion_2_one_sided_error_exhaustive():
    started = time.time()
    codes = [hadamard_code(n) for n in range(1, 7)]
    codes.append(random_linear_code(6, 3, seed=11))
    for code in codes:
        delta = certify_distance(code).max_agreement
        worst_accept = (1 + delta * delta) / 2
        states = {x: make_fingerprint(code, x).state for x in all_messages(code.n)}
        for x, y in itertools.product(all_messages(code.n), repeat=2):
            gamma = agreement_fraction(code, x, y)
            p_one = p_one_for_overlap(gamma)
            numeric = inner_product(states[x], states[y])
            assert abs(numeric - float(gamma)) <= 1e-12
            if x == y:
                assert p_one == 0  # exact rational zero
            else:
                wrong_accept = 1 - p_one
                assert wrong_accept == (1 + gamma * gamma) / 2
                assert wrong_accept == quantum_accept_probability(code, x, y)
                assert wrong_accept <= worst_accept
    _report(2, "one-sided error, exhaustive n <= 6", started, 60.0)


def test_criterion_3_quantum_smp_monte_carlo():
    started = time.time()
    code = hadamard_code(8)
    for k in (5, 10):
        p = (Fraction(5, 8)) ** k
        rep = run_experiment("quantum", code, 100000, "forced-unequal",
                             seed=42, k=k)
        assert rep.theory_error_bound == float(p)
        radius = 3 * math.sqrt(float(p) * (1 - float(p)) / 100000)
        assert abs(rep.empirical_error_unequal - float(p)) <= radius
    _report(3, "quantum SMP Monte Carlo, k = 5 and 10", started, 120.0)


def test_criterion_4_permutation_oracle_equivalence():
    started = time.time()
    for k in (1, 2, 3):
        for gamma in (0.0, 0.25, 0.5, 0.75, 0.9):
            phi, psi = overlap_qubit_pair(gamma)
            projected = p_eq_projection(phi, psi, k)
            assert abs(projected - p_eq_closed_form(k, gamma)) <= 1e-9
    for gamma in (0.0, 0.25, 0.5, 0.75, 0.9):
        assert abs(p_eq_closed_form(1, gamma) - 0.5 * (1 + gamma**2)) <= 1e-12
    _report(4, "permutation-test oracle equivalence", started, 60.0)


def test_criterion_5_bound_sandwich():
    started = time.time()
    deltas = [Fraction(j, 10) for j in range(10)]
    for k in range(1, 51):
        for delta in deltas:
            p = p_eq_closed_form(k, delta)
            assert distinguisher_lower_bound(k, delta) <= p
            assert p <= p_eq_upper_bound(k, delta)
            assert p <= ((1 + delta * delta) / 2) ** k
    assert math.comb(20, 10) == 184756
    stirling = (math.factorial(10) ** 2 * 4**10) / (
        math.factorial(20) * math.sqrt(math.pi * 10)
    )
    assert abs(stirling - 1.0) <= 0.02
    _report(5, "bound sandwich and Stirling prefactor", started, 5.0)


def test_criterion_6_hard_instance_and_helstrom():
    started = time.time()
    for k in range(1, 11):
        for delta in np.linspace(0.0, 1.0, 11):
            _, _, overlap = build_hard_instance(k, float(delta))
            assert abs(overlap - ((1 + delta) / 2) ** k) <= 1e-12
    assert helstrom_error(0.0) == 0.0
    assert helstrom_error(1.0) == 0.5
    for c in np.linspace(0.0, 1.0, 100):
        assert helstrom_error(float(c)) >= c * c / 4
    _report(6, "hard instance overlap and Helstrom floor", started, 5.0)


def test_criterion_7_random_vector_construction():
    started = time.time()
    assert required_dimension(64, 0.25) == 2840

    # zero violations across 20 seeded audits at the reference dimension
    d = required_dimension(8, 0.25)
    root = np.random.SeedSequence(1)
    for child in root.spawn(20):
        vset = sample_vector_set(256, d, child)
        assert audit_overlaps(vset, 0.25).violating_pairs == 0

    # sampled-pair violation rate stays under the concentration bound
    audit = sample_pair_audit(100000, 800, 0.1, seed=5)
    bound = chernoff_pair_bound(800, 0.1)
    assert abs(bound - 2 * math.exp(-4)) <= 1e-12
    rate = audit.violating_pairs / audit.total_pairs
    assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / 100000)

    # every dominance-qualified Gram matrix has full rank
    rng = np.random.default_rng(7)
    qualified = 0
    attempt = 0
    while qualified < 200:
        a = int(rng.integers(3, 7))
        delta = 0.9 / (a - 1)
        vset = sample_vector_set(a, 600, seed=(7000, attempt))
        attempt += 1
        if audit_overlaps(vset, delta).violating_pairs:
            continue
        check = gram_dominance_check(vset.vectors(), delta)
        assert check.dominant
        assert check.rank == a
        qualified += 1
    _report(7, "random sign-vector construction", started, 120.0)


def test_criterion_8_classical_baselines():
    started = time.time()
    code = hadamard_code(8)

    rep = run_experiment("shared-key", code, 100000, "forced-unequal",
                         seed=42, r=10)
    p = 2.0**-10
    assert rep.theory_error_bound == p
    radius = 3 * math.sqrt(p * (1 - p) / 100000)
    assert abs(rep.empirical_error_unequal - p) <= radius

    rep = run_experiment("mixture", code, 100000, "forced-equal", seed=42)
    equal_rate = 1 - rep.empirical_error_equal
    p = 1 / 256
    radius = 3 * math.sqrt(p * (1 - p) / 100000)
    assert abs(equal_rate - p) <= radius
    _report(8, "classical baselines: shared key and mixture", started, 60.0)


def test_criterion_9_determinism(tmp_path=None):
    started = time.time()
    kwargs = dict(trials=2000, pair_source="forced-unequal", seed=314, k=4)
    first = run_experiment("quantum", hadamard_code(6), **kwargs)
    second = run_experiment("quantum", hadamard_code(6), **kwargs)
    assert _canonical_json(first.to_json()) == _canonical_json(second.to_json())

    if tmp_path is None:
        import tempfile
        from pathlib import Path

        tmp_path = Path(tempfile.mkdtemp())
    argv = ["smp-run", "--protocol", "shared-key", "--n", "5", "--r", "3",
            "--trials", "1000", "--pair-source", "random-pairs", "--seed", "9"]
    assert cli_main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b.json")]) == 0
    blob_a = (tmp_path / "a.json").read_bytes()
    assert blob_a == (tmp_path / "b.json").read_bytes()
    json.loads(blob_a)  # well-formed on top of byte-identical
    _report(9, "byte-identical seeded reports", started, 60.0)


CRITERIA = [
    test_criterion_1_swap_test_equivalence,
    test_criterion_2_one_sided_error_exhaustive,
    test_criterion_3_quantum_smp_monte_carlo,
    test_criterion_4_permutation_oracle_equivalence,
    test_criterion_5_bound_sandwich,
    test_criterion_6_hard_instance_and_helstrom,
    test_criterion_7_random_vector_construction,
    test_criterion_8_classical_baselines,
    test_criterion_9_determinism,
]


def run_all() -> int:
    failures = 0
    for func in CRITERIA:
        try:
            func()
        except AssertionError as exc:
            failures += 1
            name = func.__name__.replace("test_criterion_", "criterion ")
            print(f"ACCEPTANCE {name}: FAIL  ({exc})")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_all())
