import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfplab import (
    CapabilityError,
    ConfigError,
    agreement_fraction,
    certify_distance,
    declared_code,
    fingerprint_overlap,
    hadamard_code,
    inner_product,
    make_fingerprint,
    message_costs,
    p_eq_closed_form,
    quantum_accept_probability,
    random_linear_code,
    run_experiment,
)
from qfplab import protocols
from qfplab.cli import _canonical_json
from qfplab.codes import _weight_distribution
from qfplab.guards import GUARDS
from qfplab.protocols import (
    BLOCK,
    _sample_pairs,
    _swap_p_one,
    accept_probability,
)


def all_messages(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def run_pairs(protocol_id, code, trials, pairs, seed=0, **kwargs):
    return run_experiment(protocol_id, code, trials, "adversarial-list",
                          seed=seed, pairs=pairs, **kwargs)


class TestQuantumSmp:
    def test_equal_inputs_never_rejected(self):
        rep = run_pairs("quantum", hadamard_code(4), 300, [("1010", "1010")],
                        k=5)
        assert rep.trials_equal == 300
        assert rep.empirical_error_equal == 0.0

    def test_costs(self):
        rep = run_pairs("quantum", hadamard_code(8), 1, [("1" * 8, "0" * 8)],
                        k=5)
        assert rep.message_cost == {"alice": 45, "bob": 45}

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            run_pairs("quantum", hadamard_code(2), 1, [("01", "10")], k=0)

    @pytest.mark.parametrize("m", [12, 256])
    def test_engine_float_is_exact_formula_rounded(self, m):
        # the engine's per-repetition float is pinned to the exact closed form
        agree = np.arange(m + 1, dtype=np.float64)
        expected = [float(1 - p_eq_closed_form(1, Fraction(a, m)))
                    for a in range(m + 1)]
        assert _swap_p_one(agree, float(m)).tolist() == expected

    @pytest.mark.parametrize("m", [2**40, 2**63])
    def test_engine_float_exact_past_the_fingerprint_guard(self, m):
        # hadamard agreements m/2 and m, and agreements a whose m - a and
        # m + a are exact floats, so only the product rounds
        agree = pinned_agreements(m)
        expected = [float(1 - p_eq_closed_form(1, Fraction(a, m)))
                    for a in agree]
        # each agreement here is an exact float, as the engine converts them
        got = _swap_p_one(np.array(agree, dtype=np.float64), float(m)).tolist()
        assert got == expected

    def test_accept_probability_exact_rational(self):
        code = hadamard_code(4)
        assert quantum_accept_probability(code, "0101", "0110") == Fraction(5, 8)
        assert quantum_accept_probability(code, "0101", "0101") == 1

    @pytest.mark.parametrize("code_factory", [
        lambda: hadamard_code(4),
        lambda: random_linear_code(4, 3, seed=19),
    ], ids=["hadamard4", "random-linear4"])
    def test_accept_probability_matches_fingerprints_exhaustively(
        self, code_factory
    ):
        # per-repetition accept = (1 + overlap^2)/2 with the overlap taken
        # from the actual fingerprint states
        code = code_factory()
        prints = {x: make_fingerprint(code, x) for x in all_messages(4)}
        for x, y in itertools.product(all_messages(4), repeat=2):
            gamma = fingerprint_overlap(prints[x], prints[y])
            numeric = inner_product(prints[x].state, prints[y].state)
            assert abs(numeric - float(gamma)) < 1e-12
            assert quantum_accept_probability(code, x, y) \
                == (1 + gamma * gamma) / 2


class TestSharedKey:
    def test_equal_inputs_never_rejected(self):
        rep = run_pairs("shared-key", hadamard_code(4), 300, [("0110", "0110")],
                        r=3)
        assert rep.trials_equal == 300
        assert rep.empirical_error_equal == 0.0

    def test_costs_exclude_key(self):
        rep = run_pairs("shared-key", hadamard_code(8), 1, [("1" * 8, "0" * 8)],
                        seed=1, r=10)
        assert rep.message_cost == {"alice": 10, "bob": 10}

    def test_r_zero_rejected(self):
        with pytest.raises(ConfigError):
            run_pairs("shared-key", hadamard_code(2), 1, [("01", "10")], r=0)

    def test_single_index_error_rate_below_delta(self):
        code = hadamard_code(5)
        delta = float(certify_distance(code).max_agreement)
        rep = run_pairs("shared-key", code, 4000, [("10101", "10100")], r=1)
        assert rep.trials_unequal == 4000
        assert rep.empirical_error_unequal \
            <= delta + 3 * math.sqrt(delta * (1 - delta) / 4000)


class TestMixture:
    def test_equal_rate_is_collision_rate(self):
        code = hadamard_code(4)  # m = 16
        rep = run_pairs("mixture", code, 20000, [("0101", "0101")])
        p = 1 / 16
        assert abs((1 - rep.empirical_error_equal) - p) \
            <= 3 * math.sqrt(p * (1 - p) / 20000)

    def test_unequal_rate_is_collision_times_agreement(self):
        code = hadamard_code(4)
        rep = run_pairs("mixture", code, 20000, [("0101", "1010")])
        p = (1 / 16) * 0.5
        assert abs(rep.empirical_error_unequal - p) \
            <= 3 * math.sqrt(p * (1 - p) / 20000)

    def test_degenerate_single_position_code(self):
        # m = 1 forces the collision, reducing to the r = 1 shared-key rule
        code = declared_code(1, 1, encoder=lambda x: x, delta=Fraction(0))
        rep = run_pairs("mixture", code, 2, [("1", "1"), ("1", "0")])
        assert rep.empirical_error_equal == 0.0
        assert rep.empirical_error_unequal == 0.0

    def test_costs(self):
        rep = run_pairs("mixture", hadamard_code(8), 1, [("1" * 8, "0" * 8)])
        assert rep.message_cost == {"alice": 9, "bob": 9}


class TestMessageCosts:
    def test_reference_cost_table(self):
        costs = message_costs(hadamard_code(8), k=5, r=10)
        assert costs["quantum_qubits"] == 45
        assert costs["trivial_bits"] == 8
        assert costs["shared_key_message_bits"] == 10
        assert costs["shared_key_key_bits"] == 80
        assert costs["mixture_bits"] == 9


class TestRunExperiment:
    def test_forced_equal_one_sided_protocols(self):
        code = hadamard_code(4)
        for proto, kw in (("quantum", {"k": 3}), ("shared-key", {"r": 4})):
            rep = run_experiment(proto, code, 2000, "forced-equal", seed=5, **kw)
            assert rep.empirical_error_equal == 0.0
            assert rep.trials_equal == 2000

    def test_quantum_theory_bound_exact(self):
        rep = run_experiment("quantum", hadamard_code(8), 100, "forced-unequal",
                             seed=2, k=5)
        assert rep.theory_error_bound == (5 / 8) ** 5

    def test_forced_unequal_concentrates_on_theory(self):
        code = hadamard_code(6)
        trials = 20000
        rep = run_experiment("quantum", code, trials, "forced-unequal",
                             seed=42, k=4)
        p = (5 / 8) ** 4
        assert abs(rep.empirical_error_unequal - p) \
            <= 3 * math.sqrt(p * (1 - p) / trials)

    def test_shared_key_theory_bound(self):
        rep = run_experiment("shared-key", hadamard_code(8), 100,
                             "forced-unequal", seed=2, r=10)
        assert rep.theory_error_bound == 2.0**-10

    def test_only_a_protocol_with_a_theory_bound_certifies(self):
        # random-linear n = 26 is past the certification guard; mixture, with
        # no repetition count and so no bound, runs on it all the same
        code = random_linear_code(26, 2, seed=0)
        rep = run_experiment("mixture", code, 10, "random-pairs", seed=0)
        assert rep.theory_error_bound is None
        with pytest.raises(CapabilityError, match="CERTIFY_MAX_WORDS"):
            run_experiment("shared-key", code, 10, "random-pairs", seed=0, r=1)

    def test_adversarial_list_cycles(self):
        code = hadamard_code(4)
        pairs = [("0000", "0001"), ("1111", "1111")]
        rep = run_experiment("shared-key", code, 1000, "adversarial-list",
                             seed=3, r=2, pairs=pairs)
        assert rep.trials_equal == 500
        assert rep.trials_unequal == 500
        assert rep.empirical_error_equal == 0.0

    @pytest.mark.parametrize("extra", [1, 3])
    def test_block_boundary(self, extra):
        # the trials span two generators; the list cycles by trial index
        # across the boundary instead of restarting with the second block
        pairs = [("0000", "0001"), ("1111", "1111"), ("0101", "0101")]
        trials = BLOCK + extra
        reports = [run_pairs("quantum", hadamard_code(4), trials, pairs,
                             seed=8, k=2) for _ in range(2)]
        unequal = len(range(0, trials, 3))
        assert reports[0].trials_unequal == unequal
        assert reports[0].trials_equal == trials - unequal
        assert reports[0].empirical_error_equal == 0.0
        assert _canonical_json(reports[0].to_json()) \
            == _canonical_json(reports[1].to_json())

    def test_deterministic_reports_byte_identical(self):
        kwargs = dict(trials=500, pair_source="random-pairs", seed=99, k=2)
        a = run_experiment("quantum", hadamard_code(5), **kwargs)
        b = run_experiment("quantum", hadamard_code(5), **kwargs)
        assert _canonical_json(a.to_json()) == _canonical_json(b.to_json())

    def test_three_sigma_coverage_over_many_runs(self):
        # binomial sanity: at least 99 of 100 seeded runs land within 3 sigma
        code = hadamard_code(6)
        k, trials = 3, 500
        p = (5 / 8) ** k
        radius = 3 * math.sqrt(p * (1 - p) / trials)
        misses = 0
        for run in range(100):
            rep = run_experiment("quantum", code, trials, "forced-unequal",
                                 seed=1000 + run, k=k)
            if abs(rep.empirical_error_unequal - p) > radius:
                misses += 1
        assert misses <= 1

    def test_quantum_fingerprint_guard_fails_fast(self):
        # m = 2^21 is above the fingerprint guard, which make_fingerprint
        # checks before it builds any amplitude; the engine needs none
        start = time.perf_counter()
        with pytest.raises(CapabilityError,
                           match="guard MAX_FINGERPRINT_M = 1048576"):
            make_fingerprint(hadamard_code(21), "0" * 21)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("protocol_id,params", [
        ("quantum", {"k": 1}), ("shared-key", {"r": 2})])
    def test_certification_guard_fires_before_any_trial(
            self, monkeypatch, protocol_id, params):
        # 2^25 messages of two 64-bit words exceed the certification guard
        code = random_linear_code(25, 3, seed=0)

        def no_trials(*args):
            raise AssertionError("a trial block ran before the guard")

        monkeypatch.setattr(protocols, "_block_accepts", no_trials)
        with pytest.raises(CapabilityError, match="guard"):
            run_experiment(protocol_id, code, 10**6, "random-pairs", seed=0,
                           **params)

    @pytest.mark.parametrize("protocol_id,name", [
        ("quantum", "k"), ("shared-key", "r")])
    def test_repetition_guard(self, monkeypatch, protocol_id, name):
        # the guard admits exactly MAX_REPETITIONS at any trial count
        code, limit = hadamard_code(4), GUARDS["MAX_REPETITIONS"]
        for trials in (2, 10**6):
            rep = run_experiment(protocol_id, code, trials, "random-pairs",
                                 seed=0, **{name: limit})
            assert rep.params == {name: limit}
            assert rep.trials_equal + rep.trials_unequal == trials

        def no_trials(*args):
            raise AssertionError("a trial block ran before the guard")

        monkeypatch.setattr(protocols, "_block_accepts", no_trials)
        count = limit + 1
        for trials in (2, 10**6):
            with pytest.raises(CapabilityError, match=re.escape(
                    f"{name} (--{name}) = {count} is above the guard "
                    f"MAX_REPETITIONS = 4194304")):
                run_experiment(protocol_id, code, trials, "random-pairs",
                               seed=0, **{name: count})

    def test_trial_guard_fires_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial block ran before the guard")

        monkeypatch.setattr(protocols, "_block_accepts", no_trials)
        limit = GUARDS["MAX_TRIALS"]
        with pytest.raises(CapabilityError, match=re.escape(
                f"trials (--trials) = {limit + 1} is above the guard "
                f"MAX_TRIALS = {limit}")):
            run_experiment("mixture", hadamard_code(4), limit + 1,
                           "random-pairs", seed=0)
        assert limit >= 10**6  # the largest count in use

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("telepathy", hadamard_code(4), 10, "random-pairs",
                           seed=0)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("quantum", hadamard_code(4), 10, "random-pairs",
                           seed=0)
        with pytest.raises(ConfigError):
            run_experiment("shared-key", hadamard_code(4), 10, "random-pairs",
                           seed=0)
        with pytest.raises(ConfigError):
            run_experiment("quantum", hadamard_code(4), 10, "adversarial-list",
                           seed=0, k=1)

    @pytest.mark.parametrize("protocol_id,pair_source,own,unread,flag", [
        ("shared-key", "random-pairs", {"r": 2}, {"k": 3}, "--k"),
        ("quantum", "random-pairs", {"k": 2}, {"r": 3}, "--r"),
        ("mixture", "random-pairs", {}, {"k": 3}, "--k"),
        ("mixture", "random-pairs", {}, {"r": 3}, "--r"),
        ("quantum", "random-pairs", {"k": 2}, {"pairs": [("0000", "1111")]},
         "--pair"),
        ("shared-key", "forced-equal", {"r": 2}, {"pairs": [("0000", "1111")]},
         "--pair"),
        ("mixture", "forced-unequal", {}, {"pairs": [("0000", "1111")]},
         "--pair"),
    ], ids=["shared-key-k", "quantum-r", "mixture-k", "mixture-r",
            "random-pairs-pairs", "forced-equal-pairs", "forced-unequal-pairs"])
    def test_unread_input_rejected(self, protocol_id, pair_source, own, unread,
                                   flag):
        # the message names the keyword and its flag; without the unread
        # input the run goes through and echoes only the protocol's count
        (keyword,) = unread
        with pytest.raises(ConfigError, match=re.escape(f"{keyword} ({flag})")):
            run_experiment(protocol_id, hadamard_code(4), 10, pair_source,
                           seed=0, **own, **unread)
        rep = run_experiment(protocol_id, hadamard_code(4), 10, pair_source,
                             seed=0, **own)
        assert rep.params == own

    def test_csv_row_matches_columns(self):
        rep = run_experiment("mixture", hadamard_code(4), 50, "forced-equal",
                             seed=7)
        header, row = (line.split(",") for line in rep.to_csv().splitlines())
        assert len(row) == len(header)

    def test_per_pair_wrong_accept_exact_exhaustively(self):
        # wrong-accept per repetition is exactly (1 + agreement^2)/2 and
        # within the certified worst case, checked in rational arithmetic
        for code in (hadamard_code(6), random_linear_code(6, 3, seed=23)):
            delta = certify_distance(code).max_agreement
            worst = (1 + delta * delta) / 2
            for x, y in itertools.combinations(all_messages(6)[:16], 2):
                g = agreement_fraction(code, x, y)
                accept = quantum_accept_probability(code, x, y)
                assert accept == (1 + g * g) / 2
                assert accept <= worst


class TestMessageWords:
    @pytest.mark.parametrize("n", [5, 63, 64, 65, 70])
    def test_draws_set_every_bit_below_n_and_none_above(self, n):
        rng = np.random.default_rng(n)
        for source in ("random-pairs", "forced-unequal"):
            x, y = _sample_pairs(rng, source, n, 4096, 0, None)
            assert x.shape == y.shape == (4096, -(-n // 64))
            assert x.dtype == y.dtype == np.uint64
            seen = np.bitwise_or.reduce(np.concatenate([x, y]), axis=0)
            assert int.from_bytes(seen.astype("<u8").tobytes(), "little") \
                == 2**n - 1

    def test_two_word_messages_run_end_to_end(self):
        # n = 70 takes two words per message, and the declared bound skips
        # the 2^70 certificate.  Each position reads one message bit, which
        # differs with probability 2^69/(2^70 - 1) on a uniform unequal pair,
        # so a bit lost from either word moves the rate off 1/2.
        eye = np.eye(70, dtype=np.uint8)
        code = declared_code(70, 140, generator=np.vstack([eye, eye]),
                             delta=Fraction(69, 70))
        trials = 20000
        rep = run_experiment("shared-key", code, trials, "forced-unequal",
                             seed=3, r=1)
        assert rep.trials_unequal == trials
        p = 0.5
        assert abs(rep.empirical_error_unequal - p) \
            <= 5 * math.sqrt(p * (1 - p) / trials)

    def test_stream_follows_the_documented_draw_order(self):
        # README "smp-run streams", rebuilt with Python ints: block b draws
        # from default_rng(SeedSequence((seed, b))) the x words, the y words,
        # the forced-unequal redraws and then one uniform per trial, which
        # says equal below (a/m)^r, with the agreement a counted by parity
        # at every position
        n, r, trials, seed = 6, 4, 5000, 5
        m, mask = 2**n, np.uint64(2**n - 1)
        wrong = 0
        for block, t0 in enumerate(range(0, trials, 4096)):
            size = min(4096, trials - t0)
            rng = np.random.default_rng(np.random.SeedSequence((seed, block)))

            def draw(rows):
                return rng.integers(0, 2**64, (rows, 1), dtype=np.uint64)[:, 0] & mask

            x, y = draw(size), draw(size)
            while (same := x == y).any():
                y[same] = draw(int(same.sum()))
            uniforms = rng.random(size)
            for xv, yv, u in zip(x.tolist(), y.tolist(), uniforms.tolist()):
                agree = sum(bin(i & xv).count("1") % 2 == bin(i & yv).count("1") % 2
                            for i in range(m))
                wrong += u < (agree / m) ** r
        rep = run_experiment("shared-key", hadamard_code(n), trials,
                             "forced-unequal", seed=seed, r=r)
        assert BLOCK == 4096
        assert rep.empirical_error_unequal == wrong / trials


K, R = 3, 3


def own_count(protocol_id):
    """The one repetition count each protocol reads, as keyword arguments."""
    return {"quantum": {"k": K}, "shared-key": {"r": R}}.get(protocol_id, {})


def unequal_weights(code):
    """Distribution of the codeword weight of x XOR y, uniform over nonzero."""
    if code.kind == "hadamard":
        return {code.m // 2: Fraction(1)}
    counts = _weight_distribution(code)
    return {w: Fraction(int(a), 2**code.n - 1)
            for w, a in enumerate(counts) if w and a}


def pair_error(protocol_id, gamma, m):
    """Exact wrong-accept probability of one unequal pair with overlap gamma."""
    if protocol_id == "quantum":
        return ((1 + gamma * gamma) / 2) ** K
    if protocol_id == "shared-key":
        return gamma**R
    return gamma / m


def pinned_agreements(m):
    """Every agreement for small m; else hadamard's, ones whose m - a and
    m + a are exact floats, and below 2^53 a seeded sample."""
    if m <= 2**12:
        return list(range(m + 1))
    agree = [0, 1, m // 4, m // 2 - 2**30, m // 2, m // 2 + 2**30, m]
    if m < 2**53:
        agree += [int(a) for a in np.random.default_rng(40).integers(0, m + 1, 200)]
    return agree


def z_score(rate, exact, count):
    return (rate - float(exact)) / math.sqrt(float(exact * (1 - exact)) / count)


EXACT_CODES = {"hadamard8": hadamard_code(8),
               "random-linear12": random_linear_code(12, 3, 5)}


class TestExactExpectedError:
    # under both sources x XOR y is uniform over the nonzero messages, so a
    # linear code's weight w follows A_w/(2^n - 1) and the overlap is 1 - w/m

    @pytest.mark.parametrize("m", [12, 256, 2**40, 2**63])
    @pytest.mark.parametrize("protocol_id", list(protocols.PROTOCOLS))
    def test_engine_law_is_the_exact_law(self, protocol_id, m):
        # the engine's one law: exact at Fraction agreements, and within a few
        # ulps in float64, where only the per-repetition swap float is pinned
        # to the correctly rounded value
        agree = pinned_agreements(m)
        count = {"quantum": K, "shared-key": R}.get(protocol_id)
        exact = [pair_error(protocol_id, Fraction(a, m), m) for a in agree]
        assert [accept_probability(protocol_id, Fraction(a), m, count)
                for a in agree] == exact
        got = accept_probability(protocol_id, np.array(agree, dtype=np.float64),
                                 float(m), count)
        assert got.tolist() == pytest.approx([float(e) for e in exact],
                                             rel=2**-49, abs=0)

    @pytest.mark.parametrize("pair_source", ["forced-unequal", "random-pairs"])
    @pytest.mark.parametrize("protocol_id", list(protocols.PROTOCOLS))
    @pytest.mark.parametrize("name", list(EXACT_CODES))
    def test_unequal_rate_within_five_sigma(self, name, protocol_id,
                                            pair_source):
        code = EXACT_CODES[name]
        exact = sum(share * pair_error(protocol_id, 1 - Fraction(w, code.m),
                                       code.m)
                    for w, share in unequal_weights(code).items())
        rep = run_experiment(protocol_id, code, 20000, pair_source, seed=11,
                             **own_count(protocol_id))
        assert abs(z_score(rep.empirical_error_unequal, exact,
                           rep.trials_unequal)) <= 5

    @pytest.mark.parametrize("protocol_id", list(protocols.PROTOCOLS))
    @pytest.mark.parametrize("name", list(EXACT_CODES))
    def test_adversarial_list_rate_within_five_sigma(self, name, protocol_id):
        # trials cycle through the list, so each of its 8 unequal pairs takes
        # 2000 of the 16 000 unequal trials and the exact rate is their mean
        code = EXACT_CODES[name]
        rng = np.random.default_rng(17)
        pairs = []
        while len(pairs) < 8:
            x, y = ("".join(map(str, rng.integers(0, 2, code.n))) for _ in "xy")
            if x != y:
                pairs.append((x, y))
        exact = sum(pair_error(protocol_id, agreement_fraction(code, x, y),
                               code.m) for x, y in pairs) / len(pairs)
        rep = run_experiment(protocol_id, code, 18000, "adversarial-list",
                             seed=11, pairs=pairs + [(pairs[0][0],) * 2],
                             **own_count(protocol_id))
        assert rep.trials_unequal == 16000
        assert abs(z_score(rep.empirical_error_unequal, exact,
                           rep.trials_unequal)) <= 5

    @pytest.mark.parametrize("name", list(EXACT_CODES))
    def test_mixture_equal_rate_within_five_sigma(self, name):
        code = EXACT_CODES[name]
        rep = run_experiment("mixture", code, 20000, "forced-equal", seed=11)
        exact = 1 - Fraction(1, code.m)
        assert abs(z_score(rep.empirical_error_equal, exact,
                           rep.trials_equal)) <= 5


def exact_float_power(p, reps):
    """float(p ** reps) for 0 <= p <= 1, the power taken exactly.

    Past 2^14 reps, a power at 2^14 that already rounds to 0.0 stands in
    for it: higher powers are no larger, and rounding is monotone.
    """
    if reps > 1 << 14 and float(p ** (1 << 14)) == 0.0:
        return 0.0
    return float(p**reps)


THEORY_CODES = {
    "hadamard2": lambda: hadamard_code(2),
    "hadamard4": lambda: hadamard_code(4),
    "hadamard5": lambda: hadamard_code(5),
    "hadamard6": lambda: hadamard_code(6),
    "hadamard8": lambda: hadamard_code(8),
    "random-linear4": lambda: random_linear_code(4, 3, seed=19),
    "random-linear12": lambda: random_linear_code(12, 3, seed=0),
    "declared1": lambda: declared_code(1, 1, encoder=lambda x: x,
                                       delta=Fraction(0)),
    "declared-near-one": lambda: declared_code(4, 16, encoder=lambda x: x * 4,
                                               delta=Fraction(15, 16)),
}


class TestTheoryBound:
    @pytest.mark.parametrize("protocol_id", ["quantum", "shared-key"])
    @pytest.mark.parametrize("factory", THEORY_CODES.values(), ids=THEORY_CODES)
    def test_equals_the_float_of_the_exact_power(self, protocol_id, factory):
        code = factory()
        agree = certify_distance(code).max_agreement * code.m
        p = accept_probability(protocol_id, agree, code.m, 1)
        reps = [1, 7, 13, 999] + [1 << e for e in range(10, 23)]
        if 0 < p < 1:
            # the last subnormal power, and one far below it
            for log2_floor in (-1074, -1100):
                edge = math.floor(log2_floor / math.log2(p))
                reps += range(edge - 2, edge + 3)
        for r in reps:
            assert protocols._theory_bound(protocol_id, code, r) == \
                exact_float_power(p, r), r

    @settings(max_examples=200)
    @given(p=st.fractions(0, 1, max_denominator=2**70), e=st.integers(1, 2**12))
    def test_bracketed_power_is_the_float_of_the_exact_power(self, p, e):
        assert protocols._power_float(p, e) == float(p**e)

    @pytest.mark.parametrize("p,e", [
        (Fraction(2**53 + 1, 2**54), 1),  # a tie between two floats
        # just past that tie: 128-bit brackets straddle it, 256 bits do not
        (Fraction(2**53 + 1, 2**54) + Fraction(1, 3 * 2**200), 1),
        (Fraction(2**53 + 1, 2**53), 3),
        (Fraction(1, 2), 1074),  # the least subnormal
        (Fraction(1, 2), 1075),  # half of it: a tie, rounded to 0.0
        (Fraction(3, 4), 2589),
        (Fraction(0), 5),
        (Fraction(1), 2**22),
        (Fraction(2**64 - 1, 2**64), 2**12),
    ])
    def test_bracketed_power_near_ties_and_subnormals(self, p, e):
        assert protocols._power_float(p, e) == float(p**e)

    @pytest.mark.parametrize("protocol_id", ["quantum", "shared-key"])
    def test_power_near_one_over_a_large_denominator_is_fast(self, protocol_id):
        # agreement 1 - 2^-20 of m = 2^20: the exact power at 2^22 has about
        # 2^27 bits and did not finish in 60 s
        code = declared_code(20, 2**20, encoder=lambda x: "1" * 2**20,
                             delta=1 - Fraction(1, 2**20))
        agree = certify_distance(code).max_agreement * code.m
        p = accept_probability(protocol_id, agree, code.m, 1)
        assert protocols._theory_bound(protocol_id, code, 2**10) == \
            float(p ** 2**10)
        start = time.perf_counter()
        bound = protocols._theory_bound(protocol_id, code, 2**22)
        assert time.perf_counter() - start < 0.1
        assert bound == pytest.approx(
            math.exp(2**22 * math.log1p(float(p - 1))), rel=1e-12)
