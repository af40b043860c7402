"""Three-party simultaneous-message-passing equality protocols.

Alice and Bob hold n-bit inputs x and y and each send one message to a
referee, who outputs "equal" or "unequal":

* quantum     — both send code fingerprints; the referee repeats the
                controlled-swap test k times and says unequal on any hit.
* shared-key  — both send the codeword bits at r shared random positions.
* mixture     — both send one (position, bit) pair at independent random
                positions: the classical-mixture failure mode, where the
                informative collision happens with probability 1/m.

A seeded experiment runner aggregates per-trial verdicts into reports with
exact theory values alongside.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .codes import (
    BinaryCode,
    _check_bits,
    _codeword_bits,
    agreement_fraction,
    certify_distance,
)
from .errors import ConfigError
from .qstate import _check_fingerprint_length, qubits_required

PROTOCOLS = ("quantum", "shared-key", "mixture")
PAIR_SOURCES = ("random-pairs", "forced-equal", "forced-unequal", "adversarial-list")

EQUAL = "equal"
UNEQUAL = "unequal"


@dataclass(frozen=True)
class ProtocolVerdict:
    """One protocol run: referee verdict, ground truth, per-party message cost.

    Costs are qubits for the quantum protocol and bits otherwise; shared-key
    costs exclude the key, which is accounted separately in message_costs.
    """

    verdict: str
    truth: str
    cost_alice: int
    cost_bob: int


def quantum_accept_probability(code: BinaryCode, x: str, y: str) -> Fraction:
    """Exact per-repetition accept probability (1 + <h_x|h_y>^2) / 2."""
    g = agreement_fraction(code, x, y)
    return (1 + g * g) / 2


def run_quantum_smp(
    code: BinaryCode, x: str, y: str, k: int, seed
) -> ProtocolVerdict:
    """Run k independent swap tests on the fingerprints of both inputs.

    The verdict is unequal as soon as any repetition measures 1.  Outcome
    draws use the exact rational overlap of the two fingerprints (the
    codeword agreement fraction), so no fingerprint state is built, and
    equal inputs are accepted with probability exactly 1 (one-sided error).
    """
    if k < 1:
        raise ConfigError(f"quantum protocol needs k >= 1 repetitions, got {k}")
    _check_bits(x, code.n, "x")
    _check_bits(y, code.n, "y")
    _check_fingerprint_length(code)
    p_one = float(1 - quantum_accept_probability(code, x, y))
    rng = np.random.default_rng(seed)
    saw_one = bool(np.any(rng.random(k) < p_one))
    cost = k * qubits_required(code)
    return ProtocolVerdict(
        verdict=UNEQUAL if saw_one else EQUAL,
        truth=EQUAL if x == y else UNEQUAL,
        cost_alice=cost,
        cost_bob=cost,
    )


def run_classical_shared_key(
    code: BinaryCode, x: str, y: str, r: int, seed
) -> ProtocolVerdict:
    """Compare codeword bits at r shared uniformly random positions.

    The key (the positions) is drawn fresh per run and never reported; the
    message cost is the r bits each party sends.
    """
    if r < 1:
        raise ConfigError(f"shared-key protocol needs r >= 1 indices, got {r}")
    _check_bits(x, code.n, "x")
    _check_bits(y, code.n, "y")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, code.m, size=r)
    match = bool(np.array_equal(_codeword_bits(code, x, idx),
                                _codeword_bits(code, y, idx)))
    return ProtocolVerdict(
        verdict=EQUAL if match else UNEQUAL,
        truth=EQUAL if x == y else UNEQUAL,
        cost_alice=r,
        cost_bob=r,
    )


def run_classical_mixture(
    code: BinaryCode, x: str, y: str, seed
) -> ProtocolVerdict:
    """Send (i, E_i(x)) and (j, E_j(y)) at independent uniform positions.

    The referee can only confirm equality on a position collision, so it
    answers equal iff i = j and the bits match.  This is the no-inference
    referee: with independent randomness the informative event i = j has
    probability exactly 1/m, which is the failure mode on display.
    """
    _check_bits(x, code.n, "x")
    _check_bits(y, code.n, "y")
    rng = np.random.default_rng(seed)
    i = int(rng.integers(code.m))
    j = int(rng.integers(code.m))
    match = i == j and np.array_equal(_codeword_bits(code, x, [i]),
                                      _codeword_bits(code, y, [j]))
    cost = (code.m - 1).bit_length() + 1
    return ProtocolVerdict(
        verdict=EQUAL if match else UNEQUAL,
        truth=EQUAL if x == y else UNEQUAL,
        cost_alice=cost,
        cost_bob=cost,
    )


def message_costs(code: BinaryCode, k: int = 1, r: int = 1) -> dict:
    """Side-by-side per-party cost summary across all protocols."""
    idx_bits = (code.m - 1).bit_length()
    return {
        "trivial_bits": code.n,
        "shared_key_message_bits": r,
        "shared_key_key_bits": r * idx_bits,
        "quantum_qubits": k * qubits_required(code),
        "mixture_bits": idx_bits + 1,
    }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated seeded Monte Carlo verdicts with theory values alongside."""

    protocol_id: str
    code: dict
    n: int
    trials: int
    seed: int
    pair_source: str
    params: dict
    trials_equal: int
    trials_unequal: int
    empirical_error_equal: float | None
    empirical_error_unequal: float | None
    theory_error_bound: float | None
    confidence_radius: float | None
    message_cost: dict

    def to_json(self) -> dict:
        return asdict(self)

    def json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    CSV_COLUMNS = (
        "protocol_id", "code_kind", "n", "m", "k", "r", "pair_source",
        "trials", "trials_equal", "trials_unequal",
        "empirical_error_equal", "empirical_error_unequal",
        "theory_error_bound", "confidence_radius",
        "cost_alice", "cost_bob", "seed",
    )

    def csv_row(self) -> str:
        cost = self.message_cost
        values = [
            self.protocol_id, self.code["kind"], self.n, self.code["m"],
            self.params.get("k", ""), self.params.get("r", ""),
            self.pair_source, self.trials, self.trials_equal,
            self.trials_unequal, self.empirical_error_equal,
            self.empirical_error_unequal, self.theory_error_bound,
            self.confidence_radius, cost.get("alice"), cost.get("bob"),
            self.seed,
        ]
        return ",".join("" if v is None else repr(v) if isinstance(v, float)
                        else str(v) for v in values)


def _sample_bits(rng: np.random.Generator, n: int) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


def _theory_bound(protocol_id: str, code: BinaryCode,
                  k: int | None, r: int | None) -> float | None:
    if protocol_id == "mixture":
        return None
    delta = certify_distance(code).max_agreement
    if protocol_id == "quantum":
        return float(((1 + delta * delta) / 2) ** k)
    return float(delta**r)


def run_experiment(
    protocol_id: str,
    code: BinaryCode,
    trials: int,
    pair_source: str,
    seed: int,
    k: int | None = None,
    r: int | None = None,
    pairs: list[tuple[str, str]] | None = None,
) -> ExperimentReport:
    """Run ``trials`` seeded protocol executions and aggregate error rates.

    Every trial gets its own generator derived from (seed, trial index), so
    reports are reproducible and trials could run in any order.  The
    adversarial-list source cycles deterministically through the supplied
    pairs; the other sources draw inputs from the trial generator.
    """
    if protocol_id not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol_id!r}; expected {PROTOCOLS}")
    if pair_source not in PAIR_SOURCES:
        raise ConfigError(
            f"unknown pair source {pair_source!r}; expected {PAIR_SOURCES}"
        )
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if protocol_id == "quantum":
        if k is None or k < 1:
            raise ConfigError("quantum protocol needs k >= 1 repetitions")
    elif protocol_id == "shared-key":
        if r is None or r < 1:
            raise ConfigError("shared-key protocol needs r >= 1 indices")
    if pair_source == "adversarial-list":
        if not pairs:
            raise ConfigError("adversarial-list pair source needs explicit pairs")
        for px, py in pairs:
            _check_bits(px, code.n, "x")
            _check_bits(py, code.n, "y")

    n = code.n
    counts = {EQUAL: 0, UNEQUAL: 0}
    wrong = {EQUAL: 0, UNEQUAL: 0}
    cost_alice = cost_bob = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        if pair_source == "adversarial-list":
            x, y = pairs[t % len(pairs)]
        elif pair_source == "forced-equal":
            x = _sample_bits(rng, n)
            y = x
        elif pair_source == "forced-unequal":
            x = _sample_bits(rng, n)
            y = x
            while y == x:
                y = _sample_bits(rng, n)
        else:
            x = _sample_bits(rng, n)
            y = _sample_bits(rng, n)
        if protocol_id == "quantum":
            v = run_quantum_smp(code, x, y, k, rng)
        elif protocol_id == "shared-key":
            v = run_classical_shared_key(code, x, y, r, rng)
        else:
            v = run_classical_mixture(code, x, y, rng)
        counts[v.truth] += 1
        if v.verdict != v.truth:
            wrong[v.truth] += 1
        cost_alice, cost_bob = v.cost_alice, v.cost_bob

    err_eq = wrong[EQUAL] / counts[EQUAL] if counts[EQUAL] else None
    err_ne = wrong[UNEQUAL] / counts[UNEQUAL] if counts[UNEQUAL] else None
    if counts[UNEQUAL]:
        radius = 3.0 * sqrt(err_ne * (1.0 - err_ne) / counts[UNEQUAL])
    elif counts[EQUAL]:
        radius = 3.0 * sqrt(err_eq * (1.0 - err_eq) / counts[EQUAL])
    else:
        radius = None

    params: dict = {}
    if k is not None:
        params["k"] = k
    if r is not None:
        params["r"] = r
    return ExperimentReport(
        protocol_id=protocol_id,
        code=code.to_json(),
        n=n,
        trials=trials,
        seed=seed,
        pair_source=pair_source,
        params=params,
        trials_equal=counts[EQUAL],
        trials_unequal=counts[UNEQUAL],
        empirical_error_equal=err_eq,
        empirical_error_unequal=err_ne,
        theory_error_bound=_theory_bound(protocol_id, code, k, r),
        confidence_radius=radius,
        message_cost={"alice": cost_alice, "bob": cost_bob},
    )
